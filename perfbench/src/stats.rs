//! Order statistics and per-run deltas of the server's own counters.

use rf_bench::exposition::{stage_summaries, MetricsSnapshot, StageSummary};

/// The value at quantile `q` of ascending `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q · n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// A tail latency: the percentile chosen, its value, and how many samples
/// lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
    pub beyond: usize,
}

/// The highest of p90, p75 and p50 that leaves at least ten samples beyond
/// it, so the reported tail is an observed pattern rather than a single
/// outlier.  Below twenty samples the median is reported and `beyond` says
/// how thin it is.  p99 is not a candidate: on a shared two-core host the
/// p99 of cached labels moved several-fold whenever other tenants loaded
/// the machine, far past any bound a change could be held to.
pub fn tail(sorted: &[f64]) -> Tail {
    let at = |percentile: u32| {
        let q = f64::from(percentile) / 100.0;
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
        Tail {
            percentile,
            value: quantile(sorted, q),
            beyond: sorted.len().saturating_sub(rank),
        }
    };
    [90, 75]
        .into_iter()
        .map(at)
        .find(|tail| tail.beyond >= 10)
        .unwrap_or_else(|| at(50))
}

/// Splits a run's `(seconds from start, value)` samples into `count` equal
/// windows of the first `seconds`, each window's values sorted ascending.
/// Samples past the end belong to no window.
fn windows(samples: impl Iterator<Item = (f64, f64)>, seconds: f64, count: usize) -> Vec<Vec<f64>> {
    let mut windows = vec![Vec::new(); count];
    for (at, value) in samples {
        let index = (at / seconds * count as f64).floor();
        if (0.0..count as f64).contains(&index) {
            windows[index as usize].push(value);
        }
    }
    for window in &mut windows {
        window.sort_by(f64::total_cmp);
    }
    windows
}

/// [`windows`], when every window holds at least `min` samples; otherwise
/// one window holding the whole run, since a statistic of a few samples
/// per window is noisier than the bursts windows guard against.
pub fn windows_of_at_least(
    samples: &[(f64, f64)],
    seconds: f64,
    count: usize,
    min: usize,
) -> Vec<Vec<f64>> {
    let split = windows(samples.iter().copied(), seconds, count);
    if split.iter().all(|window| window.len() >= min) {
        return split;
    }
    let mut whole: Vec<f64> = samples.iter().map(|(_, value)| *value).collect();
    whole.sort_by(f64::total_cmp);
    vec![whole]
}

/// The median over non-empty windows of a per-window statistic.
pub fn median_over(windows: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let values: Vec<f64> = windows
        .iter()
        .filter(|window| !window.is_empty())
        .map(|window| stat(window))
        .collect();
    median(&values)
}

/// Completions per second within one window of ascending completion
/// times: the gaps between its first and last completion, per second.
pub fn rate(times: &[f64]) -> f64 {
    match (times.first(), times.last()) {
        (Some(first), Some(last)) if last > first => (times.len() - 1) as f64 / (last - first),
        _ => 0.0,
    }
}

/// Whether a `/metrics` series only ever grows between scrapes of one
/// server (counters and histogram samples).
fn is_cumulative(series: &str) -> bool {
    let name = series.split('{').next().unwrap_or(series);
    ["_total", "_sum", "_count", "_bucket"]
        .iter()
        .any(|suffix| name.ends_with(suffix))
}

/// What the server recorded between two scrapes: every cumulative series
/// as `after − before`, gauges as their `after` value.  A series that is
/// absent from `before` started at zero.
pub fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    let samples = after
        .samples
        .iter()
        .map(|(series, &value)| {
            let earlier = if is_cumulative(series) {
                before.samples.get(series).copied().unwrap_or(0.0)
            } else {
                0.0
            };
            (series.clone(), value - earlier)
        })
        .collect();
    MetricsSnapshot { samples }
}

/// The deltas of several runs on one server as one: cumulative series add
/// up, gauges keep their last value.
pub fn sum(deltas: &[MetricsSnapshot]) -> MetricsSnapshot {
    let mut total = MetricsSnapshot::default();
    for delta in deltas {
        for (series, &value) in &delta.samples {
            let entry = total.samples.entry(series.clone()).or_insert(0.0);
            if is_cumulative(series) {
                *entry += value;
            } else {
                *entry = value;
            }
        }
    }
    total
}

/// One stage's histogram summary out of a delta, aggregated over shards.
pub fn stage(delta: &MetricsSnapshot, stage: &str) -> Option<StageSummary> {
    stage_summaries(delta)
        .into_iter()
        .find(|summary| summary.stage == stage && summary.shard == "all")
}

/// One sample of a delta (zero when absent).
pub fn sample(delta: &MetricsSnapshot, series: &str) -> f64 {
    delta.samples.get(series).copied().unwrap_or(0.0)
}

/// A numeric field of a `/stats` document by path, e.g. `["cache", "hits"]`.
fn stats_field(stats: &serde_json::Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(stats, |value, key| value.get(key))
        .and_then(serde_json::Value::as_f64)
        .unwrap_or(0.0)
}

/// `after − before` of a numeric `/stats` field.
pub fn stats_delta(before: &serde_json::Value, after: &serde_json::Value, path: &[&str]) -> f64 {
    stats_field(after, path) - stats_field(before, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_bench::exposition::parse_metrics;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let values = ascending(10);
        assert_eq!(quantile(&values, 0.5), 5.0);
        assert_eq!(quantile(&values, 0.9), 9.0);
        assert_eq!(quantile(&values, 0.91), 10.0);
        assert_eq!(quantile(&values, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
        let p90 = tail(&ascending(1_000));
        assert_eq!((p90.percentile, p90.value, p90.beyond), (90, 900.0, 100));
        let p90_edge = tail(&ascending(100));
        assert_eq!(
            (p90_edge.percentile, p90_edge.value, p90_edge.beyond),
            (90, 90.0, 10)
        );
        // One sample short of p90's ten: p75 has 25 beyond.
        let p75 = tail(&ascending(99));
        assert_eq!((p75.percentile, p75.beyond), (75, 24));
        let p75_edge = tail(&ascending(40));
        assert_eq!(
            (p75_edge.percentile, p75_edge.value, p75_edge.beyond),
            (75, 30.0, 10)
        );
        let thin = tail(&ascending(12));
        assert_eq!((thin.percentile, thin.value, thin.beyond), (50, 6.0, 6));
        assert_eq!(tail(&[]).beyond, 0);
    }

    #[test]
    fn windows_split_a_run_and_median_over_skips_empty_ones() {
        let samples = [
            (0.1, 5.0),
            (0.9, 1.0),
            (1.5, 7.0),
            (3.9, 2.0),
            (4.0, 9.0),
            (-0.1, 3.0),
        ];
        let split = windows(samples.into_iter(), 4.0, 4);
        assert_eq!(split, vec![vec![1.0, 5.0], vec![7.0], vec![], vec![2.0]]);
        assert_eq!(median_over(&split, |window| window.len() as f64), 1.0);
        assert_eq!(median_over(&split, |window| quantile(window, 1.0)), 5.0);
        assert_eq!(median_over(&[vec![], vec![]], |window| window[0]), 0.0);
        assert_eq!(rate(&[1.0, 1.5, 2.0, 3.0]), 1.5);
        let thin = windows_of_at_least(&samples, 4.0, 4, 1);
        assert_eq!(thin, vec![vec![1.0, 2.0, 3.0, 5.0, 7.0, 9.0]]);
        let dense = windows_of_at_least(&samples, 4.0, 2, 1);
        assert_eq!(dense, vec![vec![1.0, 5.0, 7.0], vec![2.0]]);
        assert_eq!(rate(&[1.0]), 0.0);
    }

    const BEFORE: &str = "\
rf_cache_hits_total 10
rf_cache_entries 4
rf_stage_duration_microseconds_bucket{stage=\"parse\",shard=\"all\",le=\"1\"} 2
rf_stage_duration_microseconds_bucket{stage=\"parse\",shard=\"all\",le=\"3\"} 5
rf_stage_duration_microseconds_bucket{stage=\"parse\",shard=\"all\",le=\"+Inf\"} 5
rf_stage_duration_microseconds_sum{stage=\"parse\",shard=\"all\"} 9
rf_stage_duration_microseconds_count{stage=\"parse\",shard=\"all\"} 5
";

    const AFTER: &str = "\
rf_cache_hits_total 30
rf_cache_entries 6
rf_disk_misses_total 2
rf_stage_duration_microseconds_bucket{stage=\"parse\",shard=\"all\",le=\"1\"} 2
rf_stage_duration_microseconds_bucket{stage=\"parse\",shard=\"all\",le=\"3\"} 5
rf_stage_duration_microseconds_bucket{stage=\"parse\",shard=\"all\",le=\"+Inf\"} 15
rf_stage_duration_microseconds_sum{stage=\"parse\",shard=\"all\"} 109
rf_stage_duration_microseconds_count{stage=\"parse\",shard=\"all\"} 15
";

    #[test]
    fn delta_keeps_only_what_the_run_recorded() {
        let before = parse_metrics(BEFORE).expect("before");
        let after = parse_metrics(AFTER).expect("after");
        let run = delta(&before, &after);
        assert_eq!(sample(&run, "rf_cache_hits_total"), 20.0);
        assert_eq!(
            sample(&run, "rf_disk_misses_total"),
            2.0,
            "new series start at 0"
        );
        assert_eq!(sample(&run, "rf_cache_entries"), 6.0, "gauges read as-is");
        // The ten parse observations of the run all fell beyond le=3, so
        // the delta's quantiles sit there, unlike the cumulative totals.
        let parse = stage(&run, "parse").expect("parse stage");
        assert_eq!(parse.count, 10);
        assert_eq!(parse.mean_micros, 10.0);
        assert_eq!(parse.p50_micros, u64::MAX);
        let cumulative = stage(&after, "parse").expect("parse stage");
        assert_eq!(cumulative.count, 15);
        assert!(stage(&run, "render").is_none());

        // Two runs summed: counters and buckets add, gauges keep the last.
        let twice = sum(&[run.clone(), delta(&before, &after)]);
        assert_eq!(sample(&twice, "rf_cache_hits_total"), 40.0);
        assert_eq!(sample(&twice, "rf_cache_entries"), 6.0);
        assert_eq!(stage(&twice, "parse").expect("parse stage").count, 20);
        assert_eq!(sum(&[]).samples.len(), 0);
    }

    #[test]
    fn stats_fields_diff_by_path() {
        let parse = |text: &str| serde_json::from_str::<serde_json::Value>(text).expect("json");
        let before = parse(r#"{"cache": {"hits": 3}, "disk": null}"#);
        let after = parse(r#"{"cache": {"hits": 8}, "disk": null}"#);
        assert_eq!(stats_delta(&before, &after, &["cache", "hits"]), 5.0);
        assert_eq!(stats_delta(&before, &after, &["disk", "bytes"]), 0.0);
    }
}
