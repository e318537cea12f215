//! Prometheus text-exposition validation for the benchmark and the
//! integration tests.
//!
//! The server's `GET /metrics` endpoint speaks the Prometheus text format
//! (version 0.0.4).  This module parses a scrape into a series → value map,
//! rejecting any line that is neither a well-formed comment nor a
//! `name{labels} value` sample, and cross-checks two scrapes of the same
//! server for counter monotonicity: `_total` counters and histogram
//! `_bucket`/`_sum`/`_count` samples must never decrease.  It also
//! reconstructs per-stage latency summaries (count, mean, p50, p99) from the
//! cumulative `rf_stage_duration_microseconds` histogram so `perfbench` can
//! record the server's own view of where time went.

use std::collections::BTreeMap;

/// A parsed `/metrics` scrape: every sample keyed by its full series name
/// (metric name plus label set, exactly as exposed).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `name{labels}` → sample value, in exposition order.
    pub samples: BTreeMap<String, f64>,
}

/// One `(stage, shard)` latency summary reconstructed from the cumulative
/// histogram buckets of a `/metrics` scrape.
#[derive(Debug, Clone, serde::Serialize)]
pub struct StageSummary {
    /// Stage label (`parse`, `prepare`, `render`, …).
    pub stage: String,
    /// Shard label (`0`, `1`, …, `service`, or `all`).
    pub shard: String,
    /// Number of observations recorded for this stage.
    pub count: u64,
    /// Mean latency in microseconds (`_sum / _count`).
    pub mean_micros: f64,
    /// Median latency upper bound in microseconds.
    pub p50_micros: u64,
    /// 99th-percentile latency upper bound in microseconds.
    pub p99_micros: u64,
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|first| first.is_ascii_alphabetic() || first == '_' || first == ':')
        && name
            .chars()
            .all(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == ':')
}

fn valid_label_pair(pair: &str) -> bool {
    let Some((name, value)) = pair.split_once('=') else {
        return false;
    };
    valid_metric_name(name) && value.len() >= 2 && value.starts_with('"') && value.ends_with('"')
}

/// Validates one `# TYPE name kind` comment line.
fn check_type_line(rest: &str) -> Result<(), String> {
    let mut parts = rest.split_whitespace();
    let name = parts
        .next()
        .ok_or_else(|| "TYPE comment is missing a metric name".to_string())?;
    if !valid_metric_name(name) {
        return Err(format!("TYPE comment names invalid metric {name:?}"));
    }
    let kind = parts
        .next()
        .ok_or_else(|| format!("TYPE comment for {name} is missing a kind"))?;
    match kind {
        "counter" | "gauge" | "histogram" | "summary" | "untyped" => {}
        other => {
            return Err(format!(
                "TYPE comment for {name} has unknown kind {other:?}"
            ))
        }
    }
    if parts.next().is_some() {
        return Err(format!("TYPE comment for {name} has trailing tokens"));
    }
    Ok(())
}

/// Parses a full `/metrics` payload; every line must be empty, a comment, or
/// a `name{labels} value` sample with a numeric value.
pub fn parse_metrics(text: &str) -> Result<MetricsSnapshot, String> {
    let mut snapshot = MetricsSnapshot::default();
    for (line_no, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                check_type_line(rest).map_err(|err| format!("line {}: {err}", line_no + 1))?;
            }
            // HELP and free-form comments are legal as-is.
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: sample has no value: {line:?}", line_no + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: non-numeric value {value:?}", line_no + 1))?;
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated label set", line_no + 1))?;
                if !labels.is_empty() && !labels.split(',').all(valid_label_pair) {
                    return Err(format!(
                        "line {}: malformed label set {labels:?}",
                        line_no + 1
                    ));
                }
                name
            }
            None => series,
        };
        if !valid_metric_name(name) {
            return Err(format!(
                "line {}: invalid metric name {name:?}",
                line_no + 1
            ));
        }
        if snapshot.samples.insert(series.to_string(), value).is_some() {
            return Err(format!("line {}: duplicate series {series:?}", line_no + 1));
        }
    }
    Ok(snapshot)
}

/// True for series that must never decrease between scrapes of one server:
/// `_total` counters and histogram `_bucket`/`_sum`/`_count` samples.
fn is_cumulative(series: &str) -> bool {
    let name = series.split('{').next().unwrap_or(series);
    name.ends_with("_total")
        || name.ends_with("_sum")
        || name.ends_with("_count")
        || name.ends_with("_bucket")
}

/// Checks that every cumulative series present in both scrapes is
/// non-decreasing from `before` to `after`.
pub fn check_counters_monotonic(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) -> Result<(), String> {
    for (series, &earlier) in &before.samples {
        if !is_cumulative(series) {
            continue;
        }
        if let Some(&later) = after.samples.get(series) {
            if later < earlier {
                return Err(format!(
                    "counter {series} decreased between scrapes: {earlier} -> {later}"
                ));
            }
        }
    }
    Ok(())
}

/// What the server recorded between two scrapes: every cumulative series as
/// `after − before`, gauges as their `after` value.  A series absent from
/// `before` started at zero.
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

/// Reconstructs per-`(stage, shard)` latency summaries from the cumulative
/// `rf_stage_duration_microseconds` histogram in a scrape.
pub fn stage_summaries(snapshot: &MetricsSnapshot) -> Vec<StageSummary> {
    const HISTOGRAM: &str = "rf_stage_duration_microseconds";
    // (stage, shard) → sorted cumulative (le, count) pairs.
    let mut buckets: BTreeMap<(String, String), Vec<(f64, u64)>> = BTreeMap::new();
    let mut sums: BTreeMap<(String, String), f64> = BTreeMap::new();
    for (series, &value) in &snapshot.samples {
        let Some(labels) = series
            .strip_prefix(HISTOGRAM)
            .and_then(|rest| rest.strip_prefix("_bucket{"))
            .and_then(|rest| rest.strip_suffix('}'))
            .or_else(|| {
                series
                    .strip_prefix(HISTOGRAM)
                    .and_then(|rest| rest.strip_prefix("_sum{"))
                    .and_then(|rest| rest.strip_suffix('}'))
            })
        else {
            continue;
        };
        let mut stage = None;
        let mut shard = None;
        let mut le = None;
        for pair in labels.split(',') {
            let Some((key, quoted)) = pair.split_once('=') else {
                continue;
            };
            let value = quoted.trim_matches('"').to_string();
            match key {
                "stage" => stage = Some(value),
                "shard" => shard = Some(value),
                "le" => le = Some(value),
                _ => {}
            }
        }
        let (Some(stage), Some(shard)) = (stage, shard) else {
            continue;
        };
        match le {
            Some(le) => {
                let upper = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or(0.0)
                };
                buckets
                    .entry((stage, shard))
                    .or_default()
                    .push((upper, value as u64));
            }
            None => {
                sums.insert((stage, shard), value);
            }
        }
    }

    buckets
        .into_iter()
        .filter_map(|((stage, shard), mut series)| {
            series.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite or +Inf bound"));
            let count = series.last().map_or(0, |(_, cumulative)| *cumulative);
            if count == 0 {
                return None;
            }
            let quantile = |q: f64| -> u64 {
                let rank = ((q * count as f64).ceil() as u64).max(1);
                series
                    .iter()
                    .find(|(_, cumulative)| *cumulative >= rank)
                    .map_or(u64::MAX, |(upper, _)| {
                        if upper.is_finite() {
                            *upper as u64
                        } else {
                            u64::MAX
                        }
                    })
            };
            let sum = sums
                .get(&(stage.clone(), shard.clone()))
                .copied()
                .unwrap_or(0.0);
            Some(StageSummary {
                stage,
                shard,
                count,
                mean_micros: sum / count as f64,
                p50_micros: quantile(0.50),
                p99_micros: quantile(0.99),
            })
        })
        .collect()
}

/// Validates a `GET /debug/slow` response body: it must be a JSON object
/// with numeric `capacity`/`recorded` fields and a `traces` array.
pub fn check_slow_debug(body: &str) -> Result<u64, String> {
    let value: serde_json::Value =
        serde_json::from_str(body).map_err(|err| format!("/debug/slow is not JSON: {err}"))?;
    let capacity = value
        .get("capacity")
        .and_then(serde_json::Value::as_u64)
        .ok_or_else(|| "/debug/slow is missing numeric `capacity`".to_string())?;
    value
        .get("recorded")
        .and_then(serde_json::Value::as_u64)
        .ok_or_else(|| "/debug/slow is missing numeric `recorded`".to_string())?;
    let traces = value
        .get("traces")
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| "/debug/slow is missing `traces` array".to_string())?;
    for trace in traces {
        for field in ["id", "cache"] {
            if trace
                .get(field)
                .and_then(serde_json::Value::as_str)
                .is_none()
            {
                return Err(format!("/debug/slow trace is missing string `{field}`"));
            }
        }
        if trace
            .get("total_micros")
            .and_then(serde_json::Value::as_u64)
            .is_none()
        {
            return Err("/debug/slow trace is missing numeric `total_micros`".to_string());
        }
        if trace
            .get("stages")
            .and_then(serde_json::Value::as_array)
            .is_none()
        {
            return Err("/debug/slow trace is missing `stages` array".to_string());
        }
    }
    Ok(capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# TYPE rf_cache_hits_total counter
rf_cache_hits_total 12
# TYPE rf_stage_duration_microseconds histogram
rf_stage_duration_microseconds_bucket{stage=\"parse\",shard=\"0\",le=\"1\"} 2
rf_stage_duration_microseconds_bucket{stage=\"parse\",shard=\"0\",le=\"3\"} 9
rf_stage_duration_microseconds_bucket{stage=\"parse\",shard=\"0\",le=\"+Inf\"} 10
rf_stage_duration_microseconds_sum{stage=\"parse\",shard=\"0\"} 25
rf_stage_duration_microseconds_count{stage=\"parse\",shard=\"0\"} 10
rf_cache_entries 3
";

    #[test]
    fn parses_a_valid_exposition() {
        let snapshot = parse_metrics(GOOD).expect("valid exposition");
        assert_eq!(snapshot.samples["rf_cache_hits_total"], 12.0);
        assert_eq!(snapshot.samples.len(), 7);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_metrics("rf_cache_hits_total").is_err());
        assert!(parse_metrics("rf_cache_hits_total abc").is_err());
        assert!(parse_metrics("2bad_name 1").is_err());
        assert!(parse_metrics("name{unterminated=\"x\" 1").is_err());
        assert!(parse_metrics("name{no_quotes=x} 1").is_err());
        assert!(parse_metrics("# TYPE name rocket\nname 1").is_err());
        assert!(parse_metrics("name 1\nname 2").is_err(), "duplicate series");
    }

    #[test]
    fn monotonicity_flags_decreasing_counters_only() {
        let before = parse_metrics("rf_x_total 5\nrf_gauge 9\n").expect("before");
        let shrunk_gauge = parse_metrics("rf_x_total 5\nrf_gauge 2\n").expect("after");
        check_counters_monotonic(&before, &shrunk_gauge).expect("gauges may decrease");
        let shrunk_counter = parse_metrics("rf_x_total 4\nrf_gauge 9\n").expect("after");
        let err = check_counters_monotonic(&before, &shrunk_counter).expect_err("must fail");
        assert!(err.contains("rf_x_total"), "unexpected error: {err}");
    }

    #[test]
    fn delta_subtracts_cumulative_series_and_keeps_gauges() {
        let before = parse_metrics(GOOD).expect("before");
        let after = parse_metrics(
            "rf_cache_hits_total 15\n\
             rf_stage_duration_microseconds_bucket{stage=\"parse\",shard=\"0\",le=\"1\"} 2\n\
             rf_stage_duration_microseconds_bucket{stage=\"parse\",shard=\"0\",le=\"3\"} 12\n\
             rf_stage_duration_microseconds_bucket{stage=\"parse\",shard=\"0\",le=\"+Inf\"} 14\n\
             rf_stage_duration_microseconds_sum{stage=\"parse\",shard=\"0\"} 37\n\
             rf_stage_duration_microseconds_count{stage=\"parse\",shard=\"0\"} 14\n\
             rf_cache_entries 2\n\
             rf_new_total 4\n",
        )
        .expect("after");
        let run = delta(&before, &after);
        assert_eq!(run.samples["rf_cache_hits_total"], 3.0);
        assert_eq!(
            run.samples["rf_cache_entries"], 2.0,
            "gauges keep their last value"
        );
        assert_eq!(run.samples["rf_new_total"], 4.0, "absent before = zero");
        // The run's own four observations: three at ≤ 3 µs, one above.
        let summaries = stage_summaries(&run);
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].count, 4);
        assert_eq!(summaries[0].p50_micros, 3);
        assert!((summaries[0].mean_micros - 3.0).abs() < 1e-9);
    }

    #[test]
    fn stage_summaries_recover_count_quantiles_and_mean() {
        let snapshot = parse_metrics(GOOD).expect("valid exposition");
        let summaries = stage_summaries(&snapshot);
        assert_eq!(summaries.len(), 1);
        let parse = &summaries[0];
        assert_eq!((parse.stage.as_str(), parse.shard.as_str()), ("parse", "0"));
        assert_eq!(parse.count, 10);
        // rank(p50) = 5 lands in the le="3" bucket; rank(p99) = 10 in +Inf.
        assert_eq!(parse.p50_micros, 3);
        assert_eq!(parse.p99_micros, u64::MAX);
        assert!((parse.mean_micros - 2.5).abs() < 1e-9);
    }

    #[test]
    fn slow_debug_checker_accepts_the_served_shape() {
        let ok = r#"{"capacity":16,"recorded":2,"traces":[
            {"id":"0:1","total_micros":1200,"cache":"miss","truncated":false,
             "shed":null,"stages":[{"stage":"parse","micros":3}]}]}"#;
        assert_eq!(check_slow_debug(ok).expect("valid document"), 16);
        assert!(check_slow_debug("[]").is_err());
        assert!(check_slow_debug(r#"{"capacity":1,"recorded":0}"#).is_err());
        assert!(
            check_slow_debug(r#"{"capacity":1,"recorded":0,"traces":[{"id":5}]}"#).is_err(),
            "trace with non-string id must be rejected"
        );
    }
}
