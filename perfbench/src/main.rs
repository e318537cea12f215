//! End-to-end and per-layer benchmark of the Ranking Facts label server.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_hit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The server runs in this process, bound to a loopback port, and one or
//! two client threads drive it (never more than the host's cores):
//!
//! - `warm_hit` — a closed loop over fifteen demo label paths, all cached
//!   before timing: only the reactor, router, admission, dispatch and the
//!   cache probe work, the pipeline does not.
//! - `cold_demo` — a closed loop of cold labels on the paper's three
//!   datasets at seeded `k`, each with its own Monte-Carlo seed, so no
//!   request hits the cache: prepare and render dominate.
//! - `mixed_synth` — an open loop of Poisson arrivals: warm hits on one
//!   connection, cold labels of a 20k-row synthetic scenario on another,
//!   with the disk tier writing every cold fill behind.  Warm hits queue
//!   behind cold work on the shared worker pool.
//!
//! `--trace 0` times the workload and prints the end-to-end metrics.
//! `--trace 1` runs it on two servers, one untraced and one tracing every
//! request, in alternating passes, then replays the same generated requests
//! in this process with a span around each call into a layer; it prints
//! the per-layer metrics and writes the spans to `.perfbench_out/`.  Both
//! check every response and print one JSON object as the last line.

mod harness;
mod replay;
mod spans;
mod stats;
mod workloads;

use stats::{median, median_over, quantile, sample, stage, stats_delta, tail};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use workloads::{Class, Reference, Setup, Timed, Workload, SETUPS};

/// Where runs keep their cache directories and span dumps.
const OUT_DIR: &str = ".perfbench_out";
/// Cold responses checked against the sequential pipeline per run.
const COLD_CHECKS: usize = 3;
/// Windows a timed run is split into; throughput and latency are medians
/// over them, so a burst of load from outside the benchmark moves a window
/// rather than the run.  Runs with fewer than `WINDOW_SAMPLES` samples in
/// some window are summarized whole.
const WINDOWS: usize = 10;
const WINDOW_SAMPLES: usize = 200;
/// Requests the traced replay serves per class.
const REPLAY_WARM: usize = 1_000;
const REPLAY_COLD: usize = 6;
/// Untraced/traced pass pairs of the traced run.  The pairs alternate
/// which server goes first, and the trace overhead is the median of their
/// ratios, so drift of the host during the run cancels rather than landing
/// on one side.
const TRACE_PAIRS: u64 = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one run prints: report lines, then the JSON result.
struct Outcome {
    lines: Vec<String>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            lines: Vec::new(),
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    fn absorb(&mut self, timed: &Timed) {
        self.attempted += timed.attempted;
        self.failed += timed.failed;
        self.errors.extend(timed.errors.iter().cloned());
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        for error in self.errors.iter().take(16) {
            println!("FAILED: {error}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<30} {value:>14.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Connections of the closed loops: one per core, at most two.  The open
/// loop always uses two, one per request class.
fn clients() -> usize {
    host_parallelism().min(2)
}

/// The cold requests whose bodies the timed run keeps and checks against
/// the sequential pipeline: the first `COLD_CHECKS` the seed samples.  No
/// other body is kept, so `rss_mb` is the server's and not the client's.
fn checked_indices(workload: Workload, seed: u64) -> Vec<u64> {
    let every = match workload {
        Workload::WarmHit => return Vec::new(),
        Workload::ColdDemo => 8,
        Workload::MixedSynth => 2,
    };
    (0..)
        .filter(|&i| workloads::sampled(seed, i, every))
        .take(COLD_CHECKS)
        .collect()
}

/// Checks the kept cold bodies against the sequential pipeline.
fn check_cold(workload: Workload, timed: &Timed, outcome: &mut Outcome) {
    if timed.kept.is_empty() {
        if workload != Workload::WarmHit {
            outcome.fail("no cold response was kept for the reference check".to_string());
        }
        return;
    }
    let reference = Reference::new(workload);
    for kept in &timed.kept {
        if let Err(err) = reference.check(&kept.path, &kept.body) {
            outcome.fail(err);
        }
    }
}

/// `after − before` of a numeric `/stats` field, summed over the scrape
/// pairs taken around each pass of a run.
fn counter(pairs: &[(harness::Scrape, harness::Scrape)], path: &[&str]) -> f64 {
    pairs
        .iter()
        .map(|(before, after)| stats_delta(&before.stats, &after.stats, path))
        .sum()
}

/// Hit and miss counts of a run, from the `/stats` deltas.
fn hits_and_misses(pairs: &[(harness::Scrape, harness::Scrape)]) -> (f64, f64) {
    (
        counter(pairs, &["cache", "hits"]),
        counter(pairs, &["cache", "misses"]),
    )
}

/// The workload exercises the layers it is named for: every lookup of
/// `warm_hit` hits and none of `cold_demo` does.
fn check_hit_ratio(workload: Workload, hits: f64, misses: f64, outcome: &mut Outcome) {
    let ok = match workload {
        Workload::WarmHit => misses == 0.0 && hits > 0.0,
        Workload::ColdDemo => hits == 0.0 && misses > 0.0,
        Workload::MixedSynth => hits > 0.0 && misses > 0.0,
    };
    if !ok {
        outcome.fail(format!(
            "{}: {hits} cache hits, {misses} misses",
            workload.name()
        ));
    }
}

/// Scrapes the server after a run and validates the pair of scrapes; a
/// failure counts against the run.
fn scrape_pair(
    addr: std::net::SocketAddr,
    before: Result<harness::Scrape, String>,
    traced: bool,
    outcome: &mut Outcome,
) -> Option<(harness::Scrape, harness::Scrape)> {
    let pair = before.and_then(|before| {
        let after = harness::scrape(addr)?;
        harness::check_scrapes(addr, &before, &after, traced)?;
        Ok((before, after))
    });
    match pair {
        Ok(pair) => Some(pair),
        Err(err) => {
            outcome.fail(format!("server scrape: {err}"));
            None
        }
    }
}

fn describe(args: &Args, outcome: &mut Outcome) {
    outcome.lines.push(format!(
        "workload {} · seed {} · {} s · trace {} · host_parallelism {} · {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_parallelism(),
        args.workload.describe(clients()),
    ));
}

fn describe_samples(label: &str, workload: Workload, timed: &Timed, outcome: &mut Outcome) {
    for class in [Class::Warm, Class::Cold] {
        let latencies = timed.latencies(class);
        if latencies.is_empty() {
            continue;
        }
        let tail = tail(&latencies);
        outcome.lines.push(format!(
            "{label} {class:?}: {} samples, p50 {:.3} ms, p{} {:.3} ms ({} samples beyond)",
            latencies.len(),
            quantile(&latencies, 0.5),
            tail.percentile,
            tail.value,
            tail.beyond,
        ));
    }
    if workload == Workload::MixedSynth {
        let late = lateness(timed);
        outcome.lines.push(format!(
            "{label} generator lateness: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            quantile(&late, 0.5),
            quantile(&late, 0.99),
            late.last().copied().unwrap_or(0.0),
        ));
    }
}

/// How late each request went out after its scheduled send, ascending.
fn lateness(timed: &Timed) -> Vec<f64> {
    let mut late: Vec<f64> = timed.samples.iter().map(|sample| sample.late_ms).collect();
    late.sort_by(f64::total_cmp);
    late
}

/// The end-to-end run: set up `SETUPS` times, time the last set-up's server
/// for `seconds`, check the outputs.
fn timed_run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::new();
    describe(args, &mut outcome);
    let workers = host_parallelism();
    let mut setup_s = Vec::new();
    let mut current: Option<Setup> = None;
    for round in 0..SETUPS as u64 {
        if let Some(previous) = current.take() {
            previous.running.stop();
        }
        let setup = workloads::setup(args.workload, args.seed, round, workers, scratch, false)?;
        setup_s.push(setup.seconds);
        current = Some(setup);
    }
    let setup = current.expect("at least one set-up");
    let addr = setup.running.addr;
    let before = harness::scrape(addr);
    let checked = checked_indices(args.workload, args.seed);
    let timed = workloads::run(
        args.workload,
        args.seed,
        &setup,
        clients(),
        Duration::from_secs(args.seconds),
        0,
        &|i| checked.contains(&i),
    );
    let scrapes: Vec<_> = scrape_pair(addr, before, false, &mut outcome)
        .into_iter()
        .collect();
    let rss_mb = harness::rss_mb();
    setup.running.stop();

    outcome.absorb(&timed);
    check_cold(args.workload, &timed, &mut outcome);
    if !scrapes.is_empty() {
        let (hits, misses) = hits_and_misses(&scrapes);
        check_hit_ratio(args.workload, hits, misses, &mut outcome);
        outcome.lines.push(format!(
            "server delta: {hits} hits, {misses} misses, {} preparations, {} coalesced",
            counter(&scrapes, &["preparations"]),
            counter(&scrapes, &["coalesced"]),
        ));
    }
    describe_samples("timed", args.workload, &timed, &mut outcome);

    let primary_class = args.workload.primary();
    let seconds = args.seconds as f64;
    let completions: Vec<(f64, f64)> = timed
        .samples
        .iter()
        .map(|sample| (sample.at_s, sample.at_s))
        .collect();
    let completions = stats::windows_of_at_least(&completions, seconds, WINDOWS, WINDOW_SAMPLES);
    let primary: Vec<(f64, f64)> = timed
        .samples
        .iter()
        .filter(|sample| sample.class == primary_class)
        .map(|sample| (sample.at_s, sample.latency_ms))
        .collect();
    let primary = stats::windows_of_at_least(&primary, seconds, WINDOWS, WINDOW_SAMPLES);
    let tail = tail(&timed.latencies(primary_class));
    outcome.lines.push(format!(
        "set-ups: {setup_s:?} s; throughput over {} and p50 and tail of {primary_class:?} \
         requests over {} window(s) of the run; tail_ms is p{} ({} samples beyond it in \
         the run)",
        completions.len(),
        primary.len(),
        tail.percentile,
        tail.beyond,
    ));
    outcome.metric("setup_s", median(&setup_s), "s");
    outcome.metric(
        "throughput_rps",
        median_over(&completions, stats::rate),
        "1/s",
    );
    outcome.metric(
        "p50_ms",
        median_over(&primary, |window| quantile(window, 0.5)),
        "ms",
    );
    let q = f64::from(tail.percentile) / 100.0;
    outcome.metric(
        "tail_ms",
        median_over(&primary, |window| quantile(window, q)),
        "ms",
    );
    let attempted = outcome.attempted.max(1) as f64;
    outcome.metric(
        "ok_share",
        (attempted - outcome.failed as f64).max(0.0) / attempted,
        "ratio",
    );
    outcome.metric("rss_mb", rss_mb, "MiB");
    Ok(outcome)
}

/// The traced run: `TRACE_PAIRS` pairs of passes on an untraced server and
/// on one that traces every request, then the in-process replay with spans.
fn traced_run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::new();
    describe(args, &mut outcome);
    let workers = host_parallelism();
    let passes = 2 * TRACE_PAIRS;
    let slice = Duration::from_secs_f64((args.seconds as f64 / passes as f64).max(1.0));
    let primary = args.workload.primary();
    let seed = args.seed;

    let plain = workloads::setup(args.workload, seed, 0, workers, scratch, false)?;
    let traced_setup = workloads::setup(args.workload, seed, 1, workers, scratch, true)?;
    let addr = traced_setup.running.addr;
    let mut untraced = Timed::default();
    let mut traced = Timed::default();
    let mut ratios = Vec::new();
    // Scraped around each traced pass alone: some server counters
    // (preparations, Monte-Carlo trials) are process-wide, and the untraced
    // server shares the process.
    let mut scrapes = Vec::new();
    for pair in 0..TRACE_PAIRS {
        let first = pair * workloads::PASS_STRIDE;
        let pass = |setup: &Setup, keep: &(dyn Fn(u64) -> bool + Sync)| {
            workloads::run(args.workload, seed, setup, clients(), slice, first, keep)
        };
        let untraced_pass = || pass(&plain, &|_| false);
        let mut traced_pass = || {
            let before = harness::scrape(addr);
            let timed = pass(&traced_setup, &|i| i < REPLAY_COLD as u64);
            scrapes.extend(scrape_pair(addr, before, true, &mut outcome));
            timed
        };
        let (plain_pass, traced_pass) = if pair % 2 == 0 {
            let plain_pass = untraced_pass();
            (plain_pass, traced_pass())
        } else {
            let traced_pass = traced_pass();
            (untraced_pass(), traced_pass)
        };
        let p50 = |timed: &Timed| quantile(&timed.latencies(primary), 0.5);
        let ratio = p50(&traced_pass) / p50(&plain_pass);
        if ratio.is_finite() {
            ratios.push(ratio);
        }
        untraced.absorb(plain_pass);
        traced.absorb(traced_pass);
    }
    plain.running.stop();
    traced_setup.running.stop();
    outcome.absorb(&untraced);
    outcome.absorb(&traced);
    describe_samples("untraced", args.workload, &untraced, &mut outcome);
    describe_samples("traced", args.workload, &traced, &mut outcome);
    ratios.sort_by(f64::total_cmp);
    outcome.lines.push(format!(
        "trace overhead: traced over untraced p50 of {primary:?} requests in {} \
         alternating pairs of {:.1} s passes: {ratios:.3?}, median {:.3}, \
         interquartile {:.3}..{:.3}",
        ratios.len(),
        slice.as_secs_f64(),
        quantile(&ratios, 0.5),
        quantile(&ratios, 0.25),
        quantile(&ratios, 0.75),
    ));

    let served: HashMap<&str, &workloads::Kept> = traced
        .kept
        .iter()
        .map(|kept| (kept.path.as_str(), kept))
        .collect();
    let (warm_n, cold_n) = match args.workload {
        Workload::WarmHit => (REPLAY_WARM, 0),
        Workload::ColdDemo => (0, REPLAY_COLD),
        Workload::MixedSynth => (REPLAY_WARM / 4, 2),
    };
    let (replay, breakdowns) = replay::run(
        args.workload,
        seed,
        workers,
        warm_n,
        cold_n,
        &traced_setup.fills,
        &served,
    );
    outcome.attempted += replay.requests;
    outcome.failed += replay.failed;
    let replay_errors = replay.errors.iter().map(|error| format!("replay: {error}"));
    outcome.errors.extend(replay_errors);
    let spans = replay.recorder.spans();
    let dump = scratch.join(format!("spans-{}-{seed}.jsonl", args.workload.name()));
    let written = std::fs::File::create(&dump)
        .map(std::io::BufWriter::new)
        .and_then(|mut file| {
            replay.recorder.write_to(&mut file)?;
            std::io::Write::flush(&mut file)
        });
    match written {
        Ok(()) => outcome.lines.push(format!(
            "{} spans written to {}",
            spans.len(),
            dump.display()
        )),
        Err(err) => outcome.fail(format!("write {}: {err}", dump.display())),
    }

    let means = spans::mean_self_by_name(spans);
    let span_ns = |name: &str| means.get(name).map_or(0.0, |(ns, _)| *ns);
    let span_us = |name: &str| span_ns(name) / 1e3;
    let span_ms = |name: &str| span_ns(name) / 1e6;
    let deltas: Vec<_> = scrapes
        .iter()
        .map(|(before, after)| stats::delta(&before.metrics, &after.metrics))
        .collect();
    let run = stats::sum(&deltas);
    let mean_us = |name: &str| stage(&run, name).map_or(0.0, |summary| summary.mean_micros);
    let bound_us = |name: &str, pick: fn(&rf_bench::exposition::StageSummary) -> u64| {
        stage(&run, name).map_or(0.0, |summary| match pick(&summary) {
            u64::MAX => f64::INFINITY,
            bound => bound as f64,
        })
    };
    let counter = |path: &[&str]| counter(&scrapes, path);
    let (hits, misses) = hits_and_misses(&scrapes);
    if !scrapes.is_empty() {
        check_hit_ratio(args.workload, hits, misses, &mut outcome);
    }
    let blocking: Vec<f64> = breakdowns.iter().map(|b| b.blocking_ms).collect();
    let paired: Vec<(f64, f64)> = breakdowns
        .iter()
        .filter_map(|b| b.measured_ms.map(|measured| (b.blocking_ms, measured)))
        .collect();
    let blocking_sum: f64 = paired.iter().map(|(blocking, _)| blocking).sum();
    let measured_sum: f64 = paired.iter().map(|(_, measured)| measured).sum();
    let unexplained_ms = (measured_sum - blocking_sum) / paired.len().max(1) as f64;
    if !paired.is_empty() {
        outcome.lines.push(format!(
            "cold labels replayed: {} of {} matched to a traced response; per label, \
             prepare + render at its least + to_json = {:.3} ms of {:.3} ms measured, \
             {unexplained_ms:.3} ms unexplained (network, queueing, and cores shared \
             with concurrent labels)",
            paired.len(),
            breakdowns.len(),
            blocking_sum / paired.len() as f64,
            measured_sum / paired.len() as f64,
        ));
    }

    outcome.metric("net.parse_us", span_us("net.parse"), "us");
    outcome.metric("net.write_us", span_us("net.write"), "us");
    outcome.metric("net.socket_write_us", mean_us("write"), "us");
    outcome.metric(
        "net.accepted",
        sample(&run, "rf_reactor_accepted_total{shard=\"all\"}"),
        "count",
    );
    outcome.metric(
        "net.shed",
        sample(&run, "rf_reactor_shed_requests_total{shard=\"all\"}")
            + sample(&run, "rf_reactor_shed_connections_total{shard=\"all\"}"),
        "count",
    );
    outcome.metric("server.route_us", span_us("server.route"), "us");
    outcome.metric("server.admission_us", mean_us("admission"), "us");
    outcome.metric(
        "runtime.queue_wait_p50_us",
        bound_us("queue_wait", |s| s.p50_micros),
        "us",
    );
    outcome.metric(
        "runtime.queue_wait_p99_us",
        bound_us("queue_wait", |s| s.p99_micros),
        "us",
    );
    outcome.metric(
        "runtime.executed_jobs",
        counter(&["scheduler", "executed_jobs"]),
        "count",
    );
    outcome.metric("runtime.steals", counter(&["scheduler", "steals"]), "count");
    outcome.metric("service.cache_lookup_us", mean_us("cache_lookup"), "us");
    outcome.metric("service.label_hit_us", span_us("service.label"), "us");
    let lookups = hits + misses;
    outcome.metric(
        "service.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    );
    outcome.metric("service.preparations", counter(&["preparations"]), "count");
    outcome.metric("service.coalesced", counter(&["coalesced"]), "count");
    outcome.metric("pipeline.prepare_ms", span_ms("pipeline.prepare"), "ms");
    outcome.metric("pipeline.render_ms", span_ms("pipeline.render"), "ms");
    outcome.metric("label.to_json_ms", span_ms("label.to_json"), "ms");
    outcome.metric("widget.recipe_ms", span_ms("widget.recipe"), "ms");
    outcome.metric("widget.ingredients_ms", span_ms("widget.ingredients"), "ms");
    outcome.metric("widget.slope_ms", span_ms("widget.slope"), "ms");
    outcome.metric("widget.diversity_ms", span_ms("widget.diversity"), "ms");
    outcome.metric("ranking.rank_table_ms", span_ms("ranking.rank_table"), "ms");
    outcome.metric("fairness.fair_star_ms", span_ms("fairness.fair_star"), "ms");
    outcome.metric("fairness.pairwise_ms", span_ms("fairness.pairwise"), "ms");
    outcome.metric(
        "fairness.proportion_ms",
        span_ms("fairness.proportion"),
        "ms",
    );
    outcome.metric(
        "fairness.discounted_ms",
        span_ms("fairness.discounted"),
        "ms",
    );
    outcome.metric("stability.mc_ms", span_ms("stability.mc"), "ms");
    outcome.metric(
        "stability.mc_trials",
        counter(&["monte_carlo", "trials_completed"]),
        "count",
    );
    outcome.metric("table.fingerprint_ms", span_ms("table.fingerprint"), "ms");
    outcome.metric(
        "datasets.generate_ms",
        median(&[plain.generate_ms, traced_setup.generate_ms]),
        "ms",
    );
    outcome.metric("store.probe_us", mean_us("cache_disk"), "us");
    outcome.metric(
        "store.disk_misses",
        counter(&["disk", "disk_misses"]),
        "count",
    );
    outcome.metric(
        "store.write_errors",
        counter(&["disk", "write_errors"]),
        "count",
    );
    outcome.metric("store.bytes", counter(&["disk", "bytes"]), "bytes");
    outcome.metric("obs.trace_overhead", quantile(&ratios, 0.5), "ratio");
    outcome.metric("gen.late_ms", quantile(&lateness(&traced), 0.99), "ms");
    let warm = untraced.latencies(Class::Warm);
    outcome.metric("client.warm_p50_ms", quantile(&warm, 0.5), "ms");
    outcome.metric("client.warm_tail_ms", tail(&warm).value, "ms");
    outcome.metric(
        "trace.cold_blocking_ms",
        if blocking.is_empty() {
            0.0
        } else {
            median(&blocking)
        },
        "ms",
    );
    outcome.metric(
        "trace.cold_explained_share",
        if measured_sum > 0.0 {
            blocking_sum / measured_sum
        } else {
            0.0
        },
        "ratio",
    );
    outcome.metric("trace.cold_unexplained_ms", unexplained_ms, "ms");
    outcome.metric("trace.spans", spans.len() as f64, "count");
    Ok(outcome)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!(
                "{err}\nusage: perfbench --workload warm_hit|cold_demo|mixed_synth --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(OUT_DIR);
    if let Err(err) = std::fs::create_dir_all(&scratch) {
        eprintln!("create {}: {err}", scratch.display());
        std::process::exit(1);
    }
    let result = if args.trace {
        traced_run(&args, &scratch)
    } else {
        timed_run(&args, &scratch)
    };
    match result {
        Ok(outcome) => {
            outcome.print();
            std::process::exit(if outcome.correct() { 0 } else { 1 });
        }
        Err(err) => {
            eprintln!("benchmark failed: {err}");
            std::process::exit(1);
        }
    }
}
