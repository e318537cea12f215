//! Open-loop load generator for the sharded label server.
//!
//! Drives an in-process server at a *target* request rate — arrivals follow
//! a Poisson process (exponential inter-arrival times), scheduled ahead of
//! time and independent of completions, so a slow server cannot silently
//! slow the offered load the way a closed-loop client would.  Latency is
//! measured from each request's *scheduled* arrival, so coordination delay
//! (a backlogged client picking the job up late) counts against the server.
//!
//! Three request mixes exercise the three label-serving regimes:
//!
//! - `warm` — one cacheable label path; after warmup every request is a
//!   cache hit and the run measures the I/O plane itself.
//! - `cold` — a unique `mc_seed` per request defeats the cache; every
//!   request pays full label generation.
//! - `deadline` — cold German-credit labels under a 1 ms Monte-Carlo
//!   budget; generation is deadline-truncated (verified against the
//!   `/stats` truncation counter).
//!
//! Each (reactor-shard-count × mix) run reports achieved RPS, latency
//! percentiles, shed (503) rate, and the server's own rolled-up reactor
//! counters.  Results land in `BENCH_server.json` at the repo root.
//!
//! ```sh
//! cargo run --release -p rf-bench --bin load_gen            # full sweep
//! cargo run --release -p rf-bench --bin load_gen -- --smoke # 2 s CI smoke
//! ```

use rand::distributions::{Distribution, Exp};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rf_bench::exposition::{
    check_counters_monotonic, check_slow_debug, delta, parse_metrics, stage_summaries,
    MetricsSnapshot, StageSummary,
};
use rf_server::{DatasetCatalog, Server, ServerConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WARM_PATH: &str = "/datasets/cs-departments/label.json?k=5";

/// One request mix: how the path for request `seq` is built.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mix {
    Warm,
    Cold,
    Deadline,
    /// Cold labels on a registered 10⁵-row synthetic scenario with a small
    /// trial count — the data plane at scale, kept CI-cheap.
    SynthCold,
}

/// Rows of the synthetic scenario the `SynthCold` mix labels.
const SYNTH_ROWS: usize = 100_000;

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Warm => "warm",
            Mix::Cold => "cold",
            Mix::Deadline => "deadline_truncated",
            Mix::SynthCold => "synth_100k_cold",
        }
    }

    fn path(self, seq: u64) -> String {
        match self {
            Mix::Warm => WARM_PATH.to_string(),
            // A unique seed defeats the label cache: every request is a
            // full cold generation.
            Mix::Cold => format!("/datasets/cs-departments/label.json?k=5&mc_seed={seq}"),
            // Cold *and* deadline-starved: the Monte-Carlo run truncates
            // after its first wave.
            Mix::Deadline => {
                format!("/datasets/german-credit/label.json?trials=256&deadline_ms=1&mc_seed={seq}")
            }
            // Each request re-labels the 10⁵-row synthetic scenario with a
            // handful of Monte-Carlo trials — million-value noise, scoring,
            // and argsort per trial, without a CI-hostile runtime.
            Mix::SynthCold => {
                format!("/datasets/synth-100k/label.json?trials=4&mc_seed={seq}")
            }
        }
    }
}

/// Target-rate settings for one sweep.
#[derive(Clone)]
struct Profile {
    smoke: bool,
    duration: Duration,
    connections: usize,
    warm_rps: f64,
    cold_rps: f64,
    deadline_rps: f64,
    synth_rps: f64,
    reactor_counts: Vec<usize>,
    mixes: Vec<Mix>,
}

impl Profile {
    fn full() -> Self {
        Profile {
            smoke: false,
            duration: Duration::from_secs(6),
            connections: 32,
            // Above single-shard capacity on purpose: an open-loop target
            // the server cannot sustain turns achieved RPS into a
            // saturation-throughput measurement.
            warm_rps: 25_000.0,
            cold_rps: 20.0,
            deadline_rps: 10.0,
            synth_rps: 4.0,
            reactor_counts: vec![1, 2, 4],
            mixes: vec![Mix::Warm, Mix::Cold, Mix::Deadline, Mix::SynthCold],
        }
    }

    /// The CI smoke profile: low RPS, 2 s, 1 vs 2 shards, the warm mix plus
    /// one pass of cold labels over the 10⁵-row synthetic scenario.
    fn smoke() -> Self {
        Profile {
            smoke: true,
            duration: Duration::from_secs(2),
            connections: 4,
            warm_rps: 20.0,
            cold_rps: 5.0,
            deadline_rps: 5.0,
            synth_rps: 2.0,
            reactor_counts: vec![1, 2],
            mixes: vec![Mix::Warm, Mix::SynthCold],
        }
    }

    fn rps_for(&self, mix: Mix) -> f64 {
        match mix {
            Mix::Warm => self.warm_rps,
            Mix::Cold => self.cold_rps,
            Mix::Deadline => self.deadline_rps,
            Mix::SynthCold => self.synth_rps,
        }
    }
}

/// One scheduled arrival, handed from the generator to a client.
struct Job {
    due: Instant,
    seq: u64,
}

/// One completed request, as the client measured it.
struct Sample {
    latency: Duration,
    status: u16,
}

struct RunOutcome {
    samples: Vec<Sample>,
    errors: u64,
    retries: u64,
    gave_up: u64,
    elapsed: Duration,
    mc_truncated_delta: u64,
    network: Option<serde_json::Value>,
    server_stages: Vec<StageSummary>,
    per_shard_requests: Vec<(String, u64)>,
    shard_skew: Option<f64>,
}

#[derive(serde::Serialize)]
struct LatencySummary {
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    mean_ms: f64,
}

#[derive(serde::Serialize)]
struct RunReport {
    reactors: usize,
    workers: usize,
    mix: String,
    target_rps: f64,
    duration_secs: f64,
    requests: u64,
    achieved_rps: f64,
    ok: u64,
    shed_503: u64,
    shed_rate: f64,
    /// Shed retries spent across the run (a request that eventually landed
    /// after N backoffs contributes N).
    retries: u64,
    /// Requests still shed after exhausting [`MAX_SHED_RETRIES`] backoffs.
    gave_up: u64,
    client_errors: u64,
    mc_truncated_runs: u64,
    latency: Option<LatencySummary>,
    server_network_totals: Option<serde_json::Value>,
    /// The server's own `/metrics` stage histograms at the end of the run:
    /// p50/p99/mean per pipeline stage, per shard and aggregated.
    server_stages: Vec<StageSummary>,
    /// Requests parsed per reactor shard (from the `parse` stage counts).
    per_shard_requests: Vec<(String, u64)>,
    /// Max-over-mean ratio of per-shard request counts (1.0 = perfectly
    /// balanced accept sharding).
    shard_skew: Option<f64>,
}

/// Warm-mix p99 with tracing at the default slow threshold (traces are
/// rare) versus `--slow-threshold-ms 0` (every request builds and publishes
/// a full trace) — the cost of the observability plane at its loudest.
#[derive(serde::Serialize)]
struct InstrumentationOverhead {
    baseline_warm_p99_ms: f64,
    trace_all_warm_p99_ms: f64,
    p99_ratio: f64,
}

/// One side of the restart-warm comparison: a server filled, shut down,
/// and restarted, with its first post-restart requests timed.
#[derive(serde::Serialize)]
struct RestartSide {
    disk_tier: bool,
    /// Round-trip of the very first request the restarted process serves.
    first_request_after_restart_ms: f64,
    /// p99 over the first post-restart request burst (first one included).
    post_restart_p99_ms: f64,
    /// Disk-tier hits the restarted server reported (0 without the tier).
    disk_hits_after_restart: u64,
    /// Pipeline preparations the first post-restart request cost (0 when
    /// the disk tier answered it).
    preparations_for_first_request: u64,
}

/// The `restart_warm` mix: cold-start latency of a restarted server with a
/// warm on-disk cache tier versus memory-only.
#[derive(serde::Serialize)]
struct RestartWarmReport {
    with_disk_tier: RestartSide,
    memory_only: RestartSide,
}

#[derive(serde::Serialize)]
struct BenchReport {
    benchmark: String,
    smoke: bool,
    host_parallelism: usize,
    note: String,
    warm_rps_by_reactors: Vec<(usize, f64)>,
    warm_scaling_vs_one_shard: Vec<(usize, f64)>,
    instrumentation_overhead: Option<InstrumentationOverhead>,
    restart_warm: Option<RestartWarmReport>,
    runs: Vec<RunReport>,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One request/response exchange on a keep-alive connection; reconnects
/// once if the stream has gone away (idle timeout, server-side close).
/// Returns the status code plus whether the response carried a
/// `Retry-After` header (the shed hint the backoff policy honours).
fn exchange(
    stream: &mut Option<TcpStream>,
    addr: SocketAddr,
    path: &str,
) -> std::io::Result<(u16, bool)> {
    for attempt in 0..2 {
        if stream.is_none() {
            *stream = Some(connect(addr)?);
        }
        let conn = stream.as_mut().expect("connection");
        let request =
            format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n");
        let result = conn
            .write_all(request.as_bytes())
            .and_then(|()| rf_net::read_one_response(conn));
        match result {
            Ok(response) => {
                let status = response
                    .head
                    .split(' ')
                    .nth(1)
                    .and_then(|code| code.parse().ok())
                    .unwrap_or(0);
                let retry_after = response
                    .head
                    .lines()
                    .any(|line| line.to_ascii_lowercase().starts_with("retry-after:"));
                return Ok((status, retry_after));
            }
            Err(err) if attempt == 0 => {
                // Stale keep-alive connection: drop it and retry fresh.
                *stream = None;
                let _ = err;
            }
            Err(err) => return Err(err),
        }
    }
    unreachable!("loop returns on the second attempt")
}

/// Most shed retries a client spends on one request before giving up.
const MAX_SHED_RETRIES: u32 = 3;

/// An exchange that honours `503 + Retry-After` sheds with a capped
/// exponential backoff (4/8/16 ms, +0–7 ms of deterministic per-request
/// jitter so retries from concurrent clients do not re-arrive in lockstep).
/// The server's literal `Retry-After` hint is whole seconds — honouring its
/// *presence* but substituting a bench-scaled backoff keeps the open-loop
/// schedule meaningful.  Returns `(status, retries, gave_up)`.
fn exchange_with_retry(
    stream: &mut Option<TcpStream>,
    addr: SocketAddr,
    path: &str,
    seq: u64,
) -> std::io::Result<(u16, u32, bool)> {
    let mut retries = 0u32;
    loop {
        let (status, retry_after) = exchange(stream, addr, path)?;
        if status != 503 || !retry_after {
            return Ok((status, retries, false));
        }
        if retries >= MAX_SHED_RETRIES {
            return Ok((status, retries, true));
        }
        let base = 4u64 << retries;
        let jitter = seq
            .wrapping_add(u64::from(retries))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> 61;
        std::thread::sleep(Duration::from_millis((base + jitter).min(50)));
        retries += 1;
    }
}

/// One GET over a fresh connection; returns the body on a 200.
fn scrape_body(addr: SocketAddr, path: &str) -> Option<String> {
    let mut stream = connect(addr).ok()?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).ok()?;
    let response = rf_net::read_one_response(&mut stream).ok()?;
    if !response.head.starts_with("HTTP/1.1 200") {
        return None;
    }
    Some(response.body_text())
}

/// Reads the service counters over the wire.
fn scrape_stats(addr: SocketAddr) -> Option<serde_json::Value> {
    serde_json::from_str(&scrape_body(addr, "/stats")?).ok()
}

/// Scrapes `/metrics` and fails the run if the exposition is malformed —
/// this is the CI gate for the observability plane.
fn scrape_metrics(addr: SocketAddr) -> MetricsSnapshot {
    let body = scrape_body(addr, "/metrics").expect("scrape /metrics");
    parse_metrics(&body).expect("/metrics must be valid Prometheus text exposition")
}

fn mc_truncated(stats: Option<&serde_json::Value>) -> u64 {
    stats
        .and_then(|value| value.get("monte_carlo"))
        .and_then(|mc| mc.get("truncated"))
        .and_then(serde_json::Value::as_u64)
        .unwrap_or(0)
}

/// Runs one open-loop measurement against a freshly started server.
///
/// `trace_all` drops the slow-trace threshold to zero so every request
/// publishes a full span trace — the worst-case instrumentation load, used
/// for the overhead comparison.
fn run_once(
    profile: &Profile,
    reactors: usize,
    workers: usize,
    mix: Mix,
    trace_all: bool,
) -> RunOutcome {
    let config = ServerConfig {
        bind_address: "127.0.0.1:0".to_string(),
        workers,
        reactors,
        slow_threshold_ms: if trace_all {
            0
        } else {
            ServerConfig::default().slow_threshold_ms
        },
        ..ServerConfig::default()
    };
    let catalog = DatasetCatalog::with_demo_datasets();
    if mix == Mix::SynthCold {
        let slug = catalog.register_synth_scenario(SYNTH_ROWS);
        assert_eq!(slug, "synth-100k", "the mix path names this slug");
    }
    let server = Server::bind(catalog, &config).expect("bind server");
    let addr = server.local_addr().expect("server address");
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    // Warm the cache so the warm mix measures serving, not generation.
    if mix == Mix::Warm {
        let mut warmup = None;
        for _ in 0..2 {
            exchange(&mut warmup, addr, WARM_PATH).expect("warmup request");
        }
    }
    let truncated_before = mc_truncated(scrape_stats(addr).as_ref());
    let metrics_before = scrape_metrics(addr);

    // Generator: schedule Poisson arrivals ahead of completions.
    let (sender, receiver) = mpsc::channel::<Job>();
    let receiver = Arc::new(Mutex::new(receiver));
    let rps = profile.rps_for(mix);
    let duration = profile.duration;
    let generator = std::thread::spawn(move || {
        let exp = Exp::new(rps);
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_1AB5);
        let started = Instant::now();
        let mut offset = 0.0f64;
        let mut seq = 0u64;
        loop {
            offset += exp.sample(&mut rng);
            if offset >= duration.as_secs_f64() {
                break;
            }
            let due = started + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if sender.send(Job { due, seq }).is_err() {
                break;
            }
            seq += 1;
        }
    });

    // Clients: each owns one keep-alive connection and drains the shared
    // arrival queue.
    let started = Instant::now();
    let clients: Vec<_> = (0..profile.connections)
        .map(|_| {
            let receiver = Arc::clone(&receiver);
            std::thread::spawn(move || {
                let mut stream: Option<TcpStream> = None;
                let mut samples = Vec::new();
                let mut errors = 0u64;
                let mut retries = 0u64;
                let mut gave_up = 0u64;
                loop {
                    let job = {
                        let queue = receiver.lock().expect("arrival queue");
                        match queue.recv() {
                            Ok(job) => job,
                            Err(_) => break,
                        }
                    };
                    let path = mix.path(job.seq);
                    match exchange_with_retry(&mut stream, addr, &path, job.seq) {
                        Ok((status, request_retries, request_gave_up)) => {
                            retries += u64::from(request_retries);
                            gave_up += u64::from(request_gave_up);
                            // Latency from *scheduled* arrival, so backoff
                            // sleeps count against the shed request.
                            samples.push(Sample {
                                latency: job.due.elapsed(),
                                status,
                            });
                        }
                        Err(_) => errors += 1,
                    }
                }
                (samples, errors, retries, gave_up)
            })
        })
        .collect();

    generator.join().expect("generator thread");
    let mut samples = Vec::new();
    let mut errors = 0u64;
    let mut retries = 0u64;
    let mut gave_up = 0u64;
    for client in clients {
        let (client_samples, client_errors, client_retries, client_gave_up) =
            client.join().expect("client thread");
        samples.extend(client_samples);
        errors += client_errors;
        retries += client_retries;
        gave_up += client_gave_up;
    }
    let elapsed = started.elapsed();

    let stats = scrape_stats(addr);
    let mc_truncated_delta = mc_truncated(stats.as_ref()).saturating_sub(truncated_before);
    let network = stats
        .as_ref()
        .and_then(|value| value.get("network"))
        .and_then(|network| network.get("totals"))
        .cloned();

    // Server-side observability scrape: the exposition must parse, every
    // cumulative series must be monotone across the run, and /debug/slow
    // must serve well-formed traces.  Any violation fails the run (and CI).
    let metrics_after = scrape_metrics(addr);
    check_counters_monotonic(&metrics_before, &metrics_after)
        .expect("cumulative /metrics series must never decrease");
    let slow_body = scrape_body(addr, "/debug/slow").expect("scrape /debug/slow");
    check_slow_debug(&slow_body).expect("/debug/slow must serve well-formed traces");

    // The run's own stage observations: the delta between the two scrapes,
    // so the warm-up request (and any earlier run) is not counted.
    let server_stages = stage_summaries(&delta(&metrics_before, &metrics_after));
    let per_shard_requests: Vec<(String, u64)> = server_stages
        .iter()
        .filter(|summary| {
            summary.stage == "parse" && summary.shard.chars().all(|ch| ch.is_ascii_digit())
        })
        .map(|summary| (summary.shard.clone(), summary.count))
        .collect();
    let shard_skew = (per_shard_requests.len() > 1).then(|| {
        let max = per_shard_requests
            .iter()
            .map(|(_, n)| *n)
            .max()
            .unwrap_or(0);
        let total: u64 = per_shard_requests.iter().map(|(_, n)| *n).sum();
        let mean = total as f64 / per_shard_requests.len() as f64;
        if mean > 0.0 {
            max as f64 / mean
        } else {
            0.0
        }
    });

    shutdown.store(true, Ordering::Relaxed);
    server_thread.join().expect("server thread");

    RunOutcome {
        samples,
        errors,
        retries,
        gave_up,
        elapsed,
        mc_truncated_delta,
        network,
        server_stages,
        per_shard_requests,
        shard_skew,
    }
}

/// One closed-loop warm measurement for the instrumentation-overhead pair:
/// a fresh one-shard server, a warmed cache, then `requests` sequential
/// exchanges on one keep-alive connection.  Returns the p99 round-trip in
/// milliseconds.
fn closed_loop_warm_p99(trace_all: bool, requests: usize) -> Option<f64> {
    let config = ServerConfig {
        bind_address: "127.0.0.1:0".to_string(),
        workers: 2,
        reactors: 1,
        slow_threshold_ms: if trace_all {
            0
        } else {
            ServerConfig::default().slow_threshold_ms
        },
        ..ServerConfig::default()
    };
    let server = Server::bind(DatasetCatalog::with_demo_datasets(), &config).expect("bind server");
    let addr = server.local_addr().expect("server address");
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    let mut stream = None;
    for _ in 0..50 {
        exchange(&mut stream, addr, WARM_PATH).ok()?;
    }
    let mut latencies_ms: Vec<f64> = (0..requests)
        .map(|_| {
            let started = Instant::now();
            exchange(&mut stream, addr, WARM_PATH).expect("warm request");
            started.elapsed().as_secs_f64() * 1_000.0
        })
        .collect();
    drop(stream);
    shutdown.store(true, Ordering::Relaxed);
    server_thread.join().expect("server thread");

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let index = ((latencies_ms.len() - 1) as f64 * 0.99).round() as usize;
    latencies_ms.get(index).copied()
}

/// Binds a one-shard server over an explicit label service (with or
/// without a disk tier) and runs it on a background thread.
fn bind_service_server(
    service: rf_core::LabelService,
) -> (
    SocketAddr,
    Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    let config = ServerConfig {
        bind_address: "127.0.0.1:0".to_string(),
        workers: 2,
        reactors: 1,
        ..ServerConfig::default()
    };
    let state = rf_server::AppState::with_service(DatasetCatalog::with_demo_datasets(), service);
    let server = Server::bind_state(state, &config).expect("bind server");
    let addr = server.local_addr().expect("server address");
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, shutdown, handle)
}

/// One side of the restart-warm measurement: fill a server's cache, shut it
/// down, restart over the same (or no) disk tier, and time the first
/// post-restart requests.  The `/metrics` scrape doubles as the CI gate for
/// the `rf_disk_*` families: with the tier attached they must be present and
/// monotone across the burst; without it they must be absent.
fn restart_warm_side(cache_dir: Option<&std::path::Path>) -> RestartSide {
    let open_store = |dir: &std::path::Path| {
        Arc::new(rf_store::DiskStore::open(dir, 64 * 1024 * 1024).expect("open disk store"))
    };
    let service_for = |dir: Option<&std::path::Path>| {
        let service = rf_core::LabelService::with_cache_policy(
            rf_core::AnalysisPipeline::new(),
            rf_core::service::DEFAULT_CACHE_CAPACITY,
            rf_core::service::DEFAULT_CACHE_BYTES,
            None,
        );
        match dir {
            Some(dir) => {
                let store = open_store(dir);
                (service.with_disk_tier(Arc::clone(&store)), Some(store))
            }
            None => (service, None),
        }
    };

    // Fill phase: serve the warm path once, make the fill durable, "crash".
    {
        let (service, store) = service_for(cache_dir);
        let (addr, shutdown, handle) = bind_service_server(service);
        let mut stream = None;
        for _ in 0..2 {
            exchange(&mut stream, addr, WARM_PATH).expect("fill request");
        }
        if let Some(store) = store {
            store.flush();
        }
        drop(stream);
        shutdown.store(true, Ordering::Relaxed);
        handle.join().expect("server thread");
    }

    // Restart phase: a fresh process-equivalent (new service, empty memory
    // tier) over the same directory.
    let (service, _store) = service_for(cache_dir);
    let (addr, shutdown, handle) = bind_service_server(service);
    let preparations_before = scrape_stats(addr)
        .and_then(|stats| {
            stats
                .get("preparations")
                .and_then(serde_json::Value::as_u64)
        })
        .unwrap_or(0);
    let metrics_before = scrape_metrics(addr);

    let mut stream = None;
    let mut latencies_ms = Vec::with_capacity(50);
    for _ in 0..50 {
        let started = Instant::now();
        let (status, _) = exchange(&mut stream, addr, WARM_PATH).expect("post-restart request");
        assert_eq!(status, 200, "post-restart warm request must succeed");
        latencies_ms.push(started.elapsed().as_secs_f64() * 1_000.0);
    }
    let first_request_after_restart_ms = latencies_ms[0];
    let stats = scrape_stats(addr).expect("scrape /stats");
    let preparations_for_first_request = stats
        .get("preparations")
        .and_then(serde_json::Value::as_u64)
        .unwrap_or(0)
        .saturating_sub(preparations_before);
    let disk_hits_after_restart = stats
        .get("disk")
        .and_then(|disk| disk.get("disk_hits"))
        .and_then(serde_json::Value::as_u64)
        .unwrap_or(0);

    let metrics_after = scrape_metrics(addr);
    check_counters_monotonic(&metrics_before, &metrics_after)
        .expect("cumulative /metrics series must never decrease across the restart burst");
    let has_disk_families = metrics_after
        .samples
        .keys()
        .any(|name| name.starts_with("rf_disk_"));
    assert_eq!(
        has_disk_families,
        cache_dir.is_some(),
        "rf_disk_* families must be exposed exactly when the tier is configured"
    );
    if cache_dir.is_some() {
        assert!(
            disk_hits_after_restart >= 1,
            "the restarted server's first warm request must be a disk hit"
        );
        assert_eq!(
            preparations_for_first_request, 0,
            "a disk-served restart must not re-run the pipeline"
        );
    }

    drop(stream);
    shutdown.store(true, Ordering::Relaxed);
    handle.join().expect("server thread");

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let index = ((latencies_ms.len() - 1) as f64 * 0.99).round() as usize;
    RestartSide {
        disk_tier: cache_dir.is_some(),
        first_request_after_restart_ms,
        post_restart_p99_ms: latencies_ms[index],
        disk_hits_after_restart,
        preparations_for_first_request,
    }
}

/// Runs both sides of the restart-warm comparison in a scratch directory.
fn restart_warm_run() -> RestartWarmReport {
    let dir = std::env::temp_dir().join(format!("rf-bench-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch cache dir");
    let with_disk_tier = restart_warm_side(Some(&dir));
    let memory_only = restart_warm_side(None);
    let _ = std::fs::remove_dir_all(&dir);
    RestartWarmReport {
        with_disk_tier,
        memory_only,
    }
}

fn summarize(
    profile: &Profile,
    reactors: usize,
    workers: usize,
    mix: Mix,
    out: RunOutcome,
) -> RunReport {
    let mut latencies_ms: Vec<f64> = out
        .samples
        .iter()
        .map(|sample| sample.latency.as_secs_f64() * 1_000.0)
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let percentile = |q: f64| -> f64 {
        if latencies_ms.is_empty() {
            return 0.0;
        }
        let index = ((latencies_ms.len() - 1) as f64 * q).round() as usize;
        latencies_ms[index]
    };
    let latency = if latencies_ms.is_empty() {
        None
    } else {
        Some(LatencySummary {
            p50_ms: percentile(0.50),
            p90_ms: percentile(0.90),
            p99_ms: percentile(0.99),
            max_ms: *latencies_ms.last().expect("non-empty"),
            mean_ms: latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64,
        })
    };

    let requests = out.samples.len() as u64 + out.errors;
    let ok = out
        .samples
        .iter()
        .filter(|sample| sample.status == 200)
        .count() as u64;
    let shed_503 = out
        .samples
        .iter()
        .filter(|sample| sample.status == 503)
        .count() as u64;
    let answered = out.samples.len() as u64;
    RunReport {
        reactors,
        workers,
        mix: mix.name().to_string(),
        target_rps: profile.rps_for(mix),
        duration_secs: out.elapsed.as_secs_f64(),
        requests,
        achieved_rps: answered as f64 / out.elapsed.as_secs_f64().max(f64::EPSILON),
        ok,
        shed_503,
        shed_rate: if answered == 0 {
            0.0
        } else {
            shed_503 as f64 / answered as f64
        },
        retries: out.retries,
        gave_up: out.gave_up,
        client_errors: out.errors,
        mc_truncated_runs: out.mc_truncated_delta,
        latency,
        server_network_totals: out.network,
        server_stages: out.server_stages,
        per_shard_requests: out.per_shard_requests,
        shard_skew: out.shard_skew,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profile = if args.iter().any(|arg| arg == "--smoke") {
        Profile::smoke()
    } else {
        Profile::full()
    };
    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let workers = 2usize;

    println!(
        "open-loop load generator: {} mode, {} host core(s), {} client connection(s), {:?} per run",
        if profile.smoke { "smoke" } else { "full" },
        host_parallelism,
        profile.connections,
        profile.duration,
    );

    let mut runs = Vec::new();
    for &reactors in &profile.reactor_counts {
        for &mix in &profile.mixes {
            println!(
                "→ reactors={reactors} mix={} target={} rps …",
                mix.name(),
                profile.rps_for(mix)
            );
            let outcome = run_once(&profile, reactors, workers, mix, false);
            let report = summarize(&profile, reactors, workers, mix, outcome);
            println!(
                "   {} requests, {:.1} rps achieved, {} ok / {} shed / {} errors{}{}",
                report.requests,
                report.achieved_rps,
                report.ok,
                report.shed_503,
                report.client_errors,
                report
                    .latency
                    .as_ref()
                    .map(|latency| {
                        format!(
                            ", p50 {:.2} ms / p99 {:.2} ms",
                            latency.p50_ms, latency.p99_ms
                        )
                    })
                    .unwrap_or_default(),
                report
                    .shard_skew
                    .map(|skew| format!(", shard skew {skew:.2}x"))
                    .unwrap_or_default(),
            );
            runs.push(report);
        }
    }

    // Instrumentation overhead: a dedicated closed-loop warm pair —
    // default slow threshold (traces are rare) vs threshold zero (every
    // request builds and publishes a full trace).  Closed-loop on one
    // keep-alive connection, because an open-loop p99 near any utilization
    // includes Poisson queueing delay, which amplifies scheduler jitter on
    // a shared core far beyond the sub-microsecond cost being measured.
    // Sides alternate and each keeps its best p99 across repeats, so a
    // transient machine stall (VM steal, page-cache flush) lands on
    // whichever run is active and min-of-repeats discards it symmetrically.
    println!("→ reactors=1 mix=warm closed-loop instrumentation-overhead pair …");
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        for (side, slot) in best.iter_mut().enumerate() {
            if let Some(p99) = closed_loop_warm_p99(side == 1, 2_000) {
                *slot = slot.min(p99);
            }
        }
    }
    let pair = (best[0].is_finite() && best[1].is_finite()).then_some((best[0], best[1]));
    let instrumentation_overhead = pair.map(|(baseline, traced)| {
        println!(
            "   warm p99 {baseline:.2} ms (default threshold) vs {traced:.2} ms (trace-all), \
             ratio {:.3}",
            traced / baseline.max(f64::EPSILON)
        );
        InstrumentationOverhead {
            baseline_warm_p99_ms: baseline,
            trace_all_warm_p99_ms: traced,
            p99_ratio: traced / baseline.max(f64::EPSILON),
        }
    });

    // The restart-warm pair: how much of a restarted server's cold start
    // the crash-safe disk tier absorbs.  Runs in smoke mode too — it doubles
    // as the CI gate that the rf_disk_* metric families parse, stay
    // monotone, and appear exactly when the tier is configured.
    println!("→ reactors=1 mix=restart_warm disk-tier vs memory-only …");
    let restart_warm = restart_warm_run();
    println!(
        "   first post-restart request: {:.2} ms with disk tier ({} disk hit(s), \
         {} preparation(s)) vs {:.2} ms memory-only ({} preparation(s))",
        restart_warm.with_disk_tier.first_request_after_restart_ms,
        restart_warm.with_disk_tier.disk_hits_after_restart,
        restart_warm.with_disk_tier.preparations_for_first_request,
        restart_warm.memory_only.first_request_after_restart_ms,
        restart_warm.memory_only.preparations_for_first_request,
    );

    let warm_rps_by_reactors: Vec<(usize, f64)> = runs
        .iter()
        .filter(|run| run.mix == "warm")
        .map(|run| (run.reactors, run.achieved_rps))
        .collect();
    let baseline = warm_rps_by_reactors
        .iter()
        .find(|(reactors, _)| *reactors == 1)
        .map(|(_, rps)| *rps)
        .unwrap_or(0.0);
    let warm_scaling_vs_one_shard: Vec<(usize, f64)> = warm_rps_by_reactors
        .iter()
        .map(|(reactors, rps)| (*reactors, if baseline > 0.0 { rps / baseline } else { 0.0 }))
        .collect();

    let report = BenchReport {
        benchmark: "server_open_loop_load".to_string(),
        smoke: profile.smoke,
        host_parallelism,
        note: format!(
            "Open-loop Poisson arrivals; latency measured from scheduled arrival. \
             Reactor-shard scaling is bounded by host parallelism: on a \
             {host_parallelism}-core host, {} shards cannot exceed ~{host_parallelism}x \
             one shard regardless of the I/O plane.",
            profile.reactor_counts.last().copied().unwrap_or(1)
        ),
        warm_rps_by_reactors,
        warm_scaling_vs_one_shard,
        instrumentation_overhead,
        restart_warm: Some(restart_warm),
        runs,
    };

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_server.json");
    println!("wrote {path}");
}
