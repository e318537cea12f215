//! The workloads: their inputs, generated from the seed alone, the set-up
//! before timing, and the timed loops with their output checks.

use crate::harness::{self, Client, Running};
use rf_core::{AnalysisPipeline, LabelService};
use rf_net::ClientResponse;
use rf_server::{route, AppState, DatasetCatalog, Request};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The demo datasets with the largest `k` each can label (cs-departments
/// has 97 rows).
pub const DEMO: [(&str, usize); 3] = [
    ("cs-departments", 97),
    ("compas", 100),
    ("german-credit", 100),
];
/// The `k` of the warm label paths, one path per value and dataset.  The
/// set is the same for every seed, which orders it: the fill latencies
/// `warm_hit` reports swung by a fifth between seeds when each seed drew
/// its own `k`.
const WARM_KS: [usize; 5] = [12, 32, 52, 72, 87];
/// Rows of the synthetic scenario `mixed_synth` labels cold.
pub const SYNTH_ROWS: usize = 20_000;
pub const SYNTH_SLUG: &str = "synth-20k";
/// The `mixed_synth` traffic, derived from two measurements on a 2-core
/// x86-64 host: one cold `synth-20k` label takes `COLD_LABEL_S` on an
/// otherwise idle 2-worker server, and `warm_hit` serves
/// about `WARM_CAPACITY_RPS` (the median of ten 30 s runs of this
/// benchmark was 18.2k/s).
const COLD_LABEL_S: f64 = 0.278;
const WARM_CAPACITY_RPS: f64 = 18_000.0;
/// Share of the time a cold label is in flight.  At one half, every stretch
/// of a run holds as many warm hits that arrive during cold work as on an
/// idle pool, and a cold label seldom waits for the one before it.
const COLD_BUSY_SHARE: f64 = 0.5;
/// Share of `warm_hit`'s capacity the warm hits offer: low enough that warm
/// hits alone never queue, so the queueing they show is the cold labels'.
const WARM_LOAD_SHARE: f64 = 0.02;
/// Cold labels per second (1.8) and warm hits per second (360).
pub const COLD_RATE: f64 = COLD_BUSY_SHARE / COLD_LABEL_S;
pub const WARM_RATE: f64 = WARM_LOAD_SHARE * WARM_CAPACITY_RPS;
/// `mixed_synth` arrivals per second; every `COLD_EVERY`-th is a cold
/// synthetic label, the rest are warm hits on the demo labels.  Counting
/// rather than drawing the cold share spaces cold labels evenly, so every
/// stretch of a run holds the same cold work.
pub const ARRIVAL_RATE: f64 = WARM_RATE + COLD_RATE;
pub const COLD_EVERY: u64 = (ARRIVAL_RATE / COLD_RATE + 0.5) as u64;
/// How far apart the request numbers of successive loops on one server
/// start, so that no loop repeats another's cold labels.
pub const PASS_STRIDE: u64 = 1 << 32;
/// Full set-ups per timed run; `setup_s` is their median.
pub const SETUPS: usize = 5;

const COLD_SALT: u64 = 0xC01D;
const WARMUP_SALT: u64 = 0x3A7E;
const ARRIVAL_SALT: u64 = 0xA331;
const SAMPLE_SALT: u64 = 0x5A3E;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmHit,
    ColdDemo,
    MixedSynth,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Warm,
    Cold,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "warm_hit" => Some(Workload::WarmHit),
            "cold_demo" => Some(Workload::ColdDemo),
            "mixed_synth" => Some(Workload::MixedSynth),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHit => "warm_hit",
            Workload::ColdDemo => "cold_demo",
            Workload::MixedSynth => "mixed_synth",
        }
    }

    /// The request class `p50_ms` and `tail_ms` describe.  On
    /// `mixed_synth` that is the cold labels: the warm hits there run at low
    /// load, where their latency is mostly how fast idle threads wake, which
    /// drifts with the host far beyond any bound a change could be held to.
    pub fn primary(self) -> Class {
        match self {
            Workload::WarmHit => Class::Warm,
            Workload::ColdDemo | Workload::MixedSynth => Class::Cold,
        }
    }

    /// How the workload offers load, for the report.
    pub fn describe(self, clients: usize) -> String {
        match self {
            Workload::WarmHit | Workload::ColdDemo => {
                format!("closed loop, {clients} keep-alive client(s)")
            }
            Workload::MixedSynth => format!(
                "open loop, seeded Poisson arrivals at {ARRIVAL_RATE:.1}/s, one in {COLD_EVERY} \
                 a cold {SYNTH_SLUG} label ({COLD_RATE:.2}/s, in flight {:.0}% of the time at \
                 {COLD_LABEL_S} s each; warm hits {WARM_RATE:.0}/s, {:.0}% of warm_hit's \
                 {WARM_CAPACITY_RPS}/s), over 2 keep-alive connections (one per class)",
                COLD_BUSY_SHARE * 100.0,
                WARM_LOAD_SHARE * 100.0,
            ),
        }
    }
}

/// SplitMix64 of `seed` and `i`: the one source of every generated input.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The warm label paths, every demo dataset at every `WARM_KS` value, in a
/// seeded order.
pub fn warm_paths(seed: u64) -> Vec<String> {
    let mut paths: Vec<String> = DEMO
        .iter()
        .flat_map(|(slug, _)| WARM_KS.map(|k| format!("/datasets/{slug}/label.json?k={k}")))
        .collect();
    for i in (1..paths.len()).rev() {
        paths.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    paths
}

/// Cold request `i` of `cold_demo`: dataset `i mod 3`, a `k` in
/// `10..=max_k`, and a Monte-Carlo seed of its own, so no two requests share
/// a cache key.  Each dataset's `k` starts at a seeded offset and steps by
/// a stride coprime to the range, so every stretch of a run covers the
/// range evenly and runs differ in order, not in how much work they hold.
pub fn cold_demo_path(seed: u64, i: u64) -> String {
    // Prime, and divides neither span (88 and 91 values of k).
    const STRIDE: u64 = 37;
    let dataset = i % 3;
    let (slug, max_k) = DEMO[dataset as usize];
    let span = (max_k - 9) as u64;
    let k = 10 + ((mix(seed, dataset) % span + (i / 3) % span * STRIDE) % span) as usize;
    let mc_seed = mix(seed ^ COLD_SALT, i);
    format!("/datasets/{slug}/label.json?k={k}&mc_seed={mc_seed}")
}

/// Cold request `j` of `mixed_synth`: the synthetic scenario, differing
/// from the others only in its Monte-Carlo seed.
pub fn cold_synth_path(seed: u64, j: u64) -> String {
    format!(
        "/datasets/{SYNTH_SLUG}/label.json?mc_seed={}",
        mix(seed ^ COLD_SALT, j)
    )
}

/// Whether cold request `i` is checked against the sequential pipeline.
pub fn sampled(seed: u64, i: u64, every: u64) -> bool {
    mix(seed ^ SAMPLE_SALT, i).is_multiple_of(every)
}

/// `count` arrival offsets in `[0, seconds)`: uniform order statistics,
/// which is a Poisson process conditioned on its arrival count.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let count = (rate * seconds).round() as u64;
    let mut times: Vec<f64> = (0..count)
        .map(|j| unit(mix(seed ^ ARRIVAL_SALT, j)) * seconds)
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

/// A server ready for timing, with what its set-up measured.
pub struct Setup {
    pub running: Running,
    /// Body of every warm path, as the fill served it.
    pub fills: HashMap<String, Vec<u8>>,
    pub seconds: f64,
    pub generate_ms: f64,
}

/// The catalogue the server serves: the demo datasets, plus the synthetic
/// scenario for `mixed_synth`.
pub fn catalog(workload: Workload) -> DatasetCatalog {
    let catalog = DatasetCatalog::with_demo_datasets();
    if workload == Workload::MixedSynth {
        let slug = catalog.register_synth_scenario(SYNTH_ROWS);
        assert_eq!(slug, SYNTH_SLUG, "the cold paths name this slug");
    }
    catalog
}

/// Sets a server up until the first timed request: catalogue and synthetic
/// table generation, bind, and cache warm-up.  `round` keeps the warm-up
/// labels of repeated set-ups distinct from each other and from every
/// timed request.
pub fn setup(
    workload: Workload,
    seed: u64,
    round: u64,
    workers: usize,
    scratch: &Path,
    trace_all: bool,
) -> Result<Setup, String> {
    let started = Instant::now();
    let catalog = catalog(workload);
    let generate_ms = started.elapsed().as_secs_f64() * 1e3;
    let cache_dir: Option<PathBuf> = (workload == Workload::MixedSynth).then(|| {
        let dir = scratch.join(format!("cache-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    if let Some(dir) = &cache_dir {
        std::fs::create_dir_all(dir).map_err(|err| format!("create {}: {err}", dir.display()))?;
    }
    let options = harness::options(workers, cache_dir.as_deref(), trace_all);
    let running =
        harness::start(catalog, &options).map_err(|err| format!("start server: {err}"))?;
    let mut client = Client::new(running.addr);
    let mut fills = HashMap::new();
    let mut fetch = |path: &str| -> Result<Vec<u8>, String> {
        let response = client
            .get(path)
            .map_err(|err| format!("set-up GET {path}: {err}"))?;
        match response.status() {
            Some(200) => Ok(response.body),
            status => Err(format!("set-up GET {path} answered {status:?}")),
        }
    };
    if workload != Workload::ColdDemo {
        for path in warm_paths(seed) {
            let body = fetch(&path)?;
            fills.insert(path, body);
        }
    }
    match workload {
        Workload::WarmHit => {}
        Workload::ColdDemo => {
            for (d, (slug, _)) in DEMO.iter().enumerate() {
                let mc_seed = mix(seed ^ WARMUP_SALT, round * 3 + d as u64);
                fetch(&format!("/datasets/{slug}/label.json?mc_seed={mc_seed}"))?;
            }
        }
        Workload::MixedSynth => {
            let mc_seed = mix(seed ^ WARMUP_SALT, round);
            fetch(&format!(
                "/datasets/{SYNTH_SLUG}/label.json?mc_seed={mc_seed}"
            ))?;
        }
    }
    Ok(Setup {
        running,
        fills,
        seconds: started.elapsed().as_secs_f64(),
        generate_ms,
    })
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub latency_ms: f64,
    /// How long after its scheduled send the request went out (open loop).
    pub late_ms: f64,
    /// When the response was in, in seconds from the start of the loop.
    pub at_s: f64,
}

/// What a timed loop observed.
#[derive(Default)]
pub struct Timed {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Cold responses kept for checking.
    pub kept: Vec<Kept>,
    pub errors: Vec<String>,
}

impl Timed {
    pub fn latencies(&self, class: Class) -> Vec<f64> {
        let mut values: Vec<f64> = self
            .samples
            .iter()
            .filter(|sample| sample.class == class)
            .map(|sample| sample.latency_ms)
            .collect();
        values.sort_by(f64::total_cmp);
        values
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Adds another loop's observations to these.
    pub fn absorb(&mut self, other: Timed) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.kept.extend(other.kept);
        for error in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(error);
            }
        }
    }
}

/// A cold response kept for a later check.
pub struct Kept {
    pub path: String,
    pub body: Vec<u8>,
    pub latency_ms: f64,
}

/// One request as the timed loop sends it.
pub struct Job {
    pub index: u64,
    pub class: Class,
    pub path: String,
}

/// What the loop does with each response besides timing it.
pub struct Checks<'a> {
    /// Expected body of each warm path.
    pub fills: &'a HashMap<String, Vec<u8>>,
    /// Whether to keep a cold response's body for a later check.
    pub keep: &'a (dyn Fn(u64) -> bool + Sync),
}

impl Checks<'_> {
    /// Checks one response and records it; false when it failed.
    fn record(
        &self,
        job: &Job,
        response: ClientResponse,
        sample: Sample,
        into: &mut Timed,
    ) -> bool {
        if response.status() != Some(200) {
            into.fail(format!("{} answered {:?}", job.path, response.status()));
            return false;
        }
        match job.class {
            Class::Warm => {
                if self.fills.get(&job.path) != Some(&response.body) {
                    into.fail(format!("{} served a body unlike its fill", job.path));
                    return false;
                }
            }
            Class::Cold => {
                if !response.body.starts_with(b"{") {
                    into.fail(format!("{} served a non-JSON body", job.path));
                    return false;
                }
                if (self.keep)(job.index) {
                    into.kept.push(Kept {
                        path: job.path.clone(),
                        body: response.body,
                        latency_ms: sample.latency_ms,
                    });
                }
            }
        }
        into.samples.push(sample);
        true
    }
}

/// A closed loop: `clients` connections, each sending the next request as
/// soon as its previous one is answered, until `duration` has passed.
/// Request `i`, counting from `first`, is `job(i)`, whichever client takes
/// it.
pub fn closed_loop(
    addr: std::net::SocketAddr,
    clients: usize,
    duration: Duration,
    first: u64,
    job: &(dyn Fn(u64) -> Job + Sync),
    checks: &Checks<'_>,
) -> Timed {
    let next = AtomicU64::new(first);
    let started = Instant::now();
    let deadline = started + duration;
    let mut timed = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut lane = Timed::default();
                    let mut client = Client::new(addr);
                    while Instant::now() < deadline {
                        let job = job(next.fetch_add(1, Ordering::Relaxed));
                        lane.attempted += 1;
                        let sent = Instant::now();
                        match client.get(&job.path) {
                            Ok(response) => {
                                let sample = Sample {
                                    class: job.class,
                                    latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                                    late_ms: 0.0,
                                    at_s: started.elapsed().as_secs_f64(),
                                };
                                checks.record(&job, response, sample, &mut lane);
                            }
                            Err(err) => lane.fail(format!("{}: {err}", job.path)),
                        }
                    }
                    lane
                })
            })
            .collect();
        let mut all = Timed::default();
        for lane in lanes {
            all.absorb(lane.join().expect("client thread"));
        }
        all
    });
    timed.wall_s = started.elapsed().as_secs_f64();
    timed
}

/// An open loop: each lane is one connection sending its jobs at their
/// scheduled offsets (seconds from the start), or as soon as the previous
/// response is in when it runs behind.  Latency counts from the scheduled
/// send, so time a request waited for its lane counts against it.
pub fn open_loop(
    addr: std::net::SocketAddr,
    lanes: Vec<Vec<(f64, Job)>>,
    checks: &Checks<'_>,
) -> Timed {
    let started = Instant::now();
    let mut timed = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|jobs| {
                scope.spawn(move || {
                    let mut lane = Timed::default();
                    let mut client = Client::new(addr);
                    for (offset, job) in jobs {
                        let due = started + Duration::from_secs_f64(offset);
                        wait_until(due);
                        let late_ms = due.elapsed().as_secs_f64() * 1e3;
                        lane.attempted += 1;
                        match client.get(&job.path) {
                            Ok(response) => {
                                let sample = Sample {
                                    class: job.class,
                                    latency_ms: due.elapsed().as_secs_f64() * 1e3,
                                    late_ms,
                                    at_s: started.elapsed().as_secs_f64(),
                                };
                                checks.record(&job, response, sample, &mut lane);
                            }
                            Err(err) => lane.fail(format!("{}: {err}", job.path)),
                        }
                    }
                    lane
                })
            })
            .collect();
        let mut all = Timed::default();
        for handle in handles {
            all.absorb(handle.join().expect("client thread"));
        }
        all
    });
    timed.wall_s = started.elapsed().as_secs_f64();
    timed
}

/// Sleeps until shortly before `due`, then yields until it passes, so the
/// send is not late by a whole timer slack.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + Duration::from_micros(300) {
        std::thread::sleep(due - now - Duration::from_micros(200));
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Runs the workload's timed loop against a set-up server.  Cold requests
/// are numbered from `first`, so loops that start from different `first`s
/// far enough apart never repeat a cold label on one server.  Cold requests
/// for which `keep` holds keep their bodies for later checks.
pub fn run(
    workload: Workload,
    seed: u64,
    setup: &Setup,
    clients: usize,
    duration: Duration,
    first: u64,
    keep: &(dyn Fn(u64) -> bool + Sync),
) -> Timed {
    let addr = setup.running.addr;
    let checks = Checks {
        fills: &setup.fills,
        keep,
    };
    match workload {
        Workload::WarmHit => {
            let paths = warm_paths(seed);
            let job = |i: u64| Job {
                index: i,
                class: Class::Warm,
                path: paths[(i % paths.len() as u64) as usize].clone(),
            };
            closed_loop(addr, clients, duration, first, &job, &checks)
        }
        Workload::ColdDemo => {
            let job = |i: u64| Job {
                index: i,
                class: Class::Cold,
                path: cold_demo_path(seed, i),
            };
            closed_loop(addr, clients, duration, first, &job, &checks)
        }
        Workload::MixedSynth => {
            let paths = warm_paths(seed);
            let phase = mix(seed, ARRIVAL_SALT) % COLD_EVERY;
            let mut warm = Vec::new();
            let mut cold = Vec::new();
            let times = arrivals(seed, ARRIVAL_RATE, duration.as_secs_f64());
            for (offset, j) in times.into_iter().zip(0u64..) {
                if (j + phase).is_multiple_of(COLD_EVERY) {
                    let index = first + cold.len() as u64;
                    let path = cold_synth_path(seed, index);
                    let class = Class::Cold;
                    cold.push((offset, Job { index, class, path }));
                } else {
                    let index = warm.len() as u64;
                    let path = paths[(index % paths.len() as u64) as usize].clone();
                    let class = Class::Warm;
                    warm.push((offset, Job { index, class, path }));
                }
            }
            open_loop(addr, vec![warm, cold], &checks)
        }
    }
}

/// Labels requests in this process on the sequential reference pipeline,
/// through the same router the server uses.
pub struct Reference {
    state: AppState,
}

impl Reference {
    pub fn new(workload: Workload) -> Self {
        let service = LabelService::with_pipeline(
            AnalysisPipeline::sequential(),
            rf_core::service::DEFAULT_CACHE_CAPACITY,
            rf_core::service::DEFAULT_CACHE_BYTES,
        );
        Reference {
            state: AppState::with_service(catalog(workload), service),
        }
    }

    /// Whether the reference labels `path` to exactly `body`.
    pub fn check(&self, path: &str, body: &[u8]) -> Result<(), String> {
        let request = Request::read_from(&harness::request_bytes(path)[..])
            .ok_or_else(|| format!("reference cannot parse {path}"))?;
        let response = route(&self.state, &request);
        if response.status.code() != 200 {
            return Err(format!(
                "reference answered {} for {path}",
                response.status.code()
            ));
        }
        if response.body.as_str().as_bytes() != body {
            return Err(format!(
                "{path}: served body differs from the sequential pipeline's"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        assert_eq!(warm_paths(7), warm_paths(7));
        assert_ne!(warm_paths(7), warm_paths(8));
        let mut seven = warm_paths(7);
        let mut eight = warm_paths(8);
        seven.sort();
        eight.sort();
        assert_eq!(seven, eight, "seeds order one set of paths");
        assert_eq!(seven.len(), 15);
        assert_eq!(cold_demo_path(3, 41), cold_demo_path(3, 41));
        assert_eq!(arrivals(5, 100.0, 2.0), arrivals(5, 100.0, 2.0));
    }

    #[test]
    fn cold_requests_never_share_a_cache_key() {
        let paths: std::collections::HashSet<String> = (0..5_000)
            .chain(PASS_STRIDE..PASS_STRIDE + 5_000)
            .map(|i| cold_demo_path(11, i))
            .collect();
        assert_eq!(paths.len(), 10_000);
        // Every dataset's first `span` requests cover each `k` once.
        for (dataset, (_, max_k)) in DEMO.iter().enumerate() {
            let ks: std::collections::BTreeSet<String> = (0..(max_k - 9) as u64)
                .map(|j| cold_demo_path(11, j * 3 + dataset as u64))
                .map(|path| path.split('&').next().expect("k").to_string())
                .collect();
            assert_eq!(ks.len(), max_k - 9);
        }
        for i in 0..300 {
            let path = cold_demo_path(11, i);
            assert!(path.contains(DEMO[(i % 3) as usize].0), "{path}");
            let k: usize = path
                .split("k=")
                .nth(1)
                .and_then(|rest| rest.split('&').next())
                .and_then(|k| k.parse().ok())
                .expect("k");
            assert!((10..=DEMO[(i % 3) as usize].1).contains(&k), "{path}");
        }
    }

    #[test]
    fn mixed_traffic_follows_its_derivation() {
        assert_eq!(COLD_EVERY, 201);
        let cold_rate = ARRIVAL_RATE / COLD_EVERY as f64;
        assert!((cold_rate * COLD_LABEL_S - COLD_BUSY_SHARE).abs() < 0.01);
        let warm_rate = ARRIVAL_RATE - cold_rate;
        assert!((warm_rate / WARM_CAPACITY_RPS - WARM_LOAD_SHARE).abs() < 0.001);
    }

    #[test]
    fn arrivals_are_sorted_and_inside_the_window() {
        let times = arrivals(9, 400.0, 3.0);
        assert_eq!(times.len(), 1_200);
        assert!(times.windows(2).all(|pair| pair[0] <= pair[1]));
        assert!(times.iter().all(|t| (0.0..3.0).contains(t)));
    }
}
