//! The event-driven server: an `rf-net` reactor in front of the label
//! service's `rf-runtime` scheduler.
//!
//! All socket I/O — accepting, incremental request parsing, buffered
//! response streaming — happens on the reactor thread; the scheduler only
//! ever sees complete requests, so its workers are busy exactly when label
//! CPU work exists.  Thousands of idle keep-alive connections cost one epoll
//! registration each, not a worker.  One scheduler runs everything: the
//! request jobs, the widget jobs they fan out, and the Monte-Carlo trial
//! batches, so the server runs `--workers` pinned threads in all:
//!
//! ```text
//! accept ─► reactor (epoll) ─► Scheduler::execute_notify ─► route()
//!              ▲                                                │
//!              └────── eventfd wake ◄── Responder::send ◄───────┘
//! ```

use crate::catalog::DatasetCatalog;
use crate::http::{percent_decode, Request, Response, StatusCode};
use crate::router::{route, AppState};
use rf_core::ServiceMetrics;
use rf_net::{Dispatch, ParsedRequest, Reactor, ReactorConfig, Responder};
use rf_runtime::Scheduler;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default per-reactor connection cap (the PR-3 hard-coded value, now a
/// knob).
pub const DEFAULT_MAX_CONNECTIONS: usize = 4096;
/// Default idle timeout in milliseconds.
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 60_000;
/// Default request-progress deadline in milliseconds.
pub const DEFAULT_REQUEST_DEADLINE_MS: u64 = 30_000;
/// Default admission-control bound on dispatched-but-unanswered requests.
/// Generous on purpose: a queue this deep means seconds of backlog, and
/// only then does the server prefer a fast `503` over a doomed wait.
pub const DEFAULT_MAX_PENDING: usize = 1_024;
/// Default slow-trace threshold in milliseconds: requests whose end-to-end
/// latency reaches this land in the `/debug/slow` ring.
pub const DEFAULT_SLOW_THRESHOLD_MS: u64 = 500;
/// Default capacity of the slow-trace ring.
pub const DEFAULT_TRACE_RING_ENTRIES: usize = 256;
/// Default size bound for the on-disk label-cache tier (256 MiB).  Only
/// relevant once `--cache-dir` opts into the disk tier at all.
pub const DEFAULT_CACHE_DISK_BYTES: u64 = 256 * 1024 * 1024;

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:8080`.  Use port 0 to let the OS pick
    /// a free port (handy for tests).
    pub bind_address: String,
    /// Number of reactor shards.  `1` (the default) binds one ordinary
    /// listener and runs the event loop on the calling thread — today's
    /// topology, bit for bit.  `N > 1` binds N `SO_REUSEPORT` listeners on
    /// the same address; the kernel balances accepts across them and each
    /// reactor owns its connections' full lifecycle.
    pub reactors: usize,
    /// Per-reactor cap on simultaneously open connections; excess accepts
    /// are answered with a synchronous `503` and closed.
    pub max_connections: usize,
    /// How long a connection may sit without socket activity before it is
    /// closed, in milliseconds.
    pub idle_timeout_ms: u64,
    /// How long a *started* request may take to arrive completely, in
    /// milliseconds (the slow-loris defence).
    pub request_deadline_ms: u64,
    /// Admission control: when this many dispatched requests are still
    /// unanswered, further requests are shed with `503` + `Retry-After`
    /// instead of deepening a queue nobody will live to see served.
    pub max_pending: usize,
    /// Requests whose end-to-end latency reaches this many milliseconds are
    /// traced into the `/debug/slow` ring.  `0` traces every request —
    /// reachable programmatically (tests pin the byte-identical contract
    /// with full tracing on), but rejected by the `--slow-threshold-ms`
    /// flag, where it is a typo'd deployment.
    pub slow_threshold_ms: u64,
    /// Capacity of the slow-trace ring shared by every reactor shard.
    pub trace_ring_entries: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind_address: "127.0.0.1:8080".to_string(),
            reactors: 1,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            idle_timeout_ms: DEFAULT_IDLE_TIMEOUT_MS,
            request_deadline_ms: DEFAULT_REQUEST_DEADLINE_MS,
            max_pending: DEFAULT_MAX_PENDING,
            slow_threshold_ms: DEFAULT_SLOW_THRESHOLD_MS,
            trace_ring_entries: DEFAULT_TRACE_RING_ENTRIES,
        }
    }
}

/// The server binary's command line, parsed: bind address plus the
/// deployment knobs of the shared label cache (its entry and byte bounds and
/// the on-disk tier), the reactors and admission control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerOptions {
    /// Address to bind (first positional argument; default `127.0.0.1:8080`).
    pub bind_address: String,
    /// Label-generation workers (`--workers N`; default 4): sizes the label
    /// service's scheduler (the one `/stats` reports), which runs the
    /// server's request jobs as well as the pipeline's widget jobs and
    /// Monte-Carlo trials — one pool, so the flag bounds the server's label
    /// CPU and its worker threads.
    pub workers: usize,
    /// Maximum resident cached labels (`--cache-entries N`).
    pub cache_entries: usize,
    /// Maximum resident cached bytes (`--cache-bytes N`).
    pub cache_bytes: usize,
    /// Directory for the crash-safe on-disk label-cache tier
    /// (`--cache-dir PATH`; default none — memory-only, exactly the
    /// pre-disk-tier behaviour).  An unusable directory degrades to
    /// memory-only with a startup warning instead of refusing to serve.
    pub cache_dir: Option<String>,
    /// Size bound for the on-disk tier in bytes (`--cache-disk-bytes N`;
    /// default 256 MiB).  Oldest entries are pruned first.
    pub cache_disk_bytes: u64,
    /// Reactor shards (`--reactors N`; default = available cores).  `1`
    /// preserves the single-reactor topology bit for bit.
    pub reactors: usize,
    /// Per-reactor connection cap (`--max-conns N`).
    pub max_conns: usize,
    /// Idle-connection timeout in milliseconds (`--idle-timeout-ms N`).
    pub idle_timeout_ms: u64,
    /// Request-progress deadline in milliseconds
    /// (`--request-deadline-ms N`).
    pub request_deadline_ms: u64,
    /// Admission-control pending-request bound (`--max-pending N`).
    pub max_pending: usize,
    /// Slow-trace threshold in milliseconds (`--slow-threshold-ms N`).
    pub slow_threshold_ms: u64,
    /// Slow-trace ring capacity (`--trace-ring-entries N`).
    pub trace_ring_entries: usize,
    /// Row counts of synthetic scenarios to register at startup
    /// (`--synth-rows N`, repeatable; default none).  Each becomes a
    /// catalogue entry named by `SynthScenarioConfig::slug` (`synth-100k`,
    /// `synth-1m`, ...), so the data plane can be exercised at scale
    /// without shipping a large file.
    pub synth_rows: Vec<usize>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            bind_address: "127.0.0.1:8080".to_string(),
            workers: 4,
            cache_entries: rf_core::service::DEFAULT_CACHE_CAPACITY,
            cache_bytes: rf_core::service::DEFAULT_CACHE_BYTES,
            cache_dir: None,
            cache_disk_bytes: DEFAULT_CACHE_DISK_BYTES,
            reactors: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            max_conns: DEFAULT_MAX_CONNECTIONS,
            idle_timeout_ms: DEFAULT_IDLE_TIMEOUT_MS,
            request_deadline_ms: DEFAULT_REQUEST_DEADLINE_MS,
            max_pending: DEFAULT_MAX_PENDING,
            slow_threshold_ms: DEFAULT_SLOW_THRESHOLD_MS,
            trace_ring_entries: DEFAULT_TRACE_RING_ENTRIES,
            synth_rows: Vec::new(),
        }
    }
}

impl ServerOptions {
    /// Parses the binary's arguments (everything after `argv[0]`).
    ///
    /// # Errors
    /// A usage message for unknown flags, missing values, or unparsable
    /// numbers.
    pub fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut options = ServerOptions::default();
        let mut positional = 0usize;
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            let mut numeric = |name: &str| -> Result<u64, String> {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{name} expects a value"))?;
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{name} expects a whole number, got `{value}`"))
            };
            // Every count knob rejects zero outright instead of clamping:
            // `--reactors 0` or `--cache-bytes 0` is a typo'd deployment,
            // not a server that refuses every byte or caches nothing.
            let positive = |name: &str, value: u64| -> Result<u64, String> {
                if value == 0 {
                    Err(format!("{name} must be at least 1"))
                } else {
                    Ok(value)
                }
            };
            match arg.as_str() {
                "--workers" => {
                    options.workers = positive("--workers", numeric("--workers")?)? as usize;
                }
                "--cache-entries" => {
                    options.cache_entries =
                        positive("--cache-entries", numeric("--cache-entries")?)? as usize;
                }
                "--cache-bytes" => {
                    options.cache_bytes =
                        positive("--cache-bytes", numeric("--cache-bytes")?)? as usize;
                }
                "--cache-dir" => {
                    let value = args
                        .next()
                        .ok_or_else(|| "--cache-dir expects a path".to_string())?;
                    options.cache_dir = Some(value);
                }
                "--cache-disk-bytes" => {
                    options.cache_disk_bytes =
                        positive("--cache-disk-bytes", numeric("--cache-disk-bytes")?)?;
                }
                "--reactors" => {
                    options.reactors = positive("--reactors", numeric("--reactors")?)? as usize;
                }
                "--max-conns" => {
                    options.max_conns = positive("--max-conns", numeric("--max-conns")?)? as usize;
                }
                "--idle-timeout-ms" => {
                    options.idle_timeout_ms =
                        positive("--idle-timeout-ms", numeric("--idle-timeout-ms")?)?;
                }
                "--request-deadline-ms" => {
                    options.request_deadline_ms =
                        positive("--request-deadline-ms", numeric("--request-deadline-ms")?)?;
                }
                "--max-pending" => {
                    options.max_pending =
                        positive("--max-pending", numeric("--max-pending")?)? as usize;
                }
                "--slow-threshold-ms" => {
                    options.slow_threshold_ms =
                        positive("--slow-threshold-ms", numeric("--slow-threshold-ms")?)?;
                }
                "--trace-ring-entries" => {
                    options.trace_ring_entries =
                        positive("--trace-ring-entries", numeric("--trace-ring-entries")?)?
                            as usize;
                }
                "--synth-rows" => {
                    options
                        .synth_rows
                        .push(positive("--synth-rows", numeric("--synth-rows")?)? as usize);
                }
                flag if flag.starts_with("--") => {
                    return Err(format!(
                        "unknown flag `{flag}` (available: --workers, --cache-entries, \
                         --cache-bytes, --cache-dir, --cache-disk-bytes, \
                         --reactors, --max-conns, --idle-timeout-ms, --request-deadline-ms, \
                         --max-pending, --slow-threshold-ms, --trace-ring-entries, \
                         --synth-rows)"
                    ));
                }
                address => {
                    if positional > 0 {
                        return Err(format!("unexpected extra argument `{address}`"));
                    }
                    options.bind_address = address.to_string();
                    positional += 1;
                }
            }
        }
        Ok(options)
    }

    /// The [`ServerConfig`] slice of the options.
    #[must_use]
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            bind_address: self.bind_address.clone(),
            reactors: self.reactors,
            max_connections: self.max_conns,
            idle_timeout_ms: self.idle_timeout_ms,
            request_deadline_ms: self.request_deadline_ms,
            max_pending: self.max_pending,
            slow_threshold_ms: self.slow_threshold_ms,
            trace_ring_entries: self.trace_ring_entries,
        }
    }

    /// Builds the label service these options describe: the parallel
    /// pipeline on a dedicated `workers`-sized scheduler (which the server
    /// dispatches its requests onto as well), behind a cache
    /// bounded by `cache_entries` / `cache_bytes`, with the crash-safe
    /// on-disk tier under it when `--cache-dir` names a directory.
    ///
    /// The disk tier fails *soft*: labels are pure functions of
    /// (table, config), so an unusable cache directory costs warm restarts,
    /// never correctness.  On any open error the server logs a warning and
    /// serves memory-only — degraded, not down.
    #[must_use]
    pub fn label_service(&self) -> rf_core::LabelService {
        let pool = Arc::new(rf_runtime::ThreadPool::new(self.workers));
        let service = rf_core::LabelService::with_pipeline(
            rf_core::AnalysisPipeline::with_pool(pool),
            self.cache_entries,
            self.cache_bytes,
        );
        let Some(dir) = &self.cache_dir else {
            return service;
        };
        match rf_store::DiskStore::open(dir, self.cache_disk_bytes) {
            Ok(store) => service.with_disk_tier(Arc::new(store)),
            Err(err) => {
                eprintln!(
                    "warning: cache dir `{dir}` unusable ({err}); \
                     serving memory-only (degraded mode)"
                );
                service
            }
        }
    }
}

/// Admission-control state shared by every reactor shard: gauges of
/// dispatched-but-unanswered and dispatched-but-unstarted requests and an
/// EWMA of service time, all readable with single atomic loads on the
/// reactor threads.
struct Admission {
    /// Shed when this many requests are already dispatched and unanswered.
    max_pending: usize,
    /// Requests dispatched to the scheduler whose response has not been
    /// sent.
    pending: AtomicUsize,
    /// Requests dispatched to the scheduler whose job has not started: the
    /// backlog a new request queues behind.  The scheduler's own queue depth
    /// would also count the widget and trial tasks of labels in progress.
    waiting: AtomicUsize,
    /// Exponentially weighted moving average of request service time, in
    /// microseconds (α = 1/8).  Zero until the first request completes.
    avg_service_micros: AtomicU64,
    /// The label service's metrics, whose prepare+render stage histograms
    /// the controller prefers over its own EWMA once they have
    /// observations: their mean is an actual per-request CPU cost, where
    /// the EWMA also smears cache hits and non-label routes into the
    /// estimate.
    measured: Arc<ServiceMetrics>,
}

impl Admission {
    fn new(max_pending: usize, measured: Arc<ServiceMetrics>) -> Self {
        Admission {
            max_pending: max_pending.max(1),
            pending: AtomicUsize::new(0),
            waiting: AtomicUsize::new(0),
            avg_service_micros: AtomicU64::new(0),
            measured,
        }
    }

    /// Mean prepare+render time from the measured histograms, in
    /// microseconds — `0` until both stages have observations.
    fn measured_service_micros(&self) -> u64 {
        let stages = self.measured.stages();
        let prepare = stages.histogram(rf_obs::Stage::Prepare).snapshot();
        let render = stages.histogram(rf_obs::Stage::Render).snapshot();
        if prepare.count() == 0 || render.count() == 0 {
            return 0;
        }
        prepare.mean_micros().saturating_add(render.mean_micros())
    }

    /// The per-request service-time estimate steering admission: the
    /// measured histogram mean once it exists, the EWMA before that.
    fn service_estimate_micros(&self) -> u64 {
        let measured = self.measured_service_micros();
        if measured > 0 {
            measured
        } else {
            self.avg_service_micros.load(Ordering::Relaxed)
        }
    }

    /// The `/stats` view: occupancy plus predicted-vs-measured service time.
    fn stats(&self) -> rf_core::AdmissionStats {
        rf_core::AdmissionStats {
            max_pending: self.max_pending as u64,
            pending: self.pending.load(Ordering::Acquire) as u64,
            ewma_service_micros: self.avg_service_micros.load(Ordering::Relaxed),
            measured_service_micros: self.measured_service_micros(),
        }
    }

    /// Folds one completed request's service time into the EWMA.  The
    /// load/store pair can drop a concurrent sample under a race — fine for
    /// a smoothed estimate that only steers `Retry-After` hints and
    /// deadline headroom.
    fn record_service(&self, elapsed: Duration) {
        let sample = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let old = self.avg_service_micros.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old - old / 8 + sample / 8
        };
        self.avg_service_micros.store(new, Ordering::Relaxed);
    }

    /// The queue wait a newly dispatched request would predictably incur,
    /// given the request backlog: `queued × service_estimate / workers`.
    fn predicted_wait_micros(&self, queued: usize, workers: usize) -> u64 {
        let avg = self.service_estimate_micros();
        (queued as u64).saturating_mul(avg) / workers.max(1) as u64
    }

    /// Whether a request with `deadline_ms` of budget should shed: its
    /// predicted queue wait alone already exceeds the whole budget, so
    /// queueing it burns a worker slot to produce a fully truncated label
    /// nobody asked for.  Strictly greater-than: a zero deadline against an
    /// empty queue is still served (the deadline-budget contract since
    /// PR 5).
    fn deadline_already_spent(&self, deadline_ms: u64, queued: usize, workers: usize) -> bool {
        self.predicted_wait_micros(queued, workers) / 1_000 > deadline_ms
    }

    /// The `Retry-After` hint, in whole seconds, derived from the backlog
    /// the shed request saw.
    fn retry_after_secs(&self, queued: usize, workers: usize) -> u64 {
        (self.predicted_wait_micros(queued, workers) / 1_000_000).clamp(1, 30)
    }
}

/// Decrements the pending gauge when the request's job ends — however it
/// ends, panics included, so a crashed handler can never leak permanent
/// admission pressure.
struct PendingGuard(Arc<Admission>);

impl Drop for PendingGuard {
    fn drop(&mut self) {
        self.0.pending.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Extracts the `deadline_ms` query parameter from a raw request target the
/// way the router reads it: names and values percent-decoded, the last
/// occurrence winning.  Allocates only for targets with `%` or `+` — the
/// admission check runs on the reactor thread.
fn deadline_ms_of(target: &str) -> Option<u64> {
    let (_, query) = target.split_once('?')?;
    let (_, value) = query
        .rsplit('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(name, _)| percent_decode(name) == "deadline_ms")?;
    percent_decode(value).parse().ok()
}

/// Counts dispatched jobs that have not finished, so [`Server::run`] can
/// wait for the last one: the scheduler belongs to the label service and
/// outlives the server's run.
#[derive(Default)]
struct InFlight {
    jobs: Mutex<usize>,
    idle: Condvar,
}

impl InFlight {
    fn start(&self) {
        *self.jobs.lock().unwrap_or_else(PoisonError::into_inner) += 1;
    }

    fn finish(&self) {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        *jobs -= 1;
        if *jobs == 0 {
            self.idle.notify_all();
        }
    }

    fn wait_idle(&self) {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        while *jobs > 0 {
            jobs = self.idle.wait(jobs).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The reactor-side request hook: converts parsed requests, schedules the
/// CPU work on the label service's scheduler, and streams the response back
/// through the completion queue.  Shared by every reactor shard, so the
/// admission gauges see the server's whole load.
struct LabelDispatch {
    state: Arc<AppState>,
    scheduler: Arc<Scheduler>,
    admission: Arc<Admission>,
    in_flight: Arc<InFlight>,
}

impl LabelDispatch {
    fn new(state: Arc<AppState>, scheduler: Arc<Scheduler>, max_pending: usize) -> Self {
        let metrics = Arc::clone(state.labels.metrics());
        LabelDispatch {
            state,
            scheduler,
            admission: Arc::new(Admission::new(max_pending, metrics)),
            in_flight: Arc::default(),
        }
    }

    /// Runs on the reactor thread: admit (incrementing the pending gauge)
    /// or refuse with a `Retry-After` hint.  Two triggers shed: the pending
    /// gauge at its bound, and a `deadline_ms` budget the predicted queue
    /// wait has already spent.
    fn admit(&self, target: &str) -> Result<PendingGuard, (rf_obs::ShedReason, u64)> {
        let pending = self.admission.pending.load(Ordering::Acquire);
        let queued = self.admission.waiting.load(Ordering::Acquire);
        let workers = self.scheduler.size();
        if pending >= self.admission.max_pending {
            return Err((
                rf_obs::ShedReason::MaxPending,
                self.admission.retry_after_secs(queued, workers),
            ));
        }
        if let Some(deadline_ms) = deadline_ms_of(target) {
            if self
                .admission
                .deadline_already_spent(deadline_ms, queued, workers)
            {
                return Err((
                    rf_obs::ShedReason::DeadlineSpent,
                    self.admission.retry_after_secs(queued, workers),
                ));
            }
        }
        self.admission.pending.fetch_add(1, Ordering::AcqRel);
        Ok(PendingGuard(Arc::clone(&self.admission)))
    }
}

impl Dispatch for LabelDispatch {
    fn dispatch(&self, parsed: ParsedRequest, responder: Responder) {
        let span = Arc::clone(responder.span());
        let admission_started = Instant::now();
        let decision = self.admit(&parsed.target);
        let admission_elapsed = admission_started.elapsed();
        self.state
            .labels
            .metrics()
            .stages()
            .record(rf_obs::Stage::Admission, admission_elapsed);
        span.record(rf_obs::Stage::Admission, admission_elapsed);
        let guard = match decision {
            Ok(guard) => guard,
            Err((reason, retry_after_secs)) => {
                span.set_shed(reason);
                responder.shed(retry_after_secs);
                return;
            }
        };
        let state = Arc::clone(&self.state);
        let admission = Arc::clone(&self.admission);
        let waker = responder.waker();
        let in_flight = Arc::clone(&self.in_flight);
        in_flight.start();
        admission.waiting.fetch_add(1, Ordering::AcqRel);
        let enqueued = Instant::now();
        // The notify hook fires after the job ends *however* it ends, so the
        // reactor always re-checks its completion queue — even if the route
        // panicked and the responder's drop answered 500 mid-unwind.
        self.scheduler.execute_notify(
            move || {
                // Dropped when the job ends, panic or not.
                let pending = guard;
                admission.waiting.fetch_sub(1, Ordering::AcqRel);
                // Enqueue → job start, once per request: the queue wait the
                // admission estimate predicts.  Widget and trial tasks on
                // the same scheduler are not requests and record none.
                let waited = enqueued.elapsed();
                state
                    .labels
                    .metrics()
                    .stages()
                    .record(rf_obs::Stage::QueueWait, waited);
                span.record(rf_obs::Stage::QueueWait, waited);
                // Active for the whole route, so the pipeline's stage
                // timings, cache outcome, and truncation flag land on this
                // request's span.
                let _active = rf_obs::activate(Arc::clone(&span));
                let started = Instant::now();
                let keep_alive = responder.keep_alive();
                let response = match Request::from_parsed(parsed) {
                    Some(request) => route(&state, &request),
                    None => Response::text(StatusCode::BadRequest, "malformed request"),
                };
                admission.record_service(started.elapsed());
                // Release the admission slot *before* handing the response
                // to the completion queue: a client that reads this
                // response and immediately sends another request must never
                // be shed by its own already-answered request.
                drop(pending);
                responder.send(response.into_outbound(keep_alive));
            },
            // Runs after the job's captures, the `AppState` among them, are
            // dropped.
            move || {
                waker.wake();
                in_flight.finish();
            },
        );
    }
}

/// The Ranking Facts demo server.
pub struct Server {
    state: Arc<AppState>,
    /// The label service's scheduler, which the requests run on too.
    scheduler: Arc<Scheduler>,
    /// One listener per reactor shard.  A single shard binds an ordinary
    /// listener; several bind `SO_REUSEPORT` listeners on the same address.
    listeners: Vec<TcpListener>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener(s) and prepares the server: the catalogue is
    /// wrapped in an [`AppState`] whose label service runs on a dedicated
    /// scheduler of `workers` threads, with the default cache bounds.
    ///
    /// # Errors
    /// I/O errors from binding the address.
    pub fn bind(
        catalog: DatasetCatalog,
        workers: usize,
        config: &ServerConfig,
    ) -> std::io::Result<Self> {
        let options = ServerOptions {
            workers,
            ..ServerOptions::default()
        };
        Self::bind_state(
            AppState::with_service(catalog, options.label_service()),
            config,
        )
    }

    /// Binds the listener(s) over an explicit [`AppState`] (e.g. a
    /// pre-warmed or custom-bounded label service).  Requests run on the
    /// state's label-service scheduler, so the service needs one.
    ///
    /// With `config.reactors == 1` this is exactly the single-listener bind
    /// it has always been.  With more, the first `SO_REUSEPORT` listener may
    /// bind port 0; the rest then bind the concrete port the OS picked, so
    /// ephemeral-port tests work unchanged.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::InvalidInput`] for a label service over the
    /// sequential reference pipeline (it has no scheduler to run requests
    /// on); I/O errors from binding the address, or an unresolvable address.
    pub fn bind_state(state: AppState, config: &ServerConfig) -> std::io::Result<Self> {
        let scheduler = state.labels.scheduler().cloned().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "the label service has no scheduler to run requests on",
            )
        })?;
        let reactors = config.reactors.max(1);
        let listeners = if reactors == 1 {
            vec![TcpListener::bind(&config.bind_address)?]
        } else {
            let addr = config
                .bind_address
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("bind address `{}` resolved to nothing", config.bind_address),
                    )
                })?;
            let first = rf_net::listen_reuseport(addr)?;
            let concrete = first.local_addr()?;
            let mut listeners = vec![first];
            for _ in 1..reactors {
                listeners.push(rf_net::listen_reuseport(concrete)?);
            }
            listeners
        };
        Ok(Server {
            state: Arc::new(state),
            scheduler,
            listeners,
            config: config.clone(),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address the server is actually listening on (all shards share
    /// it).
    ///
    /// # Errors
    /// I/O errors from querying the socket.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listeners[0].local_addr()
    }

    /// A handle that can stop every reactor from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Runs the reactor event loop(s) until the shutdown flag is set.
    ///
    /// The calling thread becomes reactor shard 0; shards 1..N run on
    /// spawned `rf-reactor-{i}` threads.  Each shard owns its listener, its
    /// epoll set, its eventfd completion channel, and the full lifecycle of
    /// every connection the kernel hands it — shards never touch each
    /// other's sockets.  They share one [`LabelDispatch`]: one scheduler,
    /// one admission gauge, one cache.  Requests run on the label service's
    /// scheduler, the one its pipeline fans out on, and each response
    /// returns through its own reactor's wake channel.  Returns only after
    /// every dispatched request job has finished.
    ///
    /// Per-connection failures (malformed requests, disconnects mid-write,
    /// handler panics) close only that connection; they never reach this
    /// function's error path.
    ///
    /// # Errors
    /// Fatal I/O errors from a listener or an epoll instance.  Any shard's
    /// fatal error flips the shutdown flag so the others wind down too.
    pub fn run(&self) -> std::io::Result<()> {
        let dispatch = Arc::new(LabelDispatch::new(
            Arc::clone(&self.state),
            Arc::clone(&self.scheduler),
            self.config.max_pending,
        ));
        let reactor_config = ReactorConfig {
            max_connections: self.config.max_connections,
            idle_timeout: Duration::from_millis(self.config.idle_timeout_ms),
            request_deadline: Duration::from_millis(self.config.request_deadline_ms),
        };
        // Build every reactor before running any, so the metrics registry
        // is complete by the time the first request can reach `/stats`.
        // Each shard owns its stage histograms (parse/write are per-shard
        // work); the slow-trace ring is shared so `/debug/slow` sees the
        // whole server in one place.
        let trace_ring = Arc::new(rf_obs::TraceRing::new(self.config.trace_ring_entries));
        let slow_threshold = Duration::from_millis(self.config.slow_threshold_ms);
        let mut reactors = Vec::with_capacity(self.listeners.len());
        let mut shard_stages = Vec::with_capacity(self.listeners.len());
        for (shard, listener) in self.listeners.iter().enumerate() {
            let mut reactor = Reactor::new(
                listener.try_clone()?,
                Arc::clone(&dispatch),
                Arc::clone(&self.shutdown),
                reactor_config.clone(),
            )?;
            let stages = Arc::new(rf_obs::StageHistograms::new());
            reactor.set_observability(rf_net::ReactorObservability {
                shard: u32::try_from(shard).unwrap_or(u32::MAX),
                stages: Arc::clone(&stages),
                ring: Arc::clone(&trace_ring),
                slow_threshold,
            });
            shard_stages.push(stages);
            reactors.push(reactor);
        }
        self.state
            .install_reactor_metrics(reactors.iter().map(Reactor::metrics).collect());
        let admission = Arc::clone(&dispatch.admission);
        self.state
            .install_observability(crate::router::Observability {
                shard_stages,
                trace_ring,
                admission: Some(Arc::new(move || admission.stats())),
            });

        let mut shards = reactors.into_iter();
        let shard_zero = shards.next().expect("at least one reactor");
        let mut joins = Vec::new();
        for (index, reactor) in shards.enumerate() {
            joins.push(
                std::thread::Builder::new()
                    .name(format!("rf-reactor-{}", index + 1))
                    .spawn(move || reactor.run())?,
            );
        }
        let result = shard_zero.run();
        // Shard 0 exiting — shutdown flag or fatal error — takes the other
        // shards down with it; they check the flag every poll interval.
        self.shutdown.store(true, Ordering::Relaxed);
        let mut failure = result.err();
        for join in joins {
            match join.join() {
                Ok(Ok(())) => {}
                Ok(Err(err)) => {
                    if failure.is_none() {
                        failure = Some(err);
                    }
                }
                Err(_) => {
                    if failure.is_none() {
                        failure = Some(std::io::Error::other("reactor thread panicked"));
                    }
                }
            }
        }
        // No reactor dispatches any more; the jobs already queued or
        // running on the label service's scheduler still finish first.
        dispatch.in_flight.wait_idle();
        match failure {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    /// Starts a server on an ephemeral port and returns its address plus the
    /// shutdown handle and join handle.
    fn start_server() -> (
        std::net::SocketAddr,
        Arc<AtomicBool>,
        std::thread::JoinHandle<()>,
    ) {
        let catalog = DatasetCatalog::with_demo_datasets();
        let config = ServerConfig {
            bind_address: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        };
        let server = Server::bind(catalog, 2, &config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || {
            server.run().expect("server run");
        });
        (addr, shutdown, handle)
    }

    fn request(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(raw.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    #[test]
    fn options_parse_defaults_and_flags() {
        let defaults = ServerOptions::parse(Vec::<String>::new()).unwrap();
        assert_eq!(defaults, ServerOptions::default());

        let parsed = ServerOptions::parse([
            "0.0.0.0:9999",
            "--workers",
            "8",
            "--cache-entries",
            "64",
            "--cache-bytes",
            "1048576",
            "--reactors",
            "4",
            "--max-conns",
            "512",
            "--idle-timeout-ms",
            "15000",
            "--request-deadline-ms",
            "5000",
            "--max-pending",
            "32",
            "--slow-threshold-ms",
            "250",
            "--trace-ring-entries",
            "64",
        ])
        .unwrap();
        assert_eq!(parsed.bind_address, "0.0.0.0:9999");
        assert_eq!(parsed.workers, 8);
        assert_eq!(parsed.cache_entries, 64);
        assert_eq!(parsed.cache_bytes, 1_048_576);
        assert_eq!(parsed.reactors, 4);
        assert_eq!(parsed.max_conns, 512);
        assert_eq!(parsed.idle_timeout_ms, 15_000);
        assert_eq!(parsed.request_deadline_ms, 5_000);
        assert_eq!(parsed.max_pending, 32);
        assert_eq!(parsed.slow_threshold_ms, 250);
        assert_eq!(parsed.trace_ring_entries, 64);
        let config = parsed.server_config();
        assert_eq!(config.reactors, 4);
        assert_eq!(config.max_connections, 512);
        assert_eq!(config.idle_timeout_ms, 15_000);
        assert_eq!(config.request_deadline_ms, 5_000);
        assert_eq!(config.max_pending, 32);
        assert_eq!(config.slow_threshold_ms, 250);
        assert_eq!(config.trace_ring_entries, 64);

        // Errors: unknown flags, missing values, junk numbers, extra
        // positionals.
        assert!(ServerOptions::parse(["--nope"]).is_err());
        // The cache has no TTL, so `--cache-ttl-secs` is refused, not ignored.
        let err = ServerOptions::parse(["--cache-ttl-secs", "5"]).unwrap_err();
        assert!(err.starts_with("unknown flag `--cache-ttl-secs`"), "{err}");
        assert!(ServerOptions::parse(["--cache-entries"]).is_err());
        assert!(ServerOptions::parse(["--workers", "many"]).is_err());
        assert!(ServerOptions::parse(["a:1", "b:2"]).is_err());
        // Every count knob rejects zero instead of clamping.
        for zeroed in [
            ["--workers", "0"],
            ["--cache-entries", "0"],
            ["--cache-bytes", "0"],
            ["--reactors", "0"],
            ["--max-conns", "0"],
            ["--idle-timeout-ms", "0"],
            ["--request-deadline-ms", "0"],
            ["--max-pending", "0"],
            ["--slow-threshold-ms", "0"],
            ["--trace-ring-entries", "0"],
        ] {
            let err = ServerOptions::parse(zeroed).unwrap_err();
            assert!(err.contains("at least 1"), "{err}");
        }
        assert!(ServerOptions::parse(["--max-conns", "none"]).is_err());
        assert!(ServerOptions::parse(["--idle-timeout-ms"]).is_err());
    }

    #[test]
    fn cache_dir_flags_parse_and_degrade_softly() {
        // Defaults: no disk tier, 256 MiB bound once one is named.
        let defaults = ServerOptions::default();
        assert_eq!(defaults.cache_dir, None);
        assert_eq!(defaults.cache_disk_bytes, DEFAULT_CACHE_DISK_BYTES);
        assert!(defaults.label_service().disk_store().is_none());

        let parsed = ServerOptions::parse([
            "--cache-dir",
            "/tmp/rf-cache",
            "--cache-disk-bytes",
            "1048576",
        ])
        .unwrap();
        assert_eq!(parsed.cache_dir.as_deref(), Some("/tmp/rf-cache"));
        assert_eq!(parsed.cache_disk_bytes, 1_048_576);
        assert!(ServerOptions::parse(["--cache-dir"]).is_err());
        assert!(ServerOptions::parse(["--cache-disk-bytes", "0"]).is_err());
        assert!(ServerOptions::parse(["--cache-disk-bytes", "lots"]).is_err());

        // A usable directory attaches the disk tier…
        let dir = std::env::temp_dir().join(format!("rf-server-flags-{}", std::process::id()));
        let mut options = ServerOptions {
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            workers: 1,
            ..ServerOptions::default()
        };
        let service = options.label_service();
        assert!(service.disk_store().is_some());
        assert_eq!(
            service.stats().disk.unwrap().max_bytes,
            DEFAULT_CACHE_DISK_BYTES
        );
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);

        // …an unusable one degrades to memory-only instead of refusing to
        // serve: labels are recomputable, warm restarts are not worth an
        // outage.
        let file = std::env::temp_dir().join(format!("rf-server-plain-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        options.cache_dir = Some(file.join("cache").to_string_lossy().into_owned());
        let degraded = options.label_service();
        assert!(
            degraded.disk_store().is_none(),
            "degraded mode is memory-only"
        );
        assert!(degraded.stats().disk.is_none());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn synth_rows_flag_is_repeatable() {
        assert!(ServerOptions::default().synth_rows.is_empty());
        let parsed =
            ServerOptions::parse(["--synth-rows", "100000", "--synth-rows", "2000"]).unwrap();
        assert_eq!(parsed.synth_rows, vec![100_000, 2_000]);
        assert!(ServerOptions::parse(["--synth-rows", "0"]).is_err());
        assert!(ServerOptions::parse(["--synth-rows"]).is_err());
    }

    #[test]
    fn cache_and_worker_flags_reach_the_label_service() {
        let options = ServerOptions::parse(["--cache-entries", "5", "--workers", "3"]).unwrap();
        let state = AppState::with_service(DatasetCatalog::with_demo_datasets(), {
            options.label_service()
        });
        let stats = state.labels.stats();
        assert_eq!(stats.cache.capacity, 5);
        // --workers sizes the label service's scheduler, which also runs
        // the request jobs — /stats must agree with the flag.
        assert_eq!(stats.scheduler.workers, 3);
    }

    #[test]
    fn binding_a_sequential_service_is_invalid_input() {
        // The sequential reference has no scheduler for request jobs: the
        // bind refuses it, and its stats report no workers.
        let service = rf_core::LabelService::with_pipeline(
            rf_core::AnalysisPipeline::sequential(),
            8,
            1 << 20,
        );
        assert_eq!(service.stats().scheduler.workers, 0);
        let config = ServerConfig {
            bind_address: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        };
        let state = AppState::with_service(DatasetCatalog::with_demo_datasets(), service);
        let err = Server::bind_state(state, &config)
            .err()
            .expect("a sequential service cannot be bound");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn serves_landing_page_and_labels_over_tcp() {
        let (addr, shutdown, handle) = start_server();

        let landing = request(
            addr,
            "GET / HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        );
        assert!(landing.starts_with("HTTP/1.1 200 OK"));
        assert!(landing.contains("Ranking Facts"));

        let label = request(
            addr,
            "GET /datasets/cs-departments/label.json?k=5 HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        );
        assert!(label.starts_with("HTTP/1.1 200 OK"));
        let body = label.split("\r\n\r\n").nth(1).unwrap();
        let value: serde_json::Value = serde_json::from_str(body).unwrap();
        assert_eq!(value["top_k_rows"].as_array().unwrap().len(), 5);

        let missing = request(
            addr,
            "GET /datasets/absent/label HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        );
        assert!(missing.starts_with("HTTP/1.1 404"));

        // A repeated label request is a cache hit, visible on /stats.
        let again = request(
            addr,
            "GET /datasets/cs-departments/label.json?k=5 HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(
            again.split("\r\n\r\n").nth(1).unwrap(),
            label.split("\r\n\r\n").nth(1).unwrap(),
            "warm hit must be byte-identical over the wire"
        );
        let stats = request(
            addr,
            "GET /stats HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        );
        assert!(stats.starts_with("HTTP/1.1 200 OK"));
        let stats_body = stats.split("\r\n\r\n").nth(1).unwrap();
        let stats_value: serde_json::Value = serde_json::from_str(stats_body).unwrap();
        assert!(stats_value["cache"]["hits"].as_u64().unwrap() >= 1);

        // Parallel requests exercise the worker pool.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    request(
                        addr,
                        "GET /datasets HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
                    )
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap().starts_with("HTTP/1.1 200 OK"));
        }

        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    /// Reads exactly one HTTP response from a keep-alive stream.
    fn read_keep_alive_response(stream: &mut TcpStream) -> String {
        let response = rf_net::read_one_response(stream).expect("response");
        format!("{}{}", response.head, response.body_text())
    }

    #[test]
    fn keep_alive_connection_serves_many_requests() {
        let (addr, shutdown, handle) = start_server();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut bodies = Vec::new();
        for _ in 0..3 {
            stream
                .write_all(
                    b"GET /datasets/cs-departments/label.json?k=5 HTTP/1.1\r\nHost: t\r\n\r\n",
                )
                .expect("write");
            let response = read_keep_alive_response(&mut stream);
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            assert!(response.contains("Connection: keep-alive"), "{response}");
            bodies.push(response.split("\r\n\r\n").nth(1).unwrap().to_string());
        }
        assert_eq!(bodies[0], bodies[1]);
        assert_eq!(bodies[1], bodies[2]);
        // An explicit close is honoured.
        stream
            .write_all(b"GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("write");
        let response = read_keep_alive_response(&mut stream);
        assert!(response.contains("Connection: close"), "{response}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("eof");
        assert!(rest.is_empty(), "server closes after Connection: close");

        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn default_config() {
        let config = ServerConfig::default();
        assert!(config.bind_address.contains("8080"));
        // One reactor preserves the pre-sharding topology bit for bit, and
        // the reactor knobs default to the previously hard-coded constants.
        assert_eq!(config.reactors, 1);
        assert_eq!(config.max_connections, 4096);
        assert_eq!(config.idle_timeout_ms, 60_000);
        assert_eq!(config.request_deadline_ms, 30_000);
        assert_eq!(config.max_pending, 1_024);
        assert_eq!(config.slow_threshold_ms, 500);
        assert_eq!(config.trace_ring_entries, 256);
        // The deployed binary defaults its shard count to the host's cores.
        assert!(ServerOptions::default().reactors >= 1);
    }

    #[test]
    fn admission_predicates() {
        // Fresh metrics have empty histograms, so the EWMA steers and its
        // arithmetic is pinned deterministically.
        let admission = Admission::new(4, Arc::default());
        // Cold start: no service-time estimate, nothing sheds on deadline.
        assert!(!admission.deadline_already_spent(0, 100, 2));
        assert_eq!(admission.retry_after_secs(100, 2), 1, "hint floor is 1s");
        // With a 10ms average and 100 queued jobs over 2 workers, the
        // predicted wait is 500ms: a 200ms budget is already spent, a 600ms
        // budget is not.
        admission.record_service(Duration::from_millis(10));
        assert_eq!(admission.avg_service_micros.load(Ordering::Relaxed), 10_000);
        assert!(admission.deadline_already_spent(200, 100, 2));
        assert!(!admission.deadline_already_spent(600, 100, 2));
        // An empty queue never sheds, even at deadline_ms=0 — the truncated
        // -label contract from the deadline-budget PR.
        assert!(!admission.deadline_already_spent(0, 0, 2));
        // The EWMA folds new samples in at α = 1/8.
        admission.record_service(Duration::from_millis(90));
        let avg = admission.avg_service_micros.load(Ordering::Relaxed);
        assert_eq!(avg, 10_000 - 10_000 / 8 + 90_000 / 8);
        // Retry-After scales with the backlog but stays in [1, 30].
        assert!(admission.retry_after_secs(10_000, 1) == 30);

        // The deadline_ms extractor reads the raw target.
        assert_eq!(
            deadline_ms_of("/datasets/x/label.json?deadline_ms=250"),
            Some(250)
        );
        assert_eq!(
            deadline_ms_of("/datasets/x/label.json?k=5&deadline_ms=0"),
            Some(0)
        );
        assert_eq!(deadline_ms_of("/datasets/x/label.json?k=5"), None);
        assert_eq!(deadline_ms_of("/stats"), None);
        assert_eq!(deadline_ms_of("/x?deadline_ms=soon"), None);
    }

    #[test]
    fn deadline_ms_of_agrees_with_the_router_query_param() {
        // Admission must shed on the budget the label would run with: the
        // last occurrence, percent-decoded, exactly as the router reads it.
        let cases = [
            ("/x?deadline_ms=0&deadline_ms=60000", Some(60_000)),
            ("/x?deadline_ms=60000&deadline_ms=0", Some(0)),
            ("/x?deadline%5Fms=0", Some(0)),
            ("/x?deadline_ms=60000&deadline%5fms=0", Some(0)),
            ("/x?k=5&deadline_ms=%32%35%30", Some(250)),
            ("/x?deadline_ms=soon&deadline_ms=7", Some(7)),
            ("/x?deadline_ms=7&deadline_ms=soon", None),
            ("/x?deadline_ms=7&deadline_ms", Some(7)),
            ("/x?deadline_ms=+7", None),
            ("/x?k=5", None),
            ("/stats", None),
        ];
        for (target, expected) in cases {
            let raw = format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut parser = rf_net::HttpParser::new();
            let rf_net::ParseEvent::Request(parsed) = parser.feed(raw.as_bytes()).unwrap() else {
                panic!("{target}: complete request");
            };
            let request = Request::from_parsed(parsed).unwrap();
            let routed = request
                .query_param("deadline_ms")
                .and_then(|value| value.parse::<u64>().ok());
            assert_eq!(routed, expected, "{target}: router");
            assert_eq!(deadline_ms_of(target), routed, "{target}: admission");
        }
    }

    #[test]
    fn admission_prefers_measured_service_time_once_it_exists() {
        let metrics = Arc::new(ServiceMetrics::default());
        let stages = metrics.stages();
        let admission = Admission::new(4, Arc::clone(&metrics));
        // Nothing measured yet: the EWMA steers.
        admission.record_service(Duration::from_millis(10));
        assert_eq!(admission.service_estimate_micros(), 10_000);
        assert_eq!(admission.stats().measured_service_micros, 0);
        // One stage alone is not a full request cost — still EWMA.
        stages.record(rf_obs::Stage::Prepare, Duration::from_millis(2));
        assert_eq!(admission.measured_service_micros(), 0);
        assert_eq!(admission.service_estimate_micros(), 10_000);
        // Both stages measured: their mean sum takes over, and the predicted
        // wait (hence deadline shedding) follows it.
        stages.record(rf_obs::Stage::Render, Duration::from_millis(1));
        assert_eq!(admission.measured_service_micros(), 3_000);
        assert_eq!(admission.service_estimate_micros(), 3_000);
        assert_eq!(admission.predicted_wait_micros(100, 2), 150_000);
        let stats = admission.stats();
        assert_eq!(stats.ewma_service_micros, 10_000);
        assert_eq!(stats.measured_service_micros, 3_000);
        assert_eq!(stats.max_pending, 4);
        assert_eq!(stats.pending, 0);
    }

    /// The value of the exposition sample named exactly `series`.
    fn sample(metrics: &str, series: &str) -> u64 {
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
            .and_then(|value| value.trim().parse().ok())
            .unwrap_or_else(|| panic!("no sample `{series}` in:\n{metrics}"))
    }

    #[test]
    fn queue_wait_counts_each_dispatched_request_once() {
        // Requests share the label service's scheduler with the widget jobs
        // and Monte-Carlo trial batches they fan out; only the requests
        // record a queue wait.
        let (addr, shutdown, handle) = start_server();
        for path in [
            "/datasets/compas/label.json?k=10&trials=64&mc_seed=7",
            "/datasets/german-credit/label.json?trials=32&mc_seed=9",
            "/datasets",
            "/stats",
        ] {
            let response = request(
                addr,
                &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
            );
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        }
        // The scrape is itself dispatched: both counts include it.
        let metrics = request(
            addr,
            "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        let waits = sample(
            &metrics,
            "rf_stage_duration_microseconds_count{stage=\"queue_wait\",shard=\"service\"}",
        );
        let dispatched = sample(&metrics, "rf_reactor_dispatched_total{shard=\"all\"}");
        let executed = sample(&metrics, "rf_scheduler_executed_jobs_total");
        assert_eq!(dispatched, 5);
        assert_eq!(waits, dispatched, "one queue wait per dispatched request");
        assert!(
            executed > dispatched,
            "the labels' widget and trial tasks ran on the same scheduler: {executed}"
        );

        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn request_ids_metrics_and_slow_traces_are_served_over_tcp() {
        // slow_threshold_ms = 0 traces every request (reachable through the
        // config; the CLI flag rejects 0 as a typo'd deployment).
        let catalog = DatasetCatalog::with_demo_datasets();
        let config = ServerConfig {
            bind_address: "127.0.0.1:0".to_string(),
            slow_threshold_ms: 0,
            trace_ring_entries: 16,
            ..ServerConfig::default()
        };
        let server = Server::bind(catalog, 2, &config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || {
            server.run().expect("server run");
        });

        let label = request(
            addr,
            "GET /datasets/cs-departments/label.json?k=5 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert!(label.starts_with("HTTP/1.1 200 OK"), "{label}");
        assert!(label.contains("X-Request-Id: 0:"), "{label}");

        let metrics = request(
            addr,
            "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(
            metrics.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
            "{metrics}"
        );
        assert!(metrics.contains("# TYPE rf_stage_duration_microseconds histogram"));
        // The per-shard parse histogram saw the label request, the service
        // side saw its prepare, and the reactor/admission families report.
        assert!(metrics.contains("stage=\"parse\",shard=\"0\""), "{metrics}");
        assert!(metrics.contains("stage=\"prepare\",shard=\"service\""));
        assert!(metrics.contains("stage=\"write\",shard=\"all\""));
        assert!(metrics.contains("rf_reactor_dispatched_total{shard=\"all\"}"));
        assert!(metrics.contains("rf_admission_max_pending"));

        let slow = request(
            addr,
            "GET /debug/slow HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert!(slow.starts_with("HTTP/1.1 200 OK"), "{slow}");
        let body = slow.split("\r\n\r\n").nth(1).unwrap();
        let value: serde_json::Value = serde_json::from_str(body).unwrap();
        assert_eq!(value["capacity"], 16);
        let traces = value["traces"].as_array().expect("traces array");
        assert!(!traces.is_empty(), "threshold 0 traces every request");
        let label_trace = traces
            .iter()
            .find(|trace| trace["cache"] == "miss")
            .expect("the label request was traced with its cache outcome");
        let stages = label_trace["stages"].as_array().unwrap();
        let stage_micros = |name: &str| {
            stages
                .iter()
                .find(|s| s["stage"] == name)
                .and_then(|s| s["micros"].as_u64())
                .unwrap()
        };
        assert!(stage_micros("prepare") > 0, "prepare time attributed");
        assert!(stage_micros("render") > 0, "render time attributed");

        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }
}
