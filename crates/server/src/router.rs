//! Request routing and handlers for the demo flow.

use crate::catalog::{DatasetCatalog, DatasetEntry};
use crate::http::{Method, Request, Response, StatusCode};
use rf_core::{DesignView, LabelConfig, LabelError, LabelService};
use rf_datasets::load_csv_str;
use rf_ranking::ScoringFunction;
use rf_table::{NormalizationMethod, Table};
use std::fmt::Write as _;
use std::sync::Arc;

/// A scrape hook for admission control, installed by
/// [`Server::run`](crate::Server::run) so `/stats` and `/metrics` can report
/// the controller's predicted-vs-measured service times without the router
/// depending on the server's internals.
pub type AdmissionProbe = Arc<dyn Fn() -> rf_core::AdmissionStats + Send + Sync>;

/// The observability surfaces a running server installs into its
/// [`AppState`] before accepting: per-shard stage histograms, the shared
/// slow-trace ring, and the admission scrape hook.
pub struct Observability {
    /// Per-reactor-shard stage histograms (the network-side `parse` and
    /// `write` stages), in shard order.
    pub shard_stages: Vec<Arc<rf_obs::StageHistograms>>,
    /// The bounded ring of slow request traces behind `GET /debug/slow`.
    pub trace_ring: Arc<rf_obs::TraceRing>,
    /// Admission-control scrape hook, when a server front-end exists.
    pub admission: Option<AdmissionProbe>,
}

impl std::fmt::Debug for Observability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observability")
            .field("shards", &self.shard_stages.len())
            .field("trace_ring_capacity", &self.trace_ring.capacity())
            .field("admission", &self.admission.is_some())
            .finish()
    }
}

/// Everything a request handler needs: the dataset catalogue plus the shared
/// [`LabelService`] every label request routes through.  One instance is
/// `Arc`-shared across all connection workers, so the label cache and its
/// counters are global to the server.
#[derive(Debug)]
pub struct AppState {
    /// The pre-loaded datasets.
    pub catalog: DatasetCatalog,
    /// The cached label generator.
    pub labels: LabelService,
    /// The live counters of every reactor shard, installed by
    /// [`Server::run`](crate::Server::run) before the event loops start.
    /// Empty until then (library users and router unit tests have no I/O
    /// plane), in which case `/stats` reports `network: null`.
    network: std::sync::Mutex<Vec<Arc<rf_net::ReactorMetrics>>>,
    /// The running server's observability surfaces, installed alongside the
    /// reactor metrics.  `None` for library users and router unit tests —
    /// `/metrics` then serves the label service's own histograms and
    /// counters only, and `/debug/slow` an empty ring.
    observability: std::sync::Mutex<Option<Observability>>,
}

impl AppState {
    /// Wraps a catalogue with an explicit [`LabelService`] — the hook the
    /// server binary uses to apply its cache flags (entry and byte bounds,
    /// the on-disk tier).
    #[must_use]
    pub fn with_service(catalog: DatasetCatalog, labels: LabelService) -> Self {
        AppState {
            catalog,
            labels,
            network: std::sync::Mutex::new(Vec::new()),
            observability: std::sync::Mutex::new(None),
        }
    }

    /// Installs (replacing any previous set) the observability surfaces
    /// `/metrics` and `/debug/slow` serve.  Called once per
    /// [`Server::run`](crate::Server::run), before any shard accepts.
    pub fn install_observability(&self, observability: Observability) {
        *self.observability.lock().expect("observability lock") = Some(observability);
    }

    /// Runs `f` against the installed observability surfaces, if any.
    fn with_observability<T>(&self, f: impl FnOnce(&Observability) -> T) -> Option<T> {
        self.observability
            .lock()
            .expect("observability lock")
            .as_ref()
            .map(f)
    }

    /// The admission controller's current stats, when a server is running.
    #[must_use]
    pub fn admission_snapshot(&self) -> Option<rf_core::AdmissionStats> {
        self.with_observability(|obs| obs.admission.as_ref().map(|probe| probe()))
            .flatten()
    }

    /// Installs (replacing any previous set) the reactor counter blocks
    /// `/stats` rolls up.  Called once per [`Server::run`](crate::Server::run)
    /// with every shard's metrics, before any shard starts accepting.
    pub fn install_reactor_metrics(&self, shards: Vec<Arc<rf_net::ReactorMetrics>>) {
        *self.network.lock().expect("network registry lock") = shards;
    }

    /// A consistent snapshot of the I/O plane, or `None` when no server is
    /// running over this state.  Uses rf-net's gauge-before-accepted
    /// snapshot discipline, so `active ≤ accepted` holds per shard and in
    /// the totals even while a scrape races the reactors.
    #[must_use]
    pub fn network_snapshot(&self) -> Option<rf_core::NetworkStats> {
        let shards = self.network.lock().expect("network registry lock");
        if shards.is_empty() {
            return None;
        }
        let (snapshots, totals) = rf_net::aggregate(&shards);
        let convert = |snap: &rf_net::ReactorSnapshot| rf_core::ReactorCounters {
            accepted: snap.accepted,
            active: snap.active,
            dispatched: snap.dispatched,
            completions: snap.completions,
            shed_connections: snap.shed_connections,
            shed_requests: snap.shed_requests,
        };
        Some(rf_core::NetworkStats {
            reactors: snapshots.iter().map(convert).collect(),
            totals: convert(&totals),
        })
    }

    /// Adds or replaces a catalogue dataset **and invalidates the label
    /// cache** — the invalidation hook for mutable catalogues.
    ///
    /// The cache is content-addressed, so entries for the *old* bytes can
    /// never be served for the *new* bytes; what the invalidation prevents
    /// is the other staleness: labels for the replaced dataset lingering at
    /// full LRU weight even though no catalogue path can reach them again.
    /// Dropping them keeps the bounded cache's capacity working for
    /// reachable labels (counters keep their history).
    pub fn insert_dataset(&self, entry: DatasetEntry) {
        self.catalog.insert(entry);
        self.labels.clear_cache();
    }

    /// [`AppState::insert_dataset`] behind an atomic catalogue bound:
    /// returns `false` (inserting and invalidating nothing) when a *new*
    /// slug would grow the catalogue past `cap`.  The unauthenticated
    /// upload endpoint goes through this so concurrent uploads cannot race
    /// past the bound.
    #[must_use]
    pub fn try_insert_dataset(&self, entry: DatasetEntry, cap: usize) -> bool {
        if self.catalog.insert_bounded(entry, cap) {
            self.labels.clear_cache();
            true
        } else {
            false
        }
    }
}

/// Routes a request to its handler and produces the response.
#[must_use]
pub fn route(state: &AppState, request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();

    match (request.method, segments.as_slice()) {
        (Method::Get, []) => landing_page(&state.catalog),
        (Method::Get, ["datasets"]) => list_datasets(&state.catalog),
        (Method::Get, ["datasets", slug, "preview"]) => dataset_preview(&state.catalog, slug),
        (Method::Get, ["datasets", slug, "label"]) => dataset_label(state, slug, request, false),
        (Method::Get, ["datasets", slug, "label.json"]) => {
            dataset_label(state, slug, request, true)
        }
        (Method::Get, ["stats"]) => service_stats(state),
        (Method::Get, ["metrics"]) => metrics_exposition(state),
        (Method::Get, ["debug", "slow"]) => debug_slow(state),
        (Method::Post, ["labels"]) => uploaded_label(state, request),
        (Method::Post, ["datasets", slug]) => upload_dataset(state, slug, request),
        (Method::Post, _) | (Method::Get, _) => Response::text(StatusCode::NotFound, "not found"),
    }
}

/// `GET /stats` — label-cache counters, the service's preparation count,
/// and (when a server is running) the per-reactor I/O counters, for
/// observing hit and shed rates in production.
fn service_stats(state: &AppState) -> Response {
    let mut stats = state.labels.stats();
    stats.network = state.network_snapshot();
    stats.admission = state.admission_snapshot();
    stats.datasets = Some(
        state
            .catalog
            .list()
            .iter()
            .map(|entry| rf_core::DatasetTableStats {
                slug: entry.slug.clone(),
                rows: entry.table.num_rows() as u64,
                columns: entry.table.num_columns() as u64,
            })
            .collect(),
    );
    match serde_json::to_string_pretty(&stats) {
        Ok(json) => Response::json(json),
        Err(err) => Response::text(StatusCode::InternalServerError, err.to_string()),
    }
}

/// Writes one `# TYPE` header for a metric family.
fn prom_type(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one sample line, with or without labels.
fn prom_sample(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Writes one histogram series (cumulative `le` buckets, `+Inf`, `_sum`,
/// `_count`) for a [`rf_obs::HistogramSnapshot`].  Empty trailing buckets
/// are trimmed — a new higher bucket appearing in a later scrape only adds
/// label sets, it never shrinks an existing cumulative count.
fn prom_histogram(out: &mut String, name: &str, labels: &str, snap: &rf_obs::HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let top = snap
        .buckets
        .iter()
        .rposition(|&count| count > 0)
        .unwrap_or(0)
        .min(rf_obs::BUCKET_COUNT - 2);
    let mut cumulative = 0u64;
    for index in 0..=top {
        cumulative += snap.buckets[index];
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
            rf_obs::LatencyHistogram::bucket_upper_bound(index)
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        snap.count()
    );
    prom_sample(out, &format!("{name}_sum"), labels, snap.sum_micros);
    prom_sample(out, &format!("{name}_count"), labels, snap.count());
}

/// The service-side stages recorded into the label service's histograms
/// (the worker pool is shared across shards); `parse` and `write` are
/// per-shard.
const SERVICE_SIDE_STAGES: [rf_obs::Stage; 7] = [
    rf_obs::Stage::Admission,
    rf_obs::Stage::QueueWait,
    rf_obs::Stage::CacheLookup,
    rf_obs::Stage::CacheDisk,
    rf_obs::Stage::Prepare,
    rf_obs::Stage::Render,
    rf_obs::Stage::McTrials,
];

/// `GET /metrics` — Prometheus text exposition (version 0.0.4) of the stage
/// latency histograms plus every counter family the stack already keeps:
/// cache, scheduler, Monte-Carlo, per-reactor I/O, and admission control.
/// Stage histograms carry a `shard` label: `"0".."N-1"` for each reactor's
/// network-side stages, `"service"` for the worker-pool stages this
/// server's label service recorded (never another server's in the same
/// process), and `"all"` for the merge.  Counters only ever grow between
/// scrapes; gauges (`rf_*_pending`, `rf_reactor_active`, queue depth,
/// occupancy) move both ways.
fn metrics_exposition(state: &AppState) -> Response {
    let stats = state.labels.stats();
    let mut out = String::new();

    prom_type(&mut out, "rf_stage_duration_microseconds", "histogram");
    let service = state.labels.metrics().stages().snapshot();
    let shard_snapshots: Vec<rf_obs::StageSnapshot> = state
        .with_observability(|obs| obs.shard_stages.iter().map(|s| s.snapshot()).collect())
        .unwrap_or_default();
    let mut all = service.clone();
    for snapshot in &shard_snapshots {
        all = all.merge(snapshot);
    }
    for (shard, snapshot) in shard_snapshots.iter().enumerate() {
        for stage in [rf_obs::Stage::Parse, rf_obs::Stage::Write] {
            prom_histogram(
                &mut out,
                "rf_stage_duration_microseconds",
                &format!("stage=\"{}\",shard=\"{shard}\"", stage.name()),
                snapshot.get(stage),
            );
        }
    }
    for stage in SERVICE_SIDE_STAGES {
        prom_histogram(
            &mut out,
            "rf_stage_duration_microseconds",
            &format!("stage=\"{}\",shard=\"service\"", stage.name()),
            service.get(stage),
        );
    }
    for stage in rf_obs::Stage::ALL {
        prom_histogram(
            &mut out,
            "rf_stage_duration_microseconds",
            &format!("stage=\"{}\",shard=\"all\"", stage.name()),
            all.get(stage),
        );
    }

    for (name, value) in [
        ("rf_cache_hits_total", stats.cache.hits),
        ("rf_cache_misses_total", stats.cache.misses),
        ("rf_cache_evictions_total", stats.cache.evictions),
        ("rf_label_preparations_total", stats.preparations),
        ("rf_label_coalesced_total", stats.coalesced),
        (
            "rf_scheduler_executed_jobs_total",
            stats.scheduler.executed_jobs,
        ),
        (
            "rf_scheduler_panicked_jobs_total",
            stats.scheduler.panicked_jobs,
        ),
        ("rf_scheduler_steals_total", stats.scheduler.steals),
        ("rf_mc_runs_total", stats.monte_carlo.runs),
        (
            "rf_mc_trials_completed_total",
            stats.monte_carlo.trials_completed,
        ),
        ("rf_mc_truncated_total", stats.monte_carlo.truncated),
    ] {
        prom_type(&mut out, name, "counter");
        prom_sample(&mut out, name, "", value);
    }
    for (name, value) in [
        ("rf_cache_entries", stats.cache.entries as u64),
        ("rf_cache_bytes", stats.cache.bytes as u64),
        (
            "rf_scheduler_queue_depth",
            stats.scheduler.queue_depth as u64,
        ),
        ("rf_scheduler_workers", stats.scheduler.workers as u64),
    ] {
        prom_type(&mut out, name, "gauge");
        prom_sample(&mut out, name, "", value);
    }

    // The on-disk tier's families only exist when the tier is configured —
    // a memory-only deployment (including degraded mode after an unusable
    // cache directory) exposes no `rf_disk_*` series at all.
    if let Some(disk) = &stats.disk {
        for (name, value) in [
            ("rf_disk_hits_total", disk.disk_hits),
            ("rf_disk_misses_total", disk.disk_misses),
            ("rf_disk_promotions_total", disk.promotions),
            ("rf_disk_write_errors_total", disk.write_errors),
            ("rf_disk_corrupt_dropped_total", disk.corrupt_dropped),
            ("rf_disk_pruned_total", disk.pruned),
        ] {
            prom_type(&mut out, name, "counter");
            prom_sample(&mut out, name, "", value);
        }
        for (name, value) in [
            ("rf_disk_entries", disk.entries),
            ("rf_disk_bytes", disk.bytes),
            ("rf_disk_max_bytes", disk.max_bytes),
        ] {
            prom_type(&mut out, name, "gauge");
            prom_sample(&mut out, name, "", value);
        }
    }

    if let Some(network) = state.network_snapshot() {
        let series = |counters: &rf_core::ReactorCounters| {
            [
                ("rf_reactor_accepted_total", "counter", counters.accepted),
                ("rf_reactor_active", "gauge", counters.active),
                (
                    "rf_reactor_dispatched_total",
                    "counter",
                    counters.dispatched,
                ),
                (
                    "rf_reactor_completions_total",
                    "counter",
                    counters.completions,
                ),
                (
                    "rf_reactor_shed_connections_total",
                    "counter",
                    counters.shed_connections,
                ),
                (
                    "rf_reactor_shed_requests_total",
                    "counter",
                    counters.shed_requests,
                ),
            ]
        };
        for (name, kind, _) in series(&network.totals) {
            prom_type(&mut out, name, kind);
        }
        for (shard, counters) in network.reactors.iter().enumerate() {
            for (name, _, value) in series(counters) {
                prom_sample(&mut out, name, &format!("shard=\"{shard}\""), value);
            }
        }
        for (name, _, value) in series(&network.totals) {
            prom_sample(&mut out, name, "shard=\"all\"", value);
        }
    }

    if let Some(admission) = state.admission_snapshot() {
        for (name, value) in [
            ("rf_admission_pending", admission.pending),
            ("rf_admission_max_pending", admission.max_pending),
            (
                "rf_admission_ewma_service_micros",
                admission.ewma_service_micros,
            ),
            (
                "rf_admission_measured_service_micros",
                admission.measured_service_micros,
            ),
        ] {
            prom_type(&mut out, name, "gauge");
            prom_sample(&mut out, name, "", value);
        }
    }
    if let Some(recorded) = state.with_observability(|obs| obs.trace_ring.recorded()) {
        prom_type(&mut out, "rf_traces_recorded_total", "counter");
        prom_sample(&mut out, "rf_traces_recorded_total", "", recorded);
    }

    Response::prometheus(out)
}

/// `GET /debug/slow` — the newest-first ring of requests that exceeded the
/// `--slow-threshold-ms` budget, as JSON: ids, per-stage timings, cache
/// outcome, truncation, and shed reason.
fn debug_slow(state: &AppState) -> Response {
    let Some((capacity, recorded, traces)) = state.with_observability(|obs| {
        (
            obs.trace_ring.capacity(),
            obs.trace_ring.recorded(),
            obs.trace_ring.snapshot(),
        )
    }) else {
        return Response::json(r#"{"capacity":0,"recorded":0,"traces":[]}"#.to_string());
    };
    let traces: Vec<serde_json::Value> = traces
        .iter()
        .map(|trace| {
            let stages: Vec<serde_json::Value> = rf_obs::Stage::ALL
                .iter()
                .map(|stage| {
                    serde_json::json!({
                        "stage": stage.name(),
                        "micros": trace.stage_micros[stage.index()],
                    })
                })
                .collect();
            serde_json::json!({
                "id": trace.id.to_string(),
                "total_micros": trace.total_micros,
                "stages": stages,
                "cache": trace.cache.name(),
                "truncated": trace.truncated,
                "shed": trace.shed.map(rf_obs::ShedReason::name),
            })
        })
        .collect();
    let body = serde_json::json!({
        "capacity": capacity,
        "recorded": recorded,
        "traces": traces,
    });
    match serde_json::to_string_pretty(&body) {
        Ok(json) => Response::json(json),
        Err(err) => Response::text(StatusCode::InternalServerError, err.to_string()),
    }
}

/// Maps a label-generation error to a response: caller mistakes are 400,
/// internal rendering/scheduling failures are 500.
fn label_error(err: &LabelError) -> Response {
    let status = match err {
        LabelError::Serialization { .. } | LabelError::WidgetPanic { .. } => {
            StatusCode::InternalServerError
        }
        _ => StatusCode::BadRequest,
    };
    Response::text(status, err.to_string())
}

/// `GET /` — landing page with links to the demo datasets.
fn landing_page(catalog: &DatasetCatalog) -> Response {
    let mut items = String::new();
    for entry in catalog.list() {
        items.push_str(&format!(
            "<li><a href=\"/datasets/{slug}/label\">{name}</a> &mdash; {desc} \
             (<a href=\"/datasets/{slug}/label.json\">json</a>, \
             <a href=\"/datasets/{slug}/preview\">preview</a>)</li>",
            slug = entry.slug,
            name = entry.name,
            desc = entry.description
        ));
    }
    Response::html(format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>Ranking Facts</title></head>\
         <body><h1>Ranking Facts</h1>\
         <p>A nutritional label for rankings — demonstration datasets:</p>\
         <ul>{items}</ul>\
         <p>POST a CSV to <code>/labels?score_attrs=a,b&amp;weights=0.5,0.5&amp;sensitive=group&amp;k=10</code> \
         to label your own data.</p></body></html>"
    ))
}

/// `GET /datasets` — JSON list of datasets.
fn list_datasets(catalog: &DatasetCatalog) -> Response {
    let list: Vec<serde_json::Value> = catalog
        .list()
        .iter()
        .map(|entry| {
            serde_json::json!({
                "slug": entry.slug,
                "name": entry.name,
                "description": entry.description,
                "rows": entry.table.num_rows(),
                "columns": entry.table.num_columns(),
            })
        })
        .collect();
    Response::json(serde_json::to_string_pretty(&list).unwrap_or_else(|_| "[]".to_string()))
}

/// `GET /datasets/{slug}/preview` — design-view preview as JSON.
fn dataset_preview(catalog: &DatasetCatalog, slug: &str) -> Response {
    let Some(entry) = catalog.get(slug) else {
        return Response::text(StatusCode::NotFound, format!("unknown dataset `{slug}`"));
    };
    match DesignView::build(&entry.table, NormalizationMethod::MinMax, 10, 10) {
        Ok(view) => match serde_json::to_string_pretty(&view) {
            Ok(json) => Response::json(json),
            Err(err) => Response::text(StatusCode::InternalServerError, err.to_string()),
        },
        Err(err) => Response::text(StatusCode::InternalServerError, err.to_string()),
    }
}

/// Upper bound on the `trials` query override.  Every trial perturbs and
/// re-ranks the whole dataset, so an unauthenticated request must not be
/// able to schedule unbounded work on the label hot path.
pub const MAX_MC_TRIALS: usize = 1_024;

/// Applies the Monte-Carlo stability query overrides (`trials`,
/// `data_noise`, `weight_noise`, `mc_seed`, `deadline_ms`, `relaxed_fp`) to a label
/// configuration, so the §2.2 uncertainty detail is tunable per request
/// without recompiling.  The knobs are part of the configuration
/// fingerprint, so each combination is its own cache entry.  `trials` is
/// capped at [`MAX_MC_TRIALS`]; `deadline_ms` caps the estimator's wall
/// clock — past it the label ships the trials that completed, flagged
/// `truncated` in the widget detail.
fn apply_monte_carlo_overrides(
    mut config: LabelConfig,
    request: &Request,
) -> Result<LabelConfig, Box<Response>> {
    if let Some(trials) = request.query_param("trials") {
        match trials.parse::<usize>() {
            Ok(trials) if trials <= MAX_MC_TRIALS => {
                config = config.with_monte_carlo_trials(trials);
            }
            Ok(_) => {
                return Err(Box::new(Response::text(
                    StatusCode::BadRequest,
                    format!("trials capped at {MAX_MC_TRIALS} (each trial re-ranks the dataset)"),
                )))
            }
            Err(_) => {
                return Err(Box::new(Response::text(
                    StatusCode::BadRequest,
                    format!("invalid trials `{trials}`"),
                )))
            }
        }
    }
    fn noise_param(request: &Request, name: &str) -> Result<Option<f64>, Box<Response>> {
        let Some(raw) = request.query_param(name) else {
            return Ok(None);
        };
        match raw.parse::<f64>() {
            Ok(value) if value.is_finite() && value >= 0.0 => Ok(Some(value)),
            _ => Err(Box::new(Response::text(
                StatusCode::BadRequest,
                format!("invalid {name} `{raw}` (need a non-negative finite fraction)"),
            ))),
        }
    }
    let data_noise = noise_param(request, "data_noise")?;
    let weight_noise = noise_param(request, "weight_noise")?;
    if data_noise.is_some() || weight_noise.is_some() {
        let data = data_noise.unwrap_or(config.monte_carlo.data_noise);
        let weight = weight_noise.unwrap_or(config.monte_carlo.weight_noise);
        config = config.with_monte_carlo_noise(data, weight);
    }
    if let Some(seed) = request.query_param("mc_seed") {
        match seed.parse::<u64>() {
            Ok(seed) => config = config.with_monte_carlo_seed(seed),
            Err(_) => {
                return Err(Box::new(Response::text(
                    StatusCode::BadRequest,
                    format!("invalid mc_seed `{seed}`"),
                )))
            }
        }
    }
    if let Some(deadline) = request.query_param("deadline_ms") {
        match deadline.parse::<u64>() {
            Ok(deadline) => {
                config = config.with_monte_carlo_deadline_millis(Some(deadline));
            }
            Err(_) => {
                return Err(Box::new(Response::text(
                    StatusCode::BadRequest,
                    format!("invalid deadline_ms `{deadline}` (need whole milliseconds)"),
                )))
            }
        }
    }
    if let Some(relaxed) = request.query_param("relaxed_fp") {
        match relaxed {
            "true" | "1" | "on" => config = config.with_monte_carlo_relaxed_fp(true),
            "false" | "0" | "off" => config = config.with_monte_carlo_relaxed_fp(false),
            other => {
                return Err(Box::new(Response::text(
                    StatusCode::BadRequest,
                    format!("invalid relaxed_fp `{other}` (need true/false, 1/0, or on/off)"),
                )))
            }
        }
    }
    Ok(config)
}

/// `GET /datasets/{slug}/label[.json]` — the label, via the shared
/// [`LabelService`].
///
/// The query parameter `k` overrides the default top-k; `trials`,
/// `data_noise`, `weight_noise` and `mc_seed` tune the Monte-Carlo stability
/// detail (`trials=0` disables it).  A warm cache hit answers the JSON
/// flavour with the pre-rendered document — no analysis, no
/// re-serialization.
fn dataset_label(state: &AppState, slug: &str, request: &Request, json: bool) -> Response {
    let Some(entry) = state.catalog.get(slug) else {
        return Response::text(StatusCode::NotFound, format!("unknown dataset `{slug}`"));
    };
    let mut config = entry.config.clone();
    if let Some(k) = request.query_param("k") {
        match k.parse::<usize>() {
            Ok(k) => config = config.with_top_k(k),
            Err(_) => {
                return Response::text(StatusCode::BadRequest, format!("invalid k `{k}`"));
            }
        }
    }
    config = match apply_monte_carlo_overrides(config, request) {
        Ok(config) => config,
        Err(response) => return *response,
    };
    // The catalogue already shares its tables via `Arc`, so a cache miss
    // routes to the pipeline without copying the dataset.
    match state.labels.label(&entry.table, &Arc::new(config)) {
        Ok(cached) => {
            if json {
                // Zero-copy: the response streams the cache's rendered
                // document, shared by every concurrent download.
                Response::json_shared(Arc::clone(&cached.json))
            } else {
                Response::html(cached.label.to_html())
            }
        }
        Err(err) => label_error(&err),
    }
}

/// `POST /labels` — generate a label for an uploaded CSV.
///
/// Query parameters:
/// * `score_attrs` — comma-separated scoring attributes (required),
/// * `weights` — comma-separated weights (defaults to equal weights),
/// * `sensitive` — a binary sensitive attribute (optional),
/// * `protected` — the protected value of that attribute (optional; defaults
///   to auditing every value, as the tool does),
/// * `diversity` — comma-separated diversity attributes (optional),
/// * `k` — top-k (default 10).
///
/// Uploads route through the shared [`LabelService`] too: the cache is
/// content-addressed, so re-posting a byte-identical CSV with the same
/// parameters is a warm hit.
fn uploaded_label(state: &AppState, request: &Request) -> Response {
    let (table, _summary) = match load_csv_str(&request.body) {
        Ok(loaded) => loaded,
        Err(err) => return Response::text(StatusCode::BadRequest, format!("CSV error: {err}")),
    };

    let config = match upload_config(&table, request, "uploaded dataset") {
        Ok(config) => config,
        Err(response) => return *response,
    };

    match state.labels.label(&Arc::new(table), &Arc::new(config)) {
        Ok(cached) => {
            let wants_json = request
                .headers
                .get("accept")
                .map(|accept| accept.contains("application/json"))
                .unwrap_or(false);
            if wants_json {
                Response::json_shared(Arc::clone(&cached.json))
            } else {
                Response::html(cached.label.to_html())
            }
        }
        Err(err) => label_error(&err),
    }
}

/// Upper bound on catalogue datasets.  Every entry pins its table in
/// memory for the server's lifetime (the catalogue, unlike the label
/// cache, has no eviction), so the unauthenticated upload endpoint must
/// not be a route to unbounded growth.  Replacing an existing slug is
/// always allowed.
pub const MAX_CATALOG_DATASETS: usize = 64;

/// `POST /datasets/{slug}` — upload a CSV **into the catalogue** (body =
/// CSV, query = the same scoring spec as `POST /labels`, plus optional
/// `name` and `description`).  Replaces any existing dataset under that
/// slug and invalidates the label cache via
/// [`AppState::insert_dataset`], so the old dataset's labels cannot linger.
fn upload_dataset(state: &AppState, slug: &str, request: &Request) -> Response {
    if slug.is_empty()
        || !slug
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Response::text(
            StatusCode::BadRequest,
            format!("invalid dataset slug `{slug}` (use letters, digits, `-`, `_`)"),
        );
    }
    let (table, _summary) = match load_csv_str(&request.body) {
        Ok(loaded) => loaded,
        Err(err) => return Response::text(StatusCode::BadRequest, format!("CSV error: {err}")),
    };
    let name = request.query_param("name").unwrap_or(slug).to_string();
    let config = match upload_config(&table, request, &name) {
        Ok(config) => config,
        Err(response) => return *response,
    };
    // Validate now so a broken upload is rejected instead of parked in the
    // catalogue to fail every later label request.
    if let Err(err) = config.validate(&table) {
        return label_error(&err);
    }
    let entry = DatasetEntry {
        slug: slug.to_string(),
        name,
        description: request
            .query_param("description")
            .unwrap_or("uploaded dataset")
            .to_string(),
        table: Arc::new(table),
        config,
    };
    let summary = serde_json::json!({
        "slug": entry.slug,
        "name": entry.name,
        "rows": entry.table.num_rows(),
        "columns": entry.table.num_columns(),
        "cache_cleared": true,
    });
    if !state.try_insert_dataset(entry, MAX_CATALOG_DATASETS) {
        return Response::text(
            StatusCode::ServiceUnavailable,
            format!(
                "catalogue is full ({MAX_CATALOG_DATASETS} datasets); re-upload an existing slug"
            ),
        );
    }
    Response::json(serde_json::to_string_pretty(&summary).unwrap_or_else(|_| "{}".to_string()))
}

/// Parses the shared upload scoring spec (`score_attrs`, `weights`,
/// `sensitive`, `protected`, `diversity`, `k`) into a [`LabelConfig`].
///
/// Errors come back as ready-made 400 responses (boxed: the success path
/// should not pay for the error path's size).
fn upload_config(
    table: &Table,
    request: &Request,
    dataset_name: &str,
) -> Result<LabelConfig, Box<Response>> {
    let Some(score_attrs) = request.query_param("score_attrs") else {
        return Err(Box::new(Response::text(
            StatusCode::BadRequest,
            "missing `score_attrs` query parameter",
        )));
    };
    let attrs: Vec<&str> = score_attrs.split(',').filter(|s| !s.is_empty()).collect();
    if attrs.is_empty() {
        return Err(Box::new(Response::text(
            StatusCode::BadRequest,
            "no scoring attributes given",
        )));
    }
    let weights: Vec<f64> = match request.query_param("weights") {
        Some(spec) => {
            let parsed: Result<Vec<f64>, _> = spec.split(',').map(str::parse::<f64>).collect();
            match parsed {
                Ok(w) if w.len() == attrs.len() => w,
                Ok(_) => {
                    return Err(Box::new(Response::text(
                        StatusCode::BadRequest,
                        "weights and score_attrs must have the same length",
                    )))
                }
                Err(err) => {
                    return Err(Box::new(Response::text(
                        StatusCode::BadRequest,
                        format!("invalid weights: {err}"),
                    )))
                }
            }
        }
        None => vec![1.0; attrs.len()],
    };

    let scoring =
        match ScoringFunction::from_pairs(attrs.iter().copied().zip(weights.iter().copied())) {
            Ok(s) => s,
            Err(err) => {
                return Err(Box::new(Response::text(
                    StatusCode::BadRequest,
                    err.to_string(),
                )))
            }
        };

    let k = match request.query_param("k").map(str::parse::<usize>) {
        Some(Ok(k)) => k,
        Some(Err(_)) => {
            return Err(Box::new(Response::text(
                StatusCode::BadRequest,
                "invalid k",
            )))
        }
        None => 10,
    };

    let mut config = LabelConfig::new(scoring)
        .with_top_k(k.min(table.num_rows()))
        .with_dataset_name(dataset_name);
    if let Some(sensitive) = request.query_param("sensitive") {
        if let Some(protected) = request.query_param("protected") {
            config = config.with_sensitive_attribute(sensitive, [protected.to_string()]);
        } else {
            // Audit every value of the binary attribute, as the tool does.
            match table.categorical_view(sensitive) {
                Ok(labels) => {
                    let mut values: Vec<String> = Vec::new();
                    for label in labels.iter().flatten() {
                        if !values.iter().any(|v| *v == label) {
                            values.push(label.into_owned());
                        }
                    }
                    config = config.with_sensitive_attribute(sensitive, values);
                }
                Err(err) => {
                    return Err(Box::new(Response::text(
                        StatusCode::BadRequest,
                        err.to_string(),
                    )));
                }
            }
        }
        config = config.with_diversity_attribute(sensitive);
    }
    if let Some(diversity) = request.query_param("diversity") {
        for attr in diversity.split(',').filter(|s| !s.is_empty()) {
            config = config.with_diversity_attribute(attr);
        }
    }
    // Uploads accept the same Monte-Carlo stability overrides as the
    // catalogue label endpoints.
    apply_monte_carlo_overrides(config, request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn get(path_and_query: &str) -> Request {
        let raw = format!("GET {path_and_query} HTTP/1.1\r\n\r\n");
        Request::read_from(raw.as_bytes()).unwrap()
    }

    /// The demo catalogue over a label service on its own 2-worker pool.
    fn demo_catalog() -> AppState {
        let options = crate::ServerOptions {
            workers: 2,
            ..crate::ServerOptions::default()
        };
        AppState::with_service(
            DatasetCatalog::with_demo_datasets(),
            options.label_service(),
        )
    }

    #[test]
    fn landing_page_lists_datasets() {
        let catalog = demo_catalog();
        let resp = route(&catalog, &get("/"));
        assert_eq!(resp.status, StatusCode::Ok);
        assert!(resp.body.contains("cs-departments"));
        assert!(resp.body.contains("compas"));
        assert!(resp.body.contains("german-credit"));
    }

    #[test]
    fn datasets_endpoint_returns_json() {
        let catalog = demo_catalog();
        let resp = route(&catalog, &get("/datasets"));
        assert_eq!(resp.status, StatusCode::Ok);
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(value.as_array().unwrap().len(), 3);
    }

    #[test]
    fn preview_endpoint_returns_design_view() {
        let catalog = demo_catalog();
        let resp = route(&catalog, &get("/datasets/cs-departments/preview"));
        assert_eq!(resp.status, StatusCode::Ok);
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        assert!(value.get("numeric_attributes").is_some());
        assert!(value.get("attribute_previews").is_some());
    }

    #[test]
    fn label_endpoint_returns_html_and_json() {
        let catalog = demo_catalog();
        let html = route(&catalog, &get("/datasets/cs-departments/label"));
        assert_eq!(html.status, StatusCode::Ok);
        assert!(html.body.contains("Ranking Facts"));
        assert!(html.content_type.starts_with("text/html"));

        let json = route(&catalog, &get("/datasets/cs-departments/label.json"));
        assert_eq!(json.status, StatusCode::Ok);
        let value: serde_json::Value = serde_json::from_str(&json.body).unwrap();
        assert!(value.get("fairness").is_some());
    }

    #[test]
    fn label_endpoint_honours_k_override() {
        let catalog = demo_catalog();
        let resp = route(&catalog, &get("/datasets/cs-departments/label.json?k=5"));
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(value["top_k_rows"].as_array().unwrap().len(), 5);
        // Invalid k is rejected.
        let bad = route(&catalog, &get("/datasets/cs-departments/label?k=banana"));
        assert_eq!(bad.status, StatusCode::BadRequest);
        // k larger than the dataset is rejected by validation.
        let too_big = route(&catalog, &get("/datasets/cs-departments/label?k=100000"));
        assert_eq!(too_big.status, StatusCode::BadRequest);
    }

    #[test]
    fn repeated_label_requests_hit_the_cache_byte_identically() {
        let state = demo_catalog();
        let cold = route(&state, &get("/datasets/german-credit/label.json?k=7"));
        assert_eq!(cold.status, StatusCode::Ok);
        let warm = route(&state, &get("/datasets/german-credit/label.json?k=7"));
        assert_eq!(cold.body, warm.body, "warm hit must be byte-identical");
        let stats = state.labels.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        // A different k is a different key.
        let _ = route(&state, &get("/datasets/german-credit/label.json?k=8"));
        assert_eq!(state.labels.stats().cache.misses, 2);
    }

    #[test]
    fn stats_endpoint_exposes_cache_counters() {
        let state = demo_catalog();
        let _ = route(&state, &get("/datasets/cs-departments/label.json"));
        let _ = route(&state, &get("/datasets/cs-departments/label.json"));
        let resp = route(&state, &get("/stats"));
        assert_eq!(resp.status, StatusCode::Ok);
        assert_eq!(resp.content_type, "application/json");
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(value["cache"]["hits"], 1);
        assert_eq!(value["cache"]["misses"], 1);
        assert_eq!(value["cache"]["entries"], 1);
        assert!(value["cache"]["bytes"].as_u64().unwrap() > 0);
        assert!(value["preparations"].as_u64().unwrap() >= 1);
    }

    #[test]
    fn stats_endpoint_exposes_scheduler_observability() {
        // Panicked jobs, queue depth, and steal counts are visible over
        // HTTP alongside the cache counters.  The service schedules on a
        // pool of its own, so only this test's label moves its counters.
        let pool = Arc::new(rf_runtime::ThreadPool::new(2));
        let service =
            LabelService::with_pipeline(rf_core::AnalysisPipeline::with_pool(pool), 16, 64 << 20);
        let state = AppState::with_service(DatasetCatalog::with_demo_datasets(), service);
        let scrape = |state: &AppState| -> serde_json::Value {
            serde_json::from_str(&route(state, &get("/stats")).body).unwrap()
        };
        let before = scrape(&state)["scheduler"]["executed_jobs"]
            .as_u64()
            .unwrap();
        let _ = route(&state, &get("/datasets/cs-departments/label.json"));
        let value = scrape(&state);
        let scheduler = &value["scheduler"];
        assert_eq!(scheduler["workers"], 2);
        assert!(scheduler["executed_jobs"].as_u64().unwrap() > before);
        assert!(scheduler["panicked_jobs"].as_u64().is_some());
        assert!(scheduler["queue_depth"].as_u64().is_some());
        assert!(scheduler["steals"].as_u64().is_some());
        // And the Monte-Carlo hot-path counters ride along.
        let mc = &value["monte_carlo"];
        assert!(mc["runs"].as_u64().unwrap() >= 1);
        assert!(mc["trials_completed"].as_u64().unwrap() >= 1);
        assert!(mc["truncated"].as_u64().is_some());
    }

    #[test]
    fn stats_endpoint_lists_dataset_shapes() {
        // Satellite: the catalogue's row/column counts are visible on
        // /stats, filled at scrape time like the network/admission planes.
        let state = demo_catalog();
        let resp = route(&state, &get("/stats"));
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        let datasets = value["datasets"].as_array().unwrap();
        assert_eq!(datasets.len(), 3);
        let compas = datasets
            .iter()
            .find(|d| d["slug"] == "compas")
            .expect("compas listed");
        assert_eq!(compas["rows"], 2_000);
        assert!(compas["columns"].as_u64().unwrap() > 0);
        // A registered synthetic scenario shows up on the next scrape.
        state.catalog.register_synth_scenario(1_000);
        let resp = route(&state, &get("/stats"));
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        let datasets = value["datasets"].as_array().unwrap();
        assert!(datasets.iter().any(|d| d["slug"] == "synth-1k"));
    }

    #[test]
    fn relaxed_fp_override_is_parsed_and_fingerprinted() {
        let state = demo_catalog();
        let exact = route(&state, &get("/datasets/cs-departments/label.json"));
        assert_eq!(exact.status, StatusCode::Ok);
        let relaxed = route(
            &state,
            &get("/datasets/cs-departments/label.json?relaxed_fp=true"),
        );
        assert_eq!(relaxed.status, StatusCode::Ok);
        // Different fingerprint → different cache entry: two misses, no hit.
        assert_eq!(state.labels.stats().cache.misses, 2);
        // An explicit `off` matches the default entry (a warm hit).
        let off = route(
            &state,
            &get("/datasets/cs-departments/label.json?relaxed_fp=off"),
        );
        assert_eq!(off.status, StatusCode::Ok);
        assert_eq!(state.labels.stats().cache.hits, 1);
        assert_eq!(off.body, exact.body);
        let bad = route(
            &state,
            &get("/datasets/cs-departments/label.json?relaxed_fp=maybe"),
        );
        assert_eq!(bad.status, StatusCode::BadRequest);
    }

    #[test]
    fn stats_roll_up_reactor_counters_without_torn_reads() {
        let state = demo_catalog();
        // Library use: no server installed its reactors, so the network
        // block is absent rather than a misleading row of zeros.
        let resp = route(&state, &get("/stats"));
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        assert!(value["network"].is_null(), "{}", resp.body);

        // Two shards churning accept/close while /stats scrapes: no scrape
        // may ever observe active > accepted, per shard or in the totals.
        let shards: Vec<Arc<rf_net::ReactorMetrics>> = (0..2)
            .map(|_| Arc::new(rf_net::ReactorMetrics::new()))
            .collect();
        state.install_reactor_metrics(shards.clone());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let churners: Vec<_> = shards
            .iter()
            .map(|shard| {
                let shard = Arc::clone(shard);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    use std::sync::atomic::Ordering;
                    while !stop.load(Ordering::Relaxed) {
                        shard.on_accepted();
                        shard.on_dispatched();
                        shard.on_completion();
                        shard.on_closed();
                    }
                })
            })
            .collect();
        for _ in 0..500 {
            let resp = route(&state, &get("/stats"));
            let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
            let network = &value["network"];
            let reactors = network["reactors"].as_array().expect("reactor array");
            assert_eq!(reactors.len(), 2);
            for shard in reactors {
                assert!(
                    shard["active"].as_u64().unwrap() <= shard["accepted"].as_u64().unwrap(),
                    "torn shard scrape: {shard}"
                );
            }
            let totals = &network["totals"];
            assert!(
                totals["active"].as_u64().unwrap() <= totals["accepted"].as_u64().unwrap(),
                "torn totals scrape: {totals}"
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for churner in churners {
            churner.join().expect("churner");
        }
    }

    #[test]
    fn metrics_exposition_is_valid_prometheus_text() {
        let state = demo_catalog();
        let _ = route(&state, &get("/datasets/cs-departments/label.json"));
        let resp = route(&state, &get("/metrics"));
        assert_eq!(resp.status, StatusCode::Ok);
        assert_eq!(
            resp.content_type,
            "text/plain; version=0.0.4; charset=utf-8"
        );
        // At least ten metric families, declared once each.
        let mut families: Vec<&str> = resp
            .body
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        let declared = families.len();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families.len(), declared, "each family declared once");
        assert!(declared >= 10, "only {declared} families: {families:?}");
        for required in [
            "rf_stage_duration_microseconds",
            "rf_cache_hits_total",
            "rf_cache_misses_total",
            "rf_label_preparations_total",
            "rf_label_coalesced_total",
            "rf_scheduler_executed_jobs_total",
            "rf_mc_runs_total",
        ] {
            assert!(families.contains(&required), "missing {required}");
        }
        // Service-side and aggregated stage histograms are present even
        // without a running server (no per-shard reactor sets yet).
        assert!(resp.body.contains("stage=\"prepare\",shard=\"service\""));
        assert!(resp.body.contains("stage=\"prepare\",shard=\"all\""));
        assert!(resp.body.contains("le=\"+Inf\""));
        // Every non-comment line is `series value` with a numeric value.
        for line in resp.body.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!series.is_empty(), "{line}");
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
    }

    #[test]
    fn debug_slow_and_admission_report_installed_observability() {
        let state = demo_catalog();
        // Without a running server: an empty ring document, no admission.
        let resp = route(&state, &get("/debug/slow"));
        assert_eq!(resp.status, StatusCode::Ok);
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(value["capacity"], 0);
        assert_eq!(value["traces"].as_array().unwrap().len(), 0);
        let stats = route(&state, &get("/stats"));
        let value: serde_json::Value = serde_json::from_str(&stats.body).unwrap();
        assert!(value["admission"].is_null());

        // Install a ring holding one trace plus an admission probe, as
        // Server::run does.
        let ring = Arc::new(rf_obs::TraceRing::new(8));
        let mut stage_micros = [0u64; rf_obs::STAGE_COUNT];
        stage_micros[rf_obs::Stage::Prepare.index()] = 1_500;
        ring.push(rf_obs::RequestTrace {
            id: rf_obs::RequestId { shard: 2, seq: 7 },
            total_micros: 2_000,
            stage_micros,
            cache: rf_obs::CacheOutcome::Miss,
            truncated: true,
            shed: Some(rf_obs::ShedReason::MaxPending),
        });
        state.install_observability(Observability {
            shard_stages: vec![Arc::new(rf_obs::StageHistograms::new())],
            trace_ring: ring,
            admission: Some(Arc::new(|| rf_core::AdmissionStats {
                max_pending: 64,
                pending: 1,
                ewma_service_micros: 1_000,
                measured_service_micros: 1_200,
            })),
        });
        let resp = route(&state, &get("/debug/slow"));
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(value["capacity"], 8);
        assert_eq!(value["recorded"], 1);
        let trace = &value["traces"][0];
        assert_eq!(trace["id"], "2:7");
        assert_eq!(trace["total_micros"], 2_000);
        assert_eq!(trace["cache"], "miss");
        assert_eq!(trace["truncated"], true);
        assert_eq!(trace["shed"], "max_pending");
        let stages = trace["stages"].as_array().unwrap();
        assert!(stages
            .iter()
            .any(|s| s["stage"] == "prepare" && s["micros"] == 1_500));

        // The probe feeds both /stats and /metrics.
        let stats = route(&state, &get("/stats"));
        let value: serde_json::Value = serde_json::from_str(&stats.body).unwrap();
        assert_eq!(value["admission"]["max_pending"], 64);
        assert_eq!(value["admission"]["pending"], 1);
        assert_eq!(value["admission"]["ewma_service_micros"], 1_000);
        assert_eq!(value["admission"]["measured_service_micros"], 1_200);
        let metrics = route(&state, &get("/metrics"));
        assert!(metrics
            .body
            .contains("rf_admission_measured_service_micros 1200"));
        assert!(metrics.body.contains("rf_traces_recorded_total 1"));
    }

    #[test]
    fn label_json_includes_the_monte_carlo_detail_by_default() {
        let state = demo_catalog();
        let resp = route(&state, &get("/datasets/cs-departments/label.json"));
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        let mc = &value["stability"]["monte_carlo"];
        assert!(mc.is_object(), "stability detail served on the hot path");
        assert_eq!(mc["trials"], 32);
        assert!(mc["expected_kendall_tau"].as_f64().unwrap() <= 1.0);
    }

    #[test]
    fn monte_carlo_query_overrides_are_applied_and_keyed() {
        let state = demo_catalog();
        let resp = route(
            &state,
            &get("/datasets/cs-departments/label.json?trials=5&data_noise=0.2&mc_seed=7"),
        );
        assert_eq!(resp.status, StatusCode::Ok, "body: {}", resp.body);
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(value["stability"]["monte_carlo"]["trials"], 5);
        assert_eq!(value["config"]["monte_carlo"]["data_noise"], 0.2);
        assert_eq!(value["config"]["monte_carlo"]["seed"], 7);
        // trials=0 disables the detail view.
        let off = route(&state, &get("/datasets/cs-departments/label.json?trials=0"));
        let value: serde_json::Value = serde_json::from_str(&off.body).unwrap();
        assert!(value["stability"]["monte_carlo"].is_null());
        // Different knobs are different cache keys: 2 requests, 2 misses.
        assert_eq!(state.labels.stats().cache.misses, 2);
        // And re-requesting the first combination is a warm hit.
        let again = route(
            &state,
            &get("/datasets/cs-departments/label.json?trials=5&data_noise=0.2&mc_seed=7"),
        );
        assert_eq!(again.body.as_str(), resp.body.as_str());
        assert_eq!(state.labels.stats().cache.hits, 1);
        // Bad values are rejected.
        for bad in [
            "/datasets/cs-departments/label.json?trials=lots",
            // Unbounded trials would let one request schedule arbitrary work.
            "/datasets/cs-departments/label.json?trials=4000000000",
            "/datasets/cs-departments/label.json?data_noise=-1",
            "/datasets/cs-departments/label.json?weight_noise=nan",
            "/datasets/cs-departments/label.json?mc_seed=x",
            "/datasets/cs-departments/label.json?deadline_ms=soon",
        ] {
            assert_eq!(route(&state, &get(bad)).status, StatusCode::BadRequest);
        }
    }

    #[test]
    fn zero_deadline_request_returns_a_truncated_label_not_a_hang() {
        // The deadline-budget acceptance: an already-expired budget still
        // answers with a valid label over fewer trials, flagged truncated.
        let state = demo_catalog();
        let resp = route(
            &state,
            &get("/datasets/cs-departments/label.json?trials=512&deadline_ms=0"),
        );
        assert_eq!(resp.status, StatusCode::Ok, "body: {}", resp.body);
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        let mc = &value["stability"]["monte_carlo"];
        assert_eq!(mc["truncated"], true);
        assert_eq!(mc["trials_requested"], 512);
        let trials = mc["trials"].as_u64().unwrap();
        assert!(
            (1..512).contains(&trials),
            "expected a truncated trial count, got {trials}"
        );
        // Truncated labels are never cached — how far the run got reflects
        // transient load, so a busy first request must not pin a degraded
        // label.  Regeneration is still deterministic (wave truncation), so
        // the bodies agree.
        let again = route(
            &state,
            &get("/datasets/cs-departments/label.json?trials=512&deadline_ms=0"),
        );
        assert_eq!(resp.body, again.body);
        assert_eq!(state.labels.stats().cache.entries, 0);
        assert_eq!(state.labels.stats().cache.hits, 0);
        assert_eq!(state.labels.stats().cache.misses, 2);
        // A budget generous enough to finish caches (and warm-hits) as usual.
        let generous = route(
            &state,
            &get("/datasets/cs-departments/label.json?trials=512&deadline_ms=60000"),
        );
        assert_eq!(generous.status, StatusCode::Ok);
        let value: serde_json::Value = serde_json::from_str(&generous.body).unwrap();
        assert_eq!(value["stability"]["monte_carlo"]["truncated"], false);
        assert_eq!(value["stability"]["monte_carlo"]["trials"], 512);
        assert_eq!(state.labels.stats().cache.entries, 1);
        let warm = route(
            &state,
            &get("/datasets/cs-departments/label.json?trials=512&deadline_ms=60000"),
        );
        assert_eq!(generous.body, warm.body);
        assert_eq!(state.labels.stats().cache.hits, 1);
    }

    #[test]
    fn unknown_routes_and_datasets_are_404() {
        let catalog = demo_catalog();
        assert_eq!(route(&catalog, &get("/nope")).status, StatusCode::NotFound);
        assert_eq!(
            route(&catalog, &get("/datasets/nope/label")).status,
            StatusCode::NotFound
        );
    }

    #[test]
    fn upload_endpoint_generates_label() {
        let catalog = demo_catalog();
        let csv = "name,score,grp\na,3,x\nb,2,y\nc,1,x\nd,4,y\ne,5,x\nf,0.5,y\n";
        let request = Request {
            method: Method::Post,
            path: "/labels".to_string(),
            query: HashMap::from([
                ("score_attrs".to_string(), "score".to_string()),
                ("sensitive".to_string(), "grp".to_string()),
                ("k".to_string(), "3".to_string()),
            ]),
            headers: HashMap::from([("accept".to_string(), "application/json".to_string())]),
            body: csv.to_string(),
        };
        let resp = route(&catalog, &request);
        assert_eq!(resp.status, StatusCode::Ok, "body: {}", resp.body);
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(value["config"]["top_k"], 3);
        assert_eq!(value["fairness"]["reports"].as_array().unwrap().len(), 2);
    }

    fn post(path_and_query: &str, body: &str) -> Request {
        let raw = format!(
            "POST {path_and_query} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        Request::read_from(raw.as_bytes()).unwrap()
    }

    #[test]
    fn dataset_upload_into_catalog_replaces_and_invalidates() {
        let state = demo_catalog();
        let csv_v1 = "name,score\na,3\nb,2\nc,1\nd,4\ne,5\n";
        let resp = route(
            &state,
            &post("/datasets/mydata?score_attrs=score&k=3", csv_v1),
        );
        assert_eq!(resp.status, StatusCode::Ok, "body: {}", resp.body);
        let value: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(value["slug"], "mydata");
        assert_eq!(value["rows"], 5);
        assert_eq!(value["cache_cleared"], true);
        assert_eq!(state.catalog.len(), 4);

        // Label the uploaded dataset; the cache now holds it.
        let v1_label = route(&state, &get("/datasets/mydata/label.json"));
        assert_eq!(v1_label.status, StatusCode::Ok, "body: {}", v1_label.body);
        assert!(state.labels.stats().cache.entries >= 1);

        // Re-upload under the same slug with different bytes: the stale
        // catalogue path must not serve the old label — the cache is
        // cleared by the upload hook.
        let csv_v2 = "name,score\na,30\nb,20\nc,10\nd,40\ne,50\nf,60\n";
        let resp = route(
            &state,
            &post("/datasets/mydata?score_attrs=score&k=3", csv_v2),
        );
        assert_eq!(resp.status, StatusCode::Ok, "body: {}", resp.body);
        assert_eq!(state.catalog.len(), 4, "replaced, not added");
        assert_eq!(
            state.labels.stats().cache.entries,
            0,
            "upload must clear the label cache"
        );
        let v2_label = route(&state, &get("/datasets/mydata/label.json"));
        assert_eq!(v2_label.status, StatusCode::Ok);
        assert_ne!(
            v1_label.body, v2_label.body,
            "new bytes must produce a new label"
        );
        let v2_value: serde_json::Value = serde_json::from_str(&v2_label.body).unwrap();
        assert_eq!(v2_value["top_k_rows"][0]["identifier"], "f");
    }

    #[test]
    fn dataset_upload_validates_slug_and_config() {
        let state = demo_catalog();
        let csv = "name,score\na,3\nb,2\nc,1\n";
        // Bad slug.
        let resp = route(&state, &post("/datasets/bad%20slug?score_attrs=score", csv));
        assert_eq!(resp.status, StatusCode::BadRequest);
        // Missing score_attrs.
        let resp = route(&state, &post("/datasets/okslug", csv));
        assert_eq!(resp.status, StatusCode::BadRequest);
        // A config that cannot validate against the table (unknown
        // sensitive attribute) is rejected at upload time, not parked in
        // the catalogue to fail every later label request.
        let resp = route(
            &state,
            &post("/datasets/okslug?score_attrs=score&sensitive=nope", csv),
        );
        assert_eq!(resp.status, StatusCode::BadRequest);
        // Nothing was parked in the catalogue by the failed uploads.
        assert_eq!(state.catalog.len(), 3);
    }

    #[test]
    fn catalogue_uploads_are_bounded() {
        let state = demo_catalog();
        let csv = "name,score\na,3\nb,2\nc,1\n";
        // Fill the catalogue to its cap (3 demo datasets pre-loaded).
        for i in 0..(MAX_CATALOG_DATASETS - 3) {
            let resp = route(
                &state,
                &post(&format!("/datasets/d{i}?score_attrs=score"), csv),
            );
            assert_eq!(resp.status, StatusCode::Ok, "upload {i}: {}", resp.body);
        }
        assert_eq!(state.catalog.len(), MAX_CATALOG_DATASETS);
        // A new slug at the cap is refused…
        let resp = route(&state, &post("/datasets/overflow?score_attrs=score", csv));
        assert_eq!(resp.status, StatusCode::ServiceUnavailable);
        assert_eq!(state.catalog.len(), MAX_CATALOG_DATASETS);
        // …while replacing an existing slug still works.
        let resp = route(&state, &post("/datasets/d0?score_attrs=score", csv));
        assert_eq!(resp.status, StatusCode::Ok, "body: {}", resp.body);
    }

    #[test]
    fn label_json_responses_share_the_cached_document() {
        let state = demo_catalog();
        let resp = route(&state, &get("/datasets/cs-departments/label.json"));
        let crate::http::Body::Shared(shared) = &resp.body else {
            panic!("label.json must stream the cache's shared document");
        };
        let again = route(&state, &get("/datasets/cs-departments/label.json"));
        let crate::http::Body::Shared(shared_again) = &again.body else {
            panic!("warm hit must stream the cache's shared document");
        };
        assert!(
            Arc::ptr_eq(shared, shared_again),
            "cold and warm responses share one allocation"
        );
    }

    /// A unique scratch directory for disk-tier tests, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "rf-router-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Demo state over a two-tier cache rooted at `dir`.
    fn disk_state(dir: &std::path::Path) -> AppState {
        let service =
            LabelService::with_pipeline(rf_core::AnalysisPipeline::sequential(), 64, 1 << 22)
                .with_disk_tier(Arc::new(rf_store::DiskStore::open(dir, 1 << 22).unwrap()));
        AppState::with_service(DatasetCatalog::with_demo_datasets(), service)
    }

    #[test]
    fn restarted_state_over_a_warm_disk_tier_serves_disk_hits() {
        let scratch = Scratch::new("restart");
        let cold_body = {
            let state = disk_state(&scratch.0);
            let cold = route(&state, &get("/datasets/cs-departments/label.json?k=5"));
            assert_eq!(cold.status, StatusCode::Ok);
            // Write-behind: make the fill durable before the "crash".
            state.labels.disk_store().unwrap().flush();
            cold.body.to_string()
        };
        // "Restart": a fresh AppState (empty memory tier) over the same
        // directory answers the same request from disk, byte-identically.
        let state = disk_state(&scratch.0);
        let warm = route(&state, &get("/datasets/cs-departments/label.json?k=5"));
        assert_eq!(warm.status, StatusCode::Ok);
        assert_eq!(warm.body.as_str(), cold_body.as_str());

        let stats = route(&state, &get("/stats"));
        let value: serde_json::Value = serde_json::from_str(&stats.body).unwrap();
        assert_eq!(value["disk"]["disk_hits"], 1, "{}", stats.body);
        assert_eq!(value["disk"]["promotions"], 1);
        assert_eq!(value["cache"]["misses"], 1, "memory tier started cold");
        assert!(value["disk"]["entries"].as_u64().unwrap() >= 1);

        let metrics = route(&state, &get("/metrics"));
        assert!(metrics.body.contains("# TYPE rf_disk_hits_total counter"));
        assert!(
            metrics.body.contains("rf_disk_hits_total 1"),
            "{}",
            metrics.body
        );
        assert!(metrics.body.contains("# TYPE rf_disk_entries gauge"));
        assert!(metrics.body.contains("rf_disk_max_bytes"));

        // Memory-only deployments expose neither the /stats block nor the
        // /metrics families.
        let memory_only = demo_catalog();
        let stats = route(&memory_only, &get("/stats"));
        let value: serde_json::Value = serde_json::from_str(&stats.body).unwrap();
        assert!(value["disk"].is_null(), "{}", stats.body);
        let metrics = route(&memory_only, &get("/metrics"));
        assert!(!metrics.body.contains("rf_disk_"));
    }

    #[test]
    fn dataset_upload_purges_the_disk_tier_too() {
        let scratch = Scratch::new("purge");
        let state = disk_state(&scratch.0);
        let _ = route(&state, &get("/datasets/cs-departments/label.json?k=5"));
        state.labels.disk_store().unwrap().flush();
        let before = state.labels.stats();
        assert_eq!(before.cache.entries, 1);
        assert!(before.disk.unwrap().entries >= 1);

        // The upload's invalidation must reach both tiers — a stale label
        // surviving on disk would resurrect on the next restart.
        let csv = "name,score\na,3\nb,2\nc,1\nd,4\ne,5\n";
        let resp = route(&state, &post("/datasets/mydata?score_attrs=score&k=3", csv));
        assert_eq!(resp.status, StatusCode::Ok, "body: {}", resp.body);
        let after = state.labels.stats();
        assert_eq!(after.cache.entries, 0);
        let disk = after.disk.unwrap();
        assert_eq!(disk.entries, 0, "disk tier must be purged");
        assert_eq!(disk.bytes, 0);

        // Counter-verified: the next request regenerates (a disk miss), it
        // does not resurrect the purged entry.
        let hits_before = disk.disk_hits;
        let misses_before = disk.disk_misses;
        let again = route(&state, &get("/datasets/cs-departments/label.json?k=5"));
        assert_eq!(again.status, StatusCode::Ok);
        let disk = state.labels.stats().disk.unwrap();
        assert_eq!(disk.disk_hits, hits_before, "no hit on a purged tier");
        assert_eq!(disk.disk_misses, misses_before + 1);
    }

    #[test]
    fn upload_endpoint_validates_input() {
        let catalog = demo_catalog();
        // Missing score_attrs.
        let request = Request {
            method: Method::Post,
            path: "/labels".to_string(),
            query: HashMap::new(),
            headers: HashMap::new(),
            body: "a\n1\n2\n".to_string(),
        };
        assert_eq!(route(&catalog, &request).status, StatusCode::BadRequest);
        // Broken CSV.
        let request = Request {
            method: Method::Post,
            path: "/labels".to_string(),
            query: HashMap::from([("score_attrs".to_string(), "a".to_string())]),
            headers: HashMap::new(),
            body: "a,b\n1\n".to_string(),
        };
        assert_eq!(route(&catalog, &request).status, StatusCode::BadRequest);
        // Mismatched weights.
        let request = Request {
            method: Method::Post,
            path: "/labels".to_string(),
            query: HashMap::from([
                ("score_attrs".to_string(), "a".to_string()),
                ("weights".to_string(), "0.5,0.5".to_string()),
            ]),
            headers: HashMap::new(),
            body: "a,b\n1,2\n3,4\n".to_string(),
        };
        assert_eq!(route(&catalog, &request).status, StatusCode::BadRequest);
    }
}
