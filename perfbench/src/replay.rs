//! The traced replay: the run's generated requests, served again in this
//! process with a span around every call into a layer's public function.

use crate::spans::Recorder;
use crate::workloads::{self, Kept, Workload};
use rf_core::pipeline::AnalysisContext;
use rf_core::{
    AnalysisPipeline, DiversityWidget, IngredientsWidget, LabelConfig, LabelService, RecipeWidget,
    StabilityWidget,
};
use rf_fairness::report::{FairnessConfig, FairnessReport};
use rf_net::{HttpParser, ParseEvent};
use rf_server::{route, AppState, Request, Response};
use rf_table::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// Where one replayed cold label's time went, in milliseconds.
pub struct ColdBreakdown {
    /// Prepare, render at its least, and JSON rendering: the steps a cold
    /// label cannot overlap.  Render takes at least its slowest job, and at
    /// least all its jobs spread evenly over the workers.
    pub blocking_ms: f64,
    /// The same request's latency as the traced server pass measured it.
    pub measured_ms: Option<f64>,
}

/// A label server's parts, assembled in this process the way the server
/// binary assembles them.
pub struct Replay {
    state: AppState,
    pipeline: AnalysisPipeline,
    pool: Arc<rf_runtime::ThreadPool>,
    pub recorder: Recorder,
    pub requests: u64,
    pub failed: u64,
    /// The first few failures.
    pub errors: Vec<String>,
}

fn parse(bytes: &[u8]) -> Result<Request, String> {
    match HttpParser::new().feed(bytes) {
        Ok(ParseEvent::Request(parsed)) => {
            Request::from_parsed(parsed).ok_or_else(|| "parsed request is malformed".to_string())
        }
        Ok(ParseEvent::NeedMore) => Err("request is incomplete".to_string()),
        Err(err) => Err(format!("request does not parse: {err:?}")),
    }
}

impl Replay {
    fn new(workload: Workload, workers: usize) -> Self {
        let pool = Arc::new(rf_runtime::ThreadPool::new(workers));
        let pipeline = AnalysisPipeline::with_pool(Arc::clone(&pool));
        let service = LabelService::with_pipeline(
            pipeline.clone(),
            rf_core::service::DEFAULT_CACHE_CAPACITY,
            rf_core::service::DEFAULT_CACHE_BYTES,
        );
        Replay {
            state: AppState::with_service(workloads::catalog(workload), service),
            pipeline,
            pool,
            recorder: Recorder::new(),
            requests: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// The table and configuration the router derives from a label path.
    fn label_input(&self, request: &Request) -> Result<(Arc<Table>, Arc<LabelConfig>), String> {
        let slug = request
            .path
            .strip_prefix("/datasets/")
            .and_then(|rest| rest.strip_suffix("/label.json"))
            .ok_or_else(|| format!("{} is not a label path", request.path))?;
        let entry = self
            .state
            .catalog
            .get(slug)
            .ok_or_else(|| format!("unknown dataset {slug}"))?;
        let mut config = entry.config.clone();
        if let Some(k) = request.query_param("k") {
            config = config.with_top_k(k.parse().map_err(|_| format!("bad k {k}"))?);
        }
        if let Some(seed) = request.query_param("mc_seed") {
            config = config
                .with_monte_carlo_seed(seed.parse().map_err(|_| format!("bad mc_seed {seed}"))?);
        }
        Ok((entry.table, Arc::new(config)))
    }

    /// Fills the replay's cache with `path`, untraced.
    fn fill(&mut self, path: &str) -> Result<(), String> {
        let request = parse(&crate::harness::request_bytes(path))?;
        let response = route(&self.state, &request);
        match response.status.code() {
            200 => Ok(()),
            code => Err(format!("replay fill of {path} answered {code}")),
        }
    }

    fn note(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// A warm hit: parse, route (the cache answers), and the outbound
    /// response; then the label service's lookup on its own.  The body must
    /// equal `expected`.
    fn warm(&mut self, id: u64, path: &str, expected: &[u8]) {
        self.requests += 1;
        let bytes = crate::harness::request_bytes(path);
        let state = &self.state;
        let outcome = self.recorder.span("request", id, |rec| {
            let request = rec.span("net.parse", id, |_| parse(&bytes))?;
            let response = rec.span("server.route", id, |_| route(state, &request));
            let same = response.body.as_str().as_bytes() == expected;
            rec.span("net.write", id, |_| response.into_outbound(true));
            if !same {
                return Err(format!("replayed {path} differs from the served body"));
            }
            Ok(request)
        });
        let request = match outcome {
            Ok(request) => request,
            Err(err) => return self.note(err),
        };
        match self.label_input(&request) {
            Ok((table, config)) => {
                let labels = &self.state.labels;
                let hit = self
                    .recorder
                    .span("service.label", id, |_| labels.label(&table, &config));
                if let Err(err) = hit {
                    self.note(format!("{path}: {err}"));
                }
            }
            Err(err) => self.note(err),
        }
    }

    /// A cold label, step by step: parse, table fingerprint (the cache
    /// key), prepare, render, JSON, outbound response.  Then each widget
    /// job again on its own, on the prepared context, as a second span tree
    /// of the same request.  The JSON must equal `expected` when given.
    fn cold(&mut self, id: u64, path: &str, expected: Option<&[u8]>) -> Option<ColdBreakdown> {
        self.requests += 1;
        match self.cold_steps(id, path, expected) {
            Ok(breakdown) => Some(breakdown),
            Err(err) => {
                self.note(err);
                None
            }
        }
    }

    fn cold_steps(
        &mut self,
        id: u64,
        path: &str,
        expected: Option<&[u8]>,
    ) -> Result<ColdBreakdown, String> {
        let bytes = crate::harness::request_bytes(path);
        let request = parse(&bytes)?;
        let (table, config) = self.label_input(&request)?;
        let pipeline = &self.pipeline;
        let (ctx, json, prepare_ns, json_ns) = self.recorder.span("request", id, |rec| {
            rec.span("net.parse", id, |_| parse(&bytes))?;
            rec.span("table.fingerprint", id, |_| table.fingerprint());
            let (ctx, prepare_ns) = rec.timed("pipeline.prepare", id, |_| {
                pipeline.prepare(Arc::clone(&table), Arc::clone(&config))
            });
            let ctx = ctx.map_err(|err| format!("{path}: prepare: {err}"))?;
            let label = rec
                .span("pipeline.render", id, |_| pipeline.render(&ctx))
                .map_err(|err| format!("{path}: render: {err}"))?;
            let (json, json_ns) = rec.timed("label.to_json", id, |_| label.to_json());
            let json = json.map_err(|err| format!("{path}: to_json: {err}"))?;
            let response = Response::json(json.clone());
            rec.span("net.write", id, |_| response.into_outbound(true));
            Ok::<_, String>((ctx, json, prepare_ns, json_ns))
        })?;
        if let Some(expected) = expected {
            if json.as_bytes() != expected {
                return Err(format!("replayed {path} differs from the served body"));
            }
        }
        let (widest_ns, total_ns) = self.widgets(id, &ctx)?;
        let render_ns = widest_ns.max(total_ns / self.pool.size().max(1) as u64);
        Ok(ColdBreakdown {
            blocking_ms: (prepare_ns + render_ns + json_ns) as f64 / 1e6,
            measured_ms: None,
        })
    }

    /// Every job of the label's render, one after another, each in its own
    /// span; returns the longest job and the jobs' total, in nanoseconds.
    /// The ranking is recomputed on its own too, but it belongs to
    /// preparation, not to a render job.
    fn widgets(&mut self, id: u64, ctx: &Arc<AnalysisContext>) -> Result<(u64, u64), String> {
        let scheduler = Arc::clone(self.pool.scheduler());
        let config = &ctx.config;
        let k = config.top_k;
        let fairness = FairnessConfig {
            k,
            alpha: config.alpha,
        };
        let mc = &config.monte_carlo;
        let estimator = if mc.trials == 0 {
            None
        } else {
            let estimator = rf_stability::MonteCarloStability::new()
                .with_trials(mc.trials)
                .and_then(|estimator| estimator.with_noise(mc.data_noise, mc.weight_noise))
                .map_err(|err| err.to_string())?
                .with_seed(mc.seed)
                .with_k(k)
                .with_relaxed_fp(mc.relaxed_fp);
            Some(estimator)
        };
        let failed = |err: &dyn std::fmt::Display| err.to_string();
        self.recorder.span("widgets", id, |rec| {
            rec.span("ranking.rank_table", id, |_| {
                config.scoring.rank_table(&ctx.table)
            })
            .map_err(|err| failed(&err))?;
            let mut widest = 0u64;
            let mut total = 0u64;
            let mut job =
                |rec: &mut Recorder,
                 name: &'static str,
                 build: &mut dyn FnMut(&mut Recorder) -> Result<(), String>| {
                    let (result, ns) = rec.timed(name, id, build);
                    widest = widest.max(ns);
                    total += ns;
                    result
                };
            job(rec, "widget.recipe", &mut |_| {
                RecipeWidget::build(&ctx.table, &config.scoring, &ctx.ranking, k)
                    .map(drop)
                    .map_err(|err| failed(&err))
            })?;
            job(rec, "widget.ingredients", &mut |_| {
                let names = config.scoring.attribute_names();
                IngredientsWidget::build_with_method(
                    &ctx.table,
                    &ctx.ranking,
                    &names,
                    k,
                    config.ingredient_count,
                    config.ingredients_method,
                )
                .map(drop)
                .map_err(|err| failed(&err))
            })?;
            job(rec, "widget.stability", &mut |rec| {
                rec.span("widget.slope", id, |_| {
                    StabilityWidget::build_from_normalized(
                        &config.scoring,
                        &ctx.normalized_scoring,
                        &ctx.ranking,
                        k,
                        config.stability_threshold,
                    )
                })
                .map_err(|err| failed(&err))?;
                let Some(estimator) = &estimator else {
                    return Ok(());
                };
                rec.span("stability.mc", id, |_| {
                    estimator.evaluate_batched(
                        &scheduler,
                        &ctx.table,
                        &config.scoring,
                        &ctx.ranking,
                        mc.deadline_millis.map(std::time::Duration::from_millis),
                    )
                })
                .map(drop)
                .map_err(|err| failed(&err))
            })?;
            for group in &ctx.protected_groups {
                job(rec, "fairness.fair_star", &mut |_| {
                    FairnessReport::evaluate_fair_star(group, &ctx.ranking, &fairness)
                        .map(drop)
                        .map_err(|err| failed(&err))
                })?;
                job(rec, "fairness.pairwise", &mut |_| {
                    FairnessReport::evaluate_pairwise(group, &ctx.ranking, &fairness)
                        .map(drop)
                        .map_err(|err| failed(&err))
                })?;
                job(rec, "fairness.proportion", &mut |_| {
                    FairnessReport::evaluate_proportion(group, &ctx.ranking, &fairness)
                        .map(drop)
                        .map_err(|err| failed(&err))
                })?;
                job(rec, "fairness.discounted", &mut |_| {
                    FairnessReport::evaluate_discounted(group, &ctx.ranking)
                        .map(drop)
                        .map_err(|err| failed(&err))
                })?;
            }
            job(rec, "widget.diversity", &mut |_| {
                DiversityWidget::build(&ctx.table, &ctx.ranking, config)
                    .map(drop)
                    .map_err(|err| failed(&err))
            })?;
            Ok((widest, total))
        })
    }
}

/// Replays a workload's first generated requests: warm ones against a
/// cache filled with the same paths, cold ones step by step.  `served`
/// holds the cold responses of the traced server pass, by path, to compare
/// with.
pub fn run(
    workload: Workload,
    seed: u64,
    workers: usize,
    warm: usize,
    cold: usize,
    fills: &HashMap<String, Vec<u8>>,
    served: &HashMap<&str, &Kept>,
) -> (Replay, Vec<ColdBreakdown>) {
    let mut replay = Replay::new(workload, workers);
    let paths = workloads::warm_paths(seed);
    if warm > 0 {
        for path in &paths {
            if let Err(err) = replay.fill(path) {
                replay.note(err);
            }
        }
    }
    let mut id = 0u64;
    for j in 0..warm {
        let path = &paths[j % paths.len()];
        match fills.get(path) {
            Some(expected) => replay.warm(id, path, expected),
            None => replay.note(format!("no fill for {path}")),
        }
        id += 1;
    }
    let mut breakdowns = Vec::new();
    for i in 0..cold as u64 {
        let path = match workload {
            Workload::MixedSynth => workloads::cold_synth_path(seed, i),
            _ => workloads::cold_demo_path(seed, i),
        };
        let served = served.get(path.as_str());
        if let Some(mut breakdown) = replay.cold(id, &path, served.map(|kept| kept.body.as_slice()))
        {
            breakdown.measured_ms = served.map(|kept| kept.latency_ms);
            breakdowns.push(breakdown);
        }
        id += 1;
    }
    (replay, breakdowns)
}
