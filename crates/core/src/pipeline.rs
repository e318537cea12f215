//! The parallel label-generation pipeline.
//!
//! [`NutritionalLabel::generate`](crate::NutritionalLabel::generate) used to
//! build its six widgets strictly one after another, and every widget
//! re-derived whatever intermediates it needed from the raw table.  This
//! module restructures that into two explicit phases, the way
//! shared-intermediate engines stage work once instead of recomputing it per
//! operator:
//!
//! 1. **Prepare** ([`AnalysisPipeline::prepare`]) — an [`AnalysisContext`]
//!    computes the shared intermediates exactly once: the ranking induced by
//!    the Recipe, the min-max-normalized score matrix of the scoring
//!    attributes (in rank order, for the Stability widget), and the
//!    protected-group membership vectors (for the Fairness widget).  They
//!    depend on the table and the recipe only, so they live in a
//!    [`PreparedAnalysis`] that later labels of the same table and recipe
//!    share by `Arc` — together with Ingredients' `k`-independent core,
//!    which the first label that renders Ingredients computes.
//!    Preparation runs on the calling thread under either schedule: sharding
//!    row scoring over the pool bought no measurable latency at any table
//!    size, so there is one preparation path.
//! 2. **Render** ([`AnalysisPipeline::render`]) — each widget is a
//!    [`WidgetBuilder`] reading the immutable context; a pipeline with a
//!    pool schedules all builders concurrently as a scheduler scope, and one
//!    without ([`AnalysisPipeline::sequential`]) builds them serially — the
//!    reference path the parity tests compare against.  Fairness fans out
//!    one job per `(protected feature, measure)` pair, and the Stability
//!    builder opens a **nested scope** of its own: one task per batch of
//!    `ceil(trials / (workers × f))` Monte-Carlo trials, each trial on its
//!    derived ChaCha stream (`seed ⊕ trial`).  Nested scopes cannot deadlock
//!    — a blocked waiter helps run queued tasks — which is what lets the
//!    paper's most expensive diagnostic live on the label hot path.
//!
//! Because preparation does not depend on the audited prefix size,
//! [`AnalysisPipeline::generate_sweep`] amortizes one preparation across a
//! whole sweep of `k` values — the ranking is computed once and re-rendered
//! per `k` through [`AnalysisContext::with_config`].  The label service's
//! cold misses take the same path across requests: its cached labels keep
//! the [`PreparedAnalysis`] they were rendered from (see [`crate::service`]).
//!
//! Both schedules consume identical inputs in identical order, so their
//! outputs are byte-identical after JSON rendering — asserted by
//! `tests/integration_pipeline_parity.rs`.

use crate::config::LabelConfig;
use crate::error::{LabelError, LabelResult};
use crate::label::{NutritionalLabel, RankedRow};
use crate::widgets::diversity::DiversityWidget;
use crate::widgets::fairness::FairnessWidget;
use crate::widgets::ingredients::{IngredientsCore, IngredientsWidget};
use crate::widgets::recipe::RecipeWidget;
use crate::widgets::stability::StabilityWidget;
use rf_fairness::report::{FairnessConfig, FairnessReport};
use rf_fairness::{
    DiscountedMeasures, FairStarOutcome, PairwiseOutcome, ProportionOutcome, ProtectedGroup,
};
use rf_ranking::Ranking;
use rf_table::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A point-in-time snapshot of one label service's Monte-Carlo stability
/// counters, exposed through `ServiceStats` and the HTTP `/stats` endpoint
/// so deployments can watch how often the deadline budget bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MonteCarloRuntimeStats {
    /// Estimator runs performed (one per label generation with trials > 0).
    pub runs: u64,
    /// Trials actually performed across all runs.
    pub trials_completed: u64,
    /// Runs that stopped early on their wall-clock deadline budget.
    pub truncated: u64,
    /// Runs performed with relaxed float mode enabled.
    #[serde(default)]
    pub relaxed_runs: u64,
}

/// Every counter and stage histogram one label service keeps, owned by its
/// [`AnalysisPipeline`] (and shared by the pipeline's clones).  Two services
/// in one process never see each other's work.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// The service-side stage histograms (`admission`, `queue_wait`,
    /// `cache_lookup`, `cache_disk`, `prepare`, `render`, `mc_trials`).
    /// Network-side stages (`parse`, `write`) are recorded into per-shard
    /// sets owned by each reactor instead.
    stages: rf_obs::StageHistograms,
    /// Contexts prepared.  The label cache's contract is that a warm hit
    /// performs *no* preparation; this counter is how the tests verify it.
    preparations: AtomicU64,
    mc_runs: AtomicU64,
    mc_trials_completed: AtomicU64,
    mc_truncated: AtomicU64,
    mc_relaxed_runs: AtomicU64,
}

impl ServiceMetrics {
    /// Records a stage timing into the service's histograms and into the
    /// current request's span, when one is active on this thread.  The two
    /// sinks serve different readers: the histograms feed `/metrics`
    /// aggregates, the span feeds the per-request `/debug/slow` trace.
    pub(crate) fn record(&self, stage: rf_obs::Stage, elapsed: std::time::Duration) {
        self.stages.record(stage, elapsed);
        rf_obs::with_active(|span| span.record(stage, elapsed));
    }

    /// The service-side stage histograms.
    #[must_use]
    pub fn stages(&self) -> &rf_obs::StageHistograms {
        &self.stages
    }

    /// Contexts prepared so far (monotonic).
    #[must_use]
    pub(crate) fn preparations(&self) -> u64 {
        self.preparations.load(Ordering::Relaxed)
    }

    /// The Monte-Carlo counters: estimator runs on the label hot path,
    /// trials actually performed, and runs truncated by their deadline
    /// budget.
    #[must_use]
    pub(crate) fn monte_carlo(&self) -> MonteCarloRuntimeStats {
        MonteCarloRuntimeStats {
            runs: self.mc_runs.load(Ordering::Relaxed),
            trials_completed: self.mc_trials_completed.load(Ordering::Relaxed),
            truncated: self.mc_truncated.load(Ordering::Relaxed),
            relaxed_runs: self.mc_relaxed_runs.load(Ordering::Relaxed),
        }
    }
}

/// What a table and a recipe alone determine: the ranking, the protected
/// groups, the normalized score matrix and, once a label has rendered
/// Ingredients, that widget's `k`-independent core.
///
/// Every label of the same table and recipe shares one of these by `Arc`,
/// whatever its `k`, `alpha`, thresholds, ingredient settings or
/// Monte-Carlo settings: [`AnalysisContext::with_config`] and the label
/// service's cold misses reuse it instead of preparing again.  It holds no
/// reference to the table it was prepared from.
#[derive(Debug)]
pub struct PreparedAnalysis {
    /// The configuration it was prepared under; only its recipe — the
    /// scoring function and the sensitive attributes — is read.
    prepared_for: Arc<LabelConfig>,
    /// The full ranking induced by the Recipe.
    pub ranking: Ranking,
    /// Protected-group membership vectors, one per audited
    /// `(attribute, protected value)` pair, in configuration order.
    pub protected_groups: Vec<ProtectedGroup>,
    /// Min-max-normalized values of every scoring attribute in rank order
    /// (the Stability widget's input matrix).
    pub normalized_scoring: Vec<(String, Vec<f64>)>,
    /// Ingredients' `k`-independent core, computed by the first label that
    /// renders the widget.
    ingredients: OnceLock<LabelResult<IngredientsCore>>,
}

impl PreparedAnalysis {
    /// Whether labels under `config` may share this state: its recipe equals
    /// the one this was prepared under bit for bit, so a `-0.0` weight never
    /// matches a `0.0` one.
    pub(crate) fn serves(&self, config: &LabelConfig) -> bool {
        let (ours, theirs) = (&self.prepared_for.scoring, &config.scoring);
        ours == theirs
            && ours
                .weights()
                .iter()
                .zip(theirs.weights())
                .all(|(a, b)| a.weight.to_bits() == b.weight.to_bits())
            && self.prepared_for.sensitive_attributes == config.sensitive_attributes
    }

    /// Approximate heap footprint: the ranking, group memberships,
    /// normalized matrix and, once computed, the Ingredients core — what a
    /// label cache entry that keeps this alive is charged for it.
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        let ranking = self.ranking.len() * std::mem::size_of::<rf_ranking::RankedItem>();
        let groups: usize = self
            .protected_groups
            .iter()
            .map(|group| {
                group.len()
                    + group.attribute.len()
                    + group.protected_value.len()
                    + group.non_protected_value.len()
            })
            .sum();
        let normalized: usize = self
            .normalized_scoring
            .iter()
            .map(|(name, values)| name.len() + std::mem::size_of_val(values.as_slice()))
            .sum();
        let ingredients = match self.ingredients.get() {
            Some(Ok(core)) => core.approx_heap_bytes(),
            _ => 0,
        };
        ranking + groups + normalized + ingredients
    }
}

/// The state every widget builder of one label reads: the label's table and
/// configuration, and the [`PreparedAnalysis`] of its table and recipe,
/// which the context dereferences to (`ctx.ranking`).
///
/// Widgets never touch the raw table for anything the prepared analysis
/// already derived.  Cloning a context, or deriving one for another
/// configuration with [`with_config`](Self::with_config), copies three
/// `Arc`s and nothing of the table's size.
#[derive(Debug, Clone)]
pub struct AnalysisContext {
    /// The dataset being labelled.
    pub table: Arc<Table>,
    /// The label configuration.
    pub config: Arc<LabelConfig>,
    /// The analysis the table and recipe determine, shared by every label
    /// of them.  Private to the crate, so a context can only pair it with
    /// the table it was prepared from.
    pub(crate) prepared: Arc<PreparedAnalysis>,
}

impl std::ops::Deref for AnalysisContext {
    type Target = PreparedAnalysis;

    fn deref(&self) -> &PreparedAnalysis {
        &self.prepared
    }
}

impl AnalysisContext {
    /// Validates the configuration and computes every shared intermediate on
    /// the calling thread.
    ///
    /// # Errors
    /// Configuration validation errors, ranking errors, fairness group
    /// extraction errors, or stability normalization errors.
    pub fn prepare(table: Arc<Table>, config: Arc<LabelConfig>) -> LabelResult<Self> {
        config.validate(&table)?;
        let ranking = config.scoring.rank_table(&table)?;
        let mut protected_groups = Vec::new();
        for (attribute, protected_value) in config.protected_features() {
            protected_groups.push(ProtectedGroup::from_table(
                &table,
                attribute,
                protected_value,
            )?);
        }
        let normalized_scoring =
            rf_stability::normalized_values_in_rank_order(&table, &config.scoring, &ranking)?;
        let prepared = Arc::new(PreparedAnalysis {
            prepared_for: Arc::clone(&config),
            ranking,
            protected_groups,
            normalized_scoring,
            ingredients: OnceLock::new(),
        });
        Ok(AnalysisContext {
            table,
            config,
            prepared,
        })
    }

    /// A context for the same table sharing its prepared analysis under a
    /// different configuration, after validating it.
    ///
    /// The prepared analysis depends only on the scoring function and the
    /// sensitive attributes, so `config` must agree with the original on
    /// those, bit for bit; everything else (`top_k`, `alpha`, thresholds,
    /// ingredient settings, Monte-Carlo settings, dataset name) may differ.
    /// This is what lets [`AnalysisPipeline::generate_sweep`] rank once and
    /// render per `k`.
    ///
    /// # Errors
    /// [`LabelError::InvalidConfig`] when `config` changes the scoring
    /// function or the sensitive attributes — rendering those against the
    /// old intermediates would produce a self-inconsistent label — and
    /// `config`'s own validation errors.
    pub fn with_config(&self, config: Arc<LabelConfig>) -> LabelResult<Self> {
        Self::reuse(Arc::clone(&self.table), config, Arc::clone(&self.prepared))
    }

    /// A context over `prepared`, which must have been prepared from this
    /// very `table` allocation: the path every reused preparation takes.
    fn reuse(
        table: Arc<Table>,
        config: Arc<LabelConfig>,
        prepared: Arc<PreparedAnalysis>,
    ) -> LabelResult<Self> {
        if !prepared.serves(&config) {
            return Err(LabelError::InvalidConfig {
                message: "a prepared analysis is only shared under an identical \
                          scoring function and identical sensitive attributes; \
                          a new recipe needs a fresh preparation"
                    .to_string(),
            });
        }
        config.validate(&table)?;
        Ok(AnalysisContext {
            table,
            config,
            prepared,
        })
    }

    /// The audited prefix size.
    #[must_use]
    pub fn top_k(&self) -> usize {
        self.config.top_k
    }

    /// Ingredients' `k`-independent core for this table and recipe, computed
    /// on first use and shared by every later label of them.
    fn ingredients_core(&self) -> LabelResult<&IngredientsCore> {
        self.prepared
            .ingredients
            .get_or_init(|| IngredientsCore::compute(&self.table, &self.prepared.ranking))
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// One fairness measure's outcome for one protected feature — the unit of
/// fairness parallelism.  The assembler recombines four parts per feature
/// into the [`FairnessReport`] the widget renders.
#[derive(Debug, Clone)]
pub enum FairnessMeasurePart {
    /// The FA*IR ranked group fairness test.
    FairStar(FairStarOutcome),
    /// The pairwise preference measure.
    Pairwise(PairwiseOutcome),
    /// The proportion (statistical parity at top-k) test.
    Proportion(ProportionOutcome),
    /// The position-discounted measures (rND / rKL / rRD).
    Discounted(DiscountedMeasures),
}

/// One widget of the label, produced by a [`WidgetBuilder`].
#[derive(Debug, Clone)]
pub enum WidgetOutput {
    /// The Recipe widget.
    Recipe(RecipeWidget),
    /// The Ingredients widget.
    Ingredients(IngredientsWidget),
    /// The Stability widget.
    Stability(StabilityWidget),
    /// One fairness measure of one protected feature (by configuration
    /// index); assembled into per-feature reports in configuration order.
    FairnessMeasure {
        /// Index of the protected feature in configuration order.
        feature: usize,
        /// The measure's outcome.
        part: FairnessMeasurePart,
    },
    /// The Diversity widget.
    Diversity(DiversityWidget),
    /// The display rows for the top-k prefix.
    TopRows(Vec<RankedRow>),
}

/// A unit of label construction that can run on the pipeline's pool.
///
/// Implementations must be pure functions of the [`AnalysisContext`]: the
/// pipeline gives no ordering guarantees between builders, and the parity
/// suite asserts the parallel and sequential schedules agree.
pub trait WidgetBuilder: Send + Sync {
    /// Name used in diagnostics (e.g. [`LabelError::WidgetPanic`]).
    fn name(&self) -> String;

    /// Builds this widget from the shared context.
    ///
    /// # Errors
    /// Widget-specific construction errors.
    fn build(&self, ctx: &AnalysisContext) -> LabelResult<WidgetOutput>;
}

struct RecipeBuilder;

impl WidgetBuilder for RecipeBuilder {
    fn name(&self) -> String {
        "recipe".to_string()
    }

    fn build(&self, ctx: &AnalysisContext) -> LabelResult<WidgetOutput> {
        RecipeWidget::build(&ctx.table, &ctx.config.scoring, &ctx.ranking, ctx.top_k())
            .map(WidgetOutput::Recipe)
    }
}

struct IngredientsBuilder;

impl WidgetBuilder for IngredientsBuilder {
    fn name(&self) -> String {
        "ingredients".to_string()
    }

    fn build(&self, ctx: &AnalysisContext) -> LabelResult<WidgetOutput> {
        let recipe_attribute_names: Vec<&str> = ctx.config.scoring.attribute_names();
        IngredientsWidget::from_core(
            ctx.ingredients_core()?,
            &ctx.table,
            &ctx.ranking,
            &recipe_attribute_names,
            ctx.top_k(),
            ctx.config.ingredient_count,
            ctx.config.ingredients_method,
        )
        .map(WidgetOutput::Ingredients)
    }
}

/// Builds the Stability widget, including the Monte-Carlo uncertainty detail
/// on the label hot path.
///
/// Under the parallel schedule the builder holds the scheduler it is itself
/// running on and fans the estimator out in **adaptive batches** —
/// `ceil(trials / (workers × f))` trials per scheduler task, per-worker
/// scratch reused across each batch — inside a nested scope; the builder's
/// blocking wait helps run its own trial batches, so this nests safely at
/// any worker count.  Each trial draws from its derived ChaCha stream
/// (`seed ⊕ trial`), keeping the batched summary byte-identical to the
/// sequential reference at any batch size.  The configuration's
/// `monte_carlo.deadline_millis` caps the estimator's wall clock: past the
/// budget no further batch wave launches and the widget reports the
/// truncated trial count.  (The sequential reference schedule ignores the
/// deadline — it exists to compare against, not to race.)
struct StabilityBuilder {
    /// Scheduler the Monte-Carlo trial batches fan out on; `None` runs the
    /// sequential reference estimator (the reference schedule).
    scheduler: Option<Arc<rf_runtime::Scheduler>>,
    /// The pipeline's metrics, which count the estimator runs.
    metrics: Arc<ServiceMetrics>,
}

impl WidgetBuilder for StabilityBuilder {
    fn name(&self) -> String {
        "stability".to_string()
    }

    fn build(&self, ctx: &AnalysisContext) -> LabelResult<WidgetOutput> {
        let widget = StabilityWidget::build_from_normalized(
            &ctx.config.scoring,
            &ctx.normalized_scoring,
            &ctx.ranking,
            ctx.top_k(),
            ctx.config.stability_threshold,
        )?;
        let mc = &ctx.config.monte_carlo;
        let monte_carlo = if mc.trials == 0 {
            None
        } else {
            let estimator = rf_stability::MonteCarloStability::new()
                .with_trials(mc.trials)?
                .with_noise(mc.data_noise, mc.weight_noise)?
                .with_seed(mc.seed)
                .with_k(ctx.top_k())
                .with_relaxed_fp(mc.relaxed_fp);
            let trials_started = std::time::Instant::now();
            let summary = match &self.scheduler {
                Some(scheduler) => estimator.evaluate_batched(
                    scheduler,
                    &ctx.table,
                    &ctx.config.scoring,
                    &ctx.ranking,
                    mc.deadline_millis.map(std::time::Duration::from_millis),
                )?,
                None => estimator.evaluate(&ctx.table, &ctx.config.scoring, &ctx.ranking)?,
            };
            let metrics = &self.metrics;
            metrics.record(rf_obs::Stage::McTrials, trials_started.elapsed());
            metrics.mc_runs.fetch_add(1, Ordering::Relaxed);
            metrics
                .mc_trials_completed
                .fetch_add(summary.trials as u64, Ordering::Relaxed);
            if mc.relaxed_fp {
                metrics.mc_relaxed_runs.fetch_add(1, Ordering::Relaxed);
            }
            if summary.truncated {
                metrics.mc_truncated.fetch_add(1, Ordering::Relaxed);
                rf_obs::with_active(|span| span.set_truncated(true));
            }
            Some(summary)
        };
        Ok(WidgetOutput::Stability(
            widget.with_monte_carlo(monte_carlo),
        ))
    }
}

/// The fairness measures evaluated per protected feature, in the order
/// [`FairnessReport::evaluate`] computes them (also the error-report order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FairnessMeasureKind {
    FairStar,
    Pairwise,
    Proportion,
    Discounted,
}

impl FairnessMeasureKind {
    const ALL: [FairnessMeasureKind; 4] = [
        FairnessMeasureKind::FairStar,
        FairnessMeasureKind::Pairwise,
        FairnessMeasureKind::Proportion,
        FairnessMeasureKind::Discounted,
    ];

    fn label(self) -> &'static str {
        match self {
            FairnessMeasureKind::FairStar => "FA*IR",
            FairnessMeasureKind::Pairwise => "pairwise",
            FairnessMeasureKind::Proportion => "proportion",
            FairnessMeasureKind::Discounted => "discounted",
        }
    }
}

/// One job per `(protected feature, fairness measure)` pair, so the measures
/// of every audited feature evaluate concurrently (the paper's COMPAS
/// scenario audits two features — eight jobs instead of two).
struct FairnessMeasureBuilder {
    index: usize,
    kind: FairnessMeasureKind,
}

impl WidgetBuilder for FairnessMeasureBuilder {
    fn name(&self) -> String {
        format!("fairness[{}]:{}", self.index, self.kind.label())
    }

    fn build(&self, ctx: &AnalysisContext) -> LabelResult<WidgetOutput> {
        // The same per-measure helpers `FairnessReport::evaluate` is built
        // from, so the parallel fan-out can never drift from the reference
        // construction in rf-fairness.
        let group = &ctx.protected_groups[self.index];
        let fairness_config = FairnessConfig {
            k: ctx.config.top_k,
            alpha: ctx.config.alpha,
        };
        let part = match self.kind {
            FairnessMeasureKind::FairStar => FairnessMeasurePart::FairStar(
                FairnessReport::evaluate_fair_star(group, &ctx.ranking, &fairness_config)?,
            ),
            FairnessMeasureKind::Pairwise => FairnessMeasurePart::Pairwise(
                FairnessReport::evaluate_pairwise(group, &ctx.ranking, &fairness_config)?,
            ),
            FairnessMeasureKind::Proportion => FairnessMeasurePart::Proportion(
                FairnessReport::evaluate_proportion(group, &ctx.ranking, &fairness_config)?,
            ),
            FairnessMeasureKind::Discounted => FairnessMeasurePart::Discounted(
                FairnessReport::evaluate_discounted(group, &ctx.ranking)?,
            ),
        };
        Ok(WidgetOutput::FairnessMeasure {
            feature: self.index,
            part,
        })
    }
}

struct DiversityBuilder;

impl WidgetBuilder for DiversityBuilder {
    fn name(&self) -> String {
        "diversity".to_string()
    }

    fn build(&self, ctx: &AnalysisContext) -> LabelResult<WidgetOutput> {
        DiversityWidget::build(&ctx.table, &ctx.ranking, &ctx.config).map(WidgetOutput::Diversity)
    }
}

struct TopRowsBuilder;

impl WidgetBuilder for TopRowsBuilder {
    fn name(&self) -> String {
        "top-rows".to_string()
    }

    fn build(&self, ctx: &AnalysisContext) -> LabelResult<WidgetOutput> {
        Ok(WidgetOutput::TopRows(NutritionalLabel::top_k_rows(
            &ctx.table,
            &ctx.ranking,
            ctx.top_k(),
        )))
    }
}

/// The builders of the complete label, in the label's widget order (also the
/// order errors are reported in, regardless of schedule).  Fairness fans out
/// one job per `(protected feature, measure)` pair, feature-major in
/// configuration order, measures in report order.  `mc_scheduler` is the
/// scheduler the Stability widget's Monte-Carlo trials nest onto (`None`
/// runs the sequential reference estimator); `metrics` counts their runs.
fn builders(
    ctx: &AnalysisContext,
    mc_scheduler: Option<Arc<rf_runtime::Scheduler>>,
    metrics: Arc<ServiceMetrics>,
) -> Vec<Box<dyn WidgetBuilder>> {
    let mut list: Vec<Box<dyn WidgetBuilder>> = vec![
        Box::new(RecipeBuilder),
        Box::new(IngredientsBuilder),
        Box::new(StabilityBuilder {
            scheduler: mc_scheduler,
            metrics,
        }),
    ];
    for index in 0..ctx.protected_groups.len() {
        for kind in FairnessMeasureKind::ALL {
            list.push(Box::new(FairnessMeasureBuilder { index, kind }));
        }
    }
    list.push(Box::new(DiversityBuilder));
    list.push(Box::new(TopRowsBuilder));
    list
}

/// Generates nutritional labels: prepares the context on the calling thread,
/// then fans the widget builders out over the pipeline's [`rf_runtime`]
/// pool, or builds them one after another when it has none.
#[derive(Debug, Clone)]
pub struct AnalysisPipeline {
    /// The pool the render fan-out and the Monte-Carlo batches run on;
    /// `None` is the sequential reference schedule.
    pool: Option<Arc<rf_runtime::ThreadPool>>,
    /// The counters and stage histograms of this pipeline and its clones.
    metrics: Arc<ServiceMetrics>,
}

impl AnalysisPipeline {
    /// A pipeline scheduling work concurrently on a dedicated pool.
    #[must_use]
    pub fn with_pool(pool: Arc<rf_runtime::ThreadPool>) -> Self {
        AnalysisPipeline {
            pool: Some(pool),
            metrics: Arc::default(),
        }
    }

    /// The single-threaded reference pipeline: identical inputs, identical
    /// outputs, no concurrency and no worker threads.  Used by the parity
    /// tests and by one-shot callers such as [`NutritionalLabel::generate`].
    #[must_use]
    pub fn sequential() -> Self {
        AnalysisPipeline {
            pool: None,
            metrics: Arc::default(),
        }
    }

    /// The counters and stage histograms this pipeline and its clones
    /// record into (other pipelines in the process do not move them).
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// Contexts this pipeline and its clones prepared so far.
    #[must_use]
    pub fn preparations(&self) -> u64 {
        self.metrics.preparations()
    }

    /// The scheduler this pipeline fans out on; `None` for the sequential
    /// reference.
    #[must_use]
    pub fn scheduler(&self) -> Option<&Arc<rf_runtime::Scheduler>> {
        self.pool.as_ref().map(|pool| pool.scheduler())
    }

    /// Observability counters of the scheduler this pipeline fans out on
    /// (queue depth, steals, executed and panicked tasks) — surfaced by the
    /// HTTP `/stats` endpoint.  The sequential reference has no scheduler
    /// and reports zero workers and zero counts.
    #[must_use]
    pub fn scheduler_stats(&self) -> rf_runtime::SchedulerStats {
        self.scheduler().map_or(
            rf_runtime::SchedulerStats {
                workers: 0,
                queue_depth: 0,
                steals: 0,
                executed_jobs: 0,
                panicked_jobs: 0,
            },
            |scheduler| scheduler.stats(),
        )
    }

    /// **Stage 1** — validates the configuration and computes the shared
    /// intermediates (ranking, protected groups, normalized score matrix) on
    /// the calling thread, under either schedule.
    ///
    /// # Errors
    /// Validation, ranking, group extraction, or normalization errors.
    pub fn prepare(
        &self,
        table: Arc<Table>,
        config: Arc<LabelConfig>,
    ) -> LabelResult<Arc<AnalysisContext>> {
        self.prepare_reusing(table, config, None)
    }

    /// Stage 1 with a prepared analysis to share: `Some(prepared)` — which
    /// must come from this very `table` allocation and serve `config`'s
    /// recipe — only validates `config`; `None` prepares from scratch and
    /// is the only case [`preparations`](Self::preparations) counts.  Both
    /// are timed as the `prepare` stage.
    pub(crate) fn prepare_reusing(
        &self,
        table: Arc<Table>,
        config: Arc<LabelConfig>,
        prepared: Option<Arc<PreparedAnalysis>>,
    ) -> LabelResult<Arc<AnalysisContext>> {
        let started = std::time::Instant::now();
        let ctx = match prepared {
            Some(prepared) => AnalysisContext::reuse(table, config, prepared)?,
            None => {
                self.metrics.preparations.fetch_add(1, Ordering::Relaxed);
                AnalysisContext::prepare(table, config)?
            }
        };
        self.metrics
            .record(rf_obs::Stage::Prepare, started.elapsed());
        Ok(Arc::new(ctx))
    }

    /// **Stage 2** — builds every widget from a prepared context and
    /// assembles the label.  Performs no context preparation; rendering the
    /// same context twice is byte-identical.
    ///
    /// # Errors
    /// The first widget error in label order, or
    /// [`LabelError::WidgetPanic`] when a builder panics on the pool.
    pub fn render(&self, ctx: &Arc<AnalysisContext>) -> LabelResult<NutritionalLabel> {
        let started = std::time::Instant::now();
        let list = builders(ctx, self.scheduler().cloned(), Arc::clone(&self.metrics));
        let outputs = self.run_builders(ctx, list)?;
        let label = Self::assemble(ctx, outputs);
        self.metrics
            .record(rf_obs::Stage::Render, started.elapsed());
        Ok(label)
    }

    /// Generates the complete label for `table` under `config`:
    /// [`prepare`](Self::prepare) followed by [`render`](Self::render).
    ///
    /// Sharing is by `Arc` so jobs can cross the pool without copying the
    /// dataset; callers holding plain values can use
    /// [`NutritionalLabel::generate`], which wraps them.
    ///
    /// # Errors
    /// Context preparation errors or the first widget error in label order.
    pub fn generate(
        &self,
        table: Arc<Table>,
        config: Arc<LabelConfig>,
    ) -> LabelResult<NutritionalLabel> {
        let ctx = self.prepare(table, config)?;
        self.render(&ctx)
    }

    /// Generates one label per audited prefix size in `ks`, preparing the
    /// analysis context (and therefore the ranking) **exactly once**.
    ///
    /// The shared intermediates do not depend on `top_k`, so the sweep is
    /// byte-identical to `ks.len()` independent [`generate`](Self::generate)
    /// calls at a fraction of the cost — the "batch configs sharing a table"
    /// item of the roadmap.  Labels come back in `ks` order.
    ///
    /// # Errors
    /// Validation errors for the first invalid `k` (checked up front, in
    /// order), preparation errors, or widget errors per rendered label.
    pub fn generate_sweep(
        &self,
        table: Arc<Table>,
        config: Arc<LabelConfig>,
        ks: &[usize],
    ) -> LabelResult<Vec<NutritionalLabel>> {
        if ks.is_empty() {
            return Ok(Vec::new());
        }
        let mut configs = Vec::with_capacity(ks.len());
        for &k in ks {
            let config_k = Arc::new((*config).clone().with_top_k(k));
            config_k.validate(&table)?;
            configs.push(config_k);
        }
        let ctx = self.prepare(Arc::clone(&table), Arc::clone(&configs[0]))?;
        let mut labels = Vec::with_capacity(configs.len());
        for config_k in configs {
            let ctx_k = Arc::new(ctx.with_config(config_k)?);
            labels.push(self.render(&ctx_k)?);
        }
        Ok(labels)
    }

    /// Runs the given builders under the pipeline's schedule, surfacing
    /// results (or the first error) in builder order so the parallel schedule
    /// reports exactly what the sequential one would.  A builder that panics
    /// on the pool surfaces as [`LabelError::WidgetPanic`] naming it.
    fn run_builders(
        &self,
        ctx: &Arc<AnalysisContext>,
        list: Vec<Box<dyn WidgetBuilder>>,
    ) -> LabelResult<Vec<WidgetOutput>> {
        match self.scheduler() {
            None => {
                let mut outputs = Vec::with_capacity(list.len());
                for builder in list {
                    outputs.push(builder.build(ctx)?);
                }
                Ok(outputs)
            }
            Some(scheduler) => {
                let names: Vec<String> = list.iter().map(|b| b.name()).collect();
                // Builders run on pool worker threads; carry the request's
                // active span across so widget-level stage timings (the
                // Monte-Carlo trials, truncation) still attribute to it.
                let span = rf_obs::current();
                let jobs: Vec<_> = list
                    .into_iter()
                    .map(|builder| {
                        let ctx = Arc::clone(ctx);
                        let span = span.clone();
                        move || {
                            let _active = span.map(rf_obs::activate);
                            builder.build(&ctx)
                        }
                    })
                    .collect();
                let raw = scheduler.run_all(jobs);
                let mut outputs = Vec::with_capacity(raw.len());
                for (slot, name) in raw.into_iter().zip(names) {
                    match slot {
                        Some(result) => outputs.push(result?),
                        None => return Err(LabelError::WidgetPanic { widget: name }),
                    }
                }
                Ok(outputs)
            }
        }
    }

    fn assemble(ctx: &Arc<AnalysisContext>, outputs: Vec<WidgetOutput>) -> NutritionalLabel {
        let feature_count = ctx.protected_groups.len();
        let mut recipe = None;
        let mut ingredients = None;
        let mut stability = None;
        let mut fair_star: Vec<Option<FairStarOutcome>> = vec![None; feature_count];
        let mut pairwise: Vec<Option<PairwiseOutcome>> = vec![None; feature_count];
        let mut proportion: Vec<Option<ProportionOutcome>> = vec![None; feature_count];
        let mut discounted: Vec<Option<DiscountedMeasures>> = vec![None; feature_count];
        let mut diversity = None;
        let mut top_k_rows = None;
        for output in outputs {
            match output {
                WidgetOutput::Recipe(widget) => recipe = Some(widget),
                WidgetOutput::Ingredients(widget) => ingredients = Some(widget),
                WidgetOutput::Stability(widget) => stability = Some(widget),
                // Measures arrive in arbitrary completion order but slot into
                // their feature's position, so reports assemble in
                // configuration order regardless of schedule.
                WidgetOutput::FairnessMeasure { feature, part } => match part {
                    FairnessMeasurePart::FairStar(outcome) => fair_star[feature] = Some(outcome),
                    FairnessMeasurePart::Pairwise(outcome) => pairwise[feature] = Some(outcome),
                    FairnessMeasurePart::Proportion(outcome) => proportion[feature] = Some(outcome),
                    FairnessMeasurePart::Discounted(outcome) => discounted[feature] = Some(outcome),
                },
                WidgetOutput::Diversity(widget) => diversity = Some(widget),
                WidgetOutput::TopRows(rows) => top_k_rows = Some(rows),
            }
        }
        let fairness_config = FairnessConfig {
            k: ctx.config.top_k,
            alpha: ctx.config.alpha,
        };
        let reports: Vec<FairnessReport> = (0..feature_count)
            .map(|feature| {
                FairnessReport::from_parts(
                    &ctx.protected_groups[feature],
                    fair_star[feature].take().expect("FA*IR job always runs"),
                    pairwise[feature].take().expect("pairwise job always runs"),
                    proportion[feature]
                        .take()
                        .expect("proportion job always runs"),
                    discounted[feature]
                        .take()
                        .expect("discounted job always runs"),
                    &fairness_config,
                )
            })
            .collect();
        NutritionalLabel {
            dataset_name: ctx.config.dataset_name.clone(),
            config: (*ctx.config).clone(),
            ranked_items: ctx.ranking.len(),
            top_k_rows: top_k_rows.expect("top-rows builder always runs"),
            recipe: recipe.expect("recipe builder always runs"),
            ingredients: ingredients.expect("ingredients builder always runs"),
            stability: stability.expect("stability builder always runs"),
            fairness: FairnessWidget { reports },
            diversity: diversity.expect("diversity builder always runs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_ranking::ScoringFunction;
    use rf_table::Column;

    fn scenario() -> (Arc<Table>, Arc<LabelConfig>) {
        let n = 40usize;
        let names: Vec<String> = (0..n).map(|i| format!("Item{i:02}")).collect();
        let quality: Vec<f64> = (0..n).map(|i| 100.0 - 2.0 * i as f64).collect();
        let minor: Vec<f64> = (0..n).map(|i| 50.0 + (i % 5) as f64).collect();
        let group: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect();
        let table = Table::from_columns(vec![
            ("Name", Column::from_strings(names)),
            ("Quality", Column::from_f64(quality)),
            ("Minor", Column::from_f64(minor)),
            ("Group", Column::from_strings(group)),
        ])
        .unwrap();
        let scoring = ScoringFunction::from_pairs([("Quality", 0.8), ("Minor", 0.2)]).unwrap();
        let config = LabelConfig::new(scoring)
            .with_top_k(10)
            .with_sensitive_attribute("Group", ["a", "b"])
            .with_diversity_attribute("Group");
        (Arc::new(table), Arc::new(config))
    }

    #[test]
    fn context_prepares_every_shared_intermediate() {
        let (table, config) = scenario();
        let ctx = AnalysisContext::prepare(table, config).unwrap();
        assert_eq!(ctx.ranking.len(), 40);
        assert_eq!(ctx.protected_groups.len(), 2);
        assert_eq!(ctx.normalized_scoring.len(), 2);
        assert_eq!(ctx.normalized_scoring[0].0, "Quality");
        assert_eq!(ctx.normalized_scoring[0].1.len(), 40);
        // Normalized values in rank order decrease for the dominant attribute.
        let quality = &ctx.normalized_scoring[0].1;
        assert!(quality.first().unwrap() > quality.last().unwrap());
    }

    #[test]
    fn preparation_counter_moves_once_per_prepare() {
        let (table, config) = scenario();
        let pipeline = AnalysisPipeline::sequential();
        let clone = pipeline.clone();
        pipeline
            .prepare(Arc::clone(&table), Arc::clone(&config))
            .unwrap();
        assert_eq!(pipeline.preparations(), 1);
        clone.prepare(table, config).unwrap();
        assert_eq!(pipeline.preparations(), 2, "clones share the counter");
        assert_eq!(AnalysisPipeline::sequential().preparations(), 0);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let (table, config) = scenario();
        let parallel = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(2)))
            .generate(Arc::clone(&table), Arc::clone(&config))
            .unwrap();
        let sequential = AnalysisPipeline::sequential()
            .generate(table, config)
            .unwrap();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn sharded_preparation_matches_the_sequential_reference() {
        // A pipeline on a dedicated pool prepares the same context as the
        // sequential reference, on the calling thread: its scheduler runs no
        // preparation job.
        let (table, config) = scenario();
        let reference = AnalysisPipeline::sequential()
            .prepare(Arc::clone(&table), Arc::clone(&config))
            .unwrap();
        let pooled = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(3)));
        let executed = pooled.scheduler_stats().executed_jobs;
        let ctx = pooled.prepare(table, config).unwrap();
        assert_eq!(pooled.scheduler_stats().executed_jobs, executed);
        assert_eq!(ctx.ranking, reference.ranking);
        assert_eq!(ctx.protected_groups, reference.protected_groups);
        assert_eq!(ctx.normalized_scoring, reference.normalized_scoring);
    }

    #[test]
    fn sharded_preparation_surfaces_row_errors_like_the_sequential_pass() {
        // A missing value in the scoring column errors with the same
        // (attribute, row) under both schedules.
        let mut quality: Vec<Option<f64>> = (0..40).map(|i| Some(100.0 - i as f64)).collect();
        quality[17] = None;
        let table =
            Arc::new(Table::from_columns(vec![("Quality", Column::Float(quality))]).unwrap());
        let scoring = ScoringFunction::from_pairs([("Quality", 1.0)]).unwrap();
        let config = Arc::new(LabelConfig::new(scoring).with_top_k(5));
        let sequential = AnalysisPipeline::sequential()
            .generate(Arc::clone(&table), Arc::clone(&config))
            .unwrap_err();
        let pooled = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(4)));
        let parallel = pooled.generate(table, config).unwrap_err();
        assert_eq!(sequential, parallel);
        assert!(parallel.to_string().contains("row 17"));
    }

    #[test]
    fn prepare_then_render_equals_generate() {
        let (table, config) = scenario();
        let pipeline = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(2)));
        let ctx = pipeline
            .prepare(Arc::clone(&table), Arc::clone(&config))
            .unwrap();
        let staged = pipeline.render(&ctx).unwrap();
        let direct = pipeline.generate(table, config).unwrap();
        assert_eq!(staged, direct);
        // Rendering the same context again changes nothing and performs no
        // preparation: one for `prepare`, one for `generate`.
        let again = pipeline.render(&ctx).unwrap();
        assert_eq!(staged, again);
        assert_eq!(pipeline.preparations(), 2);
    }

    #[test]
    fn sweep_prepares_once_and_matches_independent_generates() {
        let (table, config) = scenario();
        let pipeline = AnalysisPipeline::sequential();
        let ks = [5usize, 10, 20];
        let independent: Vec<NutritionalLabel> = ks
            .iter()
            .map(|&k| {
                pipeline
                    .generate(
                        Arc::clone(&table),
                        Arc::new((*config).clone().with_top_k(k)),
                    )
                    .unwrap()
            })
            .collect();
        let before = pipeline.preparations();
        let sweep = pipeline
            .generate_sweep(Arc::clone(&table), Arc::clone(&config), &ks)
            .unwrap();
        assert_eq!(sweep, independent);
        assert_eq!(
            pipeline.preparations(),
            before + 1,
            "one preparation per sweep"
        );
        // Empty sweeps do nothing.
        assert!(pipeline
            .generate_sweep(table, config, &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn zero_deadline_label_is_valid_and_reports_truncation() {
        // The deadline-budget contract end to end: a label with an
        // already-expired Monte-Carlo budget still renders, with the widget
        // detail reporting fewer (but at least one wave of) trials.
        let (table, config) = scenario();
        let config = Arc::new(
            (*config)
                .clone()
                .with_monte_carlo_trials(256)
                .with_monte_carlo_deadline_millis(Some(0)),
        );
        let pipeline = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(2)));
        let label = pipeline.generate(Arc::clone(&table), config).unwrap();
        let mc = label.stability.monte_carlo.as_ref().expect("detail on");
        assert!(mc.truncated, "a 0ms budget must truncate 256 trials");
        assert!(mc.trials >= 1 && mc.trials < 256);
        assert_eq!(mc.trials_requested, 256);
        // The pipeline's own counters saw exactly this one run.
        let metrics = pipeline.metrics();
        assert_eq!(
            metrics.monte_carlo(),
            MonteCarloRuntimeStats {
                runs: 1,
                trials_completed: mc.trials as u64,
                truncated: 1,
                relaxed_runs: 0,
            }
        );
        assert_eq!(
            metrics
                .stages()
                .snapshot()
                .get(rf_obs::Stage::McTrials)
                .count(),
            1
        );
        // The truncation is visible in every render.
        assert!(label.to_text().contains("truncated by deadline"));
        assert!(label.to_html().contains("Truncated by deadline"));
    }

    #[test]
    fn with_config_rejects_preparation_changing_configs() {
        let (table, config) = scenario();
        let ctx = AnalysisContext::prepare(Arc::clone(&table), Arc::clone(&config)).unwrap();
        // Changing only render-stage knobs is fine.
        assert!(ctx
            .with_config(Arc::new((*config).clone().with_top_k(5).with_alpha(0.01)))
            .is_ok());
        // Changing the recipe or the audited features is not.
        let new_recipe = ScoringFunction::from_pairs([("Quality", 1.0)]).unwrap();
        let bad = Arc::new(LabelConfig::new(new_recipe).with_top_k(5));
        assert!(matches!(
            ctx.with_config(bad),
            Err(LabelError::InvalidConfig { .. })
        ));
        let bad = Arc::new((*config).clone().with_sensitive_attribute("Group", ["a"]));
        assert!(matches!(
            ctx.with_config(bad),
            Err(LabelError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn with_config_shares_the_prepared_analysis_bit_for_bit() {
        let (table, config) = scenario();
        let pipeline = AnalysisPipeline::sequential();
        let ctx = pipeline
            .prepare(Arc::clone(&table), Arc::clone(&config))
            .unwrap();
        let relabel = Arc::new((*config).clone().with_top_k(5).with_alpha(0.05));
        let shared = Arc::new(ctx.with_config(Arc::clone(&relabel)).unwrap());
        assert!(Arc::ptr_eq(&ctx.prepared, &shared.prepared));
        // Rendering fills the Ingredients core once, for both contexts, and
        // the shared label equals an independent generation.
        pipeline.render(&ctx).unwrap();
        assert!(ctx.prepared.ingredients.get().is_some());
        let label = pipeline.render(&shared).unwrap();
        assert_eq!(label, pipeline.generate(table, relabel).unwrap());
        // A `-0.0` weight is a different recipe than `0.0`.
        let zero = |weight: f64| {
            let scoring =
                ScoringFunction::from_pairs([("Quality", 0.8), ("Minor", weight)]).unwrap();
            Arc::new(LabelConfig {
                scoring,
                ..(*config).clone()
            })
        };
        let ctx = AnalysisContext::prepare(Arc::clone(&ctx.table), zero(0.0)).unwrap();
        assert!(ctx.with_config(zero(0.0)).is_ok());
        assert!(matches!(
            ctx.with_config(zero(-0.0)),
            Err(LabelError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn sweep_rejects_invalid_ks_up_front() {
        let (table, config) = scenario();
        let err = AnalysisPipeline::sequential()
            .generate_sweep(table, config, &[5, 500])
            .unwrap_err();
        assert!(matches!(err, LabelError::InvalidConfig { .. }));
    }

    #[test]
    fn dedicated_pool_works() {
        let (table, config) = scenario();
        let pool = Arc::new(rf_runtime::ThreadPool::new(2));
        let label = AnalysisPipeline::with_pool(pool)
            .generate(table, config)
            .unwrap();
        assert_eq!(label.top_k_rows.len(), 10);
    }

    #[test]
    fn invalid_config_fails_in_prepare() {
        let (table, config) = scenario();
        let bad = Arc::new((*config).clone().with_top_k(500));
        assert!(AnalysisPipeline::sequential().generate(table, bad).is_err());
    }

    #[test]
    fn widget_errors_surface_in_label_order() {
        // A non-binary sensitive attribute passes validation but fails group
        // extraction during prepare.
        let n = 30usize;
        let region: Vec<&str> = (0..n)
            .map(|i| match i % 3 {
                0 => "NE",
                1 => "MW",
                _ => "W",
            })
            .collect();
        let table = Table::from_columns(vec![
            ("Region", Column::from_strings(region)),
            (
                "Score",
                Column::from_f64((0..n).map(|i| i as f64).collect()),
            ),
        ])
        .unwrap();
        let scoring = ScoringFunction::from_pairs([("Score", 1.0)]).unwrap();
        let config = LabelConfig::new(scoring)
            .with_top_k(5)
            .with_sensitive_attribute("Region", ["NE"]);
        let err = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(2)))
            .generate(Arc::new(table), Arc::new(config))
            .unwrap_err();
        assert!(matches!(err, crate::LabelError::Fairness(_)));
    }

    /// A builder that panics, for exercising the panic-to-error path.
    struct ExplodingBuilder;

    impl WidgetBuilder for ExplodingBuilder {
        fn name(&self) -> String {
            "exploding".to_string()
        }

        fn build(&self, _ctx: &AnalysisContext) -> LabelResult<WidgetOutput> {
            panic!("intentional test panic");
        }
    }

    #[test]
    fn panicking_builder_surfaces_a_widget_panic_error() {
        let (table, config) = scenario();
        let pipeline = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(2)));
        let ctx = pipeline.prepare(table, config).unwrap();
        let list: Vec<Box<dyn WidgetBuilder>> =
            vec![Box::new(RecipeBuilder), Box::new(ExplodingBuilder)];
        let err = pipeline.run_builders(&ctx, list).unwrap_err();
        match err {
            LabelError::WidgetPanic { widget } => assert_eq!(widget, "exploding"),
            other => panic!("expected WidgetPanic, got {other:?}"),
        }
    }
}
