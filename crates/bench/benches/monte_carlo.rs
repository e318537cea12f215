//! Monte-Carlo stability: columnar kernel vs. materialized tables, batch
//! sweep, and the trials × workers scaling grid.
//!
//! Besides the interactive Criterion groups, this bench emits a
//! machine-readable snapshot to `BENCH_monte_carlo.json` at the repo root —
//! median ns/trial and an allocations-per-trial proxy (counted by a wrapping
//! global allocator) for the materialized reference vs. the columnar kernel
//! on the three demo scenarios, plus the batched-schedule sweep — so future
//! PRs can diff the hot path's trajectory instead of eyeballing logs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;
use rf_bench::{
    compas_scenario, cs_table, cs_table_with_rows, german_credit_scenario, synth_scenario,
};
use rf_ranking::{kendall_tau_rankings, perturb_weights, Ranking, ScoringFunction, TrialKernel};
use rf_runtime::Scheduler;
use rf_stability::{trial_rng, MonteCarloStability};
use rf_table::{Column, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts every heap allocation, as a proxy for the kernel's
/// "allocation-free hot path" claim: the columnar path should allocate
/// O(1) per *evaluation*, the materialized path O(columns) per *trial*.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The three demo scenarios of the paper's §3, with their scoring recipes.
fn demo_scenarios() -> Vec<(&'static str, Arc<rf_table::Table>, ScoringFunction)> {
    vec![
        (
            "cs-departments",
            Arc::new(cs_table()),
            ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)])
                .expect("scoring"),
        ),
        (
            "compas",
            Arc::new(compas_scenario(600).0),
            ScoringFunction::from_pairs([("decile_score", 0.7), ("priors_count", 0.3)])
                .expect("scoring"),
        ),
        (
            "german-credit",
            Arc::new(german_credit_scenario(1000).0),
            ScoringFunction::from_pairs([
                ("credit_score", 0.7),
                ("employment_years", 0.2),
                ("credit_amount", -0.1),
            ])
            .expect("scoring"),
        ),
    ]
}

/// Median wall-clock nanoseconds per trial of `routine` (which runs
/// `trials` trials per call), over an adaptive number of samples.
fn median_ns_per_trial(mut routine: impl FnMut(), trials: usize) -> f64 {
    routine(); // warm-up (fills scratch pools, page-faults buffers)
    let mut samples: Vec<u128> = Vec::new();
    let started = Instant::now();
    while samples.len() < 5
        || (started.elapsed() < Duration::from_millis(400) && samples.len() < 40)
    {
        let s = Instant::now();
        routine();
        samples.push(s.elapsed().as_nanos());
    }
    samples.sort_unstable();
    samples[samples.len() / 2] as f64 / trials as f64
}

/// Interleaved A/B/C… sampling: one sample of each routine per round, so
/// slow drift (thermal, background load) hits every contender equally.
/// Returns the median ns/trial per routine.
fn interleaved_medians_ns_per_trial(
    routines: &mut [&mut dyn FnMut()],
    trials: usize,
    rounds: usize,
) -> Vec<f64> {
    for routine in routines.iter_mut() {
        routine(); // warm-up
    }
    let mut samples: Vec<Vec<u128>> = routines
        .iter()
        .map(|_| Vec::with_capacity(rounds))
        .collect();
    for _ in 0..rounds {
        for (routine, bucket) in routines.iter_mut().zip(samples.iter_mut()) {
            let s = Instant::now();
            routine();
            bucket.push(s.elapsed().as_nanos());
        }
    }
    samples
        .into_iter()
        .map(|mut bucket| {
            bucket.sort_unstable();
            bucket[bucket.len() / 2] as f64 / trials as f64
        })
        .collect()
}

/// Standard normal via Box–Muller — the draw the estimator's noise model
/// makes, reproduced here for the seed-style baseline below.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// One column of the seed-style baseline plan.
enum SeedColumn {
    /// Deep-cloned into every draw (the pre-PR-5 behaviour: unperturbed
    /// columns were copied cell by cell, strings included).
    Keep(String),
    /// Perturbed: pre-extracted values plus the fitted noise scale.
    Noise {
        name: String,
        options: Vec<Option<f64>>,
        scale: f64,
    },
}

/// A faithful reconstruction of the estimator's **pre-PR-5 trial** — the
/// baseline the columnar kernel replaced: every trial materializes a full
/// perturbed [`Table`] (unperturbed columns deep-cloned), re-fits the
/// scoring function from scratch, builds a fresh [`Ranking`], and compares
/// with per-trial hash sets.  Fitting (noise scales, the original top-k) is
/// done once, as the old plan did.
struct SeedStylePlan<'a> {
    scoring: &'a ScoringFunction,
    ranking: &'a Ranking,
    columns: Vec<SeedColumn>,
    original_top_k: Vec<usize>,
    original_top_item: usize,
    k: usize,
    weight_noise: f64,
    seed: u64,
}

impl<'a> SeedStylePlan<'a> {
    fn fit(
        table: &'a Table,
        scoring: &'a ScoringFunction,
        ranking: &'a Ranking,
        data_noise: f64,
        weight_noise: f64,
        k: usize,
        seed: u64,
    ) -> Self {
        let attrs: Vec<&str> = scoring.attribute_names();
        let columns = table
            .schema()
            .fields()
            .iter()
            .map(|field| {
                let name = field.name.as_str();
                if attrs.contains(&name) {
                    let options = table.numeric_column_options(name).expect("numeric attr");
                    let non_null: Vec<f64> = options.iter().filter_map(|x| *x).collect();
                    let sd = if non_null.len() >= 2 {
                        rf_stats::stddev(&non_null).expect("stddev")
                    } else {
                        0.0
                    };
                    SeedColumn::Noise {
                        name: name.to_string(),
                        options,
                        scale: sd * data_noise,
                    }
                } else {
                    SeedColumn::Keep(name.to_string())
                }
            })
            .collect();
        SeedStylePlan {
            scoring,
            ranking,
            columns,
            original_top_k: ranking.top_k_indices(k),
            original_top_item: ranking.order()[0],
            k,
            weight_noise,
            seed,
        }
    }

    fn run_trial(&self, table: &Table, trial: usize) -> f64 {
        let mut rng = trial_rng(self.seed, trial);
        let mut out = Table::new();
        for column in &self.columns {
            match column {
                SeedColumn::Keep(name) => {
                    // The old `Table` stored columns by value: sharing the
                    // column meant cloning every cell.
                    out.add_column(name, table.column(name).expect("column").clone())
                        .expect("add");
                }
                SeedColumn::Noise {
                    name,
                    options,
                    scale,
                } => {
                    let perturbed: Vec<Option<f64>> = options
                        .iter()
                        .map(|opt| opt.map(|v| v + gaussian(&mut rng) * scale))
                        .collect();
                    out.add_column(name, Column::Float(perturbed)).expect("add");
                }
            }
        }
        let scoring = if self.weight_noise > 0.0 {
            perturb_weights(self.scoring, self.weight_noise, &mut rng).expect("weights")
        } else {
            self.scoring.clone()
        };
        let perturbed_ranking = scoring.rank_table(&out).expect("rank");
        let tau = kendall_tau_rankings(self.ranking, &perturbed_ranking).unwrap_or(0.0);
        let a: HashSet<usize> = self.original_top_k.iter().copied().collect();
        let b: HashSet<usize> = perturbed_ranking
            .top_k_indices(self.k)
            .into_iter()
            .collect();
        let overlap = a.intersection(&b).count() as f64 / a.union(&b).count() as f64;
        let changed = perturbed_ranking.order()[0] != self.original_top_item;
        tau + overlap + f64::from(u8::from(changed))
    }
}

/// One dense scoring column of the legacy columnar plan.
struct LegacyColumn {
    packed: Vec<f64>,
    scale: f64,
}

/// Per-trial working memory of the legacy plan, mirroring the pre-PR-9
/// `TrialScratch` (perturbed buffers, fused stats, jittered weights, scores,
/// argsort vectors).
#[derive(Default)]
struct LegacyScratch {
    perturbed: Vec<Vec<f64>>,
    stats: Vec<(f64, f64)>,
    weights: Vec<f64>,
    params: Vec<(f64, f64)>,
    scores: Vec<f64>,
    order: Vec<usize>,
    rank_of: Vec<usize>,
}

/// A faithful reconstruction of the **pre-PR-9 columnar trial** — the
/// baseline the blocked tile kernel replaced: un-tiled noise and scoring
/// loops, and the stable comparator argsort of the old step 5
/// (`sort_by(partial_cmp)`, which allocates a merge buffer per trial).
/// Dense min-max columns only — exactly the shape of the synthetic
/// scenarios the rows sweep runs it on.
struct LegacyColumnarPlan {
    rows: usize,
    columns: Vec<LegacyColumn>,
    /// Recipe order: `(column index, weight)`.
    attrs: Vec<(usize, f64)>,
    data_noise: bool,
    weight_noise: f64,
    /// Min-max parameters hoisted out of the trial loop when the data is
    /// never perturbed, as the old kernel did.
    static_params: Option<Vec<(f64, f64)>>,
}

impl LegacyColumnarPlan {
    fn fit(table: &Table, scoring: &ScoringFunction, data_noise: f64, weight_noise: f64) -> Self {
        let attr_names: Vec<&str> = scoring.attribute_names();
        let mut columns = Vec::new();
        let mut column_names = Vec::new();
        for field in table.schema().fields() {
            let name = field.name.as_str();
            if !attr_names.contains(&name) {
                continue;
            }
            let options = table.numeric_column_options(name).expect("numeric attr");
            let packed: Vec<f64> = options.iter().map(|o| o.expect("dense column")).collect();
            let scale = if data_noise > 0.0 {
                rf_stats::stddev(&packed).expect("stddev") * data_noise
            } else {
                0.0
            };
            column_names.push(name.to_string());
            columns.push(LegacyColumn { packed, scale });
        }
        let attrs = scoring
            .weights()
            .iter()
            .map(|w| {
                let column = column_names
                    .iter()
                    .position(|n| *n == w.attribute)
                    .expect("attribute resolves");
                (column, w.weight)
            })
            .collect();
        let static_params = (data_noise <= 0.0).then(|| {
            columns
                .iter()
                .map(|c| {
                    let lo = c.packed.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = c.packed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    (lo, hi)
                })
                .collect()
        });
        LegacyColumnarPlan {
            rows: table.num_rows(),
            columns,
            attrs,
            data_noise: data_noise > 0.0,
            weight_noise,
            static_params,
        }
    }

    fn scratch(&self) -> LegacyScratch {
        let mut scratch = LegacyScratch::default();
        scratch.perturbed.resize(self.columns.len(), Vec::new());
        scratch.stats.resize(self.columns.len(), (0.0, 0.0));
        scratch
    }

    fn rank_trial<R: Rng + ?Sized>(&self, rng: &mut R, scratch: &mut LegacyScratch) {
        // 1. Data noise: one un-tiled pass per column, min/max fused.
        if self.data_noise {
            for ((column, buffer), stats) in self
                .columns
                .iter()
                .zip(scratch.perturbed.iter_mut())
                .zip(scratch.stats.iter_mut())
            {
                buffer.clear();
                buffer.reserve(column.packed.len());
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                for &base in &column.packed {
                    let value = base + gaussian(rng) * column.scale;
                    min = min.min(value);
                    max = max.max(value);
                    buffer.push(value);
                }
                *stats = (min, max);
            }
        }

        // 2. Weight jitter, with the all-zero fallback.
        scratch.weights.clear();
        if self.weight_noise > 0.0 {
            for &(_, weight) in &self.attrs {
                let jitter = 1.0 + rng.gen_range(-self.weight_noise..=self.weight_noise);
                scratch.weights.push(weight * jitter);
            }
            if scratch.weights.iter().all(|&w| w == 0.0) {
                scratch.weights.clear();
                scratch.weights.extend(self.attrs.iter().map(|a| a.1));
            }
        } else {
            scratch.weights.extend(self.attrs.iter().map(|a| a.1));
        }

        // 3. Min-max parameters: static, or this trial's fused stats.
        scratch.params.clear();
        match &self.static_params {
            Some(params) => {
                for &(column, _) in &self.attrs {
                    scratch.params.push(params[column]);
                }
            }
            None => {
                for &(column, _) in &self.attrs {
                    scratch.params.push(scratch.stats[column]);
                }
            }
        }

        // 4. Score every row: un-tiled column-major accumulation.
        scratch.scores.clear();
        scratch.scores.resize(self.rows, 0.0);
        for (index, &(column, _)) in self.attrs.iter().enumerate() {
            let weight = scratch.weights[index];
            let (a, b) = scratch.params[index];
            let denom = b - a;
            let values: &[f64] = if self.data_noise {
                &scratch.perturbed[column]
            } else {
                &self.columns[column].packed
            };
            for (score, &value) in scratch.scores.iter_mut().zip(values) {
                *score += weight * ((value - a) / denom);
            }
        }

        // 5. The old argsort: a stable comparator sort (allocates its merge
        //    buffer every trial), then the rank vector.
        scratch.order.clear();
        scratch.order.extend(0..self.rows);
        let scores = &scratch.scores;
        scratch.order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        scratch.rank_of.clear();
        scratch.rank_of.resize(self.rows, 0);
        for (position, &index) in scratch.order.iter().enumerate() {
            scratch.rank_of[index] = position + 1;
        }
    }
}

/// Heap allocations per trial of one `routine` call.
fn allocs_per_trial(mut routine: impl FnMut(), trials: usize) -> f64 {
    routine(); // warm-up, so one-time setup does not count
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    routine();
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / trials as f64
}

/// Columnar kernel vs. materialized reference on the three demo scenarios.
fn columnar_vs_materialized(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte_carlo/columnar_vs_materialized");
    group.sample_size(10);
    for (name, table, scoring) in demo_scenarios() {
        let ranking = scoring.rank_table(&table).expect("ranking");
        let estimator = MonteCarloStability::new()
            .with_trials(32)
            .expect("trials")
            .with_k(10);
        group.bench_with_input(BenchmarkId::new("materialized", name), &(), |b, ()| {
            b.iter(|| {
                estimator
                    .evaluate_materialized(
                        black_box(&table),
                        black_box(&scoring),
                        black_box(&ranking),
                    )
                    .expect("evaluate_materialized")
            });
        });
        group.bench_with_input(BenchmarkId::new("columnar", name), &(), |b, ()| {
            b.iter(|| {
                estimator
                    .evaluate(black_box(&table), black_box(&scoring), black_box(&ranking))
                    .expect("evaluate")
            });
        });
    }
    group.finish();
}

/// Batch-size sweep: the batched schedule at several batches-per-worker
/// factors, against the per-trial-task schedule it replaces.
fn batch_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte_carlo/batch_sweep");
    group.sample_size(10);
    let table = Arc::new(cs_table_with_rows(2_000));
    let scoring = ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)])
        .expect("scoring");
    let ranking = scoring.rank_table(&table).expect("ranking");
    let estimator = MonteCarloStability::new()
        .with_trials(256)
        .expect("trials")
        .with_k(10);
    for workers in [2usize, 4] {
        let scheduler = Scheduler::new(workers);
        group.bench_with_input(
            BenchmarkId::new(format!("per-trial-workers-{workers}"), 256),
            &(),
            |b, ()| {
                // Factor = trials: one scheduler task per trial.
                b.iter(|| {
                    estimator
                        .evaluate_batched_with(
                            &scheduler,
                            black_box(&table),
                            black_box(&scoring),
                            black_box(&ranking),
                            None,
                            256,
                        )
                        .expect("per-trial schedule")
                });
            },
        );
        for factor in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("batched-workers-{workers}-f{factor}"), 256),
                &(),
                |b, ()| {
                    b.iter(|| {
                        estimator
                            .evaluate_batched_with(
                                &scheduler,
                                black_box(&table),
                                black_box(&scoring),
                                black_box(&ranking),
                                None,
                                factor,
                            )
                            .expect("evaluate_batched_with")
                    });
                },
            );
        }
    }
    group.finish();
}

/// Trials × workers scaling of the batched schedule, with the sequential
/// baseline per trial count.
fn trials_by_workers(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte_carlo/trials_x_workers");
    group.sample_size(10);
    let table = Arc::new(cs_table_with_rows(2_000));
    let scoring = ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)])
        .expect("scoring");
    let ranking = scoring.rank_table(&table).expect("ranking");

    for trials in [16usize, 64, 256] {
        let estimator = MonteCarloStability::new()
            .with_trials(trials)
            .expect("trials")
            .with_k(10);
        group.bench_with_input(BenchmarkId::new("sequential", trials), &trials, |b, _| {
            b.iter(|| {
                estimator
                    .evaluate(black_box(&table), black_box(&scoring), black_box(&ranking))
                    .expect("evaluate")
            });
        });
        for workers in [1usize, 2, 4, 8] {
            let scheduler = Scheduler::new(workers);
            group.bench_with_input(
                BenchmarkId::new(format!("workers-{workers}"), trials),
                &trials,
                |b, _| {
                    b.iter(|| {
                        estimator
                            .evaluate_batched(
                                &scheduler,
                                black_box(&table),
                                black_box(&scoring),
                                black_box(&ranking),
                                None,
                            )
                            .expect("evaluate_batched")
                    });
                },
            );
        }
    }
    group.finish();
}

/// The blocked tile kernel against the pre-PR-9 columnar trial it replaced,
/// on growing synthetic scenarios (the interactive slice of the rows sweep;
/// `emit_report` measures the full 10³→10⁶ grid into the JSON snapshot).
fn tile_rows_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte_carlo/tile_rows_sweep");
    group.sample_size(10);
    for rows in [1_000usize, 10_000, 100_000] {
        let (table, config) = synth_scenario(rows);
        let scoring = config.scoring.clone();
        for (scenario, data_noise, weight_noise) in
            [("noisy", 0.05, 0.05), ("weight-only", 0.0, 0.05)]
        {
            let legacy = LegacyColumnarPlan::fit(&table, &scoring, data_noise, weight_noise);
            let kernel =
                TrialKernel::fit(&table, &scoring, data_noise, weight_noise).expect("kernel fit");
            let mut legacy_scratch = legacy.scratch();
            let mut scratch = kernel.scratch();
            group.bench_function(BenchmarkId::new(format!("legacy-{scenario}"), rows), |b| {
                b.iter(|| {
                    let mut rng = trial_rng(42, 0);
                    legacy.rank_trial(&mut rng, black_box(&mut legacy_scratch));
                });
            });
            group.bench_function(BenchmarkId::new(format!("tiled-{scenario}"), rows), |b| {
                b.iter(|| {
                    let mut rng = trial_rng(42, 0);
                    kernel
                        .rank_trial(&mut rng, black_box(&mut scratch))
                        .expect("rank_trial");
                });
            });
        }
    }
    group.finish();
}

/// The stability widget's full hot-path cost inside a label: one generation
/// with the detail enabled versus disabled.
fn label_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte_carlo/label_hot_path");
    group.sample_size(10);
    let table = Arc::new(cs_table_with_rows(2_000));
    let pipeline = rf_core::AnalysisPipeline::new();
    for (name, trials) in [("disabled", 0usize), ("32-trials", 32), ("128-trials", 128)] {
        let config = Arc::new(rf_bench::cs_label_config().with_monte_carlo_trials(trials));
        group.bench_function(name, |b| {
            b.iter(|| {
                pipeline
                    .generate(
                        black_box(Arc::clone(&table)),
                        black_box(Arc::clone(&config)),
                    )
                    .expect("label")
            });
        });
    }
    group.finish();
}

/// Measures the columnar-vs-materialized ablation and the batch sweep, then
/// writes `BENCH_monte_carlo.json` at the repo root (hand-rolled JSON: the
/// bench crate carries no serializer).
fn emit_report(c: &mut Criterion) {
    // This "benchmark" is a report generator, not a timing loop, so it
    // honours the CLI filter itself: `cargo bench -- emit_report` runs it
    // alone, and a filter naming any other group skips it.
    if !c.matches("emit_report") {
        return;
    }
    const TRIALS: usize = 64;
    const ROUNDS: usize = 25;
    let mut scenario_entries = Vec::new();
    for (name, table, scoring) in demo_scenarios() {
        let ranking = scoring.rank_table(&table).expect("ranking");
        let estimator = MonteCarloStability::new()
            .with_trials(TRIALS)
            .expect("trials")
            .with_k(10);
        let seed_plan = SeedStylePlan::fit(
            &table,
            &scoring,
            &ranking,
            estimator.data_noise,
            estimator.weight_noise,
            10,
            estimator.seed,
        );
        let mut run_seed_style = || {
            for trial in 0..TRIALS {
                black_box(seed_plan.run_trial(&table, trial));
            }
        };
        let mut run_materialized = || {
            estimator
                .evaluate_materialized(&table, &scoring, &ranking)
                .expect("evaluate_materialized");
        };
        let mut run_columnar = || {
            estimator
                .evaluate(&table, &scoring, &ranking)
                .expect("evaluate");
        };
        let medians = interleaved_medians_ns_per_trial(
            &mut [
                &mut run_seed_style,
                &mut run_materialized,
                &mut run_columnar,
            ],
            TRIALS,
            ROUNDS,
        );
        let (seed_ns, materialized_ns, columnar_ns) = (medians[0], medians[1], medians[2]);
        let seed_allocs = allocs_per_trial(&mut run_seed_style, TRIALS);
        let materialized_allocs = allocs_per_trial(&mut run_materialized, TRIALS);
        let columnar_allocs = allocs_per_trial(&mut run_columnar, TRIALS);
        let speedup_vs_seed = seed_ns / columnar_ns;
        let speedup_vs_materialized = materialized_ns / columnar_ns;
        println!(
            "report {name}: seed-style {seed_ns:.0} ns/trial ({seed_allocs:.1} allocs), \
             shared-column materialized {materialized_ns:.0} ns/trial \
             ({materialized_allocs:.1} allocs), columnar {columnar_ns:.0} ns/trial \
             ({columnar_allocs:.1} allocs) — {speedup_vs_seed:.2}x vs seed"
        );
        scenario_entries.push(format!(
            "    {{\"name\": \"{name}\", \"rows\": {rows}, \"trials\": {TRIALS}, \
             \"seed_style_ns_per_trial\": {seed_ns:.1}, \
             \"materialized_ns_per_trial\": {materialized_ns:.1}, \
             \"columnar_ns_per_trial\": {columnar_ns:.1}, \
             \"speedup_vs_seed_style\": {speedup_vs_seed:.2}, \
             \"speedup_vs_shared_column_materialized\": {speedup_vs_materialized:.2}, \
             \"seed_style_allocs_per_trial\": {seed_allocs:.2}, \
             \"materialized_allocs_per_trial\": {materialized_allocs:.2}, \
             \"columnar_allocs_per_trial\": {columnar_allocs:.2}}}",
            rows = table.num_rows(),
        ));
    }

    let sweep_table = Arc::new(cs_table_with_rows(2_000));
    let sweep_scoring =
        ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)])
            .expect("scoring");
    let sweep_ranking = sweep_scoring.rank_table(&sweep_table).expect("ranking");
    let sweep_estimator = MonteCarloStability::new()
        .with_trials(256)
        .expect("trials")
        .with_k(10);
    let mut sweep_entries = Vec::new();
    for workers in [2usize, 4] {
        let scheduler = Scheduler::new(workers);
        let per_trial_ns = median_ns_per_trial(
            || {
                sweep_estimator
                    .evaluate_batched_with(
                        &scheduler,
                        &sweep_table,
                        &sweep_scoring,
                        &sweep_ranking,
                        None,
                        256,
                    )
                    .expect("per-trial schedule");
            },
            256,
        );
        sweep_entries.push(format!(
            "    {{\"workers\": {workers}, \"schedule\": \"per-trial\", \
             \"batch_size\": 1, \"ns_per_trial\": {per_trial_ns:.1}}}"
        ));
        for factor in [1usize, 2, 4, 8] {
            let batch = 256usize.div_ceil(workers * factor);
            let ns = median_ns_per_trial(
                || {
                    sweep_estimator
                        .evaluate_batched_with(
                            &scheduler,
                            &sweep_table,
                            &sweep_scoring,
                            &sweep_ranking,
                            None,
                            factor,
                        )
                        .expect("evaluate_batched_with");
                },
                256,
            );
            sweep_entries.push(format!(
                "    {{\"workers\": {workers}, \"schedule\": \"batched\", \
                 \"batches_per_worker\": {factor}, \"batch_size\": {batch}, \
                 \"ns_per_trial\": {ns:.1}}}"
            ));
        }
    }

    // The rows sweep: legacy (pre-PR-9) columnar trial vs. the blocked tile
    // kernel, exact and relaxed-fp, on synthetic scenarios from 10³ to 10⁶
    // rows.  Two noise shapes per size: the default noisy trial (Gaussian
    // draws dominate as rows grow) and a weight-jitter-only trial (scoring +
    // argsort dominate — the loops the tiles and the key sort rebuilt).
    let mut rows_entries = Vec::new();
    for rows in [1_000usize, 10_000, 100_000, 1_000_000] {
        let (table, config) = synth_scenario(rows);
        let scoring = config.scoring.clone();
        let trials = (2_000_000 / rows).clamp(2, 64);
        let rounds = if rows >= 1_000_000 { 7 } else { 15 };
        for (scenario, data_noise, weight_noise) in [
            ("default-noise", 0.05, 0.05),
            ("weight-noise-only", 0.0, 0.05),
        ] {
            let legacy = LegacyColumnarPlan::fit(&table, &scoring, data_noise, weight_noise);
            let kernel =
                TrialKernel::fit(&table, &scoring, data_noise, weight_noise).expect("kernel fit");
            let relaxed = kernel.clone().with_relaxed_fp(true);
            // The baseline is honest only if it computes the same ranking:
            // the exact kernel must reproduce the legacy trial byte for byte
            // on a shared RNG stream.
            let mut legacy_scratch = legacy.scratch();
            let mut scratch = kernel.scratch();
            let mut relaxed_scratch = relaxed.scratch();
            legacy.rank_trial(&mut trial_rng(42, 0), &mut legacy_scratch);
            kernel
                .rank_trial(&mut trial_rng(42, 0), &mut scratch)
                .expect("rank_trial");
            assert_eq!(
                legacy_scratch.order,
                scratch.order(),
                "legacy reconstruction diverged from the exact tiled kernel"
            );
            let mut run_legacy = || {
                for trial in 0..trials {
                    legacy.rank_trial(&mut trial_rng(42, trial), &mut legacy_scratch);
                }
            };
            let mut run_tiled = || {
                for trial in 0..trials {
                    kernel
                        .rank_trial(&mut trial_rng(42, trial), &mut scratch)
                        .expect("rank_trial");
                }
            };
            let mut run_relaxed = || {
                for trial in 0..trials {
                    relaxed
                        .rank_trial(&mut trial_rng(42, trial), &mut relaxed_scratch)
                        .expect("rank_trial");
                }
            };
            let medians = interleaved_medians_ns_per_trial(
                &mut [&mut run_legacy, &mut run_tiled, &mut run_relaxed],
                trials,
                rounds,
            );
            let (legacy_ns, tiled_ns, relaxed_ns) = (medians[0], medians[1], medians[2]);
            let speedup = legacy_ns / tiled_ns;
            let rows_per_sec = rows as f64 / (tiled_ns / 1e9);
            println!(
                "rows sweep {rows} ({scenario}): legacy {legacy_ns:.0} ns/trial, \
                 tiled {tiled_ns:.0} ns/trial ({speedup:.2}x), \
                 relaxed {relaxed_ns:.0} ns/trial"
            );
            rows_entries.push(format!(
                "    {{\"rows\": {rows}, \"scenario\": \"{scenario}\", \
                 \"trials\": {trials}, \
                 \"legacy_columnar_ns_per_trial\": {legacy_ns:.1}, \
                 \"tiled_ns_per_trial\": {tiled_ns:.1}, \
                 \"tiled_relaxed_fp_ns_per_trial\": {relaxed_ns:.1}, \
                 \"speedup_tiled_vs_legacy\": {speedup:.2}, \
                 \"tiled_rows_per_sec\": {rows_per_sec:.0}}}"
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"monte_carlo\",\n  \"unit\": \"ns_per_trial\",\n  \
         \"baselines\": {{\n    \
         \"seed_style\": \"pre-PR-5 trial: perturbed Table materialized per draw, unperturbed columns deep-cloned\",\n    \
         \"materialized\": \"current evaluate_materialized reference: perturbed Table per draw, unperturbed columns Arc-shared\",\n    \
         \"columnar\": \"TrialKernel hot path: flat column buffers, reusable scratch, no per-trial tables\",\n    \
         \"legacy_columnar\": \"pre-PR-9 TrialKernel trial: un-tiled loops, stable comparator argsort\"\n  }},\n  \
         \"scenarios\": [\n{}\n  ],\n  \"batch_sweep_rows_2000_trials_256\": [\n{}\n  ],\n  \
         \"rows_sweep_schema_note\": \"each entry: one synthetic dense scenario (rf_datasets::SynthScenarioConfig, 4 score columns, min-max recipe) at the given row count; legacy_columnar is the pre-PR-9 columnar trial (un-tiled noise/scoring loops + stable comparator sort), tiled is the blocked TILE-row kernel (stable radix argsort), tiled_relaxed_fp additionally reassociates float reductions (~1e-9 relative score drift, off by default)\",\n  \
         \"rows_sweep\": [\n{}\n  ]\n}}\n",
        scenario_entries.join(",\n"),
        sweep_entries.join(",\n"),
        rows_entries.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_monte_carlo.json");
    std::fs::write(path, &json).expect("write BENCH_monte_carlo.json");
    println!("wrote {path}");
}

criterion_group!(
    benches,
    columnar_vs_materialized,
    batch_sweep,
    trials_by_workers,
    tile_rows_sweep,
    label_hot_path,
    emit_report
);
criterion_main!(benches);
