//! Monte-Carlo stability: columnar kernel vs. materialized tables, batch
//! sweep, and the trials × workers scaling grid.
//!
//! Besides the interactive Criterion groups, this bench emits a
//! machine-readable snapshot to `BENCH_monte_carlo.json` at the repo root —
//! median ns/trial and an allocations-per-trial proxy (counted by a wrapping
//! global allocator) for the materialized reference vs. the columnar kernel
//! on the three demo scenarios, the batched-schedule sweep, and the tiled
//! kernel's rows sweep, stamped with the host it ran on — so later changes
//! can diff the hot path's trajectory instead of eyeballing logs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rf_bench::{
    compas_scenario, cs_table, cs_table_with_rows, german_credit_scenario, synth_scenario,
};
use rf_ranking::{ScoringFunction, TrialKernel};
use rf_runtime::Scheduler;
use rf_stability::{trial_rng, MonteCarloStability};
use std::alloc::{GlobalAlloc, Layout, System};
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

/// One estimator trial (re-rank, then Kendall's tau against the original
/// ranking) on growing synthetic scenarios (the interactive slice of the
/// rows sweep; `emit_report` measures the full 10³→10⁶ grid, relaxed-fp
/// included, into the JSON snapshot).
fn tile_rows_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte_carlo/tile_rows_sweep");
    group.sample_size(10);
    for rows in [1_000usize, 10_000, 100_000] {
        let (table, config) = synth_scenario(rows);
        let scoring = config.scoring.clone();
        let ranking = scoring.rank_table(&table).expect("ranking");
        for (scenario, data_noise, weight_noise) in
            [("noisy", 0.05, 0.05), ("weight-only", 0.0, 0.05)]
        {
            let kernel = TrialKernel::fit(&table, &scoring, &ranking, data_noise, weight_noise)
                .expect("kernel fit");
            let mut scratch = kernel.scratch();
            group.bench_function(BenchmarkId::new(format!("tiled-{scenario}"), rows), |b| {
                b.iter(|| {
                    let mut rng = trial_rng(42, 0);
                    kernel
                        .rank_trial(&mut rng, black_box(&mut scratch))
                        .expect("rank_trial");
                    scratch.kendall_tau()
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
    // A dedicated 4-worker pool: the server's default `--workers`.
    let pipeline = rf_core::AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(4)));
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

/// The vector extensions that pick the trial's code paths (the ChaCha8
/// refills and the Kendall-tau count) on this CPU.
fn cpu_flags() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ]
        .into_iter()
        .filter_map(|(flag, present)| present.then_some(flag))
        .collect()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// The host the report was measured on: its available parallelism, the
/// vector extensions the trial uses, and, on Linux, the CPU model from
/// `/proc/cpuinfo`.
fn host_json() -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string());
    let flags: Vec<String> = cpu_flags()
        .iter()
        .map(|flag| format!("\"{flag}\""))
        .collect();
    format!(
        "{{\"os\": \"{}\", \"arch\": \"{}\", \"cpu\": \"{cpu}\", \"cpu_flags\": [{}], \"available_parallelism\": {parallelism}}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        flags.join(", "),
    )
}

/// Measures the columnar-vs-materialized ablation, the batch sweep and the
/// rows sweep, then writes `BENCH_monte_carlo.json` at the repo root
/// (hand-rolled JSON: the bench crate carries no serializer).
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
            &mut [&mut run_materialized, &mut run_columnar],
            TRIALS,
            ROUNDS,
        );
        let (materialized_ns, columnar_ns) = (medians[0], medians[1]);
        let materialized_allocs = allocs_per_trial(&mut run_materialized, TRIALS);
        let columnar_allocs = allocs_per_trial(&mut run_columnar, TRIALS);
        let speedup_vs_materialized = materialized_ns / columnar_ns;
        println!(
            "report {name}: materialized {materialized_ns:.0} ns/trial \
             ({materialized_allocs:.1} allocs), columnar {columnar_ns:.0} ns/trial \
             ({columnar_allocs:.1} allocs) — {speedup_vs_materialized:.2}x"
        );
        scenario_entries.push(format!(
            "    {{\"name\": \"{name}\", \"rows\": {rows}, \"trials\": {TRIALS}, \
             \"materialized_ns_per_trial\": {materialized_ns:.1}, \
             \"columnar_ns_per_trial\": {columnar_ns:.1}, \
             \"speedup_vs_materialized\": {speedup_vs_materialized:.2}, \
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

    // The rows sweep: the blocked tile kernel, exact and relaxed-fp, on
    // synthetic scenarios from 10³ to 10⁶ rows.  A trial is what the
    // estimator runs per trial: re-rank, then Kendall's tau against the
    // original ranking.  Two noise shapes per size: the default noisy trial
    // (noise draws dominate as rows grow) and a weight-jitter-only trial
    // (scoring + argsort + tau).
    let mut rows_entries = Vec::new();
    for rows in [1_000usize, 10_000, 20_000, 100_000, 1_000_000] {
        let (table, config) = synth_scenario(rows);
        let scoring = config.scoring.clone();
        let ranking = scoring.rank_table(&table).expect("ranking");
        let trials = (2_000_000 / rows).clamp(2, 64);
        let rounds = if rows >= 1_000_000 { 7 } else { 15 };
        for (scenario, data_noise, weight_noise) in [
            ("default-noise", 0.05, 0.05),
            ("weight-noise-only", 0.0, 0.05),
        ] {
            let kernel = TrialKernel::fit(&table, &scoring, &ranking, data_noise, weight_noise)
                .expect("kernel fit");
            let relaxed = kernel.clone().with_relaxed_fp(true);
            let mut scratch = kernel.scratch();
            let mut relaxed_scratch = relaxed.scratch();
            let mut run_tiled = || {
                for trial in 0..trials {
                    kernel
                        .rank_trial(&mut trial_rng(42, trial), &mut scratch)
                        .expect("rank_trial");
                    black_box(scratch.kendall_tau());
                }
            };
            let mut run_relaxed = || {
                for trial in 0..trials {
                    relaxed
                        .rank_trial(&mut trial_rng(42, trial), &mut relaxed_scratch)
                        .expect("rank_trial");
                    black_box(relaxed_scratch.kendall_tau());
                }
            };
            let medians = interleaved_medians_ns_per_trial(
                &mut [&mut run_tiled, &mut run_relaxed],
                trials,
                rounds,
            );
            let (tiled_ns, relaxed_ns) = (medians[0], medians[1]);
            let rows_per_sec = rows as f64 / (tiled_ns / 1e9);
            println!(
                "rows sweep {rows} ({scenario}): tiled {tiled_ns:.0} ns/trial, \
                 relaxed {relaxed_ns:.0} ns/trial"
            );
            rows_entries.push(format!(
                "    {{\"rows\": {rows}, \"scenario\": \"{scenario}\", \
                 \"trials\": {trials}, \
                 \"tiled_ns_per_trial\": {tiled_ns:.1}, \
                 \"tiled_relaxed_fp_ns_per_trial\": {relaxed_ns:.1}, \
                 \"tiled_rows_per_sec\": {rows_per_sec:.0}}}"
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"monte_carlo\",\n  \"unit\": \"ns_per_trial\",\n  \
         \"host\": {},\n  \
         \"baselines\": {{\n    \
         \"materialized\": \"evaluate_materialized reference: perturbed Table per draw, unperturbed columns Arc-shared\",\n    \
         \"columnar\": \"TrialKernel hot path: flat column buffers, reusable scratch, no per-trial tables\"\n  }},\n  \
         \"scenarios\": [\n{}\n  ],\n  \"batch_sweep_rows_2000_trials_256\": [\n{}\n  ],\n  \
         \"rows_sweep_schema_note\": \"each entry: one synthetic dense scenario (rf_datasets::SynthScenarioConfig, 4 score columns, min-max recipe) at the given row count; a trial is the kernel's re-rank plus Kendall's tau against the original ranking (inversion count read off the argsort's original positions: a bit-sliced AVX-512 partition where the host has AVX-512F, the blocked Fenwick count elsewhere; see host.cpu_flags); tiled is the blocked TILE-row kernel (packed 8-byte byte-pass argsort), tiled_relaxed_fp additionally reassociates float reductions (~1e-9 relative score drift, off by default); noise draws come from the ziggurat sampler\",\n  \
         \"rows_sweep\": [\n{}\n  ]\n}}\n",
        host_json(),
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
