//! End-to-end label generation cost (the Figure 1 pipeline) as the dataset
//! grows, plus the three demonstration scenarios at their paper sizes, a
//! parallel-versus-sequential schedule comparison of the analysis pipeline,
//! one preparation amortized over a sweep of `k` values, and both sides of
//! the label service's prepared-analysis memo on a 20k-row table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rf_bench::{compas_scenario, cs_label_config, cs_table_with_rows, german_credit_scenario};
use rf_core::{AnalysisPipeline, LabelConfig, LabelService};
use rf_ranking::ScoringFunction;
use std::hint::black_box;
use std::sync::Arc;

/// A pipeline fanning out on a dedicated 4-worker pool (the server's default
/// `--workers`).
fn parallel() -> AnalysisPipeline {
    AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(4)))
}

fn label_generation_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_generation/cs_departments_scaling");
    group.sample_size(20);
    let pipeline = parallel();
    for rows in [100usize, 1_000, 10_000] {
        let table = Arc::new(cs_table_with_rows(rows));
        let config = Arc::new(cs_label_config());
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| {
                let label = pipeline
                    .generate(
                        black_box(Arc::clone(&table)),
                        black_box(Arc::clone(&config)),
                    )
                    .expect("label");
                black_box(label.headline())
            });
        });
    }
    group.finish();
}

fn label_generation_scenarios(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_generation/scenarios");
    group.sample_size(15);
    let pipeline = parallel();

    let cs_table = Arc::new(cs_table_with_rows(97));
    let cs_config = Arc::new(cs_label_config());
    group.bench_function("cs_departments_97", |b| {
        b.iter(|| {
            pipeline
                .generate(
                    black_box(Arc::clone(&cs_table)),
                    black_box(Arc::clone(&cs_config)),
                )
                .unwrap()
        })
    });

    let (compas_table, compas_config) = compas_scenario(6_889);
    let (compas_table, compas_config) = (Arc::new(compas_table), Arc::new(compas_config));
    group.bench_function("compas_6889", |b| {
        b.iter(|| {
            pipeline
                .generate(
                    black_box(Arc::clone(&compas_table)),
                    black_box(Arc::clone(&compas_config)),
                )
                .unwrap()
        })
    });

    let (credit_table, credit_config) = german_credit_scenario(1_000);
    let (credit_table, credit_config) = (Arc::new(credit_table), Arc::new(credit_config));
    group.bench_function("german_credit_1000", |b| {
        b.iter(|| {
            pipeline
                .generate(
                    black_box(Arc::clone(&credit_table)),
                    black_box(Arc::clone(&credit_config)),
                )
                .unwrap()
        })
    });
    group.finish();
}

/// The schedule ablation: the same analysis context, fanned out on a
/// dedicated pool versus built serially on one thread.
fn pipeline_schedules(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_generation/schedule");
    group.sample_size(15);
    let parallel = parallel();
    let sequential = AnalysisPipeline::sequential();
    for rows in [1_000usize, 10_000] {
        let table = Arc::new(cs_table_with_rows(rows));
        let config = Arc::new(cs_label_config());
        group.bench_with_input(BenchmarkId::new("parallel", rows), &rows, |b, _| {
            b.iter(|| {
                parallel
                    .generate(
                        black_box(Arc::clone(&table)),
                        black_box(Arc::clone(&config)),
                    )
                    .unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("sequential", rows), &rows, |b, _| {
            b.iter(|| {
                sequential
                    .generate(
                        black_box(Arc::clone(&table)),
                        black_box(Arc::clone(&config)),
                    )
                    .unwrap()
            });
        });
    }
    group.finish();
}

/// One preparation amortized over a sweep of `k` values versus one
/// preparation per `k` — the batching win for dashboards that show several
/// prefix sizes of the same ranking.
fn sweep_amortization(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_generation/k_sweep");
    group.sample_size(10);
    let pipeline = parallel();
    let ks = [5usize, 10, 20, 50];
    let table = Arc::new(cs_table_with_rows(10_000));
    let config = Arc::new(cs_label_config());
    group.bench_function("generate_sweep", |b| {
        b.iter(|| {
            pipeline
                .generate_sweep(
                    black_box(Arc::clone(&table)),
                    black_box(Arc::clone(&config)),
                    black_box(&ks),
                )
                .expect("sweep")
        });
    });
    group.bench_function("independent_generates", |b| {
        b.iter(|| {
            let labels: Vec<_> = ks
                .iter()
                .map(|&k| {
                    pipeline
                        .generate(
                            black_box(Arc::clone(&table)),
                            Arc::new(rf_core::LabelConfig::clone(&config).with_top_k(k)),
                        )
                        .expect("label")
                })
                .collect();
            black_box(labels.len())
        });
    });
    group.finish();
}

/// Cold labels of the catalogue's 20k-row synth scenario through one
/// `LabelService`, every iteration a cache miss.  `memo_hit` changes only
/// the Monte-Carlo seed, so the label reuses the ranking, groups,
/// normalized matrix and Ingredients core the table's recipe prepared;
/// `memo_miss` changes a weight, so every label prepares from scratch (the
/// cost of a unique recipe, which must not grow with the memo).
fn service_memo(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_generation/service_memo_synth_20k");
    group.sample_size(15);
    let catalog = rf_server::DatasetCatalog::new();
    let entry = catalog
        .get(&catalog.register_synth_scenario(20_000))
        .expect("registered");
    let service = LabelService::with_pipeline(
        parallel(),
        rf_core::service::DEFAULT_CACHE_CAPACITY,
        rf_core::service::DEFAULT_CACHE_BYTES,
    );
    let mut seed = 0u64;
    group.bench_function("memo_hit", |b| {
        b.iter(|| {
            seed += 1;
            let config = Arc::new(entry.config.clone().with_monte_carlo_seed(seed));
            let label = service.label(&entry.table, &config).expect("label");
            black_box(label.json.len())
        });
    });
    let mut step = 0u32;
    group.bench_function("memo_miss", |b| {
        b.iter(|| {
            step += 1;
            let weight = 0.2 + f64::from(step) * 1e-9;
            let scoring = ScoringFunction::from_pairs([
                ("score_0", 0.5),
                ("score_1", 0.3),
                ("score_2", weight),
            ])
            .expect("valid scoring");
            let config = Arc::new(LabelConfig {
                scoring,
                ..entry.config.clone()
            });
            let label = service.label(&entry.table, &config).expect("label");
            black_box(label.json.len())
        });
    });
    group.finish();
}

fn label_rendering(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_rendering");
    let table = Arc::new(cs_table_with_rows(97));
    let config = Arc::new(cs_label_config());
    let label = AnalysisPipeline::sequential()
        .generate(table, config)
        .unwrap();
    group.bench_function("text", |b| b.iter(|| black_box(label.to_text())));
    group.bench_function("html", |b| b.iter(|| black_box(label.to_html())));
    group.bench_function("json", |b| b.iter(|| black_box(label.to_json().unwrap())));
    group.finish();
}

criterion_group!(
    benches,
    label_generation_scaling,
    label_generation_scenarios,
    pipeline_schedules,
    sweep_amortization,
    service_memo,
    label_rendering
);
criterion_main!(benches);
