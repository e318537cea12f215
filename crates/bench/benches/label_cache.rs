//! Cost of the content-addressed label cache: what a warm hit saves over a
//! cold miss, and what the fingerprinting that makes it possible costs.
//!
//! The cold path prepares the analysis context and builds every widget; the
//! warm path fingerprints the request and clones two `Arc`s.  The gap between
//! the two is the whole point of the `LabelService`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rf_bench::{cs_label_config, cs_table_with_rows};
use rf_core::{CacheKey, LabelService};
use std::hint::black_box;
use std::sync::Arc;

/// A service over the sequential reference pipeline with the default cache
/// bounds.
fn sequential_service() -> LabelService {
    LabelService::with_pipeline(
        rf_core::AnalysisPipeline::sequential(),
        rf_core::service::DEFAULT_CACHE_CAPACITY,
        rf_core::service::DEFAULT_CACHE_BYTES,
    )
}

fn cache_hit_vs_miss(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_cache/hit_vs_miss");
    group.sample_size(15);
    for rows in [1_000usize, 10_000] {
        let table = Arc::new(cs_table_with_rows(rows));
        let config = Arc::new(cs_label_config());

        // Cold miss: an empty cache in front of full generation.  A fresh
        // service per iteration keeps every pass cold.
        group.bench_with_input(BenchmarkId::new("cold_miss", rows), &rows, |b, _| {
            b.iter(|| {
                let service = sequential_service();
                let cached = service
                    .label(black_box(&table), black_box(&config))
                    .expect("label");
                black_box(cached.json.len())
            });
        });

        // Warm hit: the same request answered from the shared cache.
        let service = sequential_service();
        service.label(&table, &config).expect("warm-up");
        group.bench_with_input(BenchmarkId::new("warm_hit", rows), &rows, |b, _| {
            b.iter(|| {
                let cached = service
                    .label(black_box(&table), black_box(&config))
                    .expect("label");
                black_box(cached.json.len())
            });
        });
    }
    group.finish();
}

/// The fixed cost every lookup pays: fingerprinting the table and config
/// into a [`CacheKey`].  Linear in the table size, far below generation.
fn cache_key_fingerprinting(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_cache/fingerprint");
    group.sample_size(25);
    let config = cs_label_config();
    for rows in [1_000usize, 10_000, 100_000] {
        let table = cs_table_with_rows(rows);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| black_box(CacheKey::new(black_box(&table), black_box(&config))));
        });
    }
    group.finish();
}

criterion_group!(benches, cache_hit_vs_miss, cache_key_fingerprinting);
criterion_main!(benches);
