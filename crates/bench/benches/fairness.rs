//! Cost of the three fairness measures (FA*IR, Pairwise, Proportion) and of
//! the discounted measures as n and k grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rf_fairness::{DiscountedMeasures, FairStarTest, PairwiseTest, ProportionTest, ProtectedGroup};
use rf_ranking::Ranking;
use std::hint::black_box;

/// Membership vector with a mild skew (protected items pushed slightly down).
fn membership(n: usize) -> Vec<bool> {
    (0..n).map(|i| (i * 7 + i / 3) % 3 == 0).collect()
}

fn group_and_ranking(n: usize) -> (ProtectedGroup, Ranking) {
    let members = membership(n);
    let group = ProtectedGroup::from_membership("group", "protected", members).unwrap();
    let ranking = Ranking::from_order(&(0..n).collect::<Vec<_>>()).unwrap();
    (group, ranking)
}

fn fair_star_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fairness/fair_star");
    for &(n, k) in &[(1_000usize, 10usize), (10_000, 100), (100_000, 100)] {
        let (pg, ranking) = group_and_ranking(n);
        let p = pg.protected_proportion();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_k{k}")),
            &(n, k),
            |b, _| {
                let test = FairStarTest::new(k, p).unwrap();
                b.iter(|| black_box(test.evaluate(&pg, &ranking).unwrap()));
            },
        );
    }
    group.finish();
}

fn pairwise_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fairness/pairwise");
    for &n in &[1_000usize, 10_000, 100_000] {
        let (pg, ranking) = group_and_ranking(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let test = PairwiseTest::new();
            b.iter(|| black_box(test.evaluate(&pg, &ranking).unwrap()));
        });
    }
    group.finish();
}

fn proportion_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fairness/proportion");
    for &n in &[1_000usize, 10_000, 100_000] {
        let (pg, ranking) = group_and_ranking(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let test = ProportionTest::new(100).unwrap();
            b.iter(|| black_box(test.evaluate(&pg, &ranking).unwrap()));
        });
    }
    group.finish();
}

fn discounted_measures_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fairness/discounted_rnd_rkl_rrd");
    for &n in &[1_000usize, 10_000, 100_000, 1_000_000] {
        let (pg, ranking) = group_and_ranking(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(DiscountedMeasures::evaluate(&pg, &ranking).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    fair_star_scaling,
    pairwise_scaling,
    proportion_scaling,
    discounted_measures_scaling
);
criterion_main!(benches);
