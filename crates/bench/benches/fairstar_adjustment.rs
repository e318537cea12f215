//! Ablation: FA*IR's multiple-testing adjustment.
//!
//! Compares the cost of the adjusted vs. unadjusted test and reports (in the
//! bench log) how often each verdict differs on mildly skewed rankings —
//! the adjusted test is more conservative, which is exactly why FA*IR does it.
//! The `failure_probability` group times the exact dynamic program the
//! adjustment's bisection runs on each new table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rf_fairness::fair_star::failure_probability;
use rf_fairness::{adjust_alpha, minimum_protected_table, FairStarTest, ProtectedGroup};
use rf_ranking::Ranking;
use std::hint::black_box;

fn skewed_membership(n: usize, shift: usize) -> Vec<bool> {
    // Protected items appear every third position but pushed down by `shift`.
    (0..n)
        .map(|i| i >= shift && (i - shift).is_multiple_of(3))
        .collect()
}

fn adjustment_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/fair_star_adjustment_cost");
    for &k in &[10usize, 50, 100, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| black_box(adjust_alpha(k, 0.33, 0.05).unwrap()));
        });
    }
    group.finish();
}

fn failure_probability_cost(c: &mut Criterion) {
    // One DP on the table the adjustment settles on, the kind of table its
    // bisection probes.
    let mut group = c.benchmark_group("failure_probability");
    for &p in &[0.1, 0.3, 0.5] {
        for &k in &[10usize, 50, 100, 200] {
            let alpha = adjust_alpha(k, p, 0.05).unwrap();
            let table = minimum_protected_table(k, p, alpha).unwrap();
            group.bench_with_input(BenchmarkId::new(format!("p={p}"), k), &table, |b, table| {
                b.iter(|| black_box(failure_probability(black_box(table), p)));
            });
        }
    }
    group.finish();
}

fn verdict_difference(c: &mut Criterion) {
    // Report how the adjusted and unadjusted verdicts differ across skews.
    let n = 300;
    let k = 100;
    let mut disagreements = 0usize;
    let mut total = 0usize;
    for shift in 0..30 {
        let members = skewed_membership(n, shift);
        let group = ProtectedGroup::from_membership("g", "x", members).unwrap();
        let p = group.protected_proportion();
        let ranking = Ranking::from_order(&(0..n).collect::<Vec<_>>()).unwrap();
        let adjusted = FairStarTest::new(k, p)
            .unwrap()
            .evaluate(&group, &ranking)
            .unwrap();
        let unadjusted = FairStarTest::new(k, p)
            .unwrap()
            .with_adjustment(false)
            .evaluate(&group, &ranking)
            .unwrap();
        total += 1;
        if adjusted.satisfied != unadjusted.satisfied {
            disagreements += 1;
        }
        // The adjusted threshold can only be more permissive of the ranking.
        assert!(adjusted.alpha_adjusted <= unadjusted.alpha_adjusted);
    }
    println!(
        "[ablation] adjusted vs unadjusted FA*IR verdicts differ on {disagreements}/{total} skew levels"
    );

    let mut bench_group = c.benchmark_group("ablation/fair_star_evaluate");
    let members = skewed_membership(n, 10);
    let group = ProtectedGroup::from_membership("g", "x", members).unwrap();
    let p = group.protected_proportion();
    let ranking = Ranking::from_order(&(0..n).collect::<Vec<_>>()).unwrap();
    for (name, adjust) in [("adjusted", true), ("unadjusted", false)] {
        let test = FairStarTest::new(k, p).unwrap().with_adjustment(adjust);
        bench_group.bench_function(name, |b| {
            b.iter(|| black_box(test.evaluate(&group, &ranking).unwrap()));
        });
    }
    bench_group.finish();
}

criterion_group!(
    benches,
    adjustment_cost,
    failure_probability_cost,
    verdict_difference
);
criterion_main!(benches);
