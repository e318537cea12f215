//! Extension experiment E2: constrained set selection (EDBT 2018 substrate)
//! on the demo datasets — the utility price of fairness/diversity floors and
//! ceilings, offline and online.
//!
//! ```sh
//! cargo run -p rf-bench --bin extension_setsel
//! ```

use rf_bench::{cs_table, write_to_stdout, Banner};
use rf_datasets::CompasConfig;
use rf_setsel::{
    expected_utility_ratio, offline_select, Candidate, ConstraintSet, GroupConstraint,
    OnlineSelector, OnlineStrategy,
};

fn main() -> std::process::ExitCode {
    write_to_stdout(|out| {
        out.banner("Extension E2 — online set selection with fairness and diversity constraints")?;

        // CS departments: force small departments back into the top-10.
        let cs = cs_table();
        let candidates = Candidate::from_table(&cs, "PubCount", "DeptSizeBin").expect("candidates");
        let unconstrained = offline_select(&candidates, &ConstraintSet::unconstrained(10).unwrap())
            .expect("top-10");
        let constrained = offline_select(
            &candidates,
            &ConstraintSet::new(10, vec![GroupConstraint::at_least("small", 3).unwrap()]).unwrap(),
        )
        .expect("constrained");
        writeln!(
            out,
            "CS departments, k = 10 by PubCount:\n\
         \x20 unconstrained top-10: utility {:.2}, counts {:?}\n\
         \x20 floor small ≥ 3:      utility {:.2}, counts {:?}  (price of diversity: {:.2})\n",
            unconstrained.total_utility,
            unconstrained.category_counts,
            constrained.total_utility,
            constrained.category_counts,
            unconstrained.total_utility - constrained.total_utility,
        )?;

        // COMPAS: online selection of a review cohort under race constraints.
        let compas = CompasConfig {
            rows: 2_000,
            seed: 7,
            ..CompasConfig::default()
        }
        .generate()
        .expect("compas");
        let candidates =
            Candidate::from_table(&compas, "decile_score", "race").expect("candidates");
        let constraints = ConstraintSet::new(
            50,
            vec![
                GroupConstraint::at_least("Other", 20).unwrap(),
                GroupConstraint::at_most("African-American", 30).unwrap(),
            ],
        )
        .unwrap();
        let offline = offline_select(&candidates, &constraints).expect("offline");
        writeln!(out,
        "COMPAS-like, k = 50 by decile score (floor Other ≥ 20, ceiling African-American ≤ 30):\n\
         \x20 offline optimum: utility {:.0}, counts {:?}",
        offline.total_utility, offline.category_counts
    )?;
        for (name, strategy) in [
            ("greedy", OnlineStrategy::Greedy),
            ("secretary (1/e warm-up)", OnlineStrategy::secretary()),
        ] {
            let selector = OnlineSelector::new(constraints.clone(), strategy).expect("selector");
            let summary =
                expected_utility_ratio(&candidates, &selector, 100, 1).expect("simulation");
            writeln!(
                out,
                "\x20 online {name:<24} mean utility ratio {:.3} (min {:.3}, max {:.3}); \
             constraints satisfied in {:.0}% of 100 random orders",
                summary.mean,
                summary.min,
                summary.max,
                100.0 * summary.constraint_satisfaction_rate,
            )?;
        }
        Ok(())
    })
}
