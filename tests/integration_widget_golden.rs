//! Golden bits of the column-statistics widgets.
//!
//! The Ingredients, Recipe and Diversity widgets of the cs, compas and
//! german catalogue entries at k ∈ {10, 55, 100} (capped at the table size),
//! and of the 20k-row synthetic scenario, must reproduce the `f64::to_bits`
//! recorded in `tests/golden/widget_bits.txt`: every association, learned
//! weight and R² of Ingredients, every top-k / over-all summary of the
//! Recipe and Ingredients details, and every Diversity proportion and index.
//! A faster sort, quantile or column view must leave them untouched.
//!
//! Any change to these bits changes served label bytes and the frames the
//! disk tier stores, so it needs an `rf_store::FORMAT_VERSION` bump.

//!
//! A property test then checks the Ingredients associations on small
//! random tables — missing cells, constant and all-missing columns,
//! non-finite cells, a single row — against the sort-based computation
//! they replaced, errors included.

use proptest::prelude::*;
use rf_core::{DiversityWidget, IngredientsWidget, LabelConfig, LabelResult, RecipeWidget};
use rf_ranking::Ranking;
use rf_stats::Summary;
use rf_table::{Column, Table};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/widget_bits.txt");

fn push_f64(out: &mut String, case: &str, path: &str, value: f64) {
    writeln!(out, "{case} {path} {:016x}", value.to_bits()).unwrap();
}

fn push_summary(out: &mut String, case: &str, path: &str, summary: Option<&Summary>) {
    let Some(s) = summary else {
        writeln!(out, "{case} {path} none").unwrap();
        return;
    };
    writeln!(out, "{case} {path}.count {}", s.count).unwrap();
    for (field, value) in [
        ("min", s.min),
        ("max", s.max),
        ("median", s.median),
        ("mean", s.mean),
        ("stddev", s.stddev),
    ] {
        push_f64(out, case, &format!("{path}.{field}"), value);
    }
}

/// One line per pinned value of the three widgets at prefix size `k`.
fn render_case(out: &mut String, case: &str, table: &Table, config: &LabelConfig, k: usize) {
    let ranking = config.scoring.rank_table(table).expect("ranking");
    let recipe = RecipeWidget::build(table, &config.scoring, &ranking, k).expect("recipe");
    for d in &recipe.details {
        let path = format!("recipe.{}", d.attribute);
        push_summary(out, case, &format!("{path}.top_k"), d.top_k.as_ref());
        push_summary(out, case, &format!("{path}.overall"), Some(&d.overall));
    }

    let names = config.scoring.attribute_names();
    let ingredients = IngredientsWidget::build_with_method(
        table,
        &ranking,
        &names,
        k,
        config.ingredient_count,
        config.ingredients_method,
    )
    .expect("ingredients");
    for ing in &ingredients.all_attributes {
        let path = format!("ingredients.{}", ing.attribute);
        push_f64(
            out,
            case,
            &format!("{path}.rank_association"),
            ing.rank_association,
        );
        push_f64(
            out,
            case,
            &format!("{path}.signed_association"),
            ing.signed_association,
        );
        push_f64(
            out,
            case,
            &format!("{path}.top_weighted_association"),
            ing.top_weighted_association,
        );
        match ing.learned_weight {
            Some(w) => push_f64(out, case, &format!("{path}.learned_weight"), w),
            None => writeln!(out, "{case} {path}.learned_weight none").unwrap(),
        }
    }
    match ingredients.model_r_squared {
        Some(r2) => push_f64(out, case, "ingredients.r_squared", r2),
        None => writeln!(out, "{case} ingredients.r_squared none").unwrap(),
    }
    for d in &ingredients.details {
        let path = format!("ingredients.detail.{}", d.attribute);
        push_summary(out, case, &format!("{path}.top_k"), d.top_k.as_ref());
        push_summary(out, case, &format!("{path}.overall"), Some(&d.overall));
    }

    let config = config.clone().with_top_k(k);
    let diversity = DiversityWidget::build(table, &ranking, &config).expect("diversity");
    for report in &diversity.reports {
        for (slice, proportions, indices) in [
            ("top_k", &report.top_k, &report.top_k_indices),
            ("overall", &report.overall, &report.overall_indices),
        ] {
            let path = format!("diversity.{}.{slice}", report.attribute);
            writeln!(
                out,
                "{case} {path}.total {} missing {}",
                proportions.total, proportions.missing
            )
            .unwrap();
            for c in &proportions.categories {
                writeln!(out, "{case} {path}.{}.count {}", c.category, c.count).unwrap();
                push_f64(
                    out,
                    case,
                    &format!("{path}.{}.proportion", c.category),
                    c.proportion,
                );
            }
            push_f64(
                out,
                case,
                &format!("{path}.shannon"),
                indices.shannon_entropy,
            );
            push_f64(
                out,
                case,
                &format!("{path}.normalized_entropy"),
                indices.normalized_entropy,
            );
            push_f64(
                out,
                case,
                &format!("{path}.gini_simpson"),
                indices.gini_simpson,
            );
        }
    }
}

fn render_all() -> String {
    let catalog = rf_server::DatasetCatalog::with_demo_datasets();
    let mut out = String::new();
    for slug in ["cs-departments", "compas", "german-credit"] {
        let entry = catalog.get(slug).expect("catalogue entry");
        for k in [10, 55, 100] {
            let k = k.min(entry.table.num_rows());
            render_case(
                &mut out,
                &format!("{slug}@{k}"),
                &entry.table,
                &entry.config,
                k,
            );
        }
    }
    let (table, config) = rf_bench::synth_scenario(20_000);
    render_case(&mut out, "synth-20k", &table, &config, config.top_k);
    out
}

#[test]
fn widget_golden_bits() {
    let actual = render_all();
    let mismatches: Vec<(usize, &str, &str)> = GOLDEN
        .lines()
        .zip(actual.lines())
        .enumerate()
        .filter(|(_, (want, got))| want != got)
        .map(|(line, (want, got))| (line + 1, want, got))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} golden lines differ; first: line {} want `{}` got `{}`",
        mismatches.len(),
        mismatches[0].0,
        mismatches[0].1,
        mismatches[0].2
    );
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "golden line count"
    );
}

/// `(attribute, signed Spearman bits, top-weighted bits)` per usable numeric
/// column, computed the way Ingredients did before it sorted each column
/// once: `rf_stats::spearman` ranks both vectors with comparator sorts, and
/// the attribute's ranking is a stable comparator argsort.  The oracle.
fn associations_by_sort(
    table: &Table,
    ranking: &Ranking,
    k: usize,
) -> LabelResult<Vec<(String, u64, u64)>> {
    let scores = ranking.score_vector();
    let mut out = Vec::new();
    for name in table.schema().numeric_names() {
        let options = table.numeric_column_options(name)?;
        let non_null: Vec<f64> = options.iter().filter_map(|v| *v).collect();
        if non_null.is_empty() {
            continue;
        }
        let mean = non_null.iter().sum::<f64>() / non_null.len() as f64;
        let filled: Vec<f64> = options.iter().map(|v| v.unwrap_or(mean)).collect();
        let signed = match rf_stats::spearman(&filled, &scores) {
            Ok(rho) => rho,
            Err(rf_stats::StatsError::ZeroVariance { .. }) => 0.0,
            Err(err) => return Err(err.into()),
        };
        let mut order: Vec<usize> = (0..filled.len()).collect();
        order.sort_by(|&a, &b| {
            filled[b]
                .partial_cmp(&filled[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let depth = k.clamp(1, ranking.len());
        let top_weighted =
            rf_ranking::average_overlap(ranking, &Ranking::from_order(&order)?, depth)?;
        out.push((name.to_string(), signed.to_bits(), top_weighted.to_bits()));
    }
    Ok(out)
}

/// A numeric column of `rows` cells in one of six shapes; `cells` supplies
/// a `(selector, value)` pair per row.
fn oracle_column(shape: usize, cells: &[(usize, i64)], rows: usize) -> Column {
    let cells = &cells[..rows];
    match shape {
        // Quarter steps with ties.
        0 => Column::from_f64(cells.iter().map(|&(_, v)| v as f64 / 4.0).collect()),
        // Constant: Spearman's zero variance reads as 0.0.
        1 => Column::from_f64(vec![3.0; rows]),
        // Missing cells, mean-imputed.
        2 => Column::Float(
            cells
                .iter()
                .map(|&(sel, v)| (sel >= 3).then_some(v as f64))
                .collect(),
        ),
        // A non-finite cell now and then.
        3 => Column::Float(
            cells
                .iter()
                .map(|&(sel, v)| match sel {
                    0 if v % 7 == 0 => Some(f64::INFINITY),
                    1 if v % 11 == 0 => Some(f64::NAN),
                    2 => None,
                    _ => Some(v as f64),
                })
                .collect(),
        ),
        // Entirely missing: skipped.
        4 => Column::Float(vec![None; rows]),
        // Integers with heavy ties and both zeros through the mean.
        _ => Column::Int(
            cells
                .iter()
                .map(|&(sel, v)| (sel != 0).then_some(v % 3))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ingredients_associations_match_the_sort_based_oracle(
        rows in 1usize..=40,
        shapes in prop::collection::vec(0usize..6, 1..5),
        cells in prop::collection::vec((0usize..10, -30i64..30), 40),
        scores in prop::collection::vec(-6i64..6, 40),
        k in 1usize..50,
    ) {
        let columns: Vec<(String, Column)> = shapes
            .iter()
            .enumerate()
            .map(|(i, &shape)| (format!("a{i}"), oracle_column(shape, &cells, rows)))
            .collect();
        let table = Table::from_columns(columns).unwrap();
        let scores: Vec<f64> = scores[..rows].iter().map(|&s| s as f64 * 0.5).collect();
        let ranking = Ranking::from_scores(&scores).unwrap();
        let reference = associations_by_sort(&table, &ranking, k);
        match IngredientsWidget::build(&table, &ranking, &[], k, 1) {
            Ok(widget) => {
                let reference = reference.expect("the oracle succeeds too");
                prop_assert_eq!(widget.all_attributes.len(), reference.len());
                for (name, signed, top_weighted) in &reference {
                    let ing = widget
                        .all_attributes
                        .iter()
                        .find(|i| &i.attribute == name)
                        .expect("every usable attribute is listed");
                    prop_assert_eq!(ing.signed_association.to_bits(), *signed);
                    prop_assert_eq!(ing.rank_association.to_bits(), f64::from_bits(*signed).abs().to_bits());
                    prop_assert_eq!(ing.top_weighted_association.to_bits(), *top_weighted);
                }
            }
            Err(err) => prop_assert_eq!(Err(err), reference),
        }
    }
}
