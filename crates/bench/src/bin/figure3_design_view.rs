//! Regenerates **Figure 3** of the paper: the scoring-function design view —
//! the data preview, the normalize/standardize option, the attribute
//! histogram (GRE is the one shown in the figure), attribute selection and
//! the ranking preview.
//!
//! ```sh
//! cargo run -p rf-bench --bin figure3_design_view
//! ```

use rf_bench::{cs_scoring, cs_table, write_to_stdout, Banner};
use rf_core::DesignView;
use rf_table::NormalizationMethod;

fn main() -> std::process::ExitCode {
    write_to_stdout(|out| {
        out.banner("Figure 3 — Scoring function design (CS departments)")?;
        let table = cs_table();

        for method in [NormalizationMethod::None, NormalizationMethod::MinMax] {
            writeln!(
                out,
                "\n### normalize and standardize attributes: {}",
                method.as_str()
            )?;
            let view = DesignView::build(&table, method, 6, 10).expect("design view");

            writeln!(out, "\nData preview ({} rows total):", view.rows)?;
            writeln!(out, "{}", view.data_preview)?;

            writeln!(
                out,
                "Numerical attributes (scoring candidates): {:?}",
                view.numeric_attributes
            )?;
            writeln!(
                out,
                "Categorical attributes (sensitive candidates): {:?}",
                view.categorical_attributes
            )?;

            if let Some(gre) = view.attribute_preview("GRE") {
                writeln!(
                    out,
                    "\nDistribution of GRE (the histogram shown in the figure):"
                )?;
                write!(out, "{}", gre.histogram.to_ascii(36))?;
                writeln!(
                    out,
                    "raw summary:        min {:.1}  median {:.1}  max {:.1}  mean {:.1}",
                    gre.raw_summary.min,
                    gre.raw_summary.median,
                    gre.raw_summary.max,
                    gre.raw_summary.mean
                )?;
                if let Some(norm) = &gre.normalized_summary {
                    writeln!(
                        out,
                        "normalized summary: min {:.2}  median {:.2}  max {:.2}  mean {:.2}",
                        norm.min, norm.median, norm.max, norm.mean
                    )?;
                }
            }

            let preview = view
                .preview_ranking(&table, &cs_scoring(), 10)
                .expect("ranking preview");
            writeln!(
                out,
                "\nRanking preview (top-10) for 0.4·PubCount + 0.4·Faculty + 0.2·GRE:"
            )?;
            for (rank, (item, score)) in preview
                .top_items
                .iter()
                .zip(preview.top_scores.iter())
                .enumerate()
            {
                writeln!(out, "{:>3}. {:<10} {:.4}", rank + 1, item, score)?;
            }
        }
        Ok(())
    })
}
