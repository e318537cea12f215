//! Regenerates **Figure 2** of the paper: the detailed Stability widget —
//! the score distribution at the top-10 and over-all with the fitted line
//! whose slope is the stability score (threshold 0.25).
//!
//! ```sh
//! cargo run -p rf-bench --bin figure2_stability
//! ```

use rf_bench::{cs_label_config, cs_table, write_to_stdout, Banner};
use rf_core::AnalysisPipeline;
use std::sync::Arc;

fn main() -> std::process::ExitCode {
    write_to_stdout(|out| {
        out.banner("Figure 2 — Stability: detailed widget (CS departments)")?;
        let pipeline = AnalysisPipeline::sequential();
        let ctx = pipeline
            .prepare(Arc::new(cs_table()), Arc::new(cs_label_config()))
            .expect("prepare");
        let label = pipeline.render(&ctx).expect("CS label");
        let slope = &label.stability.slope;
        let scores = ctx.ranking.scores_in_rank_order();

        writeln!(out,
        "Stability threshold: a score distribution is UNSTABLE if the slope is {:.2} or lower.\n",
        slope.threshold
    )?;

        for (name, slice, scores) in [
            ("Top-10", &slope.top_k, &scores[..slope.k]),
            ("Over-all", &slope.overall, &scores[..]),
        ] {
            writeln!(
                out,
                "{name}: slope magnitude {:.3} (raw {:.3}), intercept {:.3}, R² {:.3} → {}",
                slice.slope_magnitude,
                slice.raw_slope,
                slice.intercept,
                slice.r_squared,
                slice.verdict.as_str().to_uppercase()
            )?;
            // ASCII rendition of the score-vs-rank scatter the figure plots.
            writeln!(out, "{}", ascii_scatter(scores, 48, 12))?;
        }

        writeln!(
            out,
            "Overview verdict: {} (stability score {:.3})",
            if label.stability.stable {
                "STABLE"
            } else {
                "UNSTABLE"
            },
            label.stability.stability_score
        )?;

        writeln!(out, "\nPer-attribute stability:")?;
        for attr in &label.stability.per_attribute {
            writeln!(
                out,
                "  {:<12} weight {:>5.2}  slope {:.3}  ({})",
                attr.attribute,
                attr.weight,
                attr.slope_magnitude,
                attr.verdict.as_str()
            )?;
        }
        Ok(())
    })
}

/// Plots scores (already in rank order) as a crude ASCII scatter:
/// x = rank, y = score.
fn ascii_scatter(scores: &[f64], width: usize, height: usize) -> String {
    if scores.is_empty() {
        return String::new();
    }
    let min = scores.iter().copied().fold(f64::INFINITY, f64::min);
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for (i, &score) in scores.iter().enumerate() {
        let x = if scores.len() == 1 {
            0
        } else {
            i * (width - 1) / (scores.len() - 1)
        };
        let y = ((score - min) / span * (height - 1) as f64).round() as usize;
        grid[height - 1 - y][x] = '*';
    }
    let mut out = String::new();
    for row in grid {
        out.push_str("  |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(width));
    out.push_str("\n   rank 1 ");
    out.push_str(&" ".repeat(width.saturating_sub(20)));
    out.push_str(&format!("rank {}\n", scores.len()));
    out
}
