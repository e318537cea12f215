//! # rf-core — Ranking Facts
//!
//! The primary contribution of *"A Nutritional Label for Rankings"*
//! (Yang, Stoyanovich, Asudeh, Howe, Jagadish, Miklau — SIGMOD 2018):
//! a **nutritional label** that explains a score-based ranking to its
//! consumers, "with appropriately summarized information regarding the
//! ranking process".
//!
//! The label is "made up of a collection of visual widgets.  Each widget
//! addresses an essential aspect of transparency and interpretability"
//! (paper §1).  This crate assembles the six widgets of Figure 1 from the
//! measure crates of this workspace and renders the result:
//!
//! | Widget | Paper section | Backing crate |
//! |---|---|---|
//! | Recipe | §2.1 | `rf-ranking` (the scoring function itself) |
//! | Ingredients | §2.1 | `rf-stats` correlation / regression |
//! | Stability (+ detail, Figure 2) | §2.2 | `rf-stability` |
//! | Fairness (FA*IR, Pairwise, Proportion) | §2.3 | `rf-fairness` |
//! | Diversity | §2.4 | `rf-diversity` |
//!
//! ## Quickstart
//!
//! ```
//! use rf_core::{AnalysisPipeline, LabelConfig, NutritionalLabel};
//! use rf_ranking::ScoringFunction;
//! use rf_table::{Column, Table};
//! use std::sync::Arc;
//!
//! // A small dataset of departments.
//! let table = Table::from_columns(vec![
//!     ("Dept", Column::from_strings(["A", "B", "C", "D", "E", "F"])),
//!     ("PubCount", Column::from_f64(vec![9.0, 7.5, 6.0, 3.0, 2.0, 1.0])),
//!     ("Faculty", Column::from_i64(vec![60, 55, 40, 20, 15, 10])),
//!     ("Size", Column::from_strings(["large", "large", "large", "small", "small", "small"])),
//! ]).unwrap();
//!
//! // The "Recipe": a weighted scoring function.
//! let scoring = ScoringFunction::from_pairs([("PubCount", 0.7), ("Faculty", 0.3)]).unwrap();
//!
//! // Label configuration: top-3, fairness w.r.t. Size=small, diversity over Size.
//! let config = LabelConfig::new(scoring)
//!     .with_top_k(3)
//!     .with_sensitive_attribute("Size", ["small"])
//!     .with_diversity_attribute("Size");
//!
//! let label = NutritionalLabel::generate(&table, &config).unwrap();
//! assert_eq!(label.ranked_items, 6);
//! assert_eq!(label.top_k_rows.len(), 3);
//! println!("{}", label.to_text());
//!
//! // The label ships the top-k, not the full order: that lives on the
//! // prepared analysis context.
//! let pipeline = AnalysisPipeline::sequential();
//! let ctx = pipeline.prepare(Arc::new(table), Arc::new(config)).unwrap();
//! assert_eq!(ctx.ranking.top_k(3).len(), 3);
//! assert_eq!(pipeline.render(&ctx).unwrap(), label);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod design;
pub mod error;
pub mod label;
pub mod mitigation;
pub mod pipeline;
pub mod render;
pub mod service;
pub mod widgets;

pub use cache::{CacheKey, CacheStats, CachedLabel, LabelCache};
pub use config::{LabelConfig, MonteCarloConfig, SensitiveAttribute};
pub use design::{AttributePreview, DesignView};
pub use error::{LabelError, LabelResult};
pub use label::NutritionalLabel;
pub use mitigation::{MitigationSearch, MitigationSuggestion};
pub use pipeline::{
    AnalysisContext, AnalysisPipeline, FairnessMeasurePart, MonteCarloRuntimeStats,
    PreparedAnalysis, ServiceMetrics, WidgetBuilder, WidgetOutput,
};
pub use render::{render_html, render_json, render_text};
pub use service::{
    AdmissionStats, DatasetTableStats, LabelService, NetworkStats, ReactorCounters, ServiceStats,
};
pub use widgets::diversity::DiversityWidget;
pub use widgets::fairness::FairnessWidget;
pub use widgets::ingredients::{IngredientsMethod, IngredientsWidget};
pub use widgets::recipe::RecipeWidget;
pub use widgets::stability::StabilityWidget;
