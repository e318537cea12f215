//! The catalogue of pre-loaded demo datasets.
//!
//! "The demo user has the option to choose one of these datasets, or to
//! upload one of their own" (paper §3).  The catalogue holds the three
//! synthetic demonstration datasets together with a sensible default label
//! configuration for each, so a single GET produces the corresponding
//! nutritional label.

use rf_core::LabelConfig;
use rf_datasets::{CompasConfig, CsDepartmentsConfig, GermanCreditConfig, SynthScenarioConfig};
use rf_ranking::ScoringFunction;
use rf_table::Table;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// One pre-loaded dataset plus its default label configuration.
#[derive(Debug, Clone)]
pub struct DatasetEntry {
    /// Short identifier used in URLs (e.g. `cs-departments`).
    pub slug: String,
    /// Human-readable name.
    pub name: String,
    /// Short description shown on the landing page.
    pub description: String,
    /// The dataset itself.
    pub table: Arc<Table>,
    /// Default label configuration.
    pub config: LabelConfig,
}

/// Thread-safe catalogue of datasets, keyed by slug.
#[derive(Debug, Default)]
pub struct DatasetCatalog {
    entries: RwLock<BTreeMap<String, DatasetEntry>>,
}

impl DatasetCatalog {
    /// Creates an empty catalogue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the catalogue pre-loaded with the paper's three demonstration
    /// datasets (synthetic stand-ins; smaller row counts keep the demo fast).
    #[must_use]
    pub fn with_demo_datasets() -> Self {
        let catalog = Self::new();

        let cs = CsDepartmentsConfig::default()
            .generate()
            .expect("CS departments generator");
        let cs_config = LabelConfig::new(
            ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)])
                .expect("valid scoring"),
        )
        .with_top_k(10)
        .with_ingredient_count(2)
        .with_dataset_name("CS departments (synthetic CSR + NRC)")
        .with_sensitive_attribute("DeptSizeBin", ["large", "small"])
        .with_diversity_attribute("DeptSizeBin")
        .with_diversity_attribute("Region");
        catalog.insert(DatasetEntry {
            slug: "cs-departments".to_string(),
            name: "CS departments".to_string(),
            description: "CS Rankings + NRC attributes; the Figure 1 walk-through".to_string(),
            table: Arc::new(cs),
            config: cs_config,
        });

        let compas = CompasConfig::with_rows(2_000)
            .generate()
            .expect("COMPAS generator");
        let compas_config = LabelConfig::new(
            ScoringFunction::from_pairs([("decile_score", 0.7), ("priors_count", 0.3)])
                .expect("valid scoring"),
        )
        .with_top_k(100)
        .with_dataset_name("COMPAS recidivism (synthetic)")
        .with_sensitive_attribute("race", ["African-American"])
        .with_sensitive_attribute("sex", ["Female"])
        .with_diversity_attribute("race")
        .with_diversity_attribute("age_cat");
        catalog.insert(DatasetEntry {
            slug: "compas".to_string(),
            name: "Criminal risk assessment (COMPAS)".to_string(),
            description: "Synthetic ProPublica-style recidivism scores".to_string(),
            table: Arc::new(compas),
            config: compas_config,
        });

        let credit = GermanCreditConfig::default()
            .generate()
            .expect("German credit generator");
        let credit_config = LabelConfig::new(
            ScoringFunction::from_pairs([
                ("credit_score", 0.7),
                ("employment_years", 0.2),
                ("credit_amount", -0.1),
            ])
            .expect("valid scoring"),
        )
        .with_top_k(100)
        .with_dataset_name("German credit (synthetic)")
        .with_sensitive_attribute("sex", ["female"])
        .with_sensitive_attribute("age_group", ["young"])
        .with_diversity_attribute("housing")
        .with_diversity_attribute("checking_status");
        catalog.insert(DatasetEntry {
            slug: "german-credit".to_string(),
            name: "Credit and loans (German credit)".to_string(),
            description: "Synthetic UCI German Credit applicants".to_string(),
            table: Arc::new(credit),
            config: credit_config,
        });

        catalog
    }

    /// Generates and registers a large synthetic ranking scenario
    /// (`rf_datasets::SynthScenarioConfig`) of the given row count,
    /// returning its slug (`synth-100k`, `synth-1m`, ...).
    ///
    /// The scenario is dense (no missing cells): the default missing-value
    /// policy is `Error`, and the Monte-Carlo weight jitter resets the
    /// policy to that default, so a sparse catalogued table could never
    /// serve a label under the default noise knobs.  It also uses two
    /// groups, because the fairness widget audits only binary sensitive
    /// attributes.  Other shapes remain available through
    /// `SynthScenarioConfig` directly (bench and CLI).
    pub fn register_synth_scenario(&self, rows: usize) -> String {
        let config = SynthScenarioConfig::with_rows(rows)
            .with_missingness(0.0)
            .with_group_count(2);
        let slug = config.slug();
        let table = config.generate().expect("synthetic scenario generator");
        let label_config = LabelConfig::new(
            ScoringFunction::from_pairs([("score_0", 0.5), ("score_1", 0.3), ("score_2", 0.2)])
                .expect("valid scoring"),
        )
        .with_top_k(100)
        .with_dataset_name(format!("Synthetic scenario ({rows} rows)"))
        .with_sensitive_attribute("group", ["g1"])
        .with_diversity_attribute("group");
        self.insert(DatasetEntry {
            slug: slug.clone(),
            name: format!("Synthetic scenario, {rows} rows"),
            description: "Parameterized large-scale synthetic ranking scenario".to_string(),
            table: Arc::new(table),
            config: label_config,
        });
        slug
    }

    /// Adds or replaces an entry.
    pub fn insert(&self, entry: DatasetEntry) {
        self.entries
            .write()
            .expect("catalog lock")
            .insert(entry.slug.clone(), entry);
    }

    /// Adds or replaces an entry unless doing so would grow the catalogue
    /// past `cap`; returns whether the entry went in.  Check and insert
    /// happen under one write-lock acquisition, so concurrent uploads
    /// cannot race past the bound (replacements are always allowed — they
    /// don't grow the catalogue).
    #[must_use]
    pub fn insert_bounded(&self, entry: DatasetEntry, cap: usize) -> bool {
        let mut entries = self.entries.write().expect("catalog lock");
        if !entries.contains_key(&entry.slug) && entries.len() >= cap {
            return false;
        }
        entries.insert(entry.slug.clone(), entry);
        true
    }

    /// Looks up an entry by slug.
    #[must_use]
    pub fn get(&self, slug: &str) -> Option<DatasetEntry> {
        self.entries
            .read()
            .expect("catalog lock")
            .get(slug)
            .cloned()
    }

    /// All entries, ordered by slug.
    #[must_use]
    pub fn list(&self) -> Vec<DatasetEntry> {
        self.entries
            .read()
            .expect("catalog lock")
            .values()
            .cloned()
            .collect()
    }

    /// Number of datasets in the catalogue.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.read().expect("catalog lock").len()
    }

    /// `true` when the catalogue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.read().expect("catalog lock").is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_catalog_has_three_datasets() {
        let catalog = DatasetCatalog::with_demo_datasets();
        assert_eq!(catalog.len(), 3);
        assert!(!catalog.is_empty());
        let slugs: Vec<String> = catalog.list().iter().map(|e| e.slug.clone()).collect();
        assert_eq!(slugs, vec!["compas", "cs-departments", "german-credit"]);
    }

    #[test]
    fn entries_validate_against_their_tables() {
        let catalog = DatasetCatalog::with_demo_datasets();
        for entry in catalog.list() {
            assert!(
                entry.config.validate(&entry.table).is_ok(),
                "default config for {} must validate",
                entry.slug
            );
        }
    }

    #[test]
    fn lookup_and_insert() {
        let catalog = DatasetCatalog::with_demo_datasets();
        assert!(catalog.get("cs-departments").is_some());
        assert!(catalog.get("nope").is_none());
        let mut entry = catalog.get("cs-departments").unwrap();
        entry.slug = "copy".to_string();
        catalog.insert(entry);
        assert_eq!(catalog.len(), 4);
    }

    #[test]
    fn empty_catalog() {
        let catalog = DatasetCatalog::new();
        assert!(catalog.is_empty());
        assert!(catalog.list().is_empty());
    }

    #[test]
    fn synth_scenario_registers_and_validates() {
        let catalog = DatasetCatalog::new();
        let slug = catalog.register_synth_scenario(2_000);
        assert_eq!(slug, "synth-2k");
        let entry = catalog.get("synth-2k").unwrap();
        assert_eq!(entry.table.num_rows(), 2_000);
        assert!(entry.config.validate(&entry.table).is_ok());
        // `validate` does not catch everything the widgets require (e.g.
        // the fairness widget's binary-attribute rule), so prove the entry
        // actually serves a label end to end.
        let config = entry.config.clone().with_monte_carlo_trials(2);
        let pipeline = rf_core::AnalysisPipeline::sequential();
        let ctx = pipeline
            .prepare(Arc::clone(&entry.table), Arc::new(config))
            .expect("catalogued synth scenario must prepare");
        assert_eq!(ctx.ranking.len(), 2_000);
        let label = pipeline
            .render(&ctx)
            .expect("catalogued synth scenario must label");
        assert_eq!(label.ranked_items, 2_000);
        // Registration is deterministic: re-registering replaces the entry
        // with an identical table.
        let before = entry.table.fingerprint();
        catalog.register_synth_scenario(2_000);
        assert_eq!(catalog.get("synth-2k").unwrap().table.fingerprint(), before);
    }
}
