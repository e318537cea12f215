//! The content-addressed label cache.
//!
//! A nutritional label is a pure function of `(table, configuration)`, so a
//! repeated request for the same pair can be answered without touching the
//! analysis pipeline at all.  [`CacheKey`] names that pair by content —
//! [`Table::fingerprint`](rf_table::Table::fingerprint) ×
//! [`LabelConfig::fingerprint`](crate::LabelConfig::fingerprint) — and
//! [`LabelCache`] is the bounded LRU store the
//! [`LabelService`](crate::LabelService) fronts the pipeline with.
//!
//! The cache is bounded two ways: by **entry count** and by **resident
//! bytes**.  An entry is charged its rendered-JSON length *plus* the
//! approximate heap footprint of the table it keeps alive
//! ([`Table::approx_heap_bytes`]) — uploaded tables are retained for hit
//! verification, so they must count against the bound or uploads could pin
//! unbounded memory behind a small-looking `bytes` figure.  (Catalog tables
//! are `Arc`-shared across their entries, so charging each entry the full
//! table over-counts them; the error is on the safe side.)  An entry the
//! [`LabelService`](crate::LabelService) generated also keeps the
//! [`PreparedAnalysis`] it was rendered from alive, so later cold labels of
//! the same table and recipe can share it, and is charged that analysis's
//! footprint too ([`PreparedAnalysis::approx_heap_bytes`]; entries sharing
//! one analysis each pay for it in full, again on the safe side).  Nothing
//! else holds an analysis alive between labels, so the bound covers all of
//! it.  The held [`NutritionalLabel`] is not charged: it carries the top-k and the
//! widgets, O(k + widgets) whatever the table's row count, and its JSON —
//! which is charged — renders the same content.  Whichever bound
//! is exceeded first evicts least-recently-used entries.  There is no time
//! bound: keys are content-addressed, so an entry can never go stale, and
//! the server drops every entry whenever a dataset is uploaded.
//!
//! The fingerprints are non-cryptographic (FNV-1a), so a hit additionally
//! verifies that the stored inputs *equal* the request's table and
//! configuration before serving: a fingerprint collision — accidental or
//! crafted through the public upload endpoint — degrades to a miss instead
//! of serving another key's label.  Catalog requests share their tables by
//! `Arc`, so that verification is a pointer comparison on the common path.

use crate::config::LabelConfig;
use crate::label::NutritionalLabel;
use crate::pipeline::PreparedAnalysis;
use rf_table::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// Content-addressed identity of one label: the table's fingerprint paired
/// with the configuration's fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct CacheKey {
    /// [`Table::fingerprint`] of the dataset.
    pub table: u64,
    /// [`LabelConfig::fingerprint`](crate::LabelConfig::fingerprint) of the
    /// configuration.
    pub config: u64,
}

impl CacheKey {
    /// Fingerprints `table` and `config` into a cache key.
    #[must_use]
    pub fn new(table: &Table, config: &LabelConfig) -> Self {
        CacheKey {
            table: table.fingerprint(),
            config: config.fingerprint(),
        }
    }
}

/// A generated label together with its rendered JSON document.
///
/// The JSON is rendered once, at insert time, so the dominant
/// `label.json` hit path is a reference-counted clone — no pipeline work, no
/// re-serialization.  HTML and text render from the label on demand.  The
/// deliberate cost of that choice: a cold request that only wants HTML still
/// pays one JSON render to keep its cache entry complete; that render is a
/// small fraction of the generation it accompanies.
///
/// The byte bound charges an entry its JSON length plus its retained table
/// (and analysis, when it keeps one).  The label itself goes uncharged,
/// which is sound because it is O(k + widgets): it holds the item count and
/// the top-k rows, never the full O(n) ranking (that stays on the
/// [`PreparedAnalysis`], which is charged where an entry keeps it).
#[derive(Debug, Clone)]
pub struct CachedLabel {
    /// The assembled label.
    pub label: Arc<NutritionalLabel>,
    /// The label rendered as JSON.
    pub json: Arc<String>,
}

/// Counters describing cache behaviour, snapshot by [`LabelCache::stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to generate.
    pub misses: u64,
    /// Entries evicted to honour the bounds.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently resident (rendered JSON plus retained table and
    /// analysis data).
    pub bytes: usize,
    /// Maximum resident entries.
    pub capacity: usize,
    /// Maximum resident bytes.
    pub max_bytes: usize,
}

#[derive(Debug)]
struct CacheEntry {
    value: CachedLabel,
    /// The exact table the entry was generated from, kept to verify hits
    /// (the label itself already carries the exact configuration).  Catalog
    /// tables are `Arc`-shared so this pins no extra memory; uploaded tables
    /// stay resident while cached.
    table: Arc<Table>,
    /// The analysis the label was rendered from, held (never read here) so
    /// later cold labels of the same table and recipe can share it (see the
    /// module docs).
    _analysis: Option<Arc<PreparedAnalysis>>,
    bytes: usize,
    last_used: u64,
}

/// A bounded, least-recently-used map from [`CacheKey`] to [`CachedLabel`].
///
/// Not internally synchronized — the [`LabelService`](crate::LabelService)
/// wraps it in a mutex and shares *that* across workers.  Recency is a
/// monotonic tick bumped on every touch; eviction removes the smallest tick
/// until both bounds hold.
#[derive(Debug)]
pub struct LabelCache {
    entries: HashMap<CacheKey, CacheEntry>,
    capacity: usize,
    max_bytes: usize,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LabelCache {
    /// A cache bounded to `capacity` entries and `max_bytes` resident bytes
    /// (both clamped to at least one entry / one byte).
    #[must_use]
    pub fn new(capacity: usize, max_bytes: usize) -> Self {
        LabelCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            max_bytes: max_bytes.max(1),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a label, counting a hit or miss and refreshing recency.
    ///
    /// A key match alone is not a hit: the stored table and configuration
    /// must equal the request's (`Arc` pointer equality short-circuits the
    /// table comparison for shared catalog datasets).  A mismatched match is
    /// a fingerprint collision and counts as a miss.
    pub fn get(
        &mut self,
        key: &CacheKey,
        table: &Table,
        config: &LabelConfig,
    ) -> Option<CachedLabel> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry)
                if entry.value.label.config == *config
                    && (std::ptr::eq(Arc::as_ptr(&entry.table), table)
                        || *entry.table == *table) =>
            {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(entry.value.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a label, evicting least-recently-used entries until the
    /// bounds hold.  An entry costs its rendered JSON plus the table it
    /// retains; one whose cost alone exceeds the byte bound is not cached
    /// (it would immediately evict everything else for nothing).
    pub fn insert(&mut self, key: CacheKey, table: Arc<Table>, value: CachedLabel) {
        self.insert_keeping(key, table, value, None);
    }

    /// [`insert`](Self::insert) that also keeps `analysis`, the prepared
    /// analysis the label was rendered from, alive for as long as the entry
    /// lives, and charges the entry for it.  An analysis that would not fit
    /// the byte bound next to its label is dropped; the label is still
    /// cached as by `insert`.
    pub(crate) fn insert_keeping(
        &mut self,
        key: CacheKey,
        table: Arc<Table>,
        value: CachedLabel,
        analysis: Option<Arc<PreparedAnalysis>>,
    ) {
        let mut bytes = value.json.len() + table.approx_heap_bytes();
        if bytes > self.max_bytes {
            return;
        }
        let analysis = analysis.and_then(|analysis| {
            let charged = bytes + analysis.approx_heap_bytes();
            (charged <= self.max_bytes).then(|| {
                bytes = charged;
                analysis
            })
        });
        self.tick += 1;
        if let Some(previous) = self.entries.insert(
            key,
            CacheEntry {
                value,
                table,
                _analysis: analysis,
                bytes,
                last_used: self.tick,
            },
        ) {
            self.bytes -= previous.bytes;
        }
        self.bytes += bytes;
        while self.entries.len() > self.capacity || self.bytes > self.max_bytes {
            let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, entry)| entry.last_used)
            else {
                break;
            };
            if let Some(evicted) = self.entries.remove(&oldest) {
                self.bytes -= evicted.bytes;
                self.evictions += 1;
            }
        }
    }

    /// Drops every entry (counters keep their history).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// A snapshot of the cache counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.bytes,
            capacity: self.capacity,
            max_bytes: self.max_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{AnalysisContext, AnalysisPipeline};
    use rf_ranking::ScoringFunction;
    use rf_table::Column;

    struct Fixture {
        table: Arc<Table>,
        config: LabelConfig,
        key: CacheKey,
        value: CachedLabel,
    }

    impl Fixture {
        /// The entry's accounted cost: rendered JSON plus the retained table.
        fn cost(&self) -> usize {
            self.value.json.len() + self.table.approx_heap_bytes()
        }
    }

    fn label_for(k: usize) -> Fixture {
        let n = 20usize;
        let table = Table::from_columns(vec![
            (
                "name",
                Column::from_strings((0..n).map(|i| format!("i{i}")).collect::<Vec<_>>()),
            ),
            (
                "score",
                Column::from_f64((0..n).map(|i| 40.0 - i as f64).collect()),
            ),
        ])
        .unwrap();
        let scoring = ScoringFunction::from_pairs([("score", 1.0)]).unwrap();
        let config = LabelConfig::new(scoring).with_top_k(k);
        let key = CacheKey::new(&table, &config);
        let table = Arc::new(table);
        let label = AnalysisPipeline::sequential()
            .generate(Arc::clone(&table), Arc::new(config.clone()))
            .unwrap();
        let json = label.to_json().unwrap();
        Fixture {
            table,
            config,
            key,
            value: CachedLabel {
                label: Arc::new(label),
                json: Arc::new(json),
            },
        }
    }

    #[test]
    fn an_entry_is_charged_the_analysis_it_keeps_alive() {
        let f = label_for(3);
        let analysis = AnalysisContext::prepare(Arc::clone(&f.table), Arc::new(f.config.clone()))
            .unwrap()
            .prepared;
        let with_analysis = f.cost() + analysis.approx_heap_bytes();
        let mut cache = LabelCache::new(4, with_analysis);
        cache.insert_keeping(
            f.key,
            Arc::clone(&f.table),
            f.value.clone(),
            Some(Arc::clone(&analysis)),
        );
        assert_eq!(cache.stats().bytes, with_analysis);
        assert_eq!(Arc::strong_count(&analysis), 2, "the entry holds it");
        // One byte short: the label is cached without its analysis.
        let mut tight = LabelCache::new(4, with_analysis - 1);
        tight.insert_keeping(
            f.key,
            Arc::clone(&f.table),
            f.value.clone(),
            Some(Arc::clone(&analysis)),
        );
        assert_eq!(tight.stats().entries, 1);
        assert_eq!(tight.stats().bytes, f.cost());
        assert_eq!(Arc::strong_count(&analysis), 2);
        cache.clear();
        assert_eq!(Arc::strong_count(&analysis), 1, "cleared with its entry");
    }

    #[test]
    fn keys_are_content_addressed() {
        let a = label_for(3);
        let a_again = label_for(3);
        let b = label_for(5);
        assert_eq!(a.key, a_again.key);
        assert_ne!(a.key, b.key);
        // Same table content, different config.
        assert_eq!(a.key.config, a_again.key.config);
        assert_eq!(a.key.table, b.key.table);
    }

    #[test]
    fn hit_returns_the_inserted_label_and_counts() {
        let mut cache = LabelCache::new(4, 1 << 20);
        let f = label_for(3);
        assert!(cache.get(&f.key, &f.table, &f.config).is_none());
        cache.insert(f.key, Arc::clone(&f.table), f.value.clone());
        let hit = cache.get(&f.key, &f.table, &f.config).expect("warm hit");
        assert_eq!(hit.json, f.value.json);
        // A clone-equal table (different allocation) still hits.
        let rebuilt = Table::clone(&f.table);
        assert!(cache.get(&f.key, &rebuilt, &f.config).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, f.cost());
    }

    #[test]
    fn a_key_match_with_different_inputs_is_a_miss_not_a_hit() {
        // Simulate a fingerprint collision: the same CacheKey arriving with
        // a different table / config must not serve the stored label.
        let mut cache = LabelCache::new(4, 1 << 20);
        let f3 = label_for(3);
        let f5 = label_for(5);
        cache.insert(f3.key, Arc::clone(&f3.table), f3.value.clone());
        let other_table =
            Table::from_columns(vec![("score", Column::from_f64(vec![1.0, 2.0]))]).unwrap();
        assert!(
            cache.get(&f3.key, &other_table, &f3.config).is_none(),
            "colliding table must miss"
        );
        assert!(
            cache.get(&f3.key, &f3.table, &f5.config).is_none(),
            "colliding config must miss"
        );
        assert_eq!(cache.stats().misses, 2);
        // The genuine request still hits.
        assert!(cache.get(&f3.key, &f3.table, &f3.config).is_some());
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let mut cache = LabelCache::new(2, 1 << 20);
        let f3 = label_for(3);
        let f4 = label_for(4);
        let f5 = label_for(5);
        cache.insert(f3.key, Arc::clone(&f3.table), f3.value.clone());
        cache.insert(f4.key, Arc::clone(&f4.table), f4.value.clone());
        // Touch key3 so key4 is the LRU when key5 arrives.
        assert!(cache.get(&f3.key, &f3.table, &f3.config).is_some());
        cache.insert(f5.key, Arc::clone(&f5.table), f5.value.clone());
        assert!(
            cache.get(&f4.key, &f4.table, &f4.config).is_none(),
            "LRU entry must be evicted"
        );
        assert!(cache.get(&f3.key, &f3.table, &f3.config).is_some());
        assert!(cache.get(&f5.key, &f5.table, &f5.config).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn byte_bound_evicts_and_oversized_entries_are_skipped() {
        let f3 = label_for(3);
        let f4 = label_for(4);
        // Room for one entry (JSON + retained table) but not two.
        let mut cache = LabelCache::new(10, f3.cost() + f4.cost() / 2);
        cache.insert(f3.key, Arc::clone(&f3.table), f3.value.clone());
        cache.insert(f4.key, Arc::clone(&f4.table), f4.value.clone());
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().bytes <= cache.stats().max_bytes);
        // An entry bigger than the whole bound is not cached at all.
        let mut tiny = LabelCache::new(10, 16);
        tiny.insert(f4.key, Arc::clone(&f4.table), f4.value.clone());
        assert_eq!(tiny.stats().entries, 0);
    }

    #[test]
    fn no_ttl_means_entries_never_expire() {
        let f = label_for(3);
        let mut cache = LabelCache::new(4, 1 << 20);
        cache.insert(f.key, Arc::clone(&f.table), f.value.clone());
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(cache.get(&f.key, &f.table, &f.config).is_some());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn reinsert_replaces_without_double_counting_bytes() {
        let mut cache = LabelCache::new(4, 1 << 20);
        let f = label_for(3);
        cache.insert(f.key, Arc::clone(&f.table), f.value.clone());
        cache.insert(f.key, Arc::clone(&f.table), f.value.clone());
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().bytes, f.cost());
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bytes, 0);
    }
}
