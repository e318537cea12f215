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
//! table over-counts them; the error is on the safe side.)  The held
//! [`NutritionalLabel`] is not charged: it carries the top-k and the
//! widgets, O(k + widgets) whatever the table's row count, and its JSON —
//! which is charged — renders the same content.  Whichever bound
//! is exceeded first evicts least-recently-used entries.  A third, optional
//! bound is **time**: [`LabelCache::with_ttl`] expires entries a fixed
//! duration after insertion (checked on hit, counted in
//! [`CacheStats::expired`]) so a steadily-touched label cannot pin its table
//! in memory forever by dodging LRU eviction.
//!
//! The fingerprints are non-cryptographic (FNV-1a), so a hit additionally
//! verifies that the stored inputs *equal* the request's table and
//! configuration before serving: a fingerprint collision — accidental or
//! crafted through the public upload endpoint — degrades to a miss instead
//! of serving another key's label.  Catalog requests share their tables by
//! `Arc`, so that verification is a pointer comparison on the common path.

use crate::config::LabelConfig;
use crate::label::NutritionalLabel;
use rf_table::Table;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
/// The byte bound charges an entry its JSON length plus its retained table.
/// The label itself goes uncharged, which is sound because it is
/// O(k + widgets): it holds the item count and the top-k rows, never the
/// full O(n) ranking (that stays on the prepared
/// [`AnalysisContext`](crate::AnalysisContext)).
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
    /// Entries dropped on lookup because they outlived the TTL.
    #[serde(default)]
    pub expired: u64,
    /// The per-entry TTL in milliseconds, if one is configured.
    #[serde(default)]
    pub ttl_millis: Option<u64>,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently resident (rendered JSON plus retained table data).
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
    bytes: usize,
    last_used: u64,
    inserted_at: Instant,
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
    /// Optional per-entry time-to-live, checked on every hit: an entry older
    /// than this serves nothing and is dropped.  `None` disables expiry.
    ttl: Option<Duration>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    expired: u64,
}

impl LabelCache {
    /// A cache bounded to `capacity` entries and `max_bytes` resident bytes
    /// (both clamped to at least one entry / one byte), with no TTL.
    #[must_use]
    pub fn new(capacity: usize, max_bytes: usize) -> Self {
        Self::with_ttl(capacity, max_bytes, None)
    }

    /// A bounded cache whose entries additionally expire `ttl` after
    /// insertion: an expired entry is dropped when its key is looked up
    /// (counting a miss plus an expiry), and every insert sweeps *all*
    /// expired entries out, so entries nobody asks about again are reclaimed
    /// by the next write instead of lingering at full LRU weight.
    ///
    /// The cache stays correct without a TTL — keys are content-addressed,
    /// so stale *content* can never be served — but deployments tune one to
    /// bound how long a rarely-touched label pins its table in memory
    /// (recency alone never ages an entry that keeps getting hit exactly
    /// often enough to dodge LRU eviction).
    #[must_use]
    pub fn with_ttl(capacity: usize, max_bytes: usize, ttl: Option<Duration>) -> Self {
        LabelCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            max_bytes: max_bytes.max(1),
            ttl,
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            expired: 0,
        }
    }

    /// Looks up a label, counting a hit or miss and refreshing recency.
    ///
    /// A key match alone is not a hit: the stored table and configuration
    /// must equal the request's (`Arc` pointer equality short-circuits the
    /// table comparison for shared catalog datasets).  A mismatched match is
    /// a fingerprint collision and counts as a miss.  Under a TTL, an entry
    /// past its deadline is removed and counted (`expired`) before the miss.
    pub fn get(
        &mut self,
        key: &CacheKey,
        table: &Table,
        config: &LabelConfig,
    ) -> Option<CachedLabel> {
        self.tick += 1;
        if let (Some(ttl), Some(entry)) = (self.ttl, self.entries.get(key)) {
            if entry.inserted_at.elapsed() > ttl {
                if let Some(dead) = self.entries.remove(key) {
                    self.bytes -= dead.bytes;
                    self.expired += 1;
                }
            }
        }
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
    /// (it would immediately evict everything else for nothing).  Under a
    /// TTL, every insert first sweeps expired entries (whatever their key),
    /// so dead entries make room before live ones are evicted.
    pub fn insert(&mut self, key: CacheKey, table: Arc<Table>, value: CachedLabel) {
        self.insert_aged(key, table, value, Duration::ZERO);
    }

    /// [`LabelCache::insert`] for an entry that is already `age` old — the
    /// promotion path from the disk tier, whose entries carry their original
    /// fill timestamp.  Backdating `inserted_at` keeps the TTL clock honest:
    /// an entry that expired out of memory and was re-promoted from disk
    /// expires at its *original* deadline instead of winning a fresh TTL on
    /// every promotion.  If the age cannot be represented (it predates what
    /// `Instant` can go back to), the entry is served without being cached —
    /// never cached as younger than it is.
    pub fn insert_aged(
        &mut self,
        key: CacheKey,
        table: Arc<Table>,
        value: CachedLabel,
        age: Duration,
    ) {
        let Some(inserted_at) = Instant::now().checked_sub(age) else {
            return;
        };
        self.sweep_expired();
        let bytes = value.json.len() + table.approx_heap_bytes();
        if bytes > self.max_bytes {
            return;
        }
        self.tick += 1;
        if let Some(previous) = self.entries.insert(
            key,
            CacheEntry {
                value,
                table,
                bytes,
                last_used: self.tick,
                inserted_at,
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

    /// Removes every entry past the TTL, whatever its key.  No-op without a
    /// TTL.
    fn sweep_expired(&mut self) {
        let Some(ttl) = self.ttl else {
            return;
        };
        let dead: Vec<CacheKey> = self
            .entries
            .iter()
            .filter(|(_, entry)| entry.inserted_at.elapsed() > ttl)
            .map(|(key, _)| *key)
            .collect();
        for key in dead {
            if let Some(entry) = self.entries.remove(&key) {
                self.bytes -= entry.bytes;
                self.expired += 1;
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
            expired: self.expired,
            ttl_millis: self.ttl.map(|ttl| ttl.as_millis() as u64),
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
    use crate::pipeline::AnalysisPipeline;
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
    fn ttl_expires_entries_on_hit_and_counts_them() {
        let f = label_for(3);
        let mut cache = LabelCache::with_ttl(4, 1 << 20, Some(Duration::from_millis(40)));
        cache.insert(f.key, Arc::clone(&f.table), f.value.clone());
        // Young enough: a normal hit.
        assert!(cache.get(&f.key, &f.table, &f.config).is_some());
        std::thread::sleep(Duration::from_millis(60));
        // Past the TTL: dropped on lookup, counted as expired + miss.
        assert!(cache.get(&f.key, &f.table, &f.config).is_none());
        let stats = cache.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.ttl_millis, Some(40));
        // Re-inserting restarts the clock.
        cache.insert(f.key, Arc::clone(&f.table), f.value.clone());
        assert!(cache.get(&f.key, &f.table, &f.config).is_some());
    }

    #[test]
    fn aged_inserts_keep_the_original_ttl_clock() {
        let f = label_for(3);
        let mut cache = LabelCache::with_ttl(4, 1 << 20, Some(Duration::from_millis(50)));
        // Already 40ms old at insert (a disk promotion): it expires at the
        // original deadline, ~10ms from now — not 50ms from now.
        cache.insert_aged(
            f.key,
            Arc::clone(&f.table),
            f.value.clone(),
            Duration::from_millis(40),
        );
        assert!(cache.get(&f.key, &f.table, &f.config).is_some());
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            cache.get(&f.key, &f.table, &f.config).is_none(),
            "promotion must not extend the TTL"
        );
        assert_eq!(cache.stats().expired, 1);
        // An age already past the TTL never serves from memory at all.
        cache.insert_aged(
            f.key,
            Arc::clone(&f.table),
            f.value.clone(),
            Duration::from_millis(60),
        );
        assert!(cache.get(&f.key, &f.table, &f.config).is_none());
    }

    #[test]
    fn inserts_sweep_expired_entries_of_other_keys() {
        // An expired entry nobody looks up again must not pin its table in
        // memory: the next insert (any key) sweeps it out.
        let f3 = label_for(3);
        let f4 = label_for(4);
        let mut cache = LabelCache::with_ttl(8, 1 << 20, Some(Duration::from_millis(30)));
        cache.insert(f3.key, Arc::clone(&f3.table), f3.value.clone());
        std::thread::sleep(Duration::from_millis(50));
        cache.insert(f4.key, Arc::clone(&f4.table), f4.value.clone());
        let stats = cache.stats();
        assert_eq!(stats.expired, 1, "the stale k=3 entry was swept");
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, f4.cost());
        assert!(cache.get(&f4.key, &f4.table, &f4.config).is_some());
    }

    #[test]
    fn no_ttl_means_entries_never_expire() {
        let f = label_for(3);
        let mut cache = LabelCache::new(4, 1 << 20);
        cache.insert(f.key, Arc::clone(&f.table), f.value.clone());
        std::thread::sleep(Duration::from_millis(30));
        assert!(cache.get(&f.key, &f.table, &f.config).is_some());
        assert_eq!(cache.stats().expired, 0);
        assert_eq!(cache.stats().ttl_millis, None);
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
