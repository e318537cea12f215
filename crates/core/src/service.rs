//! The [`LabelService`]: the cached front door to the analysis pipeline.
//!
//! Callers that serve repeated label requests (the HTTP server, benchmarks)
//! should not talk to [`AnalysisPipeline`] directly — they go through this
//! service, which
//!
//! 1. fingerprints the request into a [`CacheKey`] (content-addressed: a
//!    re-uploaded byte-identical table hits the same entry),
//! 2. answers warm requests from the bounded LRU [`LabelCache`] with **zero**
//!    analysis work (no context preparation — asserted by the cache-parity
//!    tests via [`ServiceStats::preparations`]),
//! 3. on a miss, probes the disk tier when one is attached, then prepares —
//!    or, when the same table allocation's last cold label had a bit-equal
//!    recipe (scoring function and sensitive attributes), only validates the
//!    configuration and shares that label's ranking, protected groups,
//!    normalized matrix and Ingredients core — renders, serializes the JSON
//!    once, and caches both, and
//! 4. coalesces concurrent misses for the same key (**single-flight**): the
//!    first request leads the generation, later arrivals wait on its
//!    in-flight slot and share the result — a cold-key load spike performs
//!    one preparation instead of N.  Only observable now that the
//!    event-driven server actually holds many concurrent requests.
//!
//! So [`ServiceStats::preparations`] counts distinct `(table, recipe)`
//! preparations, not cold labels: relabelling a catalogue table at a new
//! `k`, `alpha` or Monte-Carlo seed prepares nothing.  The prepared state is
//! held by the cached labels rendered from it and charged to the cache's
//! byte bound, so it is evicted with them and
//! [`LabelService::clear_cache`] drops it together with the labels; the table
//! memo only points at each live table's last one.
//!
//! The service is `Sync`; one instance is shared across worker threads by
//! `Arc` (the server does exactly that), with the cache behind a mutex held
//! only for lookups and inserts — never while generating.
//!
//! [`LabelService::label`] is the service's one fill path.  One-shot
//! processes gain nothing from an in-process cache, so the CLI's `--ks`
//! sweeps call [`AnalysisPipeline::generate_sweep`] directly.

use crate::cache::{CacheKey, CacheStats, CachedLabel, LabelCache};
use crate::config::LabelConfig;
use crate::error::{LabelError, LabelResult};
use crate::pipeline::{AnalysisPipeline, PreparedAnalysis, ServiceMetrics};
use rf_table::Table;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};

/// Default maximum number of resident labels.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;
/// Default maximum resident bytes — each entry counts its rendered JSON
/// *plus* the approximate heap footprint of the table it retains for hit
/// verification (see [`LabelCache`]): 64 MiB.
pub const DEFAULT_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// A point-in-time view of the service: cache counters, the service's
/// preparation count (how many analysis contexts it prepared), and the
/// execution scheduler's observability counters.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServiceStats {
    /// Cache counters and occupancy.
    pub cache: CacheStats,
    /// Analysis-context preparations this service's pipeline ran so far.
    pub preparations: u64,
    /// Requests that joined another request's in-flight generation instead
    /// of repeating it (single-flight coalescing).
    pub coalesced: u64,
    /// The work-stealing scheduler this service's pipeline fans out on:
    /// worker count, queue depth, steals, executed and panicked tasks.
    pub scheduler: rf_runtime::SchedulerStats,
    /// This service's Monte-Carlo stability counters: estimator runs, trials
    /// completed, and runs truncated by their deadline budget.
    pub monte_carlo: crate::pipeline::MonteCarloRuntimeStats,
    /// The I/O plane's per-reactor counters and their rollup.  `None` when
    /// the service runs without a network front-end (library use, tests);
    /// the server fills it in at scrape time from the live reactors.
    #[serde(default)]
    pub network: Option<NetworkStats>,
    /// Admission-control visibility: the pending gauge against its cap, plus
    /// the controller's *predicted* (EWMA) and *measured* (stage-histogram
    /// mean) per-request service times side by side — the comparison the
    /// observability layer exists to make.  `None` without a network
    /// front-end; the server fills it in at scrape time.
    #[serde(default)]
    pub admission: Option<AdmissionStats>,
    /// Shape metadata of every table in the server's dataset catalogue, so
    /// operators can see sizes without downloading a table.  `None` without
    /// a catalogue (library use, tests); the server fills it in at scrape
    /// time.
    #[serde(default)]
    pub datasets: Option<Vec<DatasetTableStats>>,
    /// The on-disk tier's counters and occupancy
    /// (`disk_hits`/`disk_misses`/`promotions`/`write_errors`/
    /// `corrupt_dropped`).  `None` when the service runs memory-only — the
    /// default, and the degraded mode an unusable cache directory falls
    /// back to.
    #[serde(default)]
    pub disk: Option<rf_store::DiskStats>,
}

/// Shape of one catalogued dataset, as seen by `/stats`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DatasetTableStats {
    /// The dataset's catalogue slug (its URL path segment).
    pub slug: String,
    /// Number of rows.
    pub rows: u64,
    /// Number of columns.
    pub columns: u64,
}

/// Admission control as seen by `/stats`: occupancy plus the predicted vs
/// measured service-time estimates (microseconds; `measured` is `0` until
/// the prepare/render histograms have observations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AdmissionStats {
    /// The configured cap on concurrently pending requests.
    pub max_pending: u64,
    /// Requests currently admitted but not yet completed.
    pub pending: u64,
    /// The controller's EWMA service-time estimate (its own feedback loop).
    pub ewma_service_micros: u64,
    /// Mean prepare+render time from the measured stage histograms.
    pub measured_service_micros: u64,
}

/// The sharded I/O plane as seen by `/stats`: one counter block per reactor
/// and their sum.  Plain integers only — the snapshots are taken with
/// rf-net's torn-read-safe discipline, so `active ≤ accepted` holds in the
/// totals as well as per shard.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NetworkStats {
    /// One counter block per reactor shard, in shard order.
    pub reactors: Vec<ReactorCounters>,
    /// Component-wise sum over all shards.
    pub totals: ReactorCounters,
}

/// Counters for one reactor shard (or a sum over shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReactorCounters {
    /// Connections accepted since start.
    pub accepted: u64,
    /// Connections currently open (derived, never exceeds `accepted`).
    pub active: u64,
    /// Requests handed to the application.
    pub dispatched: u64,
    /// Responses delivered back through the completion channel.
    pub completions: u64,
    /// Connections refused with a `503` at the connection cap.
    pub shed_connections: u64,
    /// Requests refused with a `503` by admission control.
    pub shed_requests: u64,
}

/// Per-table state memoized by `Arc` identity, one entry per live table:
///
/// - the table's content fingerprint, so long-lived shared tables (the
///   server's catalog) are hashed once instead of once per request —
///   fingerprinting is linear in the table, and it sits on the warm hit
///   path;
/// - the [`PreparedAnalysis`] the table's last preparation produced, so a
///   cold label of the same table and recipe (a new `k`, `alpha` or
///   Monte-Carlo seed) renders from it instead of preparing again.
///
/// Entries hold `Weak` references only: an entry is only reused when the
/// weak pointer upgrades to the *same allocation* as the request's `Arc`, so
/// a recycled address can never serve a stale hash or analysis.  `Table` has
/// no interior mutability, so an alive shared allocation cannot have
/// changed.  Nothing in an entry holds the table or the analysis alive — the
/// label cache entries rendered from an analysis hold it, under the cache's
/// byte bound — and dead entries are pruned on every insert and on
/// [`LabelService::clear_cache`], so the memo's footprint follows the tables
/// that callers (and the label cache) keep.  Fresh allocations (per-request
/// uploads) simply miss and hash.
#[derive(Debug, Default)]
struct TableMemo {
    entries: HashMap<usize, TableEntry>,
}

#[derive(Debug)]
struct TableEntry {
    table: Weak<Table>,
    fingerprint: u64,
    /// What the table's last preparation produced, while a cached label (or
    /// a label in flight) still holds it.
    prepared: Weak<PreparedAnalysis>,
}

impl TableMemo {
    /// The entry of exactly this allocation, if it has one.
    fn entry_mut(&mut self, table: &Arc<Table>) -> Option<&mut TableEntry> {
        let entry = self.entries.get_mut(&(Arc::as_ptr(table) as usize))?;
        let alive = entry.table.upgrade()?;
        Arc::ptr_eq(&alive, table).then_some(entry)
    }

    fn fingerprint(&mut self, table: &Arc<Table>) -> u64 {
        if let Some(entry) = self.entry_mut(table) {
            return entry.fingerprint;
        }
        let fingerprint = table.fingerprint();
        self.prune();
        self.entries.insert(
            Arc::as_ptr(table) as usize,
            TableEntry {
                table: Arc::downgrade(table),
                fingerprint,
                prepared: Weak::new(),
            },
        );
        fingerprint
    }

    /// The table's prepared analysis, when it serves `config`'s recipe.
    fn prepared(
        &mut self,
        table: &Arc<Table>,
        config: &LabelConfig,
    ) -> Option<Arc<PreparedAnalysis>> {
        let prepared = self.entry_mut(table)?.prepared.upgrade()?;
        prepared.serves(config).then_some(prepared)
    }

    /// Points the table's entry at `prepared`, a fresh preparation of it.
    fn keep(&mut self, table: &Arc<Table>, prepared: &Arc<PreparedAnalysis>) {
        if let Some(entry) = self.entry_mut(table) {
            entry.prepared = Arc::downgrade(prepared);
        }
    }

    /// Drops the entries of tables nobody holds any more.
    fn prune(&mut self) {
        self.entries
            .retain(|_, entry| entry.table.strong_count() > 0);
    }
}

/// One in-flight generation that later arrivals for the same key wait on.
///
/// The slot retains the leader's exact inputs: the fingerprints are
/// non-cryptographic, so — exactly like a [`LabelCache`] hit — a waiter only
/// accepts the shared result after verifying its table and configuration
/// *equal* the leader's.  A colliding request falls back to generating for
/// itself instead of receiving another key's label.
#[derive(Debug)]
struct Inflight {
    table: Arc<Table>,
    config: Arc<LabelConfig>,
    result: Mutex<Option<LabelResult<CachedLabel>>>,
    done: Condvar,
}

impl Inflight {
    fn new(table: &Arc<Table>, config: &Arc<LabelConfig>) -> Self {
        Inflight {
            table: Arc::clone(table),
            config: Arc::clone(config),
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Publishes the generation's outcome and wakes every waiter.
    fn fill(&self, result: LabelResult<CachedLabel>) {
        let mut slot = self.result.lock().expect("in-flight slot lock");
        if slot.is_none() {
            *slot = Some(result);
        }
        drop(slot);
        self.done.notify_all();
    }

    /// Blocks until the leader publishes, then returns a clone.
    fn wait(&self) -> LabelResult<CachedLabel> {
        let mut slot = self.result.lock().expect("in-flight slot lock");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot).expect("in-flight slot lock");
        }
    }
}

/// Removes the in-flight slot (and publishes a failure if nothing was
/// published) even when the leader unwinds — waiters must never block on a
/// slot whose leader died.
struct InflightGuard<'a> {
    service: &'a LabelService,
    key: CacheKey,
    slot: Arc<Inflight>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        // No-op when the leader already published; the error is only seen
        // by waiters racing a leader that panicked.
        self.slot.fill(Err(LabelError::WidgetPanic {
            widget: "single-flight leader".to_string(),
        }));
        self.service
            .inflight
            .lock()
            .expect("in-flight map lock")
            .remove(&self.key);
    }
}

/// Content-addressed, cached label generation.
#[derive(Debug)]
pub struct LabelService {
    pipeline: AnalysisPipeline,
    cache: Mutex<LabelCache>,
    /// Each live table's fingerprint and a `Weak` of its last prepared
    /// analysis.
    tables: Mutex<TableMemo>,
    /// Per-key single-flight slots for generations currently running.
    inflight: Mutex<HashMap<CacheKey, Arc<Inflight>>>,
    /// How many requests joined an in-flight generation.
    coalesced: AtomicU64,
    /// The crash-safe on-disk tier under the memory cache, when configured:
    /// probed on the leader's cold path, written behind on fills, purged
    /// together with the memory tier.  `None` runs memory-only.
    disk: Option<Arc<rf_store::DiskStore>>,
}

impl LabelService {
    /// A service over an explicit pipeline and explicit cache bounds
    /// (`capacity` entries; `max_bytes` resident bytes, counting each
    /// entry's rendered JSON plus the table it retains).
    #[must_use]
    pub fn with_pipeline(pipeline: AnalysisPipeline, capacity: usize, max_bytes: usize) -> Self {
        LabelService {
            pipeline,
            cache: Mutex::new(LabelCache::new(capacity, max_bytes)),
            tables: Mutex::new(TableMemo::default()),
            inflight: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
            disk: None,
        }
    }

    /// Attaches the crash-safe on-disk tier: cold misses probe `store`
    /// before generating, fills are written behind, and cache invalidation
    /// purges it together with the memory tier.  A disk hit is promoted into
    /// the memory tier like any fill, under the memory tier's LRU bounds.
    #[must_use]
    pub fn with_disk_tier(mut self, store: Arc<rf_store::DiskStore>) -> Self {
        self.disk = Some(store);
        self
    }

    /// The attached disk tier, if any (tests and the server's startup log
    /// use this to see whether the two-tier mode is active).
    #[must_use]
    pub fn disk_store(&self) -> Option<&Arc<rf_store::DiskStore>> {
        self.disk.as_ref()
    }

    /// The counters and stage histograms this service records into — its
    /// pipeline's, so two services in one process never share series.  The
    /// server records its admission and queue-wait stages here too.
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        self.pipeline.metrics()
    }

    /// The scheduler this service's pipeline fans out on; `None` over the
    /// sequential reference.  The server runs its request jobs here too, so
    /// one pool bounds all label CPU.
    #[must_use]
    pub fn scheduler(&self) -> Option<&Arc<rf_runtime::Scheduler>> {
        self.pipeline.scheduler()
    }

    /// The table's content fingerprint, memoized by `Arc` identity.
    fn table_fingerprint(&self, table: &Arc<Table>) -> u64 {
        self.tables
            .lock()
            .expect("table memo lock")
            .fingerprint(table)
    }

    /// The label for `(table, config)` — served from the cache when warm,
    /// generated (and cached) when cold.
    ///
    /// A warm hit performs no analysis work at all: no validation, no
    /// ranking, no context preparation.  Cold and warm responses are
    /// byte-identical because generation is a pure function of the key.
    ///
    /// Cold misses are **single-flight**: when load spikes send N identical
    /// requests at once, the first becomes the leader and runs the pipeline;
    /// the other N−1 block on its in-flight slot and share the result —
    /// exactly one context preparation total (the [`ServiceStats::coalesced`]
    /// counter records the joins).  Leaders publish errors too, so a failed
    /// generation fails every coalesced request instead of retrying N times.
    ///
    /// # Errors
    /// Pipeline errors on a cold miss (validation, widgets, serialization).
    pub fn label(&self, table: &Arc<Table>, config: &Arc<LabelConfig>) -> LabelResult<CachedLabel> {
        // `cache_lookup` covers everything up to the hit/lead/join decision:
        // fingerprinting, the map+cache probe, and slot resolution.
        let lookup_started = std::time::Instant::now();
        let key = CacheKey {
            table: self.table_fingerprint(table),
            config: config.fingerprint(),
        };
        // Check the cache and join-or-lead *under the in-flight map lock*.
        // A leader only removes its map entry (guard drop) after inserting
        // into the cache, and that removal also takes this lock — so a
        // vacant map entry here proves the cache check just above it could
        // not have missed a completed generation.  Checking outside the
        // lock would let a request race a finishing leader and run a
        // duplicate generation (lock order is map → cache, nowhere
        // reversed).
        let (slot, leading) = {
            let mut inflight = self.inflight.lock().expect("in-flight map lock");
            if let Some(hit) = self
                .cache
                .lock()
                .expect("label cache lock")
                .get(&key, table, config)
            {
                self.metrics()
                    .record(rf_obs::Stage::CacheLookup, lookup_started.elapsed());
                rf_obs::with_active(|span| span.set_cache(rf_obs::CacheOutcome::Hit));
                return Ok(hit);
            }
            match inflight.entry(key) {
                std::collections::hash_map::Entry::Occupied(entry) => {
                    (Arc::clone(entry.get()), false)
                }
                std::collections::hash_map::Entry::Vacant(entry) => (
                    Arc::clone(entry.insert(Arc::new(Inflight::new(table, config)))),
                    true,
                ),
            }
        };
        self.metrics()
            .record(rf_obs::Stage::CacheLookup, lookup_started.elapsed());
        if !leading {
            // Verify the leader is generating *our* inputs before adopting
            // its result (fingerprint collisions degrade to own generation).
            if slot.config.as_ref() == config.as_ref()
                && (Arc::ptr_eq(&slot.table, table) || slot.table.as_ref() == table.as_ref())
            {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                rf_obs::with_active(|span| span.set_cache(rf_obs::CacheOutcome::Coalesced));
                return slot.wait();
            }
            rf_obs::with_active(|span| span.set_cache(rf_obs::CacheOutcome::Miss));
            return self.generate_uncoalesced(key, table, config);
        }
        rf_obs::with_active(|span| span.set_cache(rf_obs::CacheOutcome::Miss));
        let guard = InflightGuard {
            service: self,
            key,
            slot,
        };
        let result = self.generate_uncoalesced(key, table, config);
        // Publish to waiters before the guard's drop removes the map entry,
        // so a racing request either sees the cache entry, joins the filled
        // slot, or starts fresh — never waits on an abandoned slot.
        guard.slot.fill(result.clone());
        drop(guard);
        result
    }

    /// The plain cold-miss path: generate through the pipeline, render, and
    /// cache under the caller's already-computed `key`.  Used by leaders
    /// and by collision fallbacks.
    ///
    /// A label whose Monte-Carlo detail was **truncated by its deadline
    /// budget** is returned but *not* cached: how far a truncated run got is
    /// a function of transient load, not of the cache key, so caching it
    /// would let one busy moment permanently degrade every later (idle)
    /// request for that key.  Deadline-bearing requests therefore regenerate
    /// until one completes within budget — each regeneration still honours
    /// the budget, and concurrent arrivals still coalesce onto one
    /// generation.
    fn generate_uncoalesced(
        &self,
        key: CacheKey,
        table: &Arc<Table>,
        config: &Arc<LabelConfig>,
    ) -> LabelResult<CachedLabel> {
        if let Some(hit) = self.disk_lookup(key, table, config) {
            return Ok(hit);
        }
        // A cold label of a table and recipe whose analysis a cached label
        // still holds shares it; only `config`'s validation runs again.
        let reusable = self
            .tables
            .lock()
            .expect("table memo lock")
            .prepared(table, config);
        let fresh = reusable.is_none();
        let ctx = self
            .pipeline
            .prepare_reusing(Arc::clone(table), Arc::clone(config), reusable)?;
        if fresh {
            self.tables
                .lock()
                .expect("table memo lock")
                .keep(table, &ctx.prepared);
        }
        let label = self.pipeline.render(&ctx)?;
        let cached = CachedLabel {
            json: Arc::new(label.to_json()?),
            label: Arc::new(label),
        };
        if !Self::is_truncated(&cached) {
            // The entry keeps the analysis alive for later cold labels and
            // is charged for it.
            self.cache.lock().expect("label cache lock").insert_keeping(
                key,
                Arc::clone(table),
                cached.clone(),
                Some(Arc::clone(&ctx.prepared)),
            );
            if let Some(disk) = &self.disk {
                // Write-behind: the store's background writer frames,
                // fsyncs, and renames; the request never waits on disk.
                disk.store(
                    Self::store_key(key),
                    rf_store::unix_millis_now(),
                    Arc::clone(&cached.json),
                );
            }
        }
        Ok(cached)
    }

    fn store_key(key: CacheKey) -> rf_store::StoreKey {
        rf_store::StoreKey {
            table: key.table,
            config: key.config,
        }
    }

    /// Probes the disk tier on the leader's cold path (timed as the
    /// `cache_disk` stage).  A valid entry is deserialized back into a
    /// label, verified against the request's configuration (the
    /// fingerprints are non-cryptographic, exactly like a memory hit), and
    /// promoted into the memory tier.  The stored bytes are served verbatim
    /// — a disk hit is byte-identical to the warm hit it replaces.
    ///
    /// Every failure degrades to `None` (regenerate): absent, unreadable,
    /// corrupt, undeserializable, or colliding.  The stored table is not
    /// retained on disk, so — unlike a memory hit — a disk hit cannot
    /// compare the request's table bytes; the table fingerprint in the file
    /// name plus the embedded configuration check is the guarantee.
    fn disk_lookup(
        &self,
        key: CacheKey,
        table: &Arc<Table>,
        config: &Arc<LabelConfig>,
    ) -> Option<CachedLabel> {
        let disk = self.disk.as_ref()?;
        let started = std::time::Instant::now();
        let result = self.disk_lookup_inner(disk, key, table, config);
        self.metrics()
            .record(rf_obs::Stage::CacheDisk, started.elapsed());
        result
    }

    fn disk_lookup_inner(
        &self,
        disk: &Arc<rf_store::DiskStore>,
        key: CacheKey,
        table: &Arc<Table>,
        config: &Arc<LabelConfig>,
    ) -> Option<CachedLabel> {
        let body = disk.lookup(Self::store_key(key))?;
        // The framing checksum held, so this is what the writer stored —
        // but the writer could have been a colliding key's leader, and the
        // body must round-trip back into a label for the HTML/text renders.
        let Ok(json) = String::from_utf8(body) else {
            disk.discard_corrupt(Self::store_key(key));
            return None;
        };
        let Ok(label) = serde_json::from_str::<crate::label::NutritionalLabel>(&json) else {
            disk.discard_corrupt(Self::store_key(key));
            return None;
        };
        if label.config != **config {
            // A config-fingerprint collision: the entry is some other
            // request's valid label.  Leave it; generate for ourselves.
            return None;
        }
        let cached = CachedLabel {
            label: Arc::new(label),
            json: Arc::new(json),
        };
        self.cache
            .lock()
            .expect("label cache lock")
            .insert(key, Arc::clone(table), cached.clone());
        disk.note_promotion();
        Some(cached)
    }

    /// Whether the label's Monte-Carlo detail stopped early on its deadline
    /// budget (such labels are never cached — see
    /// [`generate_uncoalesced`](Self::generate_uncoalesced)).
    fn is_truncated(cached: &CachedLabel) -> bool {
        cached
            .label
            .stability
            .monte_carlo
            .as_ref()
            .is_some_and(|mc| mc.truncated)
    }

    /// Counters: cache hits/misses/evictions/occupancy, the
    /// service's preparation count, and the scheduler's observability
    /// counters.  Served by the HTTP `/stats` endpoint.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            cache: self.cache.lock().expect("label cache lock").stats(),
            preparations: self.pipeline.preparations(),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            scheduler: self.pipeline.scheduler_stats(),
            monte_carlo: self.metrics().monte_carlo(),
            network: None,
            admission: None,
            datasets: None,
            disk: self.disk.as_ref().map(|disk| disk.stats()),
        }
    }

    /// Drops every cached label and, with them, every prepared analysis that
    /// no generation in flight still holds (counters keep their history):
    /// the next label of any table is computed from scratch.
    ///
    /// This is the invalidation hook for mutable-catalog deployments: the
    /// server calls it whenever a dataset is uploaded into its catalogue, so
    /// a re-uploaded dataset name can never serve a label rendered from the
    /// old bytes through a stale catalogue path.  Once the cache lets go of
    /// a replaced table, the memo drops its entry too.  In-flight
    /// generations are unaffected — they publish to their own waiters and
    /// (re-)insert their result, which is still correct for the exact bytes
    /// they were keyed on (the cache is content-addressed, the memo keyed by
    /// allocation).
    pub fn clear_cache(&self) {
        self.cache.lock().expect("label cache lock").clear();
        self.tables.lock().expect("table memo lock").prune();
        // The disk tier is purged too — and `DiskStore::clear` first drains
        // its write-behind queue, so an upload can never race a queued fill
        // into surviving the invalidation.
        if let Some(disk) = &self.disk {
            disk.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_ranking::ScoringFunction;
    use rf_table::Column;

    /// A service over its own 2-worker pool with the default cache bounds.
    fn pooled_service() -> LabelService {
        LabelService::with_pipeline(
            AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(2))),
            DEFAULT_CACHE_CAPACITY,
            DEFAULT_CACHE_BYTES,
        )
    }

    fn scenario() -> (Arc<Table>, Arc<LabelConfig>) {
        let n = 30usize;
        let table = Table::from_columns(vec![
            (
                "name",
                Column::from_strings((0..n).map(|i| format!("r{i}")).collect::<Vec<_>>()),
            ),
            (
                "score",
                Column::from_f64((0..n).map(|i| 60.0 - i as f64).collect()),
            ),
            (
                "grp",
                Column::from_strings(
                    (0..n)
                        .map(|i| if i % 3 == 0 { "x" } else { "y" })
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
        .unwrap();
        let scoring = ScoringFunction::from_pairs([("score", 1.0)]).unwrap();
        let config = LabelConfig::new(scoring)
            .with_top_k(8)
            .with_sensitive_attribute("grp", ["x"])
            .with_diversity_attribute("grp");
        (Arc::new(table), Arc::new(config))
    }

    #[test]
    fn warm_hits_skip_preparation_and_match_cold_generation() {
        let (table, config) = scenario();
        let service = pooled_service();
        let cold = service.label(&table, &config).unwrap();
        let warm = service.label(&table, &config).unwrap();
        assert_eq!(cold.json, warm.json);
        assert_eq!(cold.label, warm.label);
        let stats = service.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.preparations, 1, "the warm hit prepared nothing");
    }

    #[test]
    fn prepared_state_dies_with_its_table() {
        let (table, config) = scenario();
        let service = pooled_service();
        // A catalogue as the server keeps one: the only long-lived `Arc`.
        let mut catalogue = HashMap::from([("data", table)]);
        let first = service.label(&catalogue["data"], &config).unwrap();
        let old_table = Arc::downgrade(&catalogue["data"]);
        let old_prepared = {
            let tables = service.tables.lock().unwrap();
            let entry = tables.entries.values().next().expect("one memo entry");
            entry.prepared.clone()
        };
        assert!(old_prepared.upgrade().is_some(), "prepared state kept");
        // Upload new bytes under the same name: replace the catalogue entry,
        // then invalidate, as the server does.
        let mut uploaded = catalogue["data"].select(&["name", "grp"]).unwrap();
        let n = uploaded.num_rows();
        uploaded
            .add_column(
                "score",
                Column::from_f64((0..n).map(|i| (i * 7 % n) as f64).collect()),
            )
            .unwrap();
        catalogue.insert("data", Arc::new(uploaded));
        service.clear_cache();
        assert!(
            old_table.upgrade().is_none(),
            "nothing in the service keeps the replaced table alive"
        );
        assert!(
            old_prepared.upgrade().is_none(),
            "nor the analysis prepared from it"
        );
        assert!(service.tables.lock().unwrap().entries.is_empty());
        // The re-uploaded table labels from its new bytes.
        let relabelled = service.label(&catalogue["data"], &config).unwrap();
        let expected = AnalysisPipeline::sequential()
            .generate(Arc::clone(&catalogue["data"]), Arc::clone(&config))
            .unwrap();
        assert_eq!(*relabelled.json, expected.to_json().unwrap());
        assert_ne!(relabelled.json, first.json);
        assert_eq!(service.stats().preparations, 2);
        assert_eq!(service.tables.lock().unwrap().entries.len(), 1);
    }

    /// A fresh allocation of new bytes, as `POST /labels` makes one per
    /// request: `rows` rows whose scores `seed` shuffles.
    fn upload(seed: usize, rows: usize) -> Arc<Table> {
        let table = Table::from_columns(vec![
            (
                "name",
                Column::from_strings((0..rows).map(|i| format!("r{i}")).collect::<Vec<_>>()),
            ),
            (
                "score",
                Column::from_f64(
                    (0..rows)
                        .map(|i| ((i * 7919 + seed) % rows) as f64)
                        .collect(),
                ),
            ),
            (
                "grp",
                Column::from_strings(
                    (0..rows)
                        .map(|i| if i % 3 == 0 { "x" } else { "y" })
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
        .unwrap();
        Arc::new(table)
    }

    #[test]
    fn uploads_and_their_analyses_stay_within_the_byte_bound() {
        let (_, config) = scenario();
        let rows = 2_000;
        // One upload's full cost: its JSON, its table and its analysis.
        let probe = pooled_service();
        probe.label(&upload(0, rows), &config).unwrap();
        let cost = probe.stats().cache.bytes;
        let max_bytes = 3 * cost + cost / 2;
        let service = LabelService::with_pipeline(
            AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(2))),
            DEFAULT_CACHE_CAPACITY,
            max_bytes,
        );
        let mut uploaded = Vec::new();
        for seed in 1..=10 {
            let table = upload(seed, rows);
            service.label(&table, &config).unwrap();
            let prepared = {
                let tables = service.tables.lock().unwrap();
                tables.entries[&(Arc::as_ptr(&table) as usize)]
                    .prepared
                    .clone()
            };
            uploaded.push((Arc::downgrade(&table), prepared));
            // The request ends: only the service can still hold the upload.
            drop(table);
            let stats = service.stats();
            assert!(stats.cache.bytes <= max_bytes);
            let mut retained = 0;
            let mut analyses = 0;
            for (table, prepared) in &uploaded {
                if let Some(table) = table.upgrade() {
                    retained += table.approx_heap_bytes();
                }
                if let Some(prepared) = prepared.upgrade() {
                    retained += prepared.approx_heap_bytes();
                    analyses += 1;
                }
            }
            assert!(
                retained <= stats.cache.bytes,
                "upload {seed}: {retained} B of tables and analyses retained, \
                 {} B charged",
                stats.cache.bytes
            );
            assert!(analyses >= 1, "the latest upload keeps its analysis");
            assert!(analyses <= stats.cache.entries);
        }
        assert!(service.stats().cache.evictions > 0);
    }

    #[test]
    fn content_addressing_survives_table_rebuilds() {
        let (table, config) = scenario();
        let service = pooled_service();
        service.label(&table, &config).unwrap();
        // A fresh Arc around an identical table is still a hit.
        let rebuilt = Arc::new((*table).clone());
        service.label(&rebuilt, &config).unwrap();
        assert_eq!(service.stats().cache.hits, 1);
        assert_eq!(service.stats().cache.misses, 1);
    }

    #[test]
    fn concurrent_cold_misses_coalesce_onto_one_generation() {
        let (table, config) = scenario();
        let service = Arc::new(pooled_service());
        let threads = 8usize;
        let barrier = Arc::new(std::sync::Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let service = Arc::clone(&service);
                let table = Arc::clone(&table);
                let config = Arc::clone(&config);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    service.label(&table, &config).unwrap()
                })
            })
            .collect();
        let labels: Vec<CachedLabel> = handles
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect();
        for label in &labels {
            assert_eq!(label.json, labels[0].json, "all requests share one result");
        }
        let stats = service.stats();
        // Every thread either hit the cache (arrived after the leader
        // finished), led, or coalesced — the books must balance.
        assert_eq!(
            stats.cache.hits + stats.cache.misses,
            threads as u64,
            "each thread checks the cache exactly once"
        );
        // The leader is the only thread that generated; with single-flight,
        // there is exactly one entry and no duplicated work visible in it.
        assert_eq!(stats.cache.entries, 1);
        assert_eq!(
            stats.coalesced,
            stats.cache.misses - 1,
            "every miss but the leader joined the in-flight slot"
        );
        // The in-flight map is drained once the burst resolves.
        assert!(service.inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn coalesced_errors_fail_every_waiter_without_retrying() {
        let (table, config) = scenario();
        let bad = Arc::new(LabelConfig::clone(&config).with_top_k(500));
        let service = Arc::new(pooled_service());
        let threads = 4usize;
        let barrier = Arc::new(std::sync::Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let service = Arc::clone(&service);
                let table = Arc::clone(&table);
                let bad = Arc::clone(&bad);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    service.label(&table, &bad)
                })
            })
            .collect();
        for handle in handles {
            assert!(handle.join().unwrap().is_err());
        }
        assert_eq!(service.stats().cache.entries, 0);
        assert!(service.inflight.lock().unwrap().is_empty());
        // The service still generates fine afterwards.
        assert!(service.label(&table, &config).is_ok());
    }

    #[test]
    fn deadline_truncated_labels_are_served_but_never_cached() {
        // How far a truncated run gets depends on transient load, not on the
        // cache key — caching one busy moment's degraded label would serve
        // it forever.  Untruncated labels under the same deadline cache as
        // usual.
        let (table, config) = scenario();
        let service = pooled_service();
        let truncating = Arc::new(
            LabelConfig::clone(&config)
                .with_monte_carlo_trials(256)
                .with_monte_carlo_deadline_millis(Some(0)),
        );
        let first = service.label(&table, &truncating).unwrap();
        assert!(
            first
                .label
                .stability
                .monte_carlo
                .as_ref()
                .unwrap()
                .truncated
        );
        let second = service.label(&table, &truncating).unwrap();
        // Deterministic wave truncation: regenerations agree byte for byte…
        assert_eq!(first.json, second.json);
        // …but nothing was cached, and both requests were misses.
        let stats = service.stats();
        assert_eq!(stats.cache.entries, 0);
        assert_eq!(stats.cache.hits, 0);
        assert_eq!(stats.cache.misses, 2);
        // A budget generous enough to finish caches normally.
        let generous =
            Arc::new(LabelConfig::clone(&config).with_monte_carlo_deadline_millis(Some(60_000)));
        let cached = service.label(&table, &generous).unwrap();
        assert!(
            !cached
                .label
                .stability
                .monte_carlo
                .as_ref()
                .unwrap()
                .truncated
        );
        assert_eq!(service.stats().cache.entries, 1);
        service.label(&table, &generous).unwrap();
        assert_eq!(service.stats().cache.hits, 1);
    }

    /// A unique scratch directory for disk-tier tests, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "rf-service-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn disk_service(dir: &std::path::Path) -> LabelService {
        LabelService::with_pipeline(AnalysisPipeline::sequential(), 8, 1 << 20)
            .with_disk_tier(Arc::new(rf_store::DiskStore::open(dir, 1 << 20).unwrap()))
    }

    #[test]
    fn disk_tier_serves_a_fresh_service_byte_identically_with_zero_preparations() {
        let scratch = Scratch::new("restart");
        let (table, config) = scenario();
        let cold = {
            let service = disk_service(&scratch.0);
            let cold = service.label(&table, &config).unwrap();
            service.disk_store().unwrap().flush();
            cold
        };
        // "Restart": a brand-new service (empty memory tier) over the same
        // directory.  Its first request is a disk hit — no pipeline work.
        let service = disk_service(&scratch.0);
        let warm = service.label(&table, &config).unwrap();
        assert_eq!(
            service.stats().preparations,
            0,
            "a disk hit performs zero preparations"
        );
        assert_eq!(warm.json, cold.json, "stored bytes served verbatim");
        assert_eq!(warm.label, cold.label, "label round-trips through JSON");
        let stats = service.stats();
        let disk = stats.disk.expect("disk tier attached");
        assert_eq!(disk.disk_hits, 1);
        assert_eq!(disk.promotions, 1);
        assert_eq!(stats.cache.misses, 1, "the memory tier missed");
        // The promotion warmed the memory tier: next request is a warm hit.
        service.label(&table, &config).unwrap();
        assert_eq!(service.stats().cache.hits, 1);
        assert_eq!(service.stats().disk.unwrap().disk_hits, 1);
    }

    #[test]
    fn clear_cache_purges_the_disk_tier_too() {
        let scratch = Scratch::new("clear");
        let (table, config) = scenario();
        let service = disk_service(&scratch.0);
        service.label(&table, &config).unwrap();
        service.disk_store().unwrap().flush();
        assert_eq!(service.stats().disk.unwrap().entries, 1);
        service.clear_cache();
        let stats = service.stats();
        assert_eq!(stats.cache.entries, 0);
        assert_eq!(stats.disk.unwrap().entries, 0);
        // The next request is a full cold generation, not a disk hit.
        service.label(&table, &config).unwrap();
        let stats = service.stats();
        assert_eq!(stats.disk.unwrap().disk_hits, 0);
        assert_eq!(stats.cache.misses, 2);
    }

    #[test]
    fn stats_include_the_scheduler_counters() {
        let (table, config) = scenario();
        let pool = Arc::new(rf_runtime::ThreadPool::new(2));
        let service =
            LabelService::with_pipeline(AnalysisPipeline::with_pool(Arc::clone(&pool)), 8, 1 << 20);
        service.label(&table, &config).unwrap();
        let stats = service.stats();
        assert_eq!(stats.scheduler.workers, 2);
        assert!(
            stats.scheduler.executed_jobs > 0,
            "generation ran tasks on the dedicated scheduler"
        );
        assert_eq!(stats.scheduler.panicked_jobs, 0);
    }

    #[test]
    fn two_services_in_one_process_keep_separate_metrics() {
        let (table, config) = scenario();
        let config = Arc::new(LabelConfig::clone(&config).with_monte_carlo_trials(16));
        let a = pooled_service();
        let b = pooled_service();
        a.label(&table, &config).unwrap();
        let prepare_count = |service: &LabelService| {
            let stages = service.metrics().stages().snapshot();
            stages.get(rf_obs::Stage::Prepare).count()
        };
        let a_stats = a.stats();
        assert_eq!(a_stats.preparations, 1);
        assert_eq!(prepare_count(&a), 1);
        assert_eq!(a_stats.monte_carlo.runs, 1);
        assert_eq!(a_stats.monte_carlo.trials_completed, 16);
        let b_stats = b.stats();
        assert_eq!(b_stats.preparations, 0);
        assert_eq!(prepare_count(&b), 0, "B never saw A's preparation");
        assert_eq!(b_stats.monte_carlo.runs, 0, "B never saw A's trials");
        assert_eq!(b_stats.monte_carlo.trials_completed, 0);
    }

    #[test]
    fn errors_are_not_cached() {
        let (table, config) = scenario();
        let service = pooled_service();
        let bad = Arc::new((*config).clone().with_top_k(500));
        assert!(service.label(&table, &bad).is_err());
        assert_eq!(service.stats().cache.entries, 0);
        // The valid config still generates.
        assert!(service.label(&table, &config).is_ok());
    }
}
