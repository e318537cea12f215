//! Zero-dependency observability primitives for the Ranking Facts stack.
//!
//! The paper's thesis — opaque rankings deserve nutritional labels — applies
//! to the server itself: a request should carry a label of its own lifecycle.
//! This crate provides the three pieces every layer shares:
//!
//! * [`LatencyHistogram`] — lock-free log2-bucketed latency histograms
//!   (`[AtomicU64; 64]`, mergeable snapshots, p50/p90/p99/max derivation),
//!   grouped per [`Stage`] in a [`StageHistograms`] set.
//! * [`RequestSpan`] / [`RequestTrace`] — per-request span vectors with a
//!   `shard:seq` [`RequestId`], finished into immutable traces; slow traces
//!   land in a bounded [`TraceRing`].
//! * A thread-local *active span* ([`activate`] / [`with_active`]) so code
//!   deep in the pipeline can attribute stage timings to the current request
//!   without plumbing request state through every call.
//!
//! The crate is a leaf: no dependencies, no `unsafe`, nothing but `std`
//! atomics — so `rf-net`, `rf-runtime`, `rf-core`, and `rf-server` can all
//! depend on it without coupling to each other.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod trace;

pub use histogram::{HistogramSnapshot, LatencyHistogram, BUCKET_COUNT};
pub use trace::{
    activate, current, with_active, CacheOutcome, RequestId, RequestSpan, RequestTrace, ShedReason,
    SpanGuard, TraceRing,
};

use std::time::Duration;

/// Number of instrumented request lifecycle stages.
pub const STAGE_COUNT: usize = 9;

/// The instrumented stages of a request's lifecycle, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// First request byte → complete parsed request (reactor thread).
    Parse,
    /// Admission-control decision (pending gauge + deadline predicate).
    Admission,
    /// Dispatch enqueue → first poll on a worker (true queue wait).
    QueueWait,
    /// Label-cache probe, including single-flight join/lead resolution.
    CacheLookup,
    /// On-disk tier probe on a memory miss: read, framing validation, and
    /// (on a hit) promotion into the in-memory cache.
    CacheDisk,
    /// `AnalysisPipeline::prepare` (ranking, groups, normalized scoring).
    Prepare,
    /// `AnalysisPipeline::render` (widget fan-out, label assembly).
    Render,
    /// Monte-Carlo stability trials inside render (batched estimator).
    McTrials,
    /// Response enqueue → socket flush (reactor thread).
    Write,
}

impl Stage {
    /// All stages in pipeline order (index order).
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Parse,
        Stage::Admission,
        Stage::QueueWait,
        Stage::CacheLookup,
        Stage::CacheDisk,
        Stage::Prepare,
        Stage::Render,
        Stage::McTrials,
        Stage::Write,
    ];

    /// The stage's fixed array index.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Admission => 1,
            Stage::QueueWait => 2,
            Stage::CacheLookup => 3,
            Stage::CacheDisk => 4,
            Stage::Prepare => 5,
            Stage::Render => 6,
            Stage::McTrials => 7,
            Stage::Write => 8,
        }
    }

    /// Stable snake_case name used as the `stage` label in `/metrics` and as
    /// keys in `/debug/slow` traces.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::CacheLookup => "cache_lookup",
            Stage::CacheDisk => "cache_disk",
            Stage::Prepare => "prepare",
            Stage::Render => "render",
            Stage::McTrials => "mc_trials",
            Stage::Write => "write",
        }
    }
}

/// One [`LatencyHistogram`] per [`Stage`] — the unit the reactor shards and
/// the shared service side each own.
#[derive(Debug)]
pub struct StageHistograms {
    stages: [LatencyHistogram; STAGE_COUNT],
}

impl Default for StageHistograms {
    fn default() -> Self {
        Self::new()
    }
}

impl StageHistograms {
    /// Creates an empty histogram set.
    #[must_use]
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: LatencyHistogram = LatencyHistogram::new();
        Self {
            stages: [EMPTY; STAGE_COUNT],
        }
    }

    /// Records one observation for `stage`.
    pub fn record(&self, stage: Stage, elapsed: Duration) {
        self.stages[stage.index()].record(elapsed);
    }

    /// Records one observation for `stage`, expressed in microseconds.
    pub fn record_micros(&self, stage: Stage, micros: u64) {
        self.stages[stage.index()].record_micros(micros);
    }

    /// The underlying histogram for `stage`.
    #[must_use]
    pub fn histogram(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage.index()]
    }

    /// Point-in-time copies of every stage's counters.
    #[must_use]
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            stages: Stage::ALL.map(|stage| self.stages[stage.index()].snapshot()),
        }
    }
}

/// An owned snapshot of a full [`StageHistograms`] set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Per-stage snapshots, indexed by [`Stage::index`].
    pub stages: [HistogramSnapshot; STAGE_COUNT],
}

impl Default for StageSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl StageSnapshot {
    /// A snapshot with zero observations in every stage.
    #[must_use]
    pub const fn empty() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: HistogramSnapshot = HistogramSnapshot::empty();
        Self {
            stages: [EMPTY; STAGE_COUNT],
        }
    }

    /// The snapshot for `stage`.
    #[must_use]
    pub fn get(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage.index()]
    }

    /// Stage-wise merge (see [`HistogramSnapshot::merge`]).
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            stages: Stage::ALL
                .map(|stage| self.stages[stage.index()].merge(&other.stages[stage.index()])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_match_all_order() {
        for (position, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), position);
        }
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGE_COUNT);
    }

    #[test]
    fn stage_histograms_record_per_stage() {
        let stages = StageHistograms::new();
        stages.record(Stage::Prepare, Duration::from_micros(100));
        stages.record(Stage::Prepare, Duration::from_micros(200));
        stages.record(Stage::Write, Duration::from_micros(5));
        let snap = stages.snapshot();
        assert_eq!(snap.get(Stage::Prepare).count(), 2);
        assert_eq!(snap.get(Stage::Write).count(), 1);
        assert_eq!(snap.get(Stage::Parse).count(), 0);
    }

    #[test]
    fn stage_snapshot_merge_is_stagewise() {
        let a = StageHistograms::new();
        let b = StageHistograms::new();
        a.record(Stage::Render, Duration::from_micros(10));
        b.record(Stage::Render, Duration::from_micros(20));
        b.record(Stage::Parse, Duration::from_micros(1));
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.get(Stage::Render).count(), 2);
        assert_eq!(merged.get(Stage::Parse).count(), 1);
    }
}
