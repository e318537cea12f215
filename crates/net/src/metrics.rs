//! Per-reactor counters and torn-read-safe aggregation.
//!
//! Each [`Reactor`](crate::Reactor) owns one [`ReactorMetrics`]; the server
//! keeps a clone of every reactor's `Arc` and rolls them up into `/stats`.
//! The counters are plain atomics — cheap enough for the accept path — and
//! the open-connection count is a real gauge, up on accept and down on
//! close.  An accept bumps the monotonic `accepted` total first and then the
//! gauge with `Release`; a snapshot loads the gauge with `Acquire` **before**
//! it loads `accepted`.  Every write to the gauge is a read-modify-write, so
//! each `Release` increment synchronizes with any later `Acquire` load of it:
//! every connection the loaded gauge counts is already in the `accepted`
//! value read next, and `active ≤ accepted` holds in every snapshot.
//! Deriving `active = accepted − closed` from two totals would not: between
//! the two loads a reactor can finish any number of accept/close cycles,
//! each of which lands in one total but not the other.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live counters for one reactor shard.  All methods are callable from any
/// thread.
#[derive(Debug, Default)]
pub struct ReactorMetrics {
    /// Connections accepted (monotonic).
    accepted: AtomicU64,
    /// Connections currently open (a gauge: up on accept, down on close).
    active: AtomicU64,
    /// Requests handed to [`Dispatch::dispatch`](crate::Dispatch::dispatch).
    dispatched: AtomicU64,
    /// Responses delivered back through the completion channel.
    completions: AtomicU64,
    /// Connections refused with a `503` at the connection cap.
    shed_connections: AtomicU64,
    /// Requests refused with a `503` by admission control.
    shed_requests: AtomicU64,
}

impl ReactorMetrics {
    /// A fresh, all-zero counter block.
    #[must_use]
    pub fn new() -> Self {
        ReactorMetrics::default()
    }

    /// Records an accepted connection.
    pub fn on_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        // Release pairs with the Acquire gauge load in `snapshot`: a
        // snapshot that counts this connection also sees it in `accepted`.
        self.active.fetch_add(1, Ordering::Release);
    }

    /// Records a closed connection.  Must follow the matching
    /// [`on_accepted`](ReactorMetrics::on_accepted) — the reactor only
    /// closes connections it tracked.
    pub fn on_closed(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a request handed to the application.
    pub fn on_dispatched(&self) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a response delivered through the completion channel.
    pub fn on_completion(&self) {
        self.completions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection refused at the connection cap.
    pub fn on_shed_connection(&self) {
        self.shed_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request refused by admission control.
    pub fn on_shed_request(&self) {
        self.shed_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent point-in-time view.  Reads the `active` gauge before
    /// `accepted` (see the module docs), so `active ≤ accepted` holds in
    /// every snapshot even while the reactor is mid-accept or mid-close.
    #[must_use]
    pub fn snapshot(&self) -> ReactorSnapshot {
        let active = self.active.load(Ordering::Acquire);
        let accepted = self.accepted.load(Ordering::Relaxed);
        ReactorSnapshot {
            accepted,
            active,
            dispatched: self.dispatched.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            shed_connections: self.shed_connections.load(Ordering::Relaxed),
            shed_requests: self.shed_requests.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time counters for one reactor (or a sum over several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorSnapshot {
    /// Connections accepted since start.
    pub accepted: u64,
    /// Connections currently open.
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

impl ReactorSnapshot {
    /// Component-wise sum — used when rolling shards up into totals.
    #[must_use]
    pub fn merged(self, other: ReactorSnapshot) -> ReactorSnapshot {
        ReactorSnapshot {
            accepted: self.accepted + other.accepted,
            active: self.active + other.active,
            dispatched: self.dispatched + other.dispatched,
            completions: self.completions + other.completions,
            shed_connections: self.shed_connections + other.shed_connections,
            shed_requests: self.shed_requests + other.shed_requests,
        }
    }
}

/// Snapshots every shard and sums them.  Each per-shard snapshot satisfies
/// `active ≤ accepted` on its own, so the sum does too — a scrape landing
/// mid-rollup sees each shard either before or after its latest accept,
/// never a torn `active > accepted` state.
#[must_use]
pub fn aggregate(shards: &[Arc<ReactorMetrics>]) -> (Vec<ReactorSnapshot>, ReactorSnapshot) {
    let snapshots: Vec<ReactorSnapshot> = shards.iter().map(|m| m.snapshot()).collect();
    let totals = snapshots
        .iter()
        .copied()
        .fold(ReactorSnapshot::default(), ReactorSnapshot::merged);
    (snapshots, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn snapshot_counts_what_was_recorded() {
        let metrics = ReactorMetrics::new();
        for _ in 0..5 {
            metrics.on_accepted();
        }
        metrics.on_closed();
        metrics.on_dispatched();
        metrics.on_dispatched();
        metrics.on_completion();
        metrics.on_shed_connection();
        metrics.on_shed_request();
        let snap = metrics.snapshot();
        assert_eq!(snap.accepted, 5);
        assert_eq!(snap.active, 4);
        assert_eq!(snap.dispatched, 2);
        assert_eq!(snap.completions, 1);
        assert_eq!(snap.shed_connections, 1);
        assert_eq!(snap.shed_requests, 1);
    }

    #[test]
    fn active_never_exceeds_accepted_under_concurrent_churn() {
        // Two shards churning accept/close as fast as they can while the
        // main thread scrapes: every aggregate must satisfy the invariant
        // the /stats endpoint advertises.
        let shards: Vec<Arc<ReactorMetrics>> =
            (0..2).map(|_| Arc::new(ReactorMetrics::new())).collect();
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = shards
            .iter()
            .map(|shard| {
                let shard = Arc::clone(shard);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        shard.on_accepted();
                        shard.on_dispatched();
                        shard.on_completion();
                        shard.on_closed();
                    }
                })
            })
            .collect();

        for _ in 0..10_000 {
            let (snapshots, totals) = aggregate(&shards);
            for snap in &snapshots {
                assert!(
                    snap.active <= snap.accepted,
                    "torn per-shard snapshot: {snap:?}"
                );
            }
            assert!(
                totals.active <= totals.accepted,
                "torn aggregate: {totals:?}"
            );
            // Each writer holds at most one connection open at a time.
            assert!(totals.active <= snapshots.len() as u64, "{totals:?}");
        }

        stop.store(true, Ordering::Relaxed);
        for writer in writers {
            writer.join().expect("writer");
        }
    }

    #[test]
    fn merged_sums_component_wise() {
        let a = ReactorSnapshot {
            accepted: 3,
            active: 1,
            dispatched: 5,
            completions: 4,
            shed_connections: 0,
            shed_requests: 2,
        };
        let b = ReactorSnapshot {
            accepted: 7,
            active: 2,
            dispatched: 6,
            completions: 6,
            shed_connections: 1,
            shed_requests: 0,
        };
        let sum = a.merged(b);
        assert_eq!(sum.accepted, 10);
        assert_eq!(sum.active, 3);
        assert_eq!(sum.dispatched, 11);
        assert_eq!(sum.completions, 10);
        assert_eq!(sum.shed_connections, 1);
        assert_eq!(sum.shed_requests, 2);
    }
}
