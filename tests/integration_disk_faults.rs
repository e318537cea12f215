//! Fault-injection integration for the two-tier label cache: under every
//! deterministic schedule of disk faults — reported errors (EIO/ENOSPC),
//! torn writes, bit flips, truncations, at any write or read site — the
//! service must keep serving labels **byte-identical** to a no-disk
//! reference, across a simulated process restart, and must never panic or
//! serve a corrupt body.
//!
//! A separate hand-written test poisons a stored entry directly on disk and
//! checks the quarantine-and-regenerate path end to end.

use proptest::prelude::*;
use rf_core::{AnalysisPipeline, LabelConfig, LabelService};
use rf_ranking::ScoringFunction;
use rf_store::{DiskStore, Fault, FaultKind, FaultPlan, FaultSite};
use rf_table::{Column, Table};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique scratch directory, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rf-disk-faults-{tag}-{}-{}",
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

/// Two distinct label requests over one small table (content addressing
/// keeps them as separate disk entries).
fn scenarios() -> (Arc<Table>, Vec<Arc<LabelConfig>>) {
    let n = 24usize;
    let table = Table::from_columns(vec![
        (
            "name",
            Column::from_strings((0..n).map(|i| format!("r{i}")).collect::<Vec<_>>()),
        ),
        (
            "score",
            Column::from_f64((0..n).map(|i| 50.0 - i as f64).collect()),
        ),
        (
            "other",
            Column::from_f64((0..n).map(|i| ((i * 7) % n) as f64).collect()),
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
    let base = |pairs: [(&str, f64); 2], k: usize| {
        Arc::new(
            LabelConfig::new(ScoringFunction::from_pairs(pairs).unwrap())
                .with_top_k(k)
                .with_sensitive_attribute("grp", ["x"])
                .with_diversity_attribute("grp")
                .with_monte_carlo_trials(16),
        )
    };
    (
        Arc::new(table),
        vec![
            base([("score", 1.0), ("other", 0.0)], 8),
            base([("score", 0.6), ("other", 0.4)], 12),
        ],
    )
}

fn disk_service(dir: &std::path::Path) -> LabelService {
    LabelService::with_pipeline(AnalysisPipeline::sequential(), 8, 1 << 20)
        .with_disk_tier(Arc::new(DiskStore::open(dir, 1 << 20).unwrap()))
}

/// Decodes one generated `(site, op, kind, param)` quadruple into a
/// scheduled fault.  The narrow `u8`/`u16` range strategies exist in the
/// vendored proptest stub precisely for these enum-ish selectors.
fn decode(site: u8, op: u8, kind: u8, param: u16) -> Fault {
    let site = FaultSite::ALL[site as usize % FaultSite::ALL.len()];
    let param = param as usize;
    let kind = match kind % 5 {
        0 => FaultKind::Eio,
        1 => FaultKind::Enospc,
        2 => FaultKind::Torn { keep: param },
        3 => FaultKind::BitFlip { offset: param },
        _ => FaultKind::Truncate { keep: param },
    };
    Fault {
        site,
        op: u64::from(op),
        kind,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property: for every generated fault schedule, labels
    /// served through the faulty two-tier service — before AND after a
    /// simulated restart over the damaged directory — are byte-identical to
    /// the no-disk reference.  The disk tier degrades (counters move, entries
    /// get quarantined) but it never lies and it never takes the service down.
    #[test]
    fn faulty_disks_never_change_served_labels(
        schedule in prop::collection::vec((0u8..4, 0u8..6, 0u8..5, 0u16..512), 1..6),
    ) {
        let (table, configs) = scenarios();
        let reference: Vec<String> = {
            let plain = LabelService::with_pipeline(AnalysisPipeline::sequential(), 8, 1 << 20);
            configs
                .iter()
                .map(|config| plain.label(&table, config).unwrap().json.as_ref().clone())
                .collect()
        };
        let faults: Vec<Fault> = schedule
            .iter()
            .map(|&(site, op, kind, param)| decode(site, op, kind, param))
            .collect();

        let scratch = Scratch::new("prop");
        let store = Arc::new(DiskStore::open(&scratch.0, 1 << 20).unwrap());
        store.set_fault_plan(FaultPlan::new(faults));

        // Round 1 — cold fills: write-site faults (temp write, fsync,
        // rename) fire in the write-behind thread.
        {
            let service =
                LabelService::with_pipeline(AnalysisPipeline::sequential(), 8, 1 << 20)
                    .with_disk_tier(Arc::clone(&store));
            for (config, expected) in configs.iter().zip(&reference) {
                let served = service.label(&table, config).unwrap();
                prop_assert_eq!(served.json.as_ref(), expected);
            }
            store.flush();
        }

        // Round 2 — a fresh memory tier over the SAME store: lookups now
        // read files back through the still-armed injector, so read-site
        // faults (EIO, bit flips, truncations in transit) fire here.
        {
            let service =
                LabelService::with_pipeline(AnalysisPipeline::sequential(), 8, 1 << 20)
                    .with_disk_tier(Arc::clone(&store));
            for (config, expected) in configs.iter().zip(&reference) {
                let served = service.label(&table, config).unwrap();
                prop_assert_eq!(served.json.as_ref(), expected);
            }
            store.flush();
            let stats = store.stats();
            prop_assert!(stats.bytes <= stats.max_bytes, "pruning keeps the budget");
        }
        drop(store); // joins the write-behind thread — a clean "crash point"

        // Round 3 — restart over the (possibly damaged) directory.  `open`
        // rescans and quarantines entries that fail validation; lookups
        // re-verify the survivors.  Unspent faults died with the old store,
        // like a reboot clearing a flaky controller.
        let service = disk_service(&scratch.0);
        for (config, expected) in configs.iter().zip(&reference) {
            let served = service.label(&table, config).unwrap();
            prop_assert_eq!(served.json.as_ref(), expected);
        }
        let stats = service.stats();
        let disk = stats.disk.unwrap();
        prop_assert_eq!(
            stats.cache.misses as usize, configs.len(),
            "each request missed the fresh memory tier exactly once"
        );
        prop_assert!(disk.bytes <= disk.max_bytes);
    }
}

/// Media rot after a clean shutdown: poison a stored entry's bytes directly,
/// reopen, and check it is quarantined — never served — and transparently
/// regenerated, after which a further restart serves the healthy replacement.
#[test]
fn poisoned_entries_are_quarantined_and_regenerated() {
    let (table, configs) = scenarios();
    let config = &configs[0];
    let scratch = Scratch::new("poison");

    let reference = {
        let service = disk_service(&scratch.0);
        let cold = service.label(&table, config).unwrap();
        service.disk_store().unwrap().flush();
        cold.json.as_ref().clone()
    };

    // Flip a byte in the middle of every stored entry (header checksums
    // cover the body, so any flip must be caught).
    let mut poisoned = 0usize;
    for entry in std::fs::read_dir(&scratch.0).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("label") {
            continue;
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        poisoned += 1;
    }
    assert_eq!(poisoned, 1, "exactly one entry was stored");

    // Reopen: the startup scan validates checksums and jails the bad entry.
    let service = disk_service(&scratch.0);
    let disk = service.stats().disk.unwrap();
    assert_eq!(
        disk.corrupt_dropped, 1,
        "the poisoned entry was quarantined"
    );
    assert_eq!(disk.entries, 0, "…and left out of the manifest");
    let jailed = std::fs::read_dir(scratch.0.join("quarantine"))
        .unwrap()
        .count();
    assert_eq!(jailed, 1, "the bad bytes are kept for forensics");

    // The request regenerates (a disk miss, not corrupt data served)…
    let regenerated = service.label(&table, config).unwrap();
    assert_eq!(regenerated.json.as_ref(), &reference);
    let disk = service.stats().disk.unwrap();
    assert_eq!(disk.disk_hits, 0);
    assert!(disk.disk_misses >= 1);
    service.disk_store().unwrap().flush();
    drop(service);

    // …and the healthy replacement survives another restart as a disk hit.
    let service = disk_service(&scratch.0);
    let warm = service.label(&table, config).unwrap();
    assert_eq!(warm.json.as_ref(), &reference);
    let disk = service.stats().disk.unwrap();
    assert_eq!(disk.disk_hits, 1);
    assert_eq!(disk.corrupt_dropped, 0, "a fresh store, a clean bill");
}
