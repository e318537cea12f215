//! Kill-and-restart: a label service killed after its write-behind settles
//! leaves a warm disk tier behind, and the *restarted* service's first
//! request is served from it — zero context preparations, byte-identical
//! bytes — then promoted so the second request is a plain memory hit.
//!
//! The same restart through the router: a fresh `AppState` over the warm
//! directory answers `GET` label requests from disk while `/metrics` stays a
//! valid, monotone exposition that carries the `rf_disk_*` families exactly
//! when a disk tier is attached.
//!
//! The preparation counts are the restarted service's own.

use rf_bench::exposition::{check_counters_monotonic, parse_metrics, MetricsSnapshot};
use rf_core::{AnalysisPipeline, LabelConfig, LabelService};
use rf_datasets::CsDepartmentsConfig;
use rf_ranking::ScoringFunction;
use rf_server::{route, AppState, DatasetCatalog, Request, StatusCode};
use rf_store::DiskStore;
use rf_table::Table;
use std::sync::Arc;

/// A per-test scratch directory, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("rf-disk-restart-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scenario() -> (Arc<Table>, Arc<LabelConfig>) {
    let table = CsDepartmentsConfig::default().generate().unwrap();
    let scoring =
        ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)]).unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(10)
        .with_dataset_name("CS departments")
        .with_sensitive_attribute("DeptSizeBin", ["large", "small"])
        .with_diversity_attribute("DeptSizeBin")
        .with_diversity_attribute("Region");
    (Arc::new(table), Arc::new(config))
}

fn disk_service(dir: &std::path::Path) -> LabelService {
    LabelService::with_pipeline(AnalysisPipeline::sequential(), 8, 1 << 22)
        .with_disk_tier(Arc::new(DiskStore::open(dir, 1 << 22).unwrap()))
}

#[test]
fn a_restarted_service_serves_its_first_request_from_the_disk_tier() {
    let scratch = Scratch::new("service");
    let (table, config) = scenario();

    // Life 1: one cold request, write-behind settled, then "kill" — dropping
    // the service joins the writer thread, exactly what a clean process exit
    // does (a hard kill after the fsync+rename leaves the same bytes).
    let cold = {
        let service = disk_service(&scratch.0);
        let cold = service.label(&table, &config).unwrap();
        service.disk_store().unwrap().flush();
        let disk = service.stats().disk.unwrap();
        assert_eq!(disk.entries, 1, "the fill reached the disk tier");
        assert_eq!(disk.write_errors, 0);
        cold
    };

    // Life 2: a brand-new process image — empty memory tier, rescanned
    // directory.  The first request must be a disk hit with ZERO pipeline
    // preparations, byte-identical to the pre-kill label.
    let service = disk_service(&scratch.0);
    let prepared_before = service.stats().preparations;
    let first = service.label(&table, &config).unwrap();
    assert_eq!(
        service.stats().preparations,
        prepared_before,
        "the restarted service's first request re-prepared nothing"
    );
    assert_eq!(
        first.json, cold.json,
        "stored bytes are served verbatim across the restart"
    );
    assert_eq!(
        first.label, cold.label,
        "the label round-trips through JSON"
    );

    let stats = service.stats();
    let disk = stats.disk.expect("disk tier attached");
    assert_eq!(disk.disk_hits, 1, "the first request hit the disk tier");
    assert_eq!(disk.promotions, 1, "…and was promoted into memory");
    assert_eq!(stats.cache.misses, 1, "the memory tier itself missed");
    assert_eq!(stats.cache.hits, 0);

    // The promotion warmed the memory tier: the second request is a memory
    // hit and the disk tier is not consulted again.
    let prepared_before = service.stats().preparations;
    let second = service.label(&table, &config).unwrap();
    assert_eq!(service.stats().preparations, prepared_before);
    assert_eq!(second.json, cold.json);
    let stats = service.stats();
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.disk.unwrap().disk_hits, 1, "no second disk read");

    // Purging invalidates BOTH tiers: after `clear_cache` the same request
    // is a full cold miss again (counter-verified on both tiers).
    service.clear_cache();
    let stats = service.stats();
    assert_eq!(stats.cache.entries, 0);
    let disk = stats.disk.unwrap();
    assert_eq!(disk.entries, 0);
    assert_eq!(disk.bytes, 0);
    let prepared_before = service.stats().preparations;
    let regenerated = service.label(&table, &config).unwrap();
    assert!(
        service.stats().preparations > prepared_before,
        "after a purge the label really is recomputed"
    );
    assert_eq!(regenerated.json, cold.json);
    assert_eq!(
        service.stats().disk.unwrap().disk_hits,
        1,
        "the purged disk tier could not serve the regeneration"
    );
}

const LABEL_PATH: &str = "/datasets/cs-departments/label.json?k=5";

fn get(path: &str) -> Request {
    Request::read_from(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes()).expect("request")
}

fn demo_state(labels: LabelService) -> AppState {
    AppState::with_service(DatasetCatalog::with_demo_datasets(), labels)
}

/// Scrapes `/metrics`; every line must be valid Prometheus text.
fn scrape_metrics(state: &AppState) -> MetricsSnapshot {
    let response = route(state, &get("/metrics"));
    assert_eq!(response.status, StatusCode::Ok);
    parse_metrics(&response.body).expect("/metrics must be valid Prometheus text exposition")
}

fn has_disk_families(metrics: &MetricsSnapshot) -> bool {
    metrics
        .samples
        .keys()
        .any(|series| series.starts_with("rf_disk_"))
}

#[test]
fn a_restarted_app_state_serves_disk_hits_under_a_monotone_exposition() {
    let scratch = Scratch::new("app-state");

    // Life 1: serve the label once, make the write-behind fill durable,
    // then drop the state ("kill").
    let cold = {
        let state = demo_state(disk_service(&scratch.0));
        let cold = route(&state, &get(LABEL_PATH));
        assert_eq!(cold.status, StatusCode::Ok, "{}", cold.body);
        state.labels.disk_store().unwrap().flush();
        cold.body.to_string()
    };

    // Life 2: a fresh state over the same directory.  A burst of warm
    // requests between two scrapes: each scrape parses, no cumulative
    // series decreases, and the burst re-prepares nothing.
    let state = demo_state(disk_service(&scratch.0));
    let before = scrape_metrics(&state);
    for _ in 0..10 {
        let warm = route(&state, &get(LABEL_PATH));
        assert_eq!(warm.status, StatusCode::Ok);
        assert_eq!(
            warm.body.as_str(),
            cold,
            "served verbatim across the restart"
        );
    }
    let after = scrape_metrics(&state);
    check_counters_monotonic(&before, &after)
        .expect("cumulative /metrics series must never decrease across the restart burst");
    assert!(
        has_disk_families(&before) && has_disk_families(&after),
        "a disk tier exposes the rf_disk_* families"
    );

    let stats = route(&state, &get("/stats"));
    let stats: serde_json::Value = serde_json::from_str(&stats.body).expect("stats JSON");
    assert!(
        stats["disk"]["disk_hits"].as_u64().unwrap() >= 1,
        "the restarted state's first request is a disk hit: {stats}"
    );
    assert_eq!(
        stats["preparations"], 0,
        "a disk-served restart must not re-run the pipeline: {stats}"
    );

    // A memory-only state exposes no rf_disk_* series, even after serving
    // a label.
    let memory_only = demo_state(LabelService::with_pipeline(
        AnalysisPipeline::sequential(),
        8,
        1 << 22,
    ));
    assert_eq!(route(&memory_only, &get(LABEL_PATH)).status, StatusCode::Ok);
    assert!(
        !has_disk_families(&scrape_metrics(&memory_only)),
        "a memory-only state exposes no rf_disk_* series"
    );
}
