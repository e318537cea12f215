//! The observability plane end to end, and its zero-interference contract.
//!
//! PR 8's acceptance hinges on two things holding *simultaneously*: the
//! server exposes request IDs, stage histograms, and slow-request traces
//! over the wire, **and** turning all of it up to maximum (slow threshold
//! zero — every request builds and publishes a full span trace) changes no
//! label byte.  These tests drive a real TCP server in both configurations
//! and compare served bodies byte for byte, then validate the `/metrics`
//! exposition with the same checker `perfbench` runs on every scrape.

use rf_bench::exposition::{check_counters_monotonic, check_slow_debug, parse_metrics};
use rf_server::{DatasetCatalog, Server, ServerConfig};
use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const LABEL_PATH: &str = "/datasets/cs-departments/label.json?k=5";

/// Starts a demo-catalog server; `trace_all` drops the slow threshold to
/// zero so every request is traced (maximum instrumentation pressure).
fn start_server(trace_all: bool) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let config = ServerConfig {
        bind_address: "127.0.0.1:0".to_string(),
        workers: 2,
        slow_threshold_ms: if trace_all {
            0
        } else {
            ServerConfig::default().slow_threshold_ms
        },
        trace_ring_entries: 32,
        ..ServerConfig::default()
    };
    let server = Server::bind(DatasetCatalog::with_demo_datasets(), &config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, shutdown, handle)
}

fn stop(shutdown: &AtomicBool, handle: std::thread::JoinHandle<()>) {
    shutdown.store(true, Ordering::Relaxed);
    handle.join().expect("server thread");
}

/// One GET over a fresh connection; returns `(head, body)`.
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let request = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send request");
    let response = rf_net::read_one_response(&mut stream).expect("read response");
    let body = response.body_text();
    (response.head, body)
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

#[test]
fn full_tracing_changes_no_label_byte_and_ids_are_unique() {
    let (loud_addr, loud_shutdown, loud_handle) = start_server(true);
    let (quiet_addr, quiet_shutdown, quiet_handle) = start_server(false);

    // Cold miss, warm hit, and a default-threshold server must all serve
    // the same bytes: instrumentation is invisible in the label contract.
    let (cold_head, cold_body) = get(loud_addr, LABEL_PATH);
    let (warm_head, warm_body) = get(loud_addr, LABEL_PATH);
    let (_, quiet_body) = get(quiet_addr, LABEL_PATH);
    assert!(cold_head.starts_with("HTTP/1.1 200"), "head: {cold_head}");
    assert_eq!(cold_body, warm_body, "cache hit must reuse the cold bytes");
    assert_eq!(cold_body, quiet_body, "tracing must not change label bytes");

    // Every response carries a `shard:seq` request ID, unique per request.
    let mut seen = HashSet::new();
    for head in [&cold_head, &warm_head]
        .into_iter()
        .cloned()
        .chain((0..6).map(|_| get(loud_addr, LABEL_PATH).0))
    {
        let id = header(&head, "X-Request-Id").expect("X-Request-Id header");
        let (shard, seq) = id.split_once(':').expect("shard:seq format");
        shard.parse::<u32>().expect("numeric shard");
        seq.parse::<u64>().expect("numeric sequence");
        assert!(seen.insert(id.to_string()), "duplicate request id {id}");
    }

    // With the threshold at zero every request above landed in the trace
    // ring; the debug endpoint must serve them in the checked shape.
    let (slow_head, slow_body) = get(loud_addr, "/debug/slow");
    assert!(slow_head.starts_with("HTTP/1.1 200"), "head: {slow_head}");
    let capacity = check_slow_debug(&slow_body).expect("well-formed /debug/slow");
    assert_eq!(capacity, 32, "configured --trace-ring-entries");
    let parsed: serde_json::Value = serde_json::from_str(&slow_body).expect("json");
    let traces = parsed["traces"].as_array().expect("traces array");
    assert!(!traces.is_empty(), "threshold 0 must trace every request");

    stop(&loud_shutdown, loud_handle);
    stop(&quiet_shutdown, quiet_handle);
}

#[test]
fn metrics_exposition_is_valid_complete_and_monotone_over_tcp() {
    let (addr, shutdown, handle) = start_server(true);

    let (_, _) = get(addr, LABEL_PATH);
    let (first_head, first_body) = get(addr, "/metrics");
    assert!(first_head.starts_with("HTTP/1.1 200"), "head: {first_head}");
    assert!(
        header(&first_head, "Content-Type").is_some_and(|value| value.contains("version=0.0.4")),
        "Prometheus text exposition content type"
    );
    let before = parse_metrics(&first_body).expect("first scrape parses");

    // More traffic, then a second scrape: cumulative series never decrease.
    for _ in 0..4 {
        let (_, _) = get(addr, LABEL_PATH);
    }
    let (_, second_body) = get(addr, "/metrics");
    let after = parse_metrics(&second_body).expect("second scrape parses");
    check_counters_monotonic(&before, &after).expect("counters are monotone");

    // At least ten metric families, each TYPE-declared exactly once.
    let families: Vec<&str> = second_body
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    assert!(families.len() >= 10, "only {} families", families.len());
    assert_eq!(
        families.len(),
        families.iter().collect::<HashSet<_>>().len(),
        "duplicate TYPE declarations"
    );

    // Stage histograms are exposed per shard and aggregated.
    for needle in [
        "rf_stage_duration_microseconds_count{stage=\"parse\",shard=\"0\"}",
        "rf_stage_duration_microseconds_count{stage=\"prepare\",shard=\"service\"}",
        "rf_stage_duration_microseconds_count{stage=\"render\",shard=\"all\"}",
        "rf_cache_hits_total",
        "rf_scheduler_executed_jobs_total",
        "rf_mc_runs_total",
        "rf_admission_max_pending",
        "rf_traces_recorded_total",
    ] {
        assert!(second_body.contains(needle), "missing {needle}");
    }

    stop(&shutdown, handle);
}
