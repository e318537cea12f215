//! The event-driven server under concurrency: many keep-alive connections
//! on a tiny worker pool.
//!
//! This is the acceptance test for the `rf-net` reactor.  A 2-worker server
//! holds 64+ open keep-alive connections — most idle, some active, one
//! deliberately slow — and every label response must be byte-identical to a
//! cold single-connection generation.  Under the old
//! one-blocking-worker-per-connection design this test cannot pass at all:
//! two idle connections alone would pin both workers forever.
//!
//! The second half drives the `LabelService` single-flight path end to end:
//! a concurrent burst of identical cold requests must perform exactly one
//! generation (one Monte-Carlo run, counter-verified over `GET /stats`), and
//! no preparation at all, because earlier labels already prepared the
//! table's recipe.  The two-shard
//! test also checks each shard's `/metrics` series across its rounds with
//! the exposition checker of `rf_bench`.  Every test starts its own server,
//! and each server counts only its own work, so the tests run in parallel
//! without sharing a counter.

use rf_bench::exposition::{check_counters_monotonic, parse_metrics, MetricsSnapshot};
use rf_server::{DatasetCatalog, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Starts a demo server with a deliberately small label pool.
fn start_server(workers: usize) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    start_server_with(
        workers,
        ServerConfig {
            bind_address: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
    )
}

/// Starts a demo server with `workers` label workers from a full config
/// (reactor shards, admission bounds).
fn start_server_with(
    workers: usize,
    config: ServerConfig,
) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let server =
        Server::bind(DatasetCatalog::with_demo_datasets(), workers, &config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, shutdown, handle)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
}

/// Sends one GET on an existing (keep-alive) stream.
fn send_get(stream: &mut TcpStream, path: &str, close: bool) {
    let connection = if close { "close" } else { "keep-alive" };
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: {connection}\r\n\r\n")
                .as_bytes(),
        )
        .expect("write request");
}

/// Reads exactly one response (head + `Content-Length` body); returns
/// `(head, body)`.
fn read_response(stream: &mut TcpStream) -> (String, String) {
    let response = rf_net::read_one_response(stream).expect("response");
    let body = response.body_text();
    (response.head, body)
}

/// One-shot request on a fresh connection (`Connection: close`).
fn fetch(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = connect(addr);
    send_get(&mut stream, path, true);
    read_response(&mut stream)
}

/// The service counters, read over the wire.
fn stats(addr: SocketAddr) -> serde_json::Value {
    let (head, body) = fetch(addr, "/stats");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    serde_json::from_str(&body).expect("stats JSON")
}

/// Scrapes `/metrics` over the wire; every line must be valid Prometheus
/// text.
fn scrape_metrics(addr: SocketAddr) -> MetricsSnapshot {
    let (head, body) = fetch(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    parse_metrics(&body).expect("/metrics must be valid Prometheus text exposition")
}

const LABEL_PATH: &str = "/datasets/cs-departments/label.json?k=5";

#[test]
fn sixty_four_keep_alive_connections_on_a_two_worker_pool() {
    let (addr, shutdown, handle) = start_server(2);

    // Cold single-connection reference generation.
    let (head, reference) = fetch(addr, LABEL_PATH);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let reference = Arc::new(reference);

    // 64 simultaneously open keep-alive connections: 48 idle, 15 active,
    // 1 slow reader.  The idle ones are opened first and stay open the whole
    // time — under the old design they would pin both pool workers and no
    // active request could ever be served.
    let idle: Vec<TcpStream> = (0..48).map(|_| connect(addr)).collect();

    let active_threads: Vec<_> = (0..15)
        .map(|_| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut stream = connect(addr);
                // Several sequential requests reuse the one connection.
                for round in 0..3 {
                    send_get(&mut stream, LABEL_PATH, false);
                    let (head, body) = read_response(&mut stream);
                    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                    assert!(head.contains("Connection: keep-alive"), "{head}");
                    assert_eq!(
                        body, *reference,
                        "round {round}: keep-alive response must be byte-identical \
                         to the cold single-connection generation"
                    );
                }
            })
        })
        .collect();

    // The slow reader drains its response a few bytes at a time.  It holds
    // only its own write buffer — never a pool worker — so it cannot slow
    // the active connections down.
    let slow_thread = {
        let reference = Arc::clone(&reference);
        std::thread::spawn(move || {
            let mut stream = connect(addr);
            send_get(&mut stream, LABEL_PATH, true);
            let mut response = Vec::new();
            let mut chunk = [0u8; 7];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => {
                        response.extend_from_slice(&chunk[..n]);
                        if response.len() < 700 {
                            std::thread::sleep(Duration::from_millis(3));
                        }
                    }
                    Err(err) => panic!("slow read: {err}"),
                }
            }
            let text = String::from_utf8_lossy(&response).into_owned();
            let body = text.split("\r\n\r\n").nth(1).expect("body");
            assert_eq!(body, *reference, "slow reader still gets exact bytes");
        })
    };

    for thread in active_threads {
        thread.join().expect("active connection");
    }
    slow_thread.join().expect("slow reader");

    // The idle connections are still alive and serviceable afterwards.
    let mut woken = idle.into_iter().next().expect("one idle connection");
    send_get(&mut woken, LABEL_PATH, false);
    let (head, body) = read_response(&mut woken);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(body, *reference);

    // ── Single-flight: a concurrent burst of identical *cold* requests
    // performs exactly one generation, and it reuses the analysis the
    // earlier labels of this table and recipe prepared. ─────────────────
    let before = stats(addr);
    let preparations_before = before["preparations"].as_u64().expect("preparations");
    let runs_before = before["monte_carlo"]["runs"].as_u64().expect("runs");

    let burst_path = "/datasets/cs-departments/label.json?k=6"; // never requested above
    let burst = 16usize;
    let barrier = Arc::new(Barrier::new(burst));
    let burst_threads: Vec<_> = (0..burst)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let (head, body) = fetch(addr, burst_path);
                assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                body
            })
        })
        .collect();
    let bodies: Vec<String> = burst_threads
        .into_iter()
        .map(|thread| thread.join().expect("burst request"))
        .collect();
    for body in &bodies {
        assert_eq!(body, &bodies[0], "coalesced requests share one result");
    }

    let after = stats(addr);
    let runs_after = after["monte_carlo"]["runs"].as_u64().expect("runs");
    assert_eq!(
        runs_after - runs_before,
        1,
        "a burst of {burst} identical cold requests must generate exactly once \
         (before: {before}, after: {after})"
    );
    let preparations_after = after["preparations"].as_u64().expect("preparations");
    assert_eq!(
        preparations_after, preparations_before,
        "the burst's table and recipe were already prepared \
         (before: {before}, after: {after})"
    );
    assert!(
        after["coalesced"].as_u64().is_some(),
        "stats expose the coalescing counter: {after}"
    );

    shutdown.store(true, Ordering::Relaxed);
    handle.join().expect("server thread");
}

#[test]
fn two_reactor_shards_serve_byte_identical_labels() {
    // Reference bytes from today's single-reactor topology.
    let (addr, shutdown, handle) = start_server(2);
    let (head, reference) = fetch(addr, LABEL_PATH);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    shutdown.store(true, Ordering::Relaxed);
    handle.join().expect("single-reactor server");
    let reference = Arc::new(reference);

    // The same demo catalogue behind two SO_REUSEPORT reactor shards.
    let (addr, shutdown, handle) = start_server_with(
        2,
        ServerConfig {
            bind_address: "127.0.0.1:0".to_string(),
            reactors: 2,
            ..ServerConfig::default()
        },
    );

    let metrics_before = scrape_metrics(addr);

    // 64 simultaneously open keep-alive connections, kernel-balanced across
    // the shards, each serving several sequential label requests.
    let mut streams: Vec<TcpStream> = (0..64).map(|_| connect(addr)).collect();
    for round in 0..2 {
        for stream in &mut streams {
            send_get(stream, LABEL_PATH, false);
        }
        for stream in &mut streams {
            let (head, body) = read_response(stream);
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
            assert_eq!(
                body, *reference,
                "round {round}: sharded response must be byte-identical to \
                 the single-reactor server's"
            );
        }
    }

    // /stats rolls both shards up; the torn-read discipline holds while the
    // 64 connections are still open.
    let value = stats(addr);
    let network = &value["network"];
    let reactors = network["reactors"].as_array().expect("reactor array");
    assert_eq!(reactors.len(), 2, "{network}");
    for shard in reactors {
        assert!(
            shard["accepted"].as_u64().unwrap() > 0,
            "kernel balanced nothing onto one shard: {network}"
        );
        assert!(shard["active"].as_u64().unwrap() <= shard["accepted"].as_u64().unwrap());
    }
    let totals = &network["totals"];
    assert!(totals["accepted"].as_u64().unwrap() >= 64, "{network}");
    assert!(totals["active"].as_u64().unwrap() <= totals["accepted"].as_u64().unwrap());
    assert_eq!(totals["shed_requests"].as_u64().unwrap(), 0, "{network}");

    // The two-shard exposition parses, no cumulative series decreased
    // across the rounds, and each shard's own parse-stage series counted
    // the requests its connections carried.
    let metrics_after = scrape_metrics(addr);
    check_counters_monotonic(&metrics_before, &metrics_after)
        .expect("cumulative /metrics series must never decrease across the rounds");
    let parsed = |metrics: &MetricsSnapshot, shard: &str| {
        let series =
            format!("rf_stage_duration_microseconds_count{{stage=\"parse\",shard=\"{shard}\"}}");
        metrics.samples.get(&series).copied()
    };
    for shard in ["0", "1"] {
        let before = parsed(&metrics_before, shard).expect("parse series before the rounds");
        let after = parsed(&metrics_after, shard).expect("parse series after the rounds");
        assert!(
            after > before,
            "shard {shard}'s parse stage recorded nothing between the scrapes"
        );
    }

    drop(streams);
    shutdown.store(true, Ordering::Relaxed);
    handle.join().expect("sharded server");
}

#[test]
fn saturated_dispatch_queue_sheds_with_503_and_retry_after() {
    // One worker, and admission allows exactly one unanswered request.
    let (addr, shutdown, handle) = start_server_with(
        1,
        ServerConfig {
            bind_address: "127.0.0.1:0".to_string(),
            max_pending: 1,
            ..ServerConfig::default()
        },
    );

    // A deliberately slow cold request (1024 Monte-Carlo re-rankings of the
    // 1000-row German-credit dataset) occupies the only worker…
    let mut slow = connect(addr);
    send_get(
        &mut slow,
        "/datasets/german-credit/label.json?trials=1024&mc_seed=4242",
        false,
    );

    // …so a keep-alive burst behind it is refused at admission: 503 with a
    // Retry-After hint, connection left open.
    let mut burst: Vec<TcpStream> = (0..8).map(|_| connect(addr)).collect();
    for stream in &mut burst {
        send_get(stream, LABEL_PATH, false);
    }
    let mut shed = 0u32;
    for stream in &mut burst {
        let (head, _body) = read_response(stream);
        if head.starts_with("HTTP/1.1 503") {
            assert!(head.contains("Retry-After:"), "{head}");
            assert!(head.contains("Connection: keep-alive"), "{head}");
            shed += 1;
        }
    }
    assert!(shed >= 1, "saturated queue must shed at least one request");

    // The slow request itself completes normally.
    let (head, _body) = read_response(&mut slow);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");

    // Shed connections survived and are served once pressure lifts — retry
    // on one of the very sockets that got the 503.
    let mut retried = burst.into_iter().next().expect("one shed connection");
    let mut recovered = false;
    for _ in 0..50 {
        send_get(&mut retried, LABEL_PATH, false);
        let (head, _body) = read_response(&mut retried);
        if head.starts_with("HTTP/1.1 200 OK") {
            recovered = true;
            break;
        }
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        recovered,
        "shed connection must be served after the backlog"
    );

    // The shed shows up in the rolled-up reactor counters.
    let value = stats(addr);
    let totals = &value["network"]["totals"];
    assert!(totals["shed_requests"].as_u64().unwrap() >= u64::from(shed));

    shutdown.store(true, Ordering::Relaxed);
    handle.join().expect("server thread");
}

#[test]
fn connection_errors_are_isolated_to_their_connection() {
    let (addr, shutdown, handle) = start_server(2);

    // A long-lived healthy connection, opened before any of the failures.
    let mut healthy = connect(addr);
    send_get(&mut healthy, "/datasets", false);
    let (head, _body) = read_response(&mut healthy);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");

    // 1. Malformed request: 400, then only that connection closes.
    let mut broken = connect(addr);
    broken.write_all(b"gibberish\r\n\r\n").expect("write");
    let (head, _body) = read_response(&mut broken);
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    let mut rest = Vec::new();
    broken.read_to_end(&mut rest).expect("eof after 400");
    assert!(rest.is_empty());

    // 2. Unsupported method: routed 400, connection stays up (framing is
    // intact, only the method is unknown to the router).
    let mut odd = connect(addr);
    odd.write_all(b"BREW /coffee HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("write");
    let (head, _body) = read_response(&mut odd);
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");

    // 3. Disconnect before the response is read: the server's write hits a
    // dead socket and must only tear down that connection.
    for _ in 0..4 {
        let mut vanishing = connect(addr);
        send_get(&mut vanishing, "/datasets", false);
        drop(vanishing);
    }
    // Give the reactor a moment to trip over the dead sockets.
    std::thread::sleep(Duration::from_millis(100));

    // The healthy connection opened before all of that still works.
    send_get(&mut healthy, "/stats", false);
    let (head, body) = read_response(&mut healthy);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(body.contains("coalesced"), "{body}");

    // And the server still accepts fresh connections.
    let (head, _body) = fetch(addr, "/datasets");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");

    shutdown.store(true, Ordering::Relaxed);
    handle.join().expect("server thread");
}
