//! Serving-capacity benchmarks for the event-driven server.
//!
//! What the `rf-net` reactor buys: request round-trips over pools of
//! keep-alive connections (the reactor multiplexes them all on one thread),
//! and the cost of connection churn (accept → request → close) where the
//! old design paid a pool worker per connection for the whole exchange.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rf_server::{DatasetCatalog, Server, ServerConfig};
use std::hint::black_box;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct BenchServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl BenchServer {
    fn start(workers: usize) -> Self {
        let config = ServerConfig {
            bind_address: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        };
        let server =
            Server::bind(DatasetCatalog::with_demo_datasets(), workers, &config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().expect("server run"));
        BenchServer {
            addr,
            shutdown,
            handle: Some(handle),
        }
    }
}

impl Drop for BenchServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// One request/response exchange on an existing keep-alive connection.
fn round_trip(stream: &mut TcpStream, path: &str) -> usize {
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: b\r\n\r\n").as_bytes())
        .expect("write");
    rf_net::read_one_response(stream)
        .expect("response")
        .body
        .len()
}

/// Warm-cache label round-trips multiplexed across open keep-alive
/// connections.  The reactor holds every connection on one thread; the
/// per-sweep cost should grow with the bytes streamed, not with the number
/// of idle registrations.
fn keep_alive_round_trips(c: &mut Criterion) {
    let server = BenchServer::start(4);
    let path = "/datasets/cs-departments/label.json?k=10";
    // Warm the cache once so iterations measure serving, not generation.
    let mut warmup = connect(server.addr);
    round_trip(&mut warmup, path);

    let mut group = c.benchmark_group("connections/keep_alive_round_trips");
    group.sample_size(10);
    for conns in [1usize, 8, 64] {
        let mut streams: Vec<TcpStream> = (0..conns).map(|_| connect(server.addr)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(conns), &conns, |b, _| {
            b.iter(|| {
                let mut total = 0usize;
                for stream in &mut streams {
                    total += round_trip(stream, black_box(path));
                }
                black_box(total)
            });
        });
    }
    group.finish();
}

/// Full connection churn: connect, one request, close.  Accept and close
/// both land on the reactor; the pool only sees the routed request.
fn connection_churn(c: &mut Criterion) {
    let server = BenchServer::start(4);
    let mut warmup = connect(server.addr);
    round_trip(&mut warmup, "/stats");

    let mut group = c.benchmark_group("connections/churn");
    group.sample_size(10);
    group.bench_function("connect_stats_close", |b| {
        b.iter(|| {
            let mut stream = connect(server.addr);
            black_box(round_trip(&mut stream, "/stats"))
        });
    });
    group.finish();
}

criterion_group!(benches, keep_alive_round_trips, connection_churn);
criterion_main!(benches);
