//! One scheduler per server: a running server has exactly `--workers`
//! scheduler threads.
//!
//! Request jobs, widget jobs and Monte-Carlo trial batches all run on the
//! label service's scheduler, so a server started with `workers` label
//! workers runs `workers` `rf-runtime-*` threads in all — none for a second
//! pool.  Nothing starts a pool behind the caller's back either: a label
//! through `NutritionalLabel::generate`, or the stats of a service over the
//! sequential reference, run no scheduler thread.  The count is read from
//! `/proc/self/task`, so this file holds a single test: no other test of the
//! process can start a scheduler while it counts.

use rf_core::{AnalysisPipeline, LabelService, NutritionalLabel};
use rf_server::{DatasetCatalog, Server, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Threads of this process whose name starts with `rf-runtime-`.
fn runtime_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux lists the process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("rf-runtime-"))
        .count()
}

#[test]
fn a_running_server_has_exactly_workers_scheduler_threads() {
    const WORKERS: usize = 3;
    let catalog = DatasetCatalog::with_demo_datasets();
    let compas = catalog.get("compas").expect("demo dataset");
    let label = NutritionalLabel::generate(&compas.table, &compas.config).expect("label");
    assert_eq!(label.ranked_items, compas.table.num_rows());
    let sequential = LabelService::with_pipeline(AnalysisPipeline::sequential(), 8, 1 << 20);
    assert_eq!(sequential.stats().scheduler.workers, 0);
    assert_eq!(runtime_threads(), 0, "no pool was built, so none may run");

    let config = ServerConfig {
        bind_address: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let server = Server::bind(catalog, WORKERS, &config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    // A cold label with Monte-Carlo trials exercises every kind of job.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .write_all(
            b"GET /datasets/compas/label.json?trials=64&mc_seed=11 HTTP/1.1\r\n\
              Host: t\r\nConnection: close\r\n\r\n",
        )
        .expect("send request");
    let response = rf_net::read_one_response(&mut stream).expect("read response");
    assert!(
        response.head.starts_with("HTTP/1.1 200 OK"),
        "{}",
        response.head
    );

    assert_eq!(runtime_threads(), WORKERS);

    shutdown.store(true, Ordering::Relaxed);
    handle.join().expect("server thread");
}
