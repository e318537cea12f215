//! The server under test, run in this process, and a keep-alive client.

use rf_bench::exposition::{
    check_counters_monotonic, check_slow_debug, parse_metrics, MetricsSnapshot,
};
use rf_net::ClientResponse;
use rf_server::{AppState, DatasetCatalog, Server, ServerOptions};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running server: its address and the handles to stop it.
pub struct Running {
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    cache_dir: Option<PathBuf>,
}

/// The server's options as its command line would give them: an ephemeral
/// port, one reactor, label workers sized to the host, and the disk tier
/// when `cache_dir` names a directory.  `trace_all` drops the slow-trace
/// threshold to zero, which the command line refuses, so every request
/// publishes a full trace.
pub fn options(workers: usize, cache_dir: Option<&Path>, trace_all: bool) -> ServerOptions {
    let mut args = vec![
        "127.0.0.1:0".to_string(),
        "--workers".to_string(),
        workers.to_string(),
        "--reactors".to_string(),
        "1".to_string(),
    ];
    if let Some(dir) = cache_dir {
        args.push("--cache-dir".to_string());
        args.push(dir.display().to_string());
    }
    let mut options = ServerOptions::parse(args).expect("benchmark server flags parse");
    if trace_all {
        options.slow_threshold_ms = 0;
    }
    options
}

/// Binds and starts a server over `catalog` on a background thread.
pub fn start(catalog: DatasetCatalog, options: &ServerOptions) -> std::io::Result<Running> {
    let state = AppState::with_service(catalog, options.label_service());
    let server = Server::bind_state(state, &options.server_config())?;
    let addr = server.local_addr()?;
    let shutdown = server.shutdown_handle();
    let thread = std::thread::Builder::new()
        .name("bench-server".to_string())
        .spawn(move || {
            if let Err(err) = server.run() {
                eprintln!("server stopped with an error: {err}");
            }
        })?;
    Ok(Running {
        addr,
        shutdown,
        thread: Some(thread),
        cache_dir: options.cache_dir.as_ref().map(PathBuf::from),
    })
}

impl Running {
    /// Stops the server, waits for its thread and removes its cache
    /// directory.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() {
                eprintln!("server thread panicked");
            }
        }
        if let Some(dir) = self.cache_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.halt();
    }
}

/// One keep-alive connection.  Reads go through a buffer, so a response
/// head costs a few `read` calls rather than one per byte.
pub struct Client {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, stream: None }
    }

    fn connect(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(BufReader::with_capacity(256 * 1024, stream));
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Sends `GET path` and reads the response.  Nothing is retried: no
    /// loop leaves a connection idle for anywhere near the server's 60 s
    /// idle timeout, so every error is the server's and the caller counts
    /// it.  The connection is dropped and the next request opens another.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        let request = request_bytes(path);
        let stream = self.connect()?;
        let exchange = stream
            .get_mut()
            .write_all(&request)
            .and_then(|()| rf_net::read_one_response(stream));
        if exchange.is_err() {
            self.stream = None;
        }
        exchange
    }
}

/// The bytes of a keep-alive `GET` for `path`.
pub fn request_bytes(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n").into_bytes()
}

/// The server's `/stats` and `/metrics` at one instant, validated.
pub struct Scrape {
    pub stats: serde_json::Value,
    pub metrics: MetricsSnapshot,
}

/// Scrapes `/stats` and `/metrics` over a fresh connection.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let mut client = Client::new(addr);
    let mut body = |path: &str| -> Result<String, String> {
        let response = client
            .get(path)
            .map_err(|err| format!("GET {path}: {err}"))?;
        match response.status() {
            Some(200) => Ok(response.body_text()),
            status => Err(format!("GET {path} answered {status:?}")),
        }
    };
    let stats = serde_json::from_str(&body("/stats")?).map_err(|err| format!("/stats: {err}"))?;
    let metrics = parse_metrics(&body("/metrics")?)?;
    Ok(Scrape { stats, metrics })
}

/// Checks a pair of scrapes taken around a run: cumulative series never
/// decrease.  With `traced`, `/debug/slow` must also serve well-formed
/// traces.
pub fn check_scrapes(
    addr: SocketAddr,
    before: &Scrape,
    after: &Scrape,
    traced: bool,
) -> Result<(), String> {
    check_counters_monotonic(&before.metrics, &after.metrics)?;
    if traced {
        let mut client = Client::new(addr);
        let slow = client
            .get("/debug/slow")
            .map_err(|err| format!("GET /debug/slow: {err}"))?;
        check_slow_debug(&slow.body_text())?;
    }
    Ok(())
}

/// Resident memory of this process in MiB.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmRSS:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
