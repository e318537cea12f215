//! # rf-server
//!
//! A minimal, dependency-free HTTP server that exposes the Ranking Facts demo
//! flow described in the paper's §3: pick one of the pre-loaded datasets (or
//! upload a CSV), inspect the scoring-function design view, and generate the
//! nutritional label as HTML or JSON.
//!
//! The original system is a Python web application; this crate is the web
//! substrate of the reproduction, built for the north star's "heavy traffic"
//! goal.  Socket I/O is **event-driven**: all connections live on an
//! `rf-net` epoll reactor (accept loop, incremental request parsing,
//! buffered keep-alive response streaming), and only complete requests are
//! dispatched onto the label service's [`rf_runtime::Scheduler`] — the one
//! pool that also runs each label's widget jobs and Monte-Carlo trials — so
//! idle connections pin zero workers and the pool is sized to the CPU work,
//! not the client count.
//!
//! Label requests route through `rf-core`'s `LabelService`: the
//! content-addressed LRU label cache (shared by every worker via
//! [`AppState`]) answers warm hits with the pre-rendered JSON — streamed
//! `Arc`-shared, no per-connection copy — concurrent cold misses for one
//! key coalesce onto a single generation, and dataset uploads into the
//! catalogue invalidate the cache.  `GET /stats` exposes the cache's
//! hit/miss/eviction counters plus the coalescing counter.
//!
//! ## Endpoints
//!
//! | Method & path | Description |
//! |---|---|
//! | `GET /` | Landing page listing the demo datasets |
//! | `GET /datasets` | JSON list of available datasets |
//! | `GET /datasets/{name}/preview` | Dataset summary + design-view preview (JSON) |
//! | `GET /datasets/{name}/label` | Nutritional label as HTML |
//! | `GET /datasets/{name}/label.json` | Nutritional label as JSON |
//! | `GET /stats` | Label-cache + coalescing counters and occupancy (JSON) |
//! | `GET /metrics` | Prometheus text exposition: stage latency histograms (per shard + aggregated) and every counter family |
//! | `GET /debug/slow` | Recent slow-request span traces (JSON, newest first) |
//! | `POST /labels` | Generate a label for an uploaded CSV (body = CSV, query = scoring spec) |
//! | `POST /datasets/{name}` | Upload a CSV **into the catalogue** (replaces + invalidates cache) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod http;
pub mod router;
pub mod server;

pub use catalog::{DatasetCatalog, DatasetEntry};
pub use http::{Body, Method, Request, Response, StatusCode};
pub use router::{route, AdmissionProbe, AppState, Observability};
pub use server::{Server, ServerConfig, ServerOptions};
