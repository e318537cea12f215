//! # rf-net — an epoll-based event-driven I/O reactor
//!
//! The Ranking Facts system is a *web tool*: labels are generated
//! server-side and served to browsers, so serving capacity is part of the
//! reproduction's north star.  The original blocking design burned one pool
//! worker per connection — a handful of idle keep-alive clients pinned the
//! whole pool while the CPU sat idle.  This crate decouples connections from
//! workers:
//!
//! ```text
//!  clients ──► accept ──► reactor thread (epoll) ──► rf_runtime::Scheduler
//!                           ▲      │  parse FSM            │ label generation
//!                           │      └── Dispatch ───────────┘
//!                           └──────── eventfd wake ◄── Completions
//! ```
//!
//! * [`sys`] — the only `unsafe` in this crate: raw `epoll`/`eventfd`/
//!   socket bindings (Linux-only, no external dependencies), including
//!   [`sys::listen_reuseport`] for `SO_REUSEPORT` shard listeners.
//! * [`metrics`] — per-reactor counters
//!   ([`ReactorMetrics`](metrics::ReactorMetrics)) with torn-read-safe
//!   aggregation across shards.
//! * [`poller`] — level-triggered readiness polling with tokens and
//!   [`Interest`](poller::Interest) masks.
//! * [`wake`] — the self-wake channel: a [`Completions`](wake::Completions)
//!   queue plus an eventfd [`Waker`](wake::Waker) registered in the same
//!   epoll set as the sockets.
//! * [`parser`] — an incremental HTTP/1.x request parser that is fed
//!   whatever bytes a nonblocking read produced.
//! * [`conn`] — per-connection state machines with buffered,
//!   backpressure-aware response streaming (bodies can be `Arc`-shared with
//!   the label cache).
//! * [`reactor`] — the event loop: all socket I/O on one thread, CPU work
//!   dispatched through [`Dispatch`](reactor::Dispatch), responses returned
//!   through [`Responder`](reactor::Responder).
//! * [`client`] — the one blocking helper: reads a single response off a
//!   keep-alive stream, for tests, benches, and smoke checks.
//!
//! The crate knows nothing about datasets or labels; `rf-server` supplies
//! the `Dispatch` implementation that routes requests and schedules label
//! generation on the shared runtime pool.

#![warn(missing_docs)]
// `sys` is the workspace's single FFI seam; everything above it is safe.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod client;
pub mod conn;
pub mod metrics;
pub mod parser;
pub mod poller;
pub mod reactor;
pub mod sys;
pub mod wake;

pub use client::{read_one_response, ClientResponse};
pub use conn::{ConnState, Connection, OutboundResponse, ReadOutcome, ResponseBody, WriteOutcome};
pub use metrics::{aggregate, ReactorMetrics, ReactorSnapshot};
pub use parser::{HttpParser, HttpVersion, ParseError, ParseEvent, ParsedRequest};
pub use poller::{Event, Interest, Poller};
pub use reactor::{Dispatch, Reactor, ReactorConfig, ReactorObservability, Responder};
pub use sys::listen_reuseport;
pub use wake::{Completion, Completions, Waker};
