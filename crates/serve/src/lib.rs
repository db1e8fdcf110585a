//! Disaggregated dataset serving (paper §VII direction: moving the
//! preprocessing pipeline off the training node).
//!
//! A [`server::ServeBuilder`] exposes any
//! [`SampleSource`](sciml_pipeline::SampleSource) — a directory on the
//! shared file system, an NVMe-staged copy, an in-memory set — over a
//! length-prefixed, CRC-checked TCP protocol; a [`client::RemoteSource`]
//! on the training side implements the same `SampleSource` trait, so
//! the pipeline cannot tell local from remote. The tiering story
//! becomes: shared FS → server NVMe staging → server DRAM hot cache →
//! network → training node.
//!
//! Layout:
//! * [`protocol`] — wire frames (`[len][payload][crc32]`), the one
//!   frame-length check, message codec, typed
//!   [`protocol::ProtocolError`]s for every corruption;
//! * `poller` — level-triggered epoll and the loop's wake-up channel;
//! * `reactor` — the event loop: admission control, per-connection
//!   state machines each owning its session, worker-pool dispatch,
//!   `writev` of gathered replies, idle reaping, graceful drain;
//! * `session` — the per-connection protocol state machine the
//!   reactor's workers run;
//! * [`server`] — builder and handle: datasets, per-dataset fill-once
//!   DRAM hot cache, reactor configuration;
//! * [`client`] — pooled, retrying `RemoteSource`;
//! * [`cluster`] — replica-failover `ClusterSource` over a placed plan;
//! * [`metrics`] — server-side latency/throughput and `serve.conn.*`
//!   connection counters, and the in-process [`StatsSnapshot`];
//! * [`scrape`] — Prometheus-text metrics exposition endpoint, the one
//!   way server metrics leave the process: the wire protocol carries
//!   samples and plans, not metrics.

pub mod client;
pub mod cluster;
pub mod metrics;
mod poller;
pub mod protocol;
mod reactor;
pub mod scrape;
pub mod server;
mod session;

pub use client::{ClientConfig, RemoteSource, ServerError};
pub use cluster::ClusterSource;
pub use metrics::StatsSnapshot;
pub use protocol::{Message, ProtocolError, PROTOCOL_VERSION};
pub use scrape::{scrape_once, spawn_scrape_listener, ScrapeHandle};
pub use server::{ClusterConfig, ServeBuilder, ServerConfig, ServerHandle};
