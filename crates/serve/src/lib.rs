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
//! * [`protocol`] — wire frames (`[len][payload][crc32]`), message
//!   codec, typed [`protocol::ProtocolError`]s for every corruption;
//! * [`server`] — `sciml-net` reactor glue, admission control,
//!   per-dataset fill-once DRAM hot cache, counters;
//! * [`client`] — pooled, retrying `RemoteSource`;
//! * [`metrics`] — server-side latency/throughput counters;
//! * [`scrape`] — Prometheus-text metrics exposition endpoint.

pub mod client;
pub mod cluster;
pub mod metrics;
pub mod protocol;
pub mod scrape;
pub mod server;
mod session;

pub use client::{ClientConfig, RemoteSource, ServerError};
pub use cluster::ClusterSource;
pub use protocol::{Message, ProtocolError, StatsSnapshot, PROTOCOL_VERSION};
pub use scrape::{scrape_once, spawn_scrape_listener, ScrapeHandle};
pub use server::{ClusterConfig, ServeBuilder, ServerConfig, ServerHandle};
