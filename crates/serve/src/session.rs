//! Per-connection protocol state machine.
//!
//! The reactor's [`Service`](sciml_net::Service) callback funnels every
//! decoded request through [`process_message`]: the `Hello` version
//! check, the trace-context unwrap, request dispatch, building the
//! reply's frame, and request accounting live here.

use crate::protocol::{
    encode_frame, DatasetEntry, ErrorCode, Message, SamplesFrame, PROTOCOL_VERSION,
};
use crate::server::Inner;
use sciml_net::{Piece, Reply};
use sciml_pipeline::source::SampleBytes;
use sciml_pipeline::SampleSource;
use sciml_store::manifest::plan_by_count;
use sciml_store::ClusterPlan;
use std::time::Instant;

/// Samples per synthesized shard when a client asks for a staging plan
/// without a preference and the dataset has no packed-store manifest.
const DEFAULT_PLAN_PER_SHARD: u64 = 64;

/// State of one connection: the first message must be a `Hello`
/// carrying [`PROTOCOL_VERSION`].
#[derive(Debug, Default)]
pub(crate) struct SessionState {
    /// Whether that `Hello` has been received and acknowledged.
    pub(crate) greeted: bool,
}

/// Runs one request through the session state machine and returns the
/// reply's frame plus what to do with the connection. The greeting is
/// not counted as a request; everything after `Hello` records into
/// `serve.requests` / `serve.request_ns`, which covers building the
/// whole reply frame.
pub(crate) fn process_message(inner: &Inner, state: &mut SessionState, request: Message) -> Reply {
    if !state.greeted {
        return match request {
            Message::Hello { version } if version == PROTOCOL_VERSION => {
                state.greeted = true;
                Reply::send(encode_frame(&Message::HelloAck { version }))
            }
            Message::Hello { version } => Reply::send_close(encode_frame(&Message::Error {
                code: ErrorCode::VersionMismatch,
                detail: format!("client speaks v{version}, server speaks v{PROTOCOL_VERSION}"),
            })),
            _ => Reply::send_close(encode_frame(&Message::Error {
                code: ErrorCode::BadRequest,
                detail: "first message must be Hello".into(),
            })),
        };
    }

    let started = Instant::now();
    // Unwrap the trace-context envelope. The linked span stays open
    // while the reply is built, so per-sample child spans nest under it
    // and it records the request's full handling time.
    let (request, _request_span) = match request {
        Message::Traced {
            trace_id,
            parent_span,
            inner: boxed,
        } => {
            let span = inner
                .tracer
                .span_linked("serve", "request", trace_id, parent_span);
            (*boxed, Some(span))
        }
        other => (other, None),
    };
    let reply = match request {
        Message::FetchSamples { name, indices } => match fetch_samples(inner, &name, &indices) {
            Ok(pieces) => Reply::gather(pieces),
            Err(error) => Reply::send(encode_frame(&error)),
        },
        // Acknowledge with the final counters; the reactor begins its
        // drain after the reply is on the wire.
        Message::Shutdown => Reply {
            shutdown: true,
            ..Reply::send(encode_frame(&Message::StatsReply(inner.stats())))
        },
        other => Reply::send(encode_frame(&respond(inner, other))),
    };
    inner.metrics.record_request(started.elapsed());
    reply
}

/// The `Samples` reply to a `FetchSamples`, gathered from each sample's
/// own buffer — the cache's resident entry or the buffer its miss read
/// into — with the frame CRC combined from the CRC each sample was
/// checked against; or the `Error` to send instead.
fn fetch_samples(inner: &Inner, name: &str, indices: &[u64]) -> Result<Vec<Piece>, Box<Message>> {
    let ds = inner
        .datasets
        .get(name)
        .ok_or_else(|| Box::new(unknown_dataset(name)))?;
    let mut frame = SamplesFrame::with_capacity(indices.len());
    let mut bytes = 0u64;
    for &idx in indices {
        if idx >= ds.cache.len() as u64 {
            return Err(Box::new(Message::Error {
                code: ErrorCode::IndexOutOfRange,
                detail: format!(
                    "index {idx} out of range for '{name}' (len {})",
                    ds.cache.len()
                ),
            }));
        }
        // Child of the connection's request span (when the request
        // arrived Traced); invisible otherwise.
        let _fetch_span = inner.tracer.span("serve", "fetch");
        let sample = ds.cache.fetch_checked(idx as usize).map_err(|e| {
            Box::new(Message::Error {
                code: ErrorCode::SourceError,
                detail: format!("fetching '{name}'[{idx}]: {e}"),
            })
        })?;
        bytes += sample.bytes.len() as u64;
        let piece = match sample.bytes {
            SampleBytes::Resident(entry) => Piece::shared(entry),
            SampleBytes::Read(buf) => Piece::from(buf),
        };
        frame.push(piece, sample.crc32);
    }
    inner.metrics.record_samples(indices.len() as u64, bytes);
    Ok(frame.finish())
}

/// The reply to every request but `FetchSamples` and `Shutdown`.
fn respond(inner: &Inner, request: Message) -> Message {
    match request {
        Message::ListDatasets => Message::DatasetList(
            inner
                .datasets
                .iter()
                .map(|(name, ds)| DatasetEntry {
                    name: name.clone(),
                    len: ds.cache.len() as u64,
                })
                .collect(),
        ),
        Message::Manifest { name } => match inner.datasets.get(&name) {
            Some(ds) => Message::ManifestReply {
                len: ds.cache.len() as u64,
            },
            None => unknown_dataset(&name),
        },
        Message::ShardManifest { name, per_shard } => {
            match dataset_plans(inner, &name, per_shard) {
                Some(plans) => Message::ShardManifestReply(plans),
                None => unknown_dataset(&name),
            }
        }
        Message::ClusterManifest { name } => {
            let Some(plans) = dataset_plans(inner, &name, 0) else {
                return unknown_dataset(&name);
            };
            // Without cluster config the server is a cluster of one:
            // every shard's sole replica is this node, so clients can
            // treat all servers uniformly.
            let (nodes, replication) = match &inner.cluster {
                Some(c) => (c.nodes.clone(), c.replication),
                None => (vec![inner.local_addr.to_string()], 1),
            };
            Message::ClusterManifestReply(ClusterPlan::assign(&plans, &nodes, replication))
        }
        Message::Stats => Message::StatsReply(inner.stats()),
        // Client-bound messages arriving at the server.
        other => Message::Error {
            code: ErrorCode::BadRequest,
            detail: format!("unexpected message: {other:?}"),
        },
    }
}

/// The shard partitioning exported for `name`: the store's real plans
/// when it has them, else one synthesized by sample count. `None` when
/// the dataset does not exist.
fn dataset_plans(inner: &Inner, name: &str, per_shard: u64) -> Option<Vec<sciml_store::ShardPlan>> {
    let ds = inner.datasets.get(name)?;
    Some(match &ds.plans {
        Some(plans) => plans.clone(),
        None => {
            let per = if per_shard == 0 {
                DEFAULT_PLAN_PER_SHARD
            } else {
                per_shard
            };
            plan_by_count(ds.cache.len() as u64, per)
        }
    })
}

fn unknown_dataset(name: &str) -> Message {
    Message::Error {
        code: ErrorCode::UnknownDataset,
        detail: format!("no dataset named '{name}'"),
    }
}
