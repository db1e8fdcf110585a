//! Per-connection protocol state machine.
//!
//! The reactor's [`Service`](sciml_net::Service) callback funnels every
//! decoded request through [`process_message`]: the `Hello` version
//! check, the trace-context unwrap, request dispatch, and request
//! accounting live here.

use crate::protocol::{DatasetEntry, ErrorCode, Message, PROTOCOL_VERSION};
use crate::server::Inner;
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

/// What the reactor glue must do with the computed reply.
#[derive(Debug)]
pub(crate) enum Disposition {
    /// Write the reply, keep the connection open.
    Reply(Message),
    /// Write the reply, then close this connection.
    ReplyThenClose(Message),
    /// Write the reply, then begin server shutdown/drain.
    ReplyThenShutdown(Message),
}

/// Runs one request through the session state machine and returns the
/// reply plus what to do with the connection. The greeting is not
/// counted as a request; everything after `Hello` records into
/// `serve.requests` / `serve.request_ns`.
pub(crate) fn process_message(
    inner: &Inner,
    state: &mut SessionState,
    request: Message,
) -> Disposition {
    if !state.greeted {
        return match request {
            Message::Hello { version } if version == PROTOCOL_VERSION => {
                state.greeted = true;
                Disposition::Reply(Message::HelloAck { version })
            }
            Message::Hello { version } => Disposition::ReplyThenClose(Message::Error {
                code: ErrorCode::VersionMismatch,
                detail: format!("client speaks v{version}, server speaks v{PROTOCOL_VERSION}"),
            }),
            _ => Disposition::ReplyThenClose(Message::Error {
                code: ErrorCode::BadRequest,
                detail: "first message must be Hello".into(),
            }),
        };
    }

    let started = Instant::now();
    // Unwrap the trace-context envelope. The linked span stays open
    // across respond(), so per-sample child spans nest under it and it
    // records the request's full handling time.
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
    let (reply, stop) = respond(inner, request);
    inner.metrics.record_request(started.elapsed());
    if stop {
        Disposition::ReplyThenShutdown(reply)
    } else {
        Disposition::Reply(reply)
    }
}

/// Computes the reply for one request; `true` means "begin shutdown
/// after the reply is on the wire".
fn respond(inner: &Inner, request: Message) -> (Message, bool) {
    let stats_reply = || Message::StatsReply(inner.stats());
    match request {
        Message::ListDatasets => {
            let entries = inner
                .datasets
                .iter()
                .map(|(name, ds)| DatasetEntry {
                    name: name.clone(),
                    len: ds.cache.len() as u64,
                })
                .collect();
            (Message::DatasetList(entries), false)
        }
        Message::Manifest { name } => match inner.datasets.get(&name) {
            Some(ds) => (
                Message::ManifestReply {
                    len: ds.cache.len() as u64,
                },
                false,
            ),
            None => (unknown_dataset(&name), false),
        },
        Message::FetchSamples { name, indices } => {
            let Some(ds) = inner.datasets.get(&name) else {
                return (unknown_dataset(&name), false);
            };
            let mut payloads = Vec::with_capacity(indices.len());
            let mut bytes = 0u64;
            for idx in &indices {
                if *idx >= ds.cache.len() as u64 {
                    return (
                        Message::Error {
                            code: ErrorCode::IndexOutOfRange,
                            detail: format!(
                                "index {idx} out of range for '{name}' (len {})",
                                ds.cache.len()
                            ),
                        },
                        false,
                    );
                }
                // Child of the connection's request span (when the
                // request arrived Traced); invisible otherwise.
                let _fetch_span = inner.tracer.span("serve", "fetch");
                match ds.cache.fetch(*idx as usize) {
                    Ok(sample) => {
                        bytes += sample.len() as u64;
                        payloads.push(sample);
                    }
                    Err(e) => {
                        return (
                            Message::Error {
                                code: ErrorCode::SourceError,
                                detail: format!("fetching '{name}'[{idx}]: {e}"),
                            },
                            false,
                        )
                    }
                }
            }
            inner.metrics.record_samples(payloads.len() as u64, bytes);
            (Message::Samples(payloads), false)
        }
        Message::ShardManifest { name, per_shard } => {
            match dataset_plans(inner, &name, per_shard) {
                Some(plans) => (Message::ShardManifestReply(plans), false),
                None => (unknown_dataset(&name), false),
            }
        }
        Message::ClusterManifest { name } => {
            let Some(plans) = dataset_plans(inner, &name, 0) else {
                return (unknown_dataset(&name), false);
            };
            // Without cluster config the server is a cluster of one:
            // every shard's sole replica is this node, so clients can
            // treat all servers uniformly.
            let (nodes, replication) = match &inner.cluster {
                Some(c) => (c.nodes.clone(), c.replication),
                None => (vec![inner.local_addr.to_string()], 1),
            };
            (
                Message::ClusterManifestReply(ClusterPlan::assign(&plans, &nodes, replication)),
                false,
            )
        }
        Message::Stats => (stats_reply(), false),
        // Acknowledge with the final counters; the reactor begins its
        // drain after the reply is on the wire.
        Message::Shutdown => (stats_reply(), true),
        // Client-bound messages arriving at the server.
        other => (
            Message::Error {
                code: ErrorCode::BadRequest,
                detail: format!("unexpected message: {other:?}"),
            },
            false,
        ),
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
