//! Per-connection protocol state machine.
//!
//! The server is the engine's [`Service`]: each frame is decoded and
//! run through [`process_message`] with the connection's
//! [`SessionState`]. The `Hello` version check, the trace-context
//! unwrap, request dispatch, building the reply's frame, and request
//! accounting live here.

use crate::engine::{Piece, Reply, Service};
use crate::protocol::{
    decode_frame, encode_frame, ErrorCode, Message, SamplesFrame, PROTOCOL_VERSION,
};
use crate::server::Inner;
use sciml_pipeline::source::SampleBytes;
use sciml_pipeline::SampleSource;
use std::time::Instant;

/// State of one connection: the first message must be a `Hello`
/// carrying [`PROTOCOL_VERSION`].
#[derive(Debug, Default)]
pub(crate) struct SessionState {
    /// Whether that `Hello` has been received and acknowledged.
    greeted: bool,
}

impl Service for Inner {
    type Session = SessionState;

    fn handle(&self, state: &mut SessionState, frame: Vec<u8>) -> Reply {
        match decode_frame(&frame) {
            Ok((request, _)) => process_message(self, state, request),
            // Wire corruption: answer with a typed frame, then drop the
            // connection (framing may be unrecoverable after garbage).
            Err(e) => Reply::send_close(encode_frame(&Message::Error {
                code: ErrorCode::BadRequest,
                detail: format!("protocol error: {e}"),
            })),
        }
    }
}

/// Runs one request through the session state machine and returns the
/// reply's frame plus what to do with the connection. The greeting is
/// not counted as a request; everything after `Hello` records into
/// `serve.requests` / `serve.request_ns`, which covers building the
/// whole reply frame.
fn process_message(inner: &Inner, state: &mut SessionState, request: Message) -> Reply {
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
        // Acknowledge in kind; the engine begins its drain after the
        // reply is on the wire.
        Message::Shutdown => Reply {
            shutdown: true,
            ..Reply::send(encode_frame(&Message::Shutdown))
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
        Message::Manifest { name } => match inner.datasets.get(&name) {
            Some(ds) => Message::ManifestReply(ds.plan.clone()),
            None => unknown_dataset(&name),
        },
        // Client-bound messages arriving at the server, named by kind:
        // a body (a `Samples` batch) can be far longer than a detail.
        other => Message::Error {
            code: ErrorCode::BadRequest,
            detail: format!("unexpected message: {}", other.kind()),
        },
    }
}

fn unknown_dataset(name: &str) -> Message {
    Message::Error {
        code: ErrorCode::UnknownDataset,
        detail: format!("no dataset named '{name}'"),
    }
}
