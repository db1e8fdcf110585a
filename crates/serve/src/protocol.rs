//! Length-prefixed, CRC-checked binary wire protocol.
//!
//! Every message travels in one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length N, u32 LE (tag + body; excludes CRC)
//! 4       N     payload: tag byte + message body
//! 4+N     4     CRC-32 (IEEE, reflected) of the payload, u32 LE
//! ```
//!
//! The length prefix is validated against [`MAX_FRAME_BYTES`] *before*
//! any allocation, so a corrupt or hostile peer cannot trigger an
//! oversized allocation; the CRC is validated before the payload is
//! parsed. All integers are little-endian. Strings are UTF-8 with a
//! `u16` length prefix.
//!
//! There is one protocol version, [`PROTOCOL_VERSION`]. A connection
//! opens with `Hello` carrying exactly that number; any other number is
//! answered with an `Error{VersionMismatch}` frame and a close. Any
//! change to a tag or a body bumps the number; there is no negotiation.
//! Tags 0x03, 0x04, 0x09, 0x0A, 0x0C, 0x0D, 0x0E, 0x10, 0x12, 0x13 and
//! 0x14 belonged to retired messages and stay unassigned. Server metrics
//! do not travel on this protocol: they are read from the scrape
//! endpoint ([`crate::scrape`]).

use crate::reactor::Piece;
use sciml_compress::crc32::{crc32, crc32_combine, Crc32};
use sciml_obs::TraceContext;
use sciml_store::{ClusterPlan, EncodingChoice, ShardAssignment, ShardPlan};
use std::fmt;
use std::io::{self, Read, Write};

/// The one protocol version. Both ends must carry exactly this number
/// in [`Message::Hello`] / [`Message::HelloAck`]; any change to a tag
/// or a message body bumps it.
pub const PROTOCOL_VERSION: u16 = 9;

/// Hard ceiling on a frame payload (64 MiB). Large enough for a batch
/// of encoded samples, small enough to bound per-connection memory.
/// One check holds every frame to it, the server's inbound ones and
/// those the stream readers take.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Protocol-level failures. Every decode path returns one of these —
/// corruption never panics and never hangs.
#[derive(Debug)]
pub enum ProtocolError {
    /// Frame or field ended before its declared length.
    Truncated,
    /// Frame CRC mismatch (corruption on the wire).
    BadCrc {
        /// CRC computed over the received payload.
        computed: u32,
        /// CRC carried by the frame trailer.
        stored: u32,
    },
    /// Unknown message tag byte.
    UnknownTag(u8),
    /// Length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// A counted field exceeds the enclosing payload.
    Malformed(&'static str),
    /// String field is not UTF-8.
    BadUtf8,
    /// Peer speaks an incompatible protocol version.
    VersionMismatch {
        /// Version offered by the peer.
        theirs: u16,
        /// Version spoken locally.
        ours: u16,
    },
    /// Underlying socket error.
    Io(io::Error),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "truncated frame"),
            ProtocolError::BadCrc { computed, stored } => write!(
                f,
                "frame CRC mismatch (computed {computed:#010x}, stored {stored:#010x})"
            ),
            ProtocolError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtocolError::Oversized(n) => write!(
                f,
                "frame length {n} exceeds the {MAX_FRAME_BYTES}-byte limit"
            ),
            ProtocolError::Malformed(what) => write!(f, "malformed message: {what}"),
            ProtocolError::BadUtf8 => write!(f, "string field is not UTF-8"),
            ProtocolError::VersionMismatch { theirs, ours } => {
                write!(f, "protocol version mismatch (peer {theirs}, local {ours})")
            }
            ProtocolError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Error codes carried by [`Message::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Dataset name not registered on the server.
    UnknownDataset = 1,
    /// Sample index beyond the dataset length.
    IndexOutOfRange = 2,
    /// Server at its concurrent-connection admission limit.
    Busy = 3,
    /// The peer's `Hello` carried a version other than ours.
    VersionMismatch = 4,
    /// The server failed reading the sample from its backing source.
    SourceError = 5,
    /// Request was malformed or arrived before `Hello`.
    BadRequest = 6,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::UnknownDataset,
            2 => ErrorCode::IndexOutOfRange,
            3 => ErrorCode::Busy,
            4 => ErrorCode::VersionMismatch,
            5 => ErrorCode::SourceError,
            6 => ErrorCode::BadRequest,
            _ => return None,
        })
    }
}

/// Every message of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client greeting with its protocol version. Must be first.
    Hello {
        /// Client protocol version.
        version: u16,
    },
    /// Server acceptance of a `Hello` carrying [`PROTOCOL_VERSION`].
    HelloAck {
        /// The server's protocol version.
        version: u16,
    },
    /// Client request for a dataset's description.
    Manifest {
        /// Dataset name.
        name: String,
    },
    /// Server reply to [`Message::Manifest`]: the dataset's shards —
    /// a packed store's own, or runs of a fixed sample count — each
    /// with its payload encoding, placed on the configured cluster's
    /// nodes (replica indices into the node list, primary first). A
    /// server without cluster config sends an empty node list and empty
    /// replica sets: its bind address may not be one a client can dial,
    /// so the client places every shard on the address it dialled.
    ManifestReply(ClusterPlan),
    /// Client request for a batch of encoded samples.
    FetchSamples {
        /// Dataset name.
        name: String,
        /// Sample indices, any order, duplicates allowed.
        indices: Vec<u64>,
    },
    /// Server reply: one payload per requested index, same order.
    Samples(Vec<Vec<u8>>),
    /// Request wrapper: carries the client's distributed-trace context
    /// so the server records its spans into the same trace. Wraps
    /// exactly one non-`Traced` request message.
    Traced {
        /// Trace the request belongs to.
        trace_id: u64,
        /// Client span to parent the server's request span under.
        parent_span: u64,
        /// The wrapped request.
        inner: Box<Message>,
    },
    /// Client request to stop the server (loopback/admin use). The
    /// server acknowledges it with a `Shutdown` frame of its own, then
    /// drains.
    Shutdown,
    /// Server-reported failure.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

mod tags {
    pub const HELLO: u8 = 0x01;
    pub const HELLO_ACK: u8 = 0x02;
    pub const MANIFEST: u8 = 0x05;
    pub const MANIFEST_REPLY: u8 = 0x06;
    pub const FETCH_SAMPLES: u8 = 0x07;
    pub const SAMPLES: u8 = 0x08;
    pub const SHUTDOWN: u8 = 0x0B;
    pub const ERROR: u8 = 0x0F;
    pub const TRACED: u8 = 0x11;
}

// ------------------------------------------------------------- encoding

/// A `u16`-length-prefixed string. A longer one keeps its first
/// `u16::MAX` bytes, cut back to a char boundary, so the prefix always
/// tells the bytes that follow.
fn put_str(out: &mut Vec<u8>, s: &str) {
    let s = &s[..s.floor_char_boundary(usize::from(u16::MAX))];
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_fetch_samples(out: &mut Vec<u8>, name: &str, indices: &[u64]) {
    out.push(tags::FETCH_SAMPLES);
    put_str(out, name);
    out.extend_from_slice(&(indices.len() as u32).to_le_bytes());
    for idx in indices {
        out.extend_from_slice(&idx.to_le_bytes());
    }
}

/// A `Traced` envelope up to the wrapped request, which follows it.
fn put_traced_head(out: &mut Vec<u8>, trace_id: u64, parent_span: u64) {
    out.push(tags::TRACED);
    out.extend_from_slice(&trace_id.to_le_bytes());
    out.extend_from_slice(&parent_span.to_le_bytes());
}

/// Wire size of one [`ShardPlan`]: 4 + 8 + 8 + 8 + 1.
const SHARD_PLAN_BYTES: usize = 29;

fn put_shard_plan(out: &mut Vec<u8>, p: &ShardPlan) {
    out.extend_from_slice(&p.id.to_le_bytes());
    out.extend_from_slice(&p.first.to_le_bytes());
    out.extend_from_slice(&p.count.to_le_bytes());
    out.extend_from_slice(&p.bytes.to_le_bytes());
    out.push(p.encoding.as_byte());
}

fn read_shard_plan(r: &mut Reader<'_>) -> Result<ShardPlan, ProtocolError> {
    Ok(ShardPlan {
        id: r.u32()?,
        first: r.u64()?,
        count: r.u64()?,
        bytes: r.u64()?,
        encoding: EncodingChoice::from_byte(r.u8()?)
            .ok_or(ProtocolError::Malformed("unknown shard encoding byte"))?,
    })
}

impl Message {
    /// The message's kind: its variant's name, without its body.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "Hello",
            Message::HelloAck { .. } => "HelloAck",
            Message::Manifest { .. } => "Manifest",
            Message::ManifestReply(_) => "ManifestReply",
            Message::FetchSamples { .. } => "FetchSamples",
            Message::Samples(_) => "Samples",
            Message::Traced { .. } => "Traced",
            Message::Shutdown => "Shutdown",
            Message::Error { .. } => "Error",
        }
    }

    /// Serializes the payload (tag + body, no frame envelope).
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_payload(&mut out);
        out
    }

    /// Appends the payload (tag + body, no frame envelope) to `out`, so
    /// a frame or an enclosing message is built in one buffer.
    pub fn write_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello { version } => {
                out.push(tags::HELLO);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Message::HelloAck { version } => {
                out.push(tags::HELLO_ACK);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Message::Manifest { name } => {
                out.push(tags::MANIFEST);
                put_str(out, name);
            }
            Message::ManifestReply(plan) => {
                out.push(tags::MANIFEST_REPLY);
                out.extend_from_slice(&(plan.nodes.len() as u16).to_le_bytes());
                for node in &plan.nodes {
                    put_str(out, node);
                }
                out.extend_from_slice(&plan.replication.to_le_bytes());
                out.extend_from_slice(&(plan.shards.len() as u32).to_le_bytes());
                for a in &plan.shards {
                    put_shard_plan(out, &a.plan);
                    out.extend_from_slice(&(a.replicas.len() as u16).to_le_bytes());
                    for idx in &a.replicas {
                        out.extend_from_slice(&idx.to_le_bytes());
                    }
                }
            }
            Message::FetchSamples { name, indices } => put_fetch_samples(out, name, indices),
            Message::Samples(payloads) => {
                out.push(tags::SAMPLES);
                out.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
                for p in payloads {
                    out.extend_from_slice(&(p.len() as u32).to_le_bytes());
                    out.extend_from_slice(p);
                }
            }
            Message::Traced {
                trace_id,
                parent_span,
                inner,
            } => {
                put_traced_head(out, *trace_id, *parent_span);
                inner.write_payload(out);
            }
            Message::Shutdown => out.push(tags::SHUTDOWN),
            Message::Error { code, detail } => {
                out.push(tags::ERROR);
                out.extend_from_slice(&(*code as u16).to_le_bytes());
                put_str(out, detail);
            }
        }
    }

    /// Parses a payload produced by [`Message::to_payload`].
    pub fn from_payload(payload: &[u8]) -> Result<Message, ProtocolError> {
        let mut r = Reader { buf: payload };
        let tag = r.u8()?;
        let msg = match tag {
            tags::HELLO => Message::Hello { version: r.u16()? },
            tags::HELLO_ACK => Message::HelloAck { version: r.u16()? },
            tags::MANIFEST => Message::Manifest { name: r.string()? },
            tags::MANIFEST_REPLY => {
                let node_count = r.u16()? as usize;
                let mut nodes = Vec::with_capacity(node_count.min(1024));
                for _ in 0..node_count {
                    nodes.push(r.string()?);
                }
                let replication = r.u16()?;
                let shard_count = r.u32()? as usize;
                // Each shard is at least a plan plus a u16 replica
                // count. Division form: `count * 31` could overflow
                // usize on 32-bit targets (the count is the peer's).
                if shard_count > r.remaining() / (SHARD_PLAN_BYTES + 2) {
                    return Err(ProtocolError::Malformed(
                        "shard assignment count exceeds payload length",
                    ));
                }
                let mut shards = Vec::with_capacity(shard_count);
                for _ in 0..shard_count {
                    let plan = read_shard_plan(&mut r)?;
                    let replica_count = r.u16()? as usize;
                    let mut replicas = Vec::with_capacity(replica_count.min(64));
                    for _ in 0..replica_count {
                        let idx = r.u16()?;
                        if idx as usize >= node_count {
                            return Err(ProtocolError::Malformed(
                                "replica index out of node range",
                            ));
                        }
                        replicas.push(idx);
                    }
                    shards.push(ShardAssignment { plan, replicas });
                }
                Message::ManifestReply(ClusterPlan {
                    nodes,
                    replication,
                    shards,
                })
            }
            tags::FETCH_SAMPLES => {
                let name = r.string()?;
                let count = r.u32()? as usize;
                // Division form, as for the shard count above.
                if count > r.remaining() / 8 {
                    return Err(ProtocolError::Malformed(
                        "index count exceeds payload length",
                    ));
                }
                let mut indices = Vec::with_capacity(count);
                for _ in 0..count {
                    indices.push(r.u64()?);
                }
                Message::FetchSamples { name, indices }
            }
            tags::SAMPLES => {
                let count = r.u32()? as usize;
                let mut payloads = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    let len = r.u32()? as usize;
                    payloads.push(r.bytes(len)?.to_vec());
                }
                Message::Samples(payloads)
            }
            tags::TRACED => {
                let trace_id = r.u64()?;
                let parent_span = r.u64()?;
                // Reject nesting by tag *before* recursing, so a
                // hostile Traced(Traced(…)) tower cannot blow the
                // stack.
                if r.buf.first() == Some(&tags::TRACED) {
                    return Err(ProtocolError::Malformed("nested trace context"));
                }
                let inner_payload = r.bytes(r.remaining())?;
                if inner_payload.is_empty() {
                    return Err(ProtocolError::Malformed("empty traced request"));
                }
                let inner = Message::from_payload(inner_payload)?;
                Message::Traced {
                    trace_id,
                    parent_span,
                    inner: Box::new(inner),
                }
            }
            tags::SHUTDOWN => Message::Shutdown,
            tags::ERROR => {
                let raw = r.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or(ProtocolError::Malformed("unknown error code"))?;
                let detail = r.string()?;
                Message::Error { code, detail }
            }
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        if r.remaining() != 0 {
            return Err(ProtocolError::Malformed("trailing bytes after message"));
        }
        Ok(msg)
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() < n {
            return Err(ProtocolError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u16()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }
}

// --------------------------------------------------------------- frames

/// Serializes a message into a complete frame (length + payload + CRC).
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    frame_into(&mut frame, |out| msg.write_payload(out));
    frame
}

/// Builds a frame in `out`, replacing its contents: a length
/// placeholder, the payload `write_payload` appends, the length patched,
/// the CRC appended — one buffer, written once.
fn frame_into(out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&[0u8; 4]);
    write_payload(out);
    let (head, payload) = out.split_at_mut(4);
    head.copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32(payload);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Writes the frame of a one-index [`Message::FetchSamples`] for sample
/// `idx` of `name` into `out`, replacing its contents — wrapped in
/// [`Message::Traced`] under `trace` — byte for byte what
/// [`encode_frame`] writes for that message, without building it: a
/// client that fetches sample by sample reuses one buffer per
/// connection.
pub(crate) fn write_fetch_one(
    out: &mut Vec<u8>,
    name: &str,
    idx: u64,
    trace: Option<TraceContext>,
) {
    frame_into(out, |out| {
        if let Some(ctx) = trace {
            put_traced_head(out, ctx.trace_id, ctx.span_id);
        }
        put_fetch_samples(out, name, &[idx]);
    });
}

/// A [`Message::Samples`] reply built as the pieces it is written from:
/// [`encode_frame`]'s bytes, but each sample is its own piece — a buffer
/// the reply takes over or shares — and is neither copied nor read. The
/// frame CRC is combined ([`crc32_combine`]) from the CRC-32 each sample
/// comes with and the few header bytes between them.
#[derive(Debug)]
pub(crate) struct SamplesFrame {
    /// Header placeholder, then samples with each later sample's length
    /// between them.
    pieces: Vec<Piece>,
    count: u32,
    first_len: u32,
    /// Bytes of the payload after the first sample's length, and their
    /// CRC (0, the CRC of nothing, to start).
    rest_len: u64,
    rest_crc: u32,
}

impl SamplesFrame {
    /// An empty reply, with room for `samples` samples.
    pub(crate) fn with_capacity(samples: usize) -> SamplesFrame {
        let mut pieces = Vec::with_capacity(2 * samples + 1);
        pieces.push(Piece::copy_of(&[]));
        SamplesFrame {
            pieces,
            count: 0,
            first_len: 0,
            rest_len: 0,
            rest_crc: 0,
        }
    }

    /// Appends one sample: `bytes`, whose CRC-32 is `crc` — trusted,
    /// not recomputed; the client's frame check is what catches a wrong
    /// one.
    pub(crate) fn push(&mut self, bytes: Piece, crc: u32) {
        let len = bytes.len() as u32;
        if self.count == 0 {
            self.first_len = len;
        } else {
            let len_bytes = len.to_le_bytes();
            self.append_crc(crc32(&len_bytes), 4);
            self.pieces.push(Piece::copy_of(&len_bytes));
        }
        self.append_crc(crc, u64::from(len));
        self.pieces.push(bytes);
        self.count += 1;
    }

    fn append_crc(&mut self, crc: u32, len: u64) {
        self.rest_crc = crc32_combine(self.rest_crc, crc, len);
        self.rest_len += len;
    }

    /// The frame's pieces, header and CRC trailer in place.
    pub(crate) fn finish(mut self) -> Vec<Piece> {
        // `len | tag | count | len₀`; no `len₀` in a reply of none.
        let mut head = [0u8; 4 + ONE_SAMPLE_PREFIX];
        let head_len = if self.count == 0 { 9 } else { 13 };
        let payload_len = (head_len - 4) as u64 + self.rest_len;
        head[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        head[4] = tags::SAMPLES;
        head[5..9].copy_from_slice(&self.count.to_le_bytes());
        head[9..].copy_from_slice(&self.first_len.to_le_bytes());
        let head = &head[..head_len];
        let crc = crc32_combine(crc32(&head[4..]), self.rest_crc, self.rest_len);
        if let Some(first) = self.pieces.first_mut() {
            *first = Piece::copy_of(head);
        }
        self.pieces.push(Piece::copy_of(&crc.to_le_bytes()));
        self.pieces
    }
}

/// Little-endian u32 at `at` (caller has already bounds-checked; plain
/// indexing keeps this panic-free under the repo's no_panics lint).
fn le_u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// Total on-wire size of the frame whose length prefix starts `buf`:
/// prefix, payload and CRC trailer. The prefix is held to
/// [`MAX_FRAME_BYTES`] here, before anything is sized from it; `Ok(None)`
/// means the prefix is not complete yet. The one check of the envelope:
/// the reactor splits its inbound bytes with it, and [`decode_frame`]
/// and the stream readers call it too.
pub(crate) fn frame_len(buf: &[u8]) -> Result<Option<usize>, ProtocolError> {
    let Some(&prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::Oversized(len));
    }
    Ok(Some(4 + len as usize + 4))
}

/// Parses one complete frame from a byte slice, returning the message
/// and the number of bytes consumed.
pub fn decode_frame(buf: &[u8]) -> Result<(Message, usize), ProtocolError> {
    let total = frame_len(buf)?.ok_or(ProtocolError::Truncated)?;
    if buf.len() < total {
        return Err(ProtocolError::Truncated);
    }
    let payload = &buf[4..total - 4];
    let stored = le_u32_at(buf, total - 4);
    let computed = crc32(payload);
    if stored != computed {
        return Err(ProtocolError::BadCrc { computed, stored });
    }
    Ok((Message::from_payload(payload)?, total))
}

/// Writes one frame to a stream.
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<(), ProtocolError> {
    let frame = encode_frame(msg);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// The payload length a frame's prefix declares, checked by
/// [`frame_len`] before anything is sized from it.
fn read_frame_len(r: &mut impl Read) -> Result<usize, ProtocolError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let total = frame_len(&prefix)?.ok_or(ProtocolError::Truncated)?;
    Ok(total - 8)
}

/// A frame's CRC trailer against the CRC of the payload just read.
fn check_trailer(r: &mut impl Read, computed: u32) -> Result<(), ProtocolError> {
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer)?;
    let stored = u32::from_le_bytes(trailer);
    if stored != computed {
        return Err(ProtocolError::BadCrc { computed, stored });
    }
    Ok(())
}

/// The rest of a frame whose `len`-byte payload starts with `have`
/// (bytes already taken off the stream): CRC checked, then parsed.
fn read_rest_of_message(
    r: &mut impl Read,
    have: &[u8],
    len: usize,
) -> Result<Message, ProtocolError> {
    let mut payload = vec![0u8; len];
    let (head, rest) = payload.split_at_mut(have.len());
    head.copy_from_slice(have);
    r.read_exact(rest)?;
    check_trailer(r, crc32(&payload))?;
    Message::from_payload(&payload)
}

/// Reads one frame from a stream, enforcing the size limit before
/// allocating and the CRC before parsing.
pub fn read_message(r: &mut impl Read) -> Result<Message, ProtocolError> {
    let len = read_frame_len(r)?;
    read_rest_of_message(r, &[], len)
}

/// Bytes of a `Samples` payload before the first sample's own: tag,
/// count, length.
const ONE_SAMPLE_PREFIX: usize = 9;

/// Reads the reply to a one-index [`Message::FetchSamples`], landing the
/// sample in `buf` (replacing its contents) straight off the stream: no
/// frame-sized buffer between, no zero-fill, the CRC folded over the
/// bytes where they lie and checked before returning. `Ok(None)` is
/// that sample; any other reply — another tag, a sample count other
/// than one, a sample length that disagrees with the frame's — is read
/// whole and parsed by [`Message::from_payload`] like every frame, and
/// comes back as `Ok(Some(message))` or its error. `buf` is left empty
/// unless the result is `Ok(None)`.
pub fn read_sample_into(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
) -> Result<Option<Message>, ProtocolError> {
    buf.clear();
    let reply = read_sample_reply(r, buf);
    if !matches!(reply, Ok(None)) {
        buf.clear();
    }
    reply
}

fn read_sample_reply(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
) -> Result<Option<Message>, ProtocolError> {
    let len = read_frame_len(r)?;
    let mut prefix = [0u8; ONE_SAMPLE_PREFIX];
    let have = len.min(ONE_SAMPLE_PREFIX);
    r.read_exact(&mut prefix[..have])?;
    let one_sample = have == ONE_SAMPLE_PREFIX
        && prefix[0] == tags::SAMPLES
        && le_u32_at(&prefix, 1) == 1
        && le_u32_at(&prefix, 5) as usize == len - ONE_SAMPLE_PREFIX;
    if !one_sample {
        return read_rest_of_message(r, &prefix[..have], len).map(Some);
    }
    let body = len - ONE_SAMPLE_PREFIX;
    // Exactly: a recycled buffer a few bytes short would otherwise
    // double, and samples of one dataset are all about one size.
    buf.reserve_exact(body);
    // `read_to_end` fills spare capacity in place; the limit stops it
    // at the trailer.
    if r.by_ref().take(body as u64).read_to_end(buf)? != body {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    let mut crc = Crc32::new();
    crc.update(&prefix);
    crc.update(buf);
    check_trailer(r, crc.finalize())?;
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame with a valid envelope around an arbitrary payload.
    fn raw_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Hello { version: 9 },
            Message::HelloAck { version: 9 },
            Message::Manifest {
                name: "cosmo".into(),
            },
            Message::FetchSamples {
                name: "cosmo".into(),
                indices: vec![0, 5, 1023, 5],
            },
            Message::Samples(vec![vec![1, 2, 3], vec![], vec![0xFF; 300]]),
            Message::Traced {
                trace_id: 0xDEAD_BEEF_0BAD_F00D,
                parent_span: 0x1234_5678_9ABC_DEF0,
                inner: Box::new(Message::FetchSamples {
                    name: "cosmo".into(),
                    indices: vec![7, 8, 9],
                }),
            },
            Message::ManifestReply(ClusterPlan {
                nodes: vec!["127.0.0.1:7401".into(), "127.0.0.1:7402".into()],
                replication: 2,
                shards: vec![
                    ShardAssignment {
                        plan: ShardPlan {
                            id: 0,
                            first: 0,
                            count: 128,
                            bytes: 1 << 20,
                            encoding: EncodingChoice::Auto,
                        },
                        replicas: vec![1, 0],
                    },
                    ShardAssignment {
                        plan: ShardPlan {
                            id: 1,
                            first: 128,
                            count: 64,
                            bytes: 512,
                            encoding: EncodingChoice::Raw,
                        },
                        replicas: vec![0, 1],
                    },
                ],
            }),
            // What a server without cluster config sends.
            Message::ManifestReply(ClusterPlan {
                nodes: Vec::new(),
                replication: 1,
                shards: vec![ShardAssignment {
                    plan: ShardPlan {
                        id: 0,
                        first: 0,
                        count: 100,
                        bytes: 0,
                        encoding: EncodingChoice::Gzip,
                    },
                    replicas: Vec::new(),
                }],
            }),
            Message::Shutdown,
            Message::Error {
                code: ErrorCode::Busy,
                detail: "admission limit".into(),
            },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in all_messages() {
            let frame = encode_frame(&msg);
            let (decoded, consumed) = decode_frame(&frame).expect("roundtrip");
            assert_eq!(decoded, msg);
            assert_eq!(consumed, frame.len());
            assert_eq!(frame_len(&frame).ok(), Some(Some(frame.len())));
        }
        // A complete prefix is enough: the rest need not have arrived.
        for (head, total) in [
            (&[5, 0, 0, 0, 1, 2][..], 4 + 5 + 4),
            (&[0, 0, 0, 0][..], 8),
            (
                &MAX_FRAME_BYTES.to_le_bytes()[..],
                4 + MAX_FRAME_BYTES as usize + 4,
            ),
        ] {
            assert_eq!(frame_len(head).ok(), Some(Some(total)), "{head:?}");
        }
    }

    #[test]
    fn an_over_long_string_is_cut_to_fit_its_prefix() {
        // 'é' is two bytes: the cut at u16::MAX falls inside one and
        // moves back to the boundary before it.
        for (detail, kept) in [
            ("é".repeat(40_000), usize::from(u16::MAX) - 1),
            ("x".repeat(70_000), usize::from(u16::MAX)),
            ("x".repeat(usize::from(u16::MAX)), usize::from(u16::MAX)),
        ] {
            let msg = Message::Error {
                code: ErrorCode::BadRequest,
                detail: detail.clone(),
            };
            let Ok((Message::Error { detail: got, .. }, _)) = decode_frame(&encode_frame(&msg))
            else {
                panic!("{}-byte detail did not round-trip", detail.len());
            };
            assert_eq!(got, detail[..kept]);
        }
    }

    #[test]
    fn in_place_frame_equals_length_payload_crc_concatenation() {
        let mut msgs = all_messages();
        msgs.push(Message::Samples(vec![vec![0xA5; 70_000], Vec::new()]));
        for msg in msgs {
            let payload = msg.to_payload();
            let mut want = (payload.len() as u32).to_le_bytes().to_vec();
            want.extend_from_slice(&payload);
            want.extend_from_slice(&crc32(&payload).to_le_bytes());
            let frame = encode_frame(&msg);
            assert_eq!(frame, want, "{msg:?}");
        }
    }

    /// The bytes a list of pieces writes, one after the other.
    fn concat(pieces: &[Piece]) -> Vec<u8> {
        pieces.iter().flat_map(|p| p.as_bytes()).copied().collect()
    }

    #[test]
    fn a_gathered_samples_frame_is_encode_frame_byte_for_byte() {
        let big: Vec<u8> = (0..70_000u32).map(|i| (i * 7 + i / 251) as u8).collect();
        let sets: Vec<Vec<Vec<u8>>> = vec![
            vec![],
            vec![Vec::new()],
            vec![vec![9]],
            vec![big.clone()],
            vec![vec![1, 2, 3], Vec::new(), vec![0xFF; 300]],
            vec![Vec::new(), Vec::new(), big.clone()],
            vec![big.clone(), vec![0; ONE_SAMPLE_PREFIX], big],
        ];
        for samples in sets {
            let mut frame = SamplesFrame::with_capacity(samples.len());
            for (i, s) in samples.iter().enumerate() {
                // Every way a sample arrives: owned, shared, inline.
                let piece = match i % 3 {
                    0 => Piece::from(s.clone()),
                    1 => Piece::shared(std::sync::Arc::new(s.clone())),
                    _ => Piece::copy_of(s),
                };
                frame.push(piece, crc32(s));
            }
            let pieces = frame.finish();
            // Header, samples, the lengths between them, trailer.
            let want_pieces = (2 * samples.len() + 1).max(2);
            assert_eq!(pieces.len(), want_pieces, "{} samples", samples.len());
            let want = encode_frame(&Message::Samples(samples.clone()));
            assert!(concat(&pieces) == want, "{} samples", samples.len());
        }
    }

    #[test]
    fn a_gathered_frame_carries_the_crc_it_was_given() {
        // One sample under a CRC its bytes do not have: every byte of
        // the frame as `encode_frame` writes it but the trailer, which
        // the frame check then refuses.
        let sample = vec![0x5A; 3000];
        let mut frame = SamplesFrame::with_capacity(1);
        frame.push(Piece::from(sample.clone()), crc32(&sample) ^ 1);
        let got = concat(&frame.finish());
        let want = encode_frame(&Message::Samples(vec![sample]));
        let body = want.len() - 4;
        assert_eq!(got[..body], want[..body]);
        assert_ne!(got[body..], want[body..]);
        assert!(matches!(
            decode_frame(&got),
            Err(ProtocolError::BadCrc { .. })
        ));
        let mut buf = Vec::new();
        assert!(matches!(
            read_sample_into(&mut &got[..], &mut buf),
            Err(ProtocolError::BadCrc { .. })
        ));
    }

    #[test]
    fn a_one_index_fetch_is_written_as_encode_frame_writes_it() {
        let mut out = vec![0xEE; 100];
        for (name, idx) in [
            ("cosmo", 0u64),
            ("", u64::MAX),
            ("deepcam_plugin_remote", 7),
        ] {
            let fetch = Message::FetchSamples {
                name: name.into(),
                indices: vec![idx],
            };
            write_fetch_one(&mut out, name, idx, None);
            assert_eq!(out, encode_frame(&fetch));
            let ctx = TraceContext::root();
            write_fetch_one(&mut out, name, idx, Some(ctx));
            let traced = Message::Traced {
                trace_id: ctx.trace_id,
                parent_span: ctx.span_id,
                inner: Box::new(fetch),
            };
            assert_eq!(out, encode_frame(&traced));
        }
    }

    /// A recycled reader buffer: 4 KiB of another sample's bytes.
    fn dirty_buf() -> Vec<u8> {
        vec![0xEE; 4096]
    }

    #[test]
    fn one_sample_lands_in_the_callers_buffer_as_read_message_parses_it() {
        let big: Vec<u8> = (0..70_000u32).map(|i| (i * 7 + i / 251) as u8).collect();
        for sample in [big, Vec::new(), vec![9], vec![0; ONE_SAMPLE_PREFIX]] {
            let frame = encode_frame(&Message::Samples(vec![sample.clone()]));
            let Message::Samples(parsed) = read_message(&mut &frame[..]).unwrap() else {
                panic!("not a Samples reply");
            };
            let mut buf = dirty_buf();
            let mut stream = &frame[..];
            assert!(read_sample_into(&mut stream, &mut buf).unwrap().is_none());
            assert_eq!(vec![buf.clone()], parsed, "{} bytes", sample.len());
            assert!(stream.is_empty(), "the whole frame and no more was read");
            // Cut anywhere, it is an error and the buffer is empty.
            for cut in (0..frame.len()).step_by(frame.len() / 40 + 1) {
                assert!(read_sample_into(&mut &frame[..cut], &mut buf).is_err());
                assert!(buf.is_empty(), "cut {cut}");
            }
        }
    }

    #[test]
    fn a_damaged_or_lying_sample_reply_is_typed_and_clears_the_buffer() {
        let sample = vec![0x5A; 3000];
        let frame = encode_frame(&Message::Samples(vec![sample.clone()]));
        // One payload bit, the prefix, the trailer: all under the CRC.
        for at in [4 + ONE_SAMPLE_PREFIX + 1234, 5, frame.len() - 2] {
            let mut bad = frame.clone();
            bad[at] ^= 0x10;
            let mut buf = dirty_buf();
            assert!(
                matches!(
                    read_sample_into(&mut &bad[..], &mut buf),
                    Err(ProtocolError::BadCrc { .. })
                ),
                "flip at {at}"
            );
            assert!(buf.is_empty(), "flip at {at}");
        }
        // A sample length that disagrees with the frame's, under a CRC
        // that vouches for it: the frame parser's error, not a short or
        // long read.
        for lie in [2999u32, 3001, 0, u32::MAX] {
            let mut payload = Message::Samples(vec![sample.clone()]).to_payload();
            payload[5..9].copy_from_slice(&lie.to_le_bytes());
            let bad = raw_frame(&payload);
            let mut buf = dirty_buf();
            let want = Message::from_payload(&payload).unwrap_err();
            let got = read_sample_into(&mut &bad[..], &mut buf).unwrap_err();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "len {lie}");
            assert!(buf.is_empty(), "len {lie}");
        }
        // An oversized frame is refused before anything is reserved.
        let mut buf = dirty_buf();
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        assert!(matches!(
            read_sample_into(&mut &huge[..], &mut buf),
            Err(ProtocolError::Oversized(_))
        ));
        assert!(buf.is_empty() && buf.capacity() == 4096);
    }

    #[test]
    fn any_other_reply_comes_back_parsed() {
        for msg in all_messages() {
            if matches!(&msg, Message::Samples(p) if p.len() == 1) {
                continue;
            }
            let frame = encode_frame(&msg);
            let mut buf = dirty_buf();
            let got = read_sample_into(&mut &frame[..], &mut buf).unwrap();
            assert_eq!(got, Some(msg));
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn every_truncation_errors() {
        for msg in all_messages() {
            let frame = encode_frame(&msg);
            for cut in 0..frame.len() {
                assert!(
                    decode_frame(&frame[..cut]).is_err(),
                    "cut {cut} of {msg:?} did not error"
                );
                // Short of a whole prefix, the reactor waits for more.
                let want = (cut >= 4).then_some(frame.len());
                assert_eq!(frame_len(&frame[..cut]).ok(), Some(want));
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // CRC-32 detects all single-bit errors; flipping any bit of the
        // frame must produce *some* protocol error (never a silent
        // wrong decode of the same length).
        let frame = encode_frame(&Message::FetchSamples {
            name: "ds".into(),
            indices: vec![1, 2, 3],
        });
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut corrupt = frame.clone();
                corrupt[byte] ^= 1 << bit;
                match decode_frame(&corrupt) {
                    Err(_) => {}
                    Ok((msg, _)) => panic!("bit {bit} of byte {byte} decoded silently as {msg:?}"),
                }
            }
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut frame = vec![0u8; 16];
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(ProtocolError::Oversized(_))
        ));
        // The cap itself is a frame; one byte past it is not, judged
        // on the prefix alone.
        for len in [MAX_FRAME_BYTES + 1, u32::MAX] {
            assert!(matches!(
                frame_len(&len.to_le_bytes()),
                Err(ProtocolError::Oversized(n)) if n == len
            ));
        }
        // Streaming path too.
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_message(&mut cursor),
            Err(ProtocolError::Oversized(_))
        ));
    }

    #[test]
    fn unknown_and_retired_tags_rejected() {
        // 0x0A, 0x0C and 0x0E carried the retired v1/v2 stats replies
        // and the v3 shard-manifest reply; 0x03/0x04 (the dataset
        // table), 0x0D/0x10 (the shard manifest) and 0x13/0x14 (the
        // cluster manifest) left in v8, when `Manifest` took over;
        // 0x09/0x12 (`Stats` and its reply) left in v9, when server
        // metrics moved to the scrape endpoint alone. A valid CRC does
        // not revive them.
        for tag in [
            0xEEu8, 0x0A, 0x0C, 0x0E, 0x03, 0x04, 0x0D, 0x10, 0x13, 0x14, 0x09, 0x12,
        ] {
            assert!(matches!(
                decode_frame(&raw_frame(&[tag, 0, 0])),
                Err(ProtocolError::UnknownTag(t)) if t == tag
            ));
        }
    }

    #[test]
    fn inner_count_beyond_payload_rejected() {
        // A FetchSamples claiming 1000 indices in a short payload.
        let mut payload = vec![tags::FETCH_SAMPLES];
        payload.extend_from_slice(&2u16.to_le_bytes());
        payload.extend_from_slice(b"ds");
        payload.extend_from_slice(&1000u32.to_le_bytes());
        payload.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode_frame(&raw_frame(&payload)),
            Err(ProtocolError::Malformed(_))
        ));
    }

    /// A `ManifestReply` payload up to its first shard: one node,
    /// replication 1, `shards` claimed.
    fn manifest_reply_head(shards: u32) -> Vec<u8> {
        let mut payload = vec![tags::MANIFEST_REPLY];
        payload.extend_from_slice(&1u16.to_le_bytes()); // node count
        payload.extend_from_slice(&4u16.to_le_bytes());
        payload.extend_from_slice(b"addr");
        payload.extend_from_slice(&1u16.to_le_bytes()); // replication
        payload.extend_from_slice(&shards.to_le_bytes());
        payload
    }

    #[test]
    fn manifest_reply_replica_out_of_range_rejected() {
        // A one-node plan whose shard claims replica index 5.
        let mut payload = manifest_reply_head(1);
        payload.extend_from_slice(&0u32.to_le_bytes()); // id
        payload.extend_from_slice(&0u64.to_le_bytes()); // first
        payload.extend_from_slice(&1u64.to_le_bytes()); // count
        payload.extend_from_slice(&0u64.to_le_bytes()); // bytes
        payload.push(EncodingChoice::Raw.as_byte());
        payload.extend_from_slice(&1u16.to_le_bytes()); // replica count
        payload.extend_from_slice(&5u16.to_le_bytes()); // out of range
        assert!(matches!(
            decode_frame(&raw_frame(&payload)),
            Err(ProtocolError::Malformed("replica index out of node range"))
        ));
    }

    #[test]
    fn manifest_reply_shard_count_beyond_payload_rejected() {
        // 50 000 shards claimed, room for one.
        let mut payload = manifest_reply_head(50_000);
        payload.extend_from_slice(&[0u8; SHARD_PLAN_BYTES + 2]);
        assert!(matches!(
            decode_frame(&raw_frame(&payload)),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn manifest_reply_shard_count_overflow_rejected() {
        // shard_count = u32::MAX: `count * 31` would wrap usize on
        // 32-bit targets and bypass the bound check, so the decoder
        // must use an overflow-free comparison and reject outright.
        let mut payload = manifest_reply_head(u32::MAX);
        payload.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            decode_frame(&raw_frame(&payload)),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn manifest_reply_unknown_encoding_byte_rejected() {
        let mut payload = manifest_reply_head(1);
        payload.extend_from_slice(&[0u8; SHARD_PLAN_BYTES - 1]);
        payload.push(0xEE); // not a valid EncodingChoice byte
        payload.extend_from_slice(&0u16.to_le_bytes()); // replica count
        assert!(matches!(
            decode_frame(&raw_frame(&payload)),
            Err(ProtocolError::Malformed("unknown shard encoding byte"))
        ));
    }

    #[test]
    fn nested_traced_rejected_without_recursion() {
        let inner = Message::Traced {
            trace_id: 1,
            parent_span: 2,
            inner: Box::new(Message::Shutdown),
        };
        let outer = Message::Traced {
            trace_id: 3,
            parent_span: 4,
            inner: Box::new(inner),
        };
        assert!(matches!(
            decode_frame(&encode_frame(&outer)),
            Err(ProtocolError::Malformed("nested trace context"))
        ));
        // A deep tower must be rejected at the first nesting level,
        // not by exhausting the stack.
        let mut payload = Vec::new();
        for _ in 0..10_000 {
            payload.push(tags::TRACED);
            payload.extend_from_slice(&[0u8; 16]);
        }
        payload.push(tags::SHUTDOWN);
        assert!(matches!(
            decode_frame(&raw_frame(&payload)),
            Err(ProtocolError::Malformed("nested trace context"))
        ));
    }

    #[test]
    fn empty_traced_rejected() {
        let mut payload = vec![tags::TRACED];
        payload.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode_frame(&raw_frame(&payload)),
            Err(ProtocolError::Malformed("empty traced request"))
        ));
    }

    /// Hex of `encode_frame`, captured at v9. `Traced{FetchSamples}`
    /// and both `ManifestReply` frames are byte for byte their v8
    /// captures; v9 changed the `Hello` number, retired `Stats` and its
    /// reply, and made `Shutdown` the server's acknowledgement too.
    /// Each must still be what some entry of `all_messages()` encodes
    /// to; the tag byte ties it to its message.
    #[test]
    fn golden_wire_vectors() {
        let frames: Vec<Vec<u8>> = all_messages().iter().map(encode_frame).collect();
        let golden = [
            ("Hello{9}", "030000000109006c08412f"),
            ("Shutdown", "010000000b0536d045"),
            (
                "Traced{FetchSamples}",
                "35000000110df0ad0befbeaddef0debc9a78563412070500636f736d6f\
                 030000000700000000000000080000000000000009000000000000001322bfa7",
            ),
            (
                "ManifestReply, two nodes",
                "6f0000000602000e003132372e302e302e313a373430310e003132372e30\
                 2e302e313a37343032020002000000000000000000000000000000800000\
                 000000000000001000000000000302000100000001000000800000000000\
                 00004000000000000000000200000000000000020000000100ce104957",
            ),
            (
                "ManifestReply, no cluster",
                "280000000600000100010000000000000000000000000000006400000000\
                 00000000000000000000000100009fa1dd70",
            ),
        ];
        for (name, hex) in golden {
            let frame: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            assert!(frames.contains(&frame), "{name} changed on the wire");
        }
    }

    #[test]
    fn stream_roundtrip() {
        let mut buf = Vec::new();
        for msg in all_messages() {
            write_message(&mut buf, &msg).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for msg in all_messages() {
            assert_eq!(read_message(&mut cursor).unwrap(), msg);
        }
    }
}
