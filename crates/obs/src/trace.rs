//! Lightweight span tracer emitting Chrome trace-event JSON.
//!
//! A [`Tracer`] hands out RAII [`SpanGuard`]s; each completed span
//! becomes one `ph: "X"` (complete) event with the recording thread's
//! id and wall-clock offsets from the tracer's epoch. Events land in a
//! bounded ring buffer — when full, the oldest events are overwritten
//! and counted, so a long run keeps its *tail* (the interesting part of
//! an epoch timeline) at fixed memory cost.
//!
//! A disabled tracer costs one relaxed atomic load per span: no clock
//! read, no allocation, no lock. The emitted file loads directly in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::context::{fresh_id, ContextGuard, TraceContext};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Small dense per-process thread ids (`ThreadId` has no stable integer
/// accessor, and Perfetto tracks lanes by small integers anyway).
fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Distributed-trace identity of a span: which trace it belongs to,
/// its own id, and its parent's id (0 = trace root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanIds {
    /// Trace the span belongs to (shared across processes).
    pub trace_id: u64,
    /// The span's own id.
    pub span_id: u64,
    /// Parent span id; 0 marks a trace root.
    pub parent_id: u64,
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (`"fetch"`, `"decode"`, …).
    pub name: &'static str,
    /// Category lane (`"pipeline"`, `"serve"`, …).
    pub cat: &'static str,
    /// Dense id of the recording thread.
    pub tid: u64,
    /// Start offset from the tracer epoch, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
    /// Distributed-trace identity, when the span was opened inside (or
    /// as the root of) a [`TraceContext`].
    pub ids: Option<SpanIds>,
}

struct Ring {
    buf: Vec<TraceEvent>,
    /// Next write position once the buffer has wrapped.
    next: usize,
    wrapped: bool,
}

/// Span tracer. Share as `Arc<Tracer>`; spans record from any thread.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    /// Wall-clock time of `epoch`, nanoseconds since the Unix epoch.
    /// Lets traces from different processes be aligned after the fact.
    epoch_unix_ns: u64,
    capacity: usize,
    ring: Mutex<Ring>,
    dropped: AtomicU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl Tracer {
    /// Enabled tracer keeping at most `capacity` most-recent events.
    pub fn new(capacity: usize) -> Arc<Self> {
        let epoch_unix_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        Arc::new(Self {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            epoch_unix_ns,
            capacity: capacity.max(1),
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                next: 0,
                wrapped: false,
            }),
            dropped: AtomicU64::new(0),
        })
    }

    /// Disabled tracer: spans are free, nothing is recorded.
    pub fn disabled() -> Arc<Self> {
        let t = Self::new(1024);
        t.enabled.store(false, Ordering::Relaxed);
        t
    }

    /// Whether spans currently record.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Opens a span; it records when the guard drops. When the tracer
    /// is disabled this is a single atomic load. If a [`TraceContext`]
    /// is installed on the current thread the span joins that trace as
    /// a child and becomes the current context for its extent.
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard::inert(cat, name);
        }
        let (ids, ctx) = match TraceContext::current() {
            Some(cur) => {
                let child = cur.child();
                (
                    Some(SpanIds {
                        trace_id: child.trace_id,
                        span_id: child.span_id,
                        parent_id: cur.span_id,
                    }),
                    Some(TraceContext::install(child)),
                )
            }
            None => (None, None),
        };
        SpanGuard {
            tracer: Some(self),
            cat,
            name,
            start: Some(Instant::now()),
            ids,
            ctx,
        }
    }

    /// Opens a span that starts a brand-new trace, installing its
    /// context on the current thread so nested spans (and outbound
    /// requests) join the trace. No-op when disabled.
    pub fn span_root(&self, cat: &'static str, name: &'static str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard::inert(cat, name);
        }
        let ctx = TraceContext::root();
        SpanGuard {
            tracer: Some(self),
            cat,
            name,
            start: Some(Instant::now()),
            ids: Some(SpanIds {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent_id: 0,
            }),
            ctx: Some(TraceContext::install(ctx)),
        }
    }

    /// Opens a span whose parent lives in *another process* (the ids
    /// arrived over the wire). The span joins `trace_id` under
    /// `parent_span` and installs itself as the current context so
    /// local child spans nest beneath it. No-op when disabled.
    pub fn span_linked(
        &self,
        cat: &'static str,
        name: &'static str,
        trace_id: u64,
        parent_span: u64,
    ) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard::inert(cat, name);
        }
        let ctx = TraceContext {
            trace_id,
            span_id: fresh_id(),
        };
        SpanGuard {
            tracer: Some(self),
            cat,
            name,
            start: Some(Instant::now()),
            ids: Some(SpanIds {
                trace_id,
                span_id: ctx.span_id,
                parent_id: parent_span,
            }),
            ctx: Some(TraceContext::install(ctx)),
        }
    }

    fn push(&self, ev: TraceEvent) {
        let mut ring = self.ring.lock();
        if ring.buf.len() < self.capacity {
            ring.buf.push(ev);
        } else {
            let pos = ring.next;
            ring.buf[pos] = ev;
            ring.next = (pos + 1) % self.capacity;
            ring.wrapped = true;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Retained events in recording order (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock();
        if !ring.wrapped {
            ring.buf.clone()
        } else {
            let mut out = Vec::with_capacity(ring.buf.len());
            out.extend_from_slice(&ring.buf[ring.next..]);
            out.extend_from_slice(&ring.buf[..ring.next]);
            out
        }
    }

    /// Writes the retained events as a Chrome trace-event JSON object
    /// (`{"traceEvents": [...]}`), timestamps in microseconds.
    ///
    /// Distributed-trace ids are emitted as fixed-width hex *strings*
    /// under `args` (u64s do not survive an f64-based JSON parser), and
    /// the tracer's wall-clock epoch rides along as a top-level
    /// `"epochNs"` string so `trace-merge` can align processes.
    pub fn write_chrome_trace(&self, w: &mut impl Write) -> io::Result<()> {
        let events = self.events();
        write!(
            w,
            "{{\"displayTimeUnit\":\"ms\",\"epochNs\":\"{}\",\"traceEvents\":[",
            self.epoch_unix_ns
        )?;
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}",
                ev.name,
                ev.cat,
                ev.tid,
                ev.start_ns as f64 / 1e3,
                ev.dur_ns as f64 / 1e3,
            )?;
            if let Some(ids) = ev.ids {
                write!(
                    w,
                    ",\"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"}}",
                    ids.trace_id, ids.span_id, ids.parent_id,
                )?;
            }
            write!(w, "}}")?;
        }
        writeln!(w, "\n]}}")
    }
}

/// RAII span: records on drop. Obtain via [`Tracer::span`],
/// [`Tracer::span_root`], or [`Tracer::span_linked`].
#[must_use = "a span records when the guard drops; binding to _ ends it immediately"]
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    cat: &'static str,
    name: &'static str,
    start: Option<Instant>,
    ids: Option<SpanIds>,
    /// Restores the previous thread-local context when the span ends.
    ctx: Option<ContextGuard>,
}

impl SpanGuard<'_> {
    fn inert(cat: &'static str, name: &'static str) -> Self {
        Self {
            tracer: None,
            cat,
            name,
            start: None,
            ids: None,
            ctx: None,
        }
    }

    /// The span's distributed-trace ids, if it joined a trace.
    pub fn ids(&self) -> Option<SpanIds> {
        self.ids
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        // Uninstall the context before recording so the event captures
        // ids fixed at open time.
        self.ctx = None;
        let (Some(tracer), Some(start)) = (self.tracer, self.start) else {
            return;
        };
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let start_ns =
            u64::try_from(start.duration_since(tracer.epoch).as_nanos()).unwrap_or(u64::MAX);
        tracer.push(TraceEvent {
            name: self.name,
            cat: self.cat,
            tid: current_tid(),
            start_ns,
            dur_ns,
            ids: self.ids,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_with_thread_ids() {
        let tracer = Tracer::new(64);
        {
            let _s = tracer.span("test", "outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let t2 = Arc::clone(&tracer);
        std::thread::spawn(move || {
            let _s = t2.span("test", "worker");
        })
        .join()
        .unwrap();
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "outer");
        assert!(events[0].dur_ns >= 1_000_000);
        assert_ne!(events[0].tid, events[1].tid, "distinct threads");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        drop(tracer.span("test", "ignored"));
        assert!(tracer.events().is_empty());
    }

    #[test]
    fn ring_keeps_newest_events() {
        let tracer = Tracer::new(4);
        for _ in 0..10 {
            drop(tracer.span("test", "e"));
        }
        let events = tracer.events();
        assert_eq!(events.len(), 4);
        assert_eq!(tracer.dropped(), 6);
        // Oldest-first ordering survives the wrap.
        for w in events.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
    }

    #[test]
    fn root_span_links_children_across_helpers() {
        let tracer = Tracer::new(64);
        {
            let root = tracer.span_root("pipeline", "fetch");
            let root_ids = root.ids().unwrap();
            assert_eq!(root_ids.parent_id, 0);
            {
                let child = tracer.span("serve", "request");
                let child_ids = child.ids().unwrap();
                assert_eq!(child_ids.trace_id, root_ids.trace_id);
                assert_eq!(child_ids.parent_id, root_ids.span_id);
            }
        }
        assert_eq!(TraceContext::current(), None, "context restored");
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        // Children drop (and record) before their parents.
        assert_eq!(events[0].name, "request");
        assert_eq!(events[1].name, "fetch");
    }

    #[test]
    fn linked_span_adopts_remote_parent() {
        let tracer = Tracer::new(16);
        {
            let _s = tracer.span_linked("serve", "request", 0xabcd, 0x1234);
        }
        let ids = tracer.events()[0].ids.unwrap();
        assert_eq!(ids.trace_id, 0xabcd);
        assert_eq!(ids.parent_id, 0x1234);
        assert_ne!(ids.span_id, 0);
    }

    #[test]
    fn plain_span_without_context_has_no_ids() {
        let tracer = Tracer::new(16);
        drop(tracer.span("pipeline", "decode"));
        assert_eq!(tracer.events()[0].ids, None);
    }

    #[test]
    fn disabled_tracer_installs_no_context() {
        let tracer = Tracer::disabled();
        let _s = tracer.span_root("pipeline", "fetch");
        assert_eq!(
            TraceContext::current(),
            None,
            "disabled root span must not leak a context into the thread"
        );
    }

    #[test]
    fn chrome_trace_carries_hex_ids_and_epoch() {
        let tracer = Tracer::new(16);
        drop(tracer.span_root("pipeline", "fetch"));
        let mut out = Vec::new();
        tracer.write_chrome_trace(&mut out).unwrap();
        let v = crate::json::parse(&String::from_utf8(out).unwrap()).unwrap();
        let epoch: u64 = v
            .get("epochNs")
            .and_then(|e| e.as_str())
            .unwrap()
            .parse()
            .unwrap();
        assert!(epoch > 0);
        let ev = &v.get("traceEvents").and_then(|e| e.as_array()).unwrap()[0];
        let args = ev.get("args").unwrap();
        let ids = tracer.events()[0].ids.unwrap();
        assert_eq!(
            args.get("trace").and_then(|t| t.as_str()),
            Some(format!("{:016x}", ids.trace_id).as_str())
        );
        assert_eq!(
            args.get("parent").and_then(|p| p.as_str()),
            Some("0000000000000000")
        );
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let tracer = Tracer::new(16);
        drop(tracer.span("pipeline", "fetch"));
        drop(tracer.span("pipeline", "decode"));
        let mut out = Vec::new();
        tracer.write_chrome_trace(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let v = crate::json::parse(&text).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").and_then(|n| n.as_str()),
            Some("fetch")
        );
    }
}
