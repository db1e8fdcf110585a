//! Spans recorded from outside the program under test.
//!
//! The pipeline is built on two public traits, `SampleSource` and
//! `DecoderPlugin`. The traced pass wraps both in the timing decorators
//! below, and the consumer thread wraps its own calls in [`Scope`]s.
//! Every span goes into a buffer owned by the recording thread; a buffer
//! moves to the shared sink when its thread ends (or on
//! [`flush_current_thread`]), and nothing is written to disk before the
//! measured window is over.

use crate::json::Value;
use sciml_half::F16;
use sciml_pipeline::{DecodedSample, DecoderPlugin, Label, SampleSource};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Layer names of the spans the budget is computed from.
pub const FETCH: &str = "pipeline.fetch";
pub const DECODE: &str = "pipeline.decode";
/// Source open → pipeline dropped, on the consumer thread: the interval
/// during which the pipeline's worker threads exist.
pub const RUN: &str = "pipeline.run";
/// One whole round of the ingest workload, on the consumer thread.
pub const INGEST_ROUND: &str = "ingest.round";
pub const WAIT: &str = "consumer.wait";
pub const CHECK: &str = "consumer.check";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    pub layer: &'static str,
    pub tid: u32,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
    /// Dataset index the span worked on; -1 when it has none. Spans of
    /// one sample share this id within a round.
    pub sample: i64,
    /// Dataset indices of a delivered batch (check spans only).
    pub indices: Vec<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
/// Round the consumer is in; worker spans are stamped with it.
static ROUND: AtomicU32 = AtomicU32::new(0);

struct Local {
    tid: u32,
    spans: Vec<Span>,
    /// Ids of the open [`Scope`]s on this thread, innermost last.
    open: Vec<u64>,
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut sink) = SINK.lock() {
            sink.append(&mut self.spans);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_round(round: u32) {
    ROUND.store(round, Ordering::Relaxed);
}

/// Records one finished call made by a decorator on a worker thread.
fn record_call(layer: &'static str, start_ns: u64, bytes: u64, sample: i64) {
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let span = Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent: l.open.last().copied().unwrap_or(0),
            layer,
            tid: l.tid,
            round: ROUND.load(Ordering::Relaxed),
            start_ns,
            end_ns,
            bytes,
            sample,
            indices: Vec::new(),
        };
        l.spans.push(span);
    });
}

/// A span that lasts from construction to drop and is the parent of
/// every span begun on this thread in between. Built with `on = false`
/// it does nothing, so the untraced window runs the same code.
pub struct Scope {
    open: Option<Span>,
}

impl Scope {
    pub fn new(on: bool, layer: &'static str) -> Scope {
        if !on {
            return Scope { open: None };
        }
        let mut span = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            let parent = l.open.last().copied().unwrap_or(0);
            l.open.push(id);
            Span {
                id,
                parent,
                layer,
                tid: l.tid,
                round: ROUND.load(Ordering::Relaxed),
                start_ns: 0,
                end_ns: 0,
                bytes: 0,
                sample: -1,
                indices: Vec::new(),
            }
        });
        span.start_ns = now_ns();
        Scope { open: Some(span) }
    }

    pub fn set_bytes(&mut self, bytes: u64) {
        if let Some(s) = &mut self.open {
            s.bytes = bytes;
        }
    }

    pub fn set_indices(&mut self, indices: &[usize]) {
        if let Some(s) = &mut self.open {
            s.indices = indices.iter().map(|&i| i as u32).collect();
        }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some(mut span) = self.open.take() {
            span.end_ns = now_ns();
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.open.retain(|&id| id != span.id);
                l.spans.push(span);
            });
        }
    }
}

/// Moves the calling thread's buffer to the sink. Worker threads flush
/// when they end; the consumer thread lives on and calls this.
pub fn flush_current_thread() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        SINK.lock()
            .expect("span sink poisoned")
            .append(&mut l.spans);
    });
}

/// Takes every span flushed so far, ordered by start time.
pub fn take() -> Vec<Span> {
    flush_current_thread();
    let mut spans = std::mem::take(&mut *SINK.lock().expect("span sink poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Key under which the decode decorator finds a blob's dataset index:
/// `decode_into` is handed bytes only, so the index is recovered from
/// the blob's length and its first 32 bytes.
pub fn blob_key(bytes: &[u8]) -> u64 {
    let head = sciml_store::cluster::fnv1a64(&bytes[..bytes.len().min(32)]);
    head ^ (bytes.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Map from [`blob_key`] to dataset index; a key two blobs share maps to
/// -1 (the span is still recorded, without a sample id).
pub fn blob_index<'a>(blobs: impl Iterator<Item = &'a [u8]>) -> HashMap<u64, i64> {
    let mut map = HashMap::new();
    for (i, blob) in blobs.enumerate() {
        map.entry(blob_key(blob))
            .and_modify(|v| *v = -1)
            .or_insert(i as i64);
    }
    map
}

/// `SampleSource` decorator: times every fetch.
pub struct TimedSource {
    pub inner: Arc<dyn SampleSource>,
}

impl SampleSource for TimedSource {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fetch(&self, idx: usize) -> sciml_pipeline::Result<Vec<u8>> {
        let start = now_ns();
        let r = self.inner.fetch(idx);
        let bytes = r.as_ref().map_or(0, |b| b.len() as u64);
        record_call(FETCH, start, bytes, idx as i64);
        r
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> sciml_pipeline::Result<()> {
        let start = now_ns();
        let r = self.inner.fetch_into(idx, buf);
        record_call(FETCH, start, buf.len() as u64, idx as i64);
        r
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

/// `DecoderPlugin` decorator: times every decode.
pub struct TimedPlugin {
    pub inner: Arc<dyn DecoderPlugin>,
    pub ids: Arc<HashMap<u64, i64>>,
}

impl TimedPlugin {
    fn sample_of(&self, bytes: &[u8]) -> i64 {
        self.ids.get(&blob_key(bytes)).copied().unwrap_or(-1)
    }
}

impl DecoderPlugin for TimedPlugin {
    // The pipeline decodes the first sample of a run through `decode`
    // (to learn the tensor length) and every later one through
    // `decode_into`; both are decode calls of the budget.
    fn decode(&self, bytes: &[u8]) -> sciml_pipeline::Result<DecodedSample> {
        let start = now_ns();
        let r = self.inner.decode(bytes);
        record_call(DECODE, start, bytes.len() as u64, self.sample_of(bytes));
        r
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> sciml_pipeline::Result<Label> {
        let start = now_ns();
        let r = self.inner.decode_into(bytes, out);
        record_call(DECODE, start, bytes.len() as u64, self.sample_of(bytes));
        r
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children (spans naming it as parent) cover. Overlapping
/// children are counted once.
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Where the worker threads' time went, summed over the rounds of a pass.
///
/// `thread_wall_s = fetch_busy_s + reader_idle_s + decode_busy_s +
/// decoder_idle_s + unattributed_s`, where `thread_wall_s` is the length
/// of each [`RUN`] span times the configured worker threads. Idle is
/// the gap between consecutive decorator calls on one worker thread
/// (queue wait plus the pipeline's own bookkeeping); unattributed is the
/// time before a thread's first call and after its last one, and the
/// whole run for a configured thread that never made a call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budget {
    pub wall_s: f64,
    pub thread_wall_s: f64,
    pub fetch_busy_s: f64,
    pub reader_idle_s: f64,
    pub decode_busy_s: f64,
    pub decoder_idle_s: f64,
    pub unattributed_s: f64,
}

pub fn budget(spans: &[Span], reader_threads: usize, decode_threads: usize) -> Budget {
    let mut b = Budget::default();
    let ns = |v: u64| v as f64 * 1e-9;
    for run in spans.iter().filter(|s| s.layer == RUN) {
        b.wall_s += ns(run.dur_ns());
        b.thread_wall_s += ns(run.dur_ns()) * (reader_threads + decode_threads) as f64;
        for (layer, configured) in [(FETCH, reader_threads), (DECODE, decode_threads)] {
            // Calls of this round, per worker thread, in start order
            // (`spans` is ordered by start).
            let mut per_thread: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
            for s in spans
                .iter()
                .filter(|s| s.layer == layer && s.round == run.round)
            {
                per_thread.entry(s.tid).or_default().push(s);
            }
            let (mut busy, mut idle, mut outside) = (0u64, 0u64, 0u64);
            for calls in per_thread.values() {
                let (first, last) = (calls[0], calls[calls.len() - 1]);
                busy += calls.iter().map(|s| s.dur_ns()).sum::<u64>();
                idle += calls
                    .windows(2)
                    .map(|w| w[1].start_ns.saturating_sub(w[0].end_ns))
                    .sum::<u64>();
                outside += first.start_ns.saturating_sub(run.start_ns)
                    + run.end_ns.saturating_sub(last.end_ns);
            }
            outside += run.dur_ns() * configured.saturating_sub(per_thread.len()) as u64;
            b.unattributed_s += ns(outside);
            if layer == FETCH {
                b.fetch_busy_s += ns(busy);
                b.reader_idle_s += ns(idle);
            } else {
                b.decode_busy_s += ns(busy);
                b.decoder_idle_s += ns(idle);
            }
        }
    }
    b
}

/// Chrome trace-event document (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = Value::obj()
                .with("id", Value::Num(s.id as f64))
                .with("parent", Value::Num(s.parent as f64))
                .with("round", Value::Num(f64::from(s.round)))
                .with("bytes", Value::Num(s.bytes as f64));
            if s.sample >= 0 {
                args.set("sample", Value::Num(s.sample as f64));
            }
            if !s.indices.is_empty() {
                let idx = s.indices.iter().map(|&i| Value::Num(f64::from(i)));
                args.set("indices", Value::Arr(idx.collect()));
            }
            let (cat, name) = s.layer.split_once('.').unwrap_or(("bench", s.layer));
            Value::obj()
                .with("name", Value::Str(name.into()))
                .with("cat", Value::Str(cat.into()))
                .with("ph", Value::Str("X".into()))
                .with("ts", Value::Num(s.start_ns as f64 / 1e3))
                .with("dur", Value::Num(s.dur_ns() as f64 / 1e3))
                .with("pid", Value::Num(1.0))
                .with("tid", Value::Num(f64::from(s.tid)))
                .with("args", args)
        })
        .collect();
    Value::obj()
        .with("traceEvents", Value::Arr(events))
        .with("displayTimeUnit", Value::Str("ms".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, tid: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            tid,
            round: 0,
            start_ns: start,
            end_ns: end,
            bytes: 0,
            sample: -1,
            indices: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, "round", 1, 0, 100),
            // Two overlapping children cover 10..60, a third 70..80, and
            // one sticks out past the parent's end (clipped to 90..100).
            span(2, 1, "a", 1, 10, 50),
            span(3, 1, "b", 1, 40, 60),
            span(4, 1, "c", 1, 70, 80),
            span(5, 1, "d", 1, 90, 130),
            // A grandchild does not count against the grandparent.
            span(6, 2, "e", 1, 10, 20),
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t[&1], 100 - 50 - 10 - 10);
        assert_eq!(t[&2], 40 - 10);
        assert_eq!(t[&3], 20);
        assert_eq!(t[&6], 10);
    }

    #[test]
    fn budget_identity_holds_and_attributes_each_part() {
        let s = 1_000_000_000u64;
        let mut spans = vec![
            span(1, 0, RUN, 1, 0, 10 * s),
            // One reader: busy 2 s + 3 s, idle 1 s between, 1 s head, 3 s tail.
            span(2, 0, FETCH, 2, s, 3 * s),
            span(3, 0, FETCH, 2, 4 * s, 7 * s),
            // Decoder A: busy 4 s, head 2 s, tail 4 s.
            span(4, 0, DECODE, 3, 2 * s, 6 * s),
            // Decoder B: busy 1 s + 1 s, idle 6 s, head 1 s, tail 1 s.
            span(5, 0, DECODE, 4, s, 2 * s),
            span(6, 0, DECODE, 4, 8 * s, 9 * s),
        ];
        spans.sort_by_key(|s| s.start_ns);
        // Three decode threads configured, two seen: the third is 10 s
        // of unattributed time.
        let b = budget(&spans, 1, 3);
        assert_eq!(b.wall_s, 10.0);
        assert_eq!(b.thread_wall_s, 40.0);
        assert_eq!(b.fetch_busy_s, 5.0);
        assert_eq!(b.reader_idle_s, 1.0);
        assert_eq!(b.decode_busy_s, 6.0);
        assert_eq!(b.decoder_idle_s, 6.0);
        assert_eq!(b.unattributed_s, 4.0 + 6.0 + 2.0 + 10.0);
        let parts = b.fetch_busy_s
            + b.reader_idle_s
            + b.decode_busy_s
            + b.decoder_idle_s
            + b.unattributed_s;
        assert!((parts - b.thread_wall_s).abs() < 1e-9);
    }

    #[test]
    fn budget_keeps_rounds_apart() {
        let mut a = span(1, 0, RUN, 1, 0, 100);
        let mut b = span(2, 0, RUN, 1, 200, 300);
        let mut fa = span(3, 0, FETCH, 2, 0, 100);
        let mut fb = span(4, 0, FETCH, 3, 200, 300);
        (a.round, fa.round, b.round, fb.round) = (1, 1, 2, 2);
        let got = budget(&[a, fa, b, fb], 1, 0);
        assert_eq!(got.unattributed_s, 0.0);
        assert!((got.fetch_busy_s - 200e-9).abs() < 1e-15);
    }

    /// Tests that read the process-wide sink take turns.
    static SINK_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn scopes_nest_and_decorated_calls_join_the_open_scope() {
        let _turn = SINK_TESTS.lock().unwrap();
        set_round(7);
        let outer_id;
        {
            let outer = Scope::new(true, "test.outer");
            outer_id = outer.open.as_ref().unwrap().id;
            let _inner = Scope::new(true, "test.inner");
            record_call("test.call", now_ns(), 5, 3);
            let _off = Scope::new(false, "test.off");
        }
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.layer.starts_with("test."))
            .collect();
        assert_eq!(spans.len(), 3);
        let by = |l: &str| spans.iter().find(|s| s.layer == l).unwrap();
        assert_eq!(by("test.outer").parent, 0);
        assert_eq!(by("test.inner").parent, outer_id);
        assert_eq!(by("test.call").parent, by("test.inner").id);
        assert_eq!((by("test.call").bytes, by("test.call").sample), (5, 3));
        assert!(spans.iter().all(|s| s.round == 7 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn worker_thread_buffers_reach_the_sink_when_the_thread_ends() {
        let _turn = SINK_TESTS.lock().unwrap();
        std::thread::spawn(|| record_call("test.worker", now_ns(), 1, 0))
            .join()
            .unwrap();
        assert!(take().iter().any(|s| s.layer == "test.worker"));
    }

    #[test]
    fn blob_index_recovers_indices_and_flags_shared_keys() {
        let blobs: Vec<Vec<u8>> = vec![vec![1; 40], vec![2; 40], vec![1; 40], vec![1; 41]];
        let map = blob_index(blobs.iter().map(Vec::as_slice));
        assert_eq!(map[&blob_key(&blobs[1])], 1);
        assert_eq!(map[&blob_key(&blobs[3])], 3);
        assert_eq!(map[&blob_key(&blobs[0])], -1);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut s = span(9, 4, FETCH, 2, 1_000, 3_500);
        s.sample = 11;
        let doc = chrome_trace(&[s]);
        let ev = &doc.get("traceEvents").unwrap().as_arr()[0];
        assert_eq!(ev.get("name").unwrap().as_str(), Some("fetch"));
        assert_eq!(ev.get("cat").unwrap().as_str(), Some("pipeline"));
        assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(ev.get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            ev.get("args").unwrap().get("sample").unwrap().as_f64(),
            Some(11.0)
        );
    }
}
