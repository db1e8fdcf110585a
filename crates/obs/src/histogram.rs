//! Log-bucketed latency histogram with lock-free atomic buckets.
//!
//! Values (nanoseconds, byte counts, …) land in buckets whose width
//! grows geometrically: each power-of-two octave is split into
//! [`SUB_BUCKETS`] sub-buckets, so the relative quantization error of a
//! recorded value is at most 1/[`SUB_BUCKETS`] (12.5 %) — tight enough
//! for tail percentiles, cheap enough (one `fetch_add` plus three
//! min/max/sum atomics) for per-sample recording on the hot path.
//! Histograms merge bucket-wise, which is what lets per-thread or
//! per-node instances combine into one distribution.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave (8 → ≤12.5 % relative error).
pub const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = 3;

/// Total bucket count: values `0..8` get exact unit buckets, then each
/// of the 61 octaves `[2^3, 2^64)` contributes [`SUB_BUCKETS`] buckets.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + 61 * SUB_BUCKETS;

/// Bucket index for a recorded value.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    (msb - SUB_BITS) as usize * SUB_BUCKETS + SUB_BUCKETS + sub
}

/// Half-open value range `[lo, hi)` covered by bucket `idx`
/// (`hi == u64::MAX` for the final, saturated bucket).
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < NUM_BUCKETS, "bucket index {idx} out of range");
    if idx < SUB_BUCKETS {
        return (idx as u64, idx as u64 + 1);
    }
    let octave = ((idx - SUB_BUCKETS) / SUB_BUCKETS) as u32;
    let sub = ((idx - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    let lo = (SUB_BUCKETS as u64 + sub) << octave;
    let hi = match (SUB_BUCKETS as u64 + sub + 1).checked_shl(octave) {
        Some(h) if h != 0 => h,
        _ => u64::MAX,
    };
    (lo, hi)
}

/// Lock-free histogram: concurrent `record` from any number of threads,
/// `snapshot` at any time, `merge` to combine instances.
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .field("min", &s.min)
            .field("max", &s.max)
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the boxed array from a Vec.
        let v: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> =
            v.into_boxed_slice().try_into().expect("exact length");
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] as nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Times `f` and records the elapsed nanoseconds.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = std::time::Instant::now();
        let out = f();
        self.record_duration(t0.elapsed());
        out
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Adds every recorded value of `other` into `self`. Bucket-wise
    /// addition, so merging commutes and associates.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Point-in-time copy of the distribution. Concurrent recording
    /// while snapshotting may tear across buckets (a value counted in
    /// `count` but not yet in its bucket, or vice versa); the snapshot
    /// recomputes `count` from the buckets so percentiles stay
    /// internally consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`Histogram`], queryable for percentiles; the
/// exposition renders its buckets as cumulative `_bucket` series.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Dense per-bucket counts (`NUM_BUCKETS` entries; empty means no
    /// data, e.g. a default-constructed snapshot).
    pub counts: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the smallest bucket whose
    /// cumulative count reaches `ceil(q · count)`, reported as the
    /// bucket midpoint clamped into `[min, max]`. Monotone in `q`;
    /// returns 0 when the histogram is empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 || self.counts.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(n);
            if cum >= target {
                let (lo, hi) = bucket_bounds(idx);
                let mid = lo + (hi - lo) / 2;
                // Not `clamp`: the fields are public, so a snapshot
                // may carry min > max, which `clamp` panics on.
                return mid.max(self.min).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_axis() {
        // Buckets tile [0, 2^63·9) contiguously with no gap or overlap.
        let mut expect_lo = 0u64;
        for idx in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expect_lo, "bucket {idx} starts at its lower bound");
            assert!(hi > lo, "bucket {idx} is non-empty");
            expect_lo = hi;
        }
    }

    #[test]
    fn recorded_value_lands_in_its_bucket() {
        for v in [
            0u64,
            1,
            7,
            8,
            9,
            255,
            256,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v, "{v} below bucket {idx} lower bound {lo}");
            assert!(
                v < hi || hi == u64::MAX,
                "{v} at/above bucket {idx} hi {hi}"
            );
        }
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        let p50 = s.percentile(0.50);
        let p99 = s.percentile(0.99);
        // Log-bucket quantization allows ≤12.5 % relative error.
        assert!((430..=570).contains(&p50), "p50 = {p50}");
        assert!((860..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(s.percentile(1.0), 1000);
        assert!(s.percentile(0.0) >= 1);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100 {
            a.record(v);
            b.record(v + 1000);
        }
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 200);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1099);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot().counts.iter().sum::<u64>(), 40_000);
    }
}
