//! Recycled batch-tensor and fetch-buffer pool.
//!
//! Every batch the pipeline emits is backed by a full-size FP16 tensor,
//! and every fetch fills a byte buffer; allocating those per batch /
//! per sample is the allocation churn the zero-copy decode path exists
//! to eliminate (DALI's preallocated output buffers are the model).
//! The pool keeps bounded free lists of both kinds of buffer: checkout
//! pops a recycled buffer when one is available (a *hit*) and allocates
//! otherwise (a *miss*); dropping a [`PooledTensor`] / [`PooledBytes`]
//! returns the buffer, unless the free list is already at capacity, in
//! which case it is discarded — so idle memory stays bounded at
//! `capacity` buffers per kind regardless of how long the run is.
//!
//! Telemetry lives in the shared `sciml-obs` registry under
//! `pipeline.pool.*`: `hits`, `misses`, `returns`, `discards` counters
//! and a `resident_bytes` gauge tracking the bytes currently parked in
//! the free lists.

use parking_lot::Mutex;
use sciml_half::F16;
use sciml_obs::{Counter, Gauge, MetricsRegistry};
use std::sync::Arc;

/// Bounded free lists of recycled buffers. Cheap to share
/// (`Arc<BufferPool>`); all methods are thread-safe.
#[derive(Debug)]
pub struct BufferPool {
    tensors: Mutex<Vec<Vec<F16>>>,
    bytes: Mutex<Vec<Vec<u8>>>,
    capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    returns: Arc<Counter>,
    discards: Arc<Counter>,
    resident_bytes: Arc<Gauge>,
}

impl BufferPool {
    /// Pool retaining up to `capacity` idle buffers of each kind, with
    /// private (unregistered) instruments. `capacity == 0` disables
    /// reuse entirely: every checkout allocates and every return
    /// discards, which is the per-sample-alloc baseline the benches
    /// compare against.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self::build(capacity, None))
    }

    /// [`BufferPool::new`] with the `pipeline.pool.*` instruments
    /// registered in `registry`.
    pub fn with_registry(capacity: usize, registry: &MetricsRegistry) -> Arc<Self> {
        Arc::new(Self::build(capacity, Some(registry)))
    }

    fn build(capacity: usize, registry: Option<&MetricsRegistry>) -> Self {
        let counter = |name: &str| match registry {
            Some(r) => r.counter(name),
            None => Arc::new(Counter::default()),
        };
        Self {
            tensors: Mutex::new(Vec::new()),
            bytes: Mutex::new(Vec::new()),
            capacity,
            hits: counter("pipeline.pool.hits"),
            misses: counter("pipeline.pool.misses"),
            returns: counter("pipeline.pool.returns"),
            discards: counter("pipeline.pool.discards"),
            resident_bytes: match registry {
                Some(r) => r.gauge("pipeline.pool.resident_bytes"),
                None => Arc::new(Gauge::default()),
            },
        }
    }

    /// Retained-idle-buffer bound (per kind).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Checkouts served from the free list.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Checkouts that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Bytes currently parked in the free lists.
    pub fn resident_bytes(&self) -> i64 {
        self.resident_bytes.get()
    }

    /// Checks out a tensor of exactly `len` values. Recycled buffers
    /// are resized (same-size reuse, the steady state, touches no
    /// memory — stale contents are the caller's to overwrite); a miss
    /// allocates zeroed.
    pub fn checkout_tensor(self: &Arc<Self>, len: usize) -> PooledTensor {
        let reused = if self.capacity == 0 {
            None
        } else {
            self.tensors.lock().pop()
        };
        let data = match reused {
            Some(mut v) => {
                self.hits.inc();
                self.resident_bytes
                    .add(-((v.capacity() * std::mem::size_of::<F16>()) as i64));
                v.resize(len, F16::ZERO);
                v
            }
            None => {
                self.misses.inc();
                // lint:allow(no_alloc_hot_loop): pool-miss growth path; steady state reuses via the hit path above
                vec![F16::ZERO; len]
            }
        };
        PooledTensor {
            data,
            pool: (self.capacity > 0).then(|| Arc::clone(self)),
        }
    }

    /// Checks out a byte buffer as its last use left it: length,
    /// contents and capacity, so a steady-state fetch neither
    /// reallocates nor zero-fills what it is about to overwrite. Every
    /// [`SampleSource`](crate::SampleSource) fetch replaces the contents
    /// of the buffer it is given; a miss is an empty vector.
    pub fn checkout_bytes(self: &Arc<Self>) -> PooledBytes {
        let reused = if self.capacity == 0 {
            None
        } else {
            self.bytes.lock().pop()
        };
        let data = match reused {
            Some(v) => {
                self.hits.inc();
                self.resident_bytes.add(-(v.capacity() as i64));
                v
            }
            None => {
                self.misses.inc();
                Vec::new()
            }
        };
        PooledBytes {
            data,
            pool: (self.capacity > 0).then(|| Arc::clone(self)),
        }
    }

    fn return_tensor(&self, v: Vec<F16>) {
        let mut free = self.tensors.lock();
        if free.len() < self.capacity {
            self.returns.inc();
            self.resident_bytes
                .add((v.capacity() * std::mem::size_of::<F16>()) as i64);
            free.push(v);
        } else {
            self.discards.inc();
        }
    }

    fn return_bytes(&self, v: Vec<u8>) {
        let mut free = self.bytes.lock();
        if free.len() < self.capacity {
            self.returns.inc();
            self.resident_bytes.add(v.capacity() as i64);
            free.push(v);
        } else {
            self.discards.inc();
        }
    }
}

/// A checked-out FP16 tensor; dereferences to `[F16]` and returns its
/// buffer to the pool on drop. The default value is an empty, unpooled
/// tensor (used by tests constructing batches by hand).
#[derive(Debug, Default)]
pub struct PooledTensor {
    data: Vec<F16>,
    pool: Option<Arc<BufferPool>>,
}

impl PooledTensor {
    /// Wraps a plain vector with no backing pool (dropping it simply
    /// frees the memory).
    pub fn unpooled(data: Vec<F16>) -> Self {
        Self { data, pool: None }
    }
}

impl From<Vec<F16>> for PooledTensor {
    fn from(data: Vec<F16>) -> Self {
        Self::unpooled(data)
    }
}

impl std::ops::Deref for PooledTensor {
    type Target = [F16];

    fn deref(&self) -> &[F16] {
        &self.data
    }
}

impl std::ops::DerefMut for PooledTensor {
    fn deref_mut(&mut self) -> &mut [F16] {
        &mut self.data
    }
}

impl PartialEq for PooledTensor {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Drop for PooledTensor {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.return_tensor(std::mem::take(&mut self.data));
        }
    }
}

/// A checked-out fetch buffer; dereferences to `Vec<u8>` so sources can
/// fill it in place, and returns to the pool on drop.
#[derive(Debug, Default)]
pub struct PooledBytes {
    data: Vec<u8>,
    pool: Option<Arc<BufferPool>>,
}

impl std::ops::Deref for PooledBytes {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.data
    }
}

impl std::ops::DerefMut for PooledBytes {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }
}

impl Drop for PooledBytes {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.return_bytes(std::mem::take(&mut self.data));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_return_cycle_hits_after_warmup() {
        let pool = BufferPool::new(2);
        let t = pool.checkout_tensor(8);
        assert_eq!(pool.misses(), 1);
        assert_eq!(t.len(), 8);
        drop(t);
        let t = pool.checkout_tensor(8);
        assert_eq!(pool.hits(), 1, "second checkout must reuse");
        assert_eq!(t.len(), 8);
        drop(t);
    }

    #[test]
    fn resize_on_shape_change_and_fresh_buffers_zeroed() {
        let pool = BufferPool::new(2);
        let mut t = pool.checkout_tensor(4);
        assert!(t.iter().all(|&v| v == F16::ZERO));
        t[0] = F16::ONE;
        drop(t);
        // Reuse at a larger size: the grown tail is zeroed, the head may
        // be stale — callers overwrite every slot.
        let t = pool.checkout_tensor(6);
        assert_eq!(t.len(), 6);
        assert!(t[4..].iter().all(|&v| v == F16::ZERO));
    }

    #[test]
    fn capacity_bounds_resident_buffers() {
        let pool = BufferPool::new(1);
        let a = pool.checkout_tensor(16);
        let b = pool.checkout_tensor(16);
        drop(a); // retained
        drop(b); // discarded: free list full
        assert_eq!(pool.hits(), 0);
        assert_eq!(pool.misses(), 2);
        let resident = pool.resident_bytes();
        assert!(
            resident <= 16 * std::mem::size_of::<F16>() as i64,
            "resident {resident}"
        );
        // Only one buffer came back.
        let _c = pool.checkout_tensor(16);
        assert_eq!(pool.hits(), 1);
        let _d = pool.checkout_tensor(16);
        assert_eq!(pool.misses(), 3);
    }

    #[test]
    fn zero_capacity_disables_pooling() {
        let pool = BufferPool::new(0);
        drop(pool.checkout_tensor(4));
        drop(pool.checkout_bytes());
        let t = pool.checkout_tensor(4);
        assert_eq!(pool.hits(), 0);
        assert_eq!(pool.misses(), 3);
        assert_eq!(pool.resident_bytes(), 0);
        drop(t);
    }

    #[test]
    fn byte_buffers_recycle_capacity() {
        let pool = BufferPool::new(2);
        let mut b = pool.checkout_bytes();
        b.extend_from_slice(&[1, 2, 3, 4]);
        let cap = b.capacity();
        drop(b);
        let b = pool.checkout_bytes();
        assert_eq!(&b[..], [1, 2, 3, 4], "a recycled buffer keeps its length");
        assert!(b.capacity() >= cap, "capacity must be retained");
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn metrics_register_under_pool_names() {
        let reg = MetricsRegistry::new();
        let pool = BufferPool::with_registry(2, &reg);
        drop(pool.checkout_tensor(4));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pipeline.pool.misses"), 1);
        assert_eq!(snap.counter("pipeline.pool.returns"), 1);
        assert!(matches!(
            snap.get("pipeline.pool.resident_bytes"),
            Some(sciml_obs::MetricValue::Gauge(v)) if *v == 8
        ));
    }

    #[test]
    fn unpooled_tensor_is_plain_memory() {
        let t = PooledTensor::from(vec![F16::ONE; 3]);
        assert_eq!(t.len(), 3);
        drop(t); // must not touch any pool
    }
}
