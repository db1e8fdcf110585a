//! Std-only shim for the subset of the `rayon` API this workspace uses.
//!
//! Unlike a sequential stand-in, this shim performs *real* fork-join
//! parallelism with `std::thread::scope`: the driving adapters
//! (`for_each`, `try_for_each`, `map` + `collect`) split their items
//! into per-thread chunks, run the first on the calling thread and each
//! other on a scoped thread, and reassemble results in order. There is no work stealing — items are partitioned
//! statically — which is fine for the regular, even-sized workloads
//! (lines, chunks, batch rows) this workspace parallelizes.

use std::num::NonZeroUsize;

/// Everything the call sites import.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut};
}

fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item on scoped worker threads, preserving input
/// order in the output.
fn parallel_map<T: Send, U: Send, F>(items: Vec<T>, f: &F) -> Vec<U>
where
    F: Fn(T) -> U + Sync,
{
    map_in_parts(items, f, max_threads())
}

/// [`parallel_map`] over at most `threads` parts: the calling thread
/// runs the first, one scoped thread each of the others. A panic in
/// any part panics the caller once every part has finished.
fn map_in_parts<T: Send, U: Send, F>(items: Vec<T>, f: &F, threads: usize) -> Vec<U>
where
    F: Fn(T) -> U + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let chunk = n.div_ceil(threads);
    let mut slots: Vec<Vec<U>> = Vec::with_capacity(threads);
    // Partition the items up front; each part is one thread's.
    let mut parts: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(chunk.min(items.len()));
        parts.push(std::mem::replace(&mut items, rest));
    }
    let mut parts = parts.into_iter();
    let first = parts.next().unwrap_or_default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .map(|part| scope.spawn(move || part.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        slots.push(first.into_iter().map(f).collect());
        for h in handles {
            slots.push(h.join().expect("rayon-shim worker panicked"));
        }
    });
    slots.into_iter().flatten().collect()
}

/// A parallel iterator: a source of `Send` items that the driving
/// adapters fan out across threads.
pub trait ParallelIterator: Sized + Send {
    /// Item type.
    type Item: Send;

    /// Materializes the items, applying any pending `map` stages in
    /// parallel.
    fn into_items(self) -> Vec<Self::Item>;

    /// Pairs items positionally with another parallel iterator.
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Tags items with their index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Lazily maps items; the map runs in parallel when driven.
    fn map<U: Send, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Runs `f` over every item in parallel.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        parallel_map(self.into_items(), &|item| f(item));
    }

    /// Runs `f` over every item in parallel, returning the first error.
    ///
    /// Unlike rayon there is no early cancellation: remaining items
    /// still run after a failure, and the first error *in input order*
    /// is returned.
    fn try_for_each<E, F>(self, f: F) -> Result<(), E>
    where
        E: Send,
        F: Fn(Self::Item) -> Result<(), E> + Sync + Send,
    {
        parallel_map(self.into_items(), &|item| f(item))
            .into_iter()
            .collect()
    }

    /// Collects the items (driving pending maps in parallel).
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.into_items().into_iter().collect()
    }

    /// Sums the items (driving pending maps in parallel).
    fn sum<S: std::iter::Sum<Self::Item>>(self) -> S {
        self.into_items().into_iter().sum()
    }

    /// Item count.
    fn count(self) -> usize {
        self.into_items().len()
    }
}

/// Parallel iterator over an already-materialized item list.
pub struct VecIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;

    fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// Positional pairing of two parallel iterators.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);

    fn into_items(self) -> Vec<Self::Item> {
        self.a
            .into_items()
            .into_iter()
            .zip(self.b.into_items())
            .collect()
    }
}

/// Index-tagged items.
pub struct Enumerate<A> {
    base: A,
}

impl<A: ParallelIterator> ParallelIterator for Enumerate<A> {
    type Item = (usize, A::Item);

    fn into_items(self) -> Vec<Self::Item> {
        self.base.into_items().into_iter().enumerate().collect()
    }
}

/// Lazy parallel map.
pub struct Map<A, F> {
    base: A,
    f: F,
}

impl<A, U, F> ParallelIterator for Map<A, F>
where
    A: ParallelIterator,
    U: Send,
    F: Fn(A::Item) -> U + Sync + Send,
{
    type Item = U;

    fn into_items(self) -> Vec<U> {
        parallel_map(self.base.into_items(), &self.f)
    }
}

/// Conversion into a parallel iterator (subset of rayon's trait).
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;

    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self }
    }
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = VecIter<$t>;

            fn into_par_iter(self) -> VecIter<$t> {
                VecIter { items: self.collect() }
            }
        }
    )*};
}
impl_range_par_iter!(u32, u64, usize, i32, i64);

/// `par_iter` / `par_chunks` over shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T` items.
    fn par_iter(&self) -> VecIter<&T>;
    /// Parallel iterator over non-overlapping `size`-element chunks.
    fn par_chunks(&self, size: usize) -> VecIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> VecIter<&T> {
        VecIter {
            items: self.iter().collect(),
        }
    }

    fn par_chunks(&self, size: usize) -> VecIter<&[T]> {
        VecIter {
            items: self.chunks(size).collect(),
        }
    }
}

/// `par_iter_mut` / `par_chunks_mut` over exclusive slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `&mut T` items.
    fn par_iter_mut(&mut self) -> VecIter<&mut T>;
    /// Parallel iterator over non-overlapping mutable chunks.
    fn par_chunks_mut(&mut self, size: usize) -> VecIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> VecIter<&mut T> {
        VecIter {
            items: self.iter_mut().collect(),
        }
    }

    fn par_chunks_mut(&mut self, size: usize) -> VecIter<&mut [T]> {
        VecIter {
            items: self.chunks_mut(size).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0usize..1000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 1000);
        assert!(squares.iter().enumerate().all(|(i, &s)| s == i * i));
    }

    #[test]
    fn chunks_mut_zip_for_each_writes_disjoint() {
        let mut out = vec![0u32; 64];
        let src: Vec<u32> = (0..64).collect();
        out.par_chunks_mut(8)
            .zip(src.par_chunks(8))
            .for_each(|(dst, s)| {
                for (d, v) in dst.iter_mut().zip(s) {
                    *d = v * 2;
                }
            });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }

    #[test]
    fn try_for_each_returns_first_error_in_order() {
        let r: Result<(), usize> =
            (0usize..100)
                .into_par_iter()
                .try_for_each(|i| if i >= 40 { Err(i) } else { Ok(()) });
        assert_eq!(r, Err(40));
        let ok: Result<(), usize> = (0usize..100).into_par_iter().try_for_each(|_| Ok(()));
        assert!(ok.is_ok());
    }

    #[test]
    fn enumerate_tags_in_order() {
        let v = [10, 20, 30];
        let tagged: Vec<(usize, i32)> = v.par_iter().enumerate().map(|(i, &v)| (i, v)).collect();
        assert_eq!(tagged, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn parts_keep_input_order_and_a_panicking_part_panics_the_caller() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 7] {
            let caller = std::thread::current().id();
            let out = super::map_in_parts(
                items.clone(),
                &|i| (i * 3, std::thread::current().id()),
                threads,
            );
            assert_eq!(
                out.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
                items.iter().map(|i| i * 3).collect::<Vec<_>>(),
                "{threads} parts"
            );
            // The first part ran on the caller; each other part on a
            // thread of its own.
            let on: std::collections::HashSet<_> = out.iter().map(|&(_, t)| t).collect();
            assert_eq!(out[0].1, caller, "{threads} parts");
            assert_eq!(on.len(), threads, "{threads} parts");
            // A panic in the caller's part and in a spawned one.
            for bad in [0, 102] {
                let r = std::panic::catch_unwind(|| {
                    super::map_in_parts(items.clone(), &|i| assert_ne!(i, bad), threads)
                });
                assert!(r.is_err(), "{threads} parts, panic at {bad}");
            }
        }
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        if super::max_threads() < 2 {
            return; // single-core CI: nothing to verify
        }
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        (0usize..256).into_par_iter().for_each(|_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::yield_now();
        });
        assert!(ids.lock().unwrap().len() > 1);
    }
}
