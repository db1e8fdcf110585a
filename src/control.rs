//! The host control row: how much faster two bare threads inflate a
//! fixed set of gzip blobs than one does.
//!
//! On a host whose two vCPUs are both there the ratio reads about 1.9×;
//! a measurement made while the second was taken away reads near 1×.
//! A speed claim made from such a run is flagged, not averaged in: the
//! placement row of the root speed floors (`tests/unpack_placement.rs`)
//! times the control in each of its rounds and counts only the rounds
//! in which it read [`CONTROL_FLOOR`] or more, and `scripts/ab.sh` runs
//! the `inflate_control` example before every pair and lists the pairs
//! under it, as `scripts/ci.sh` does before its speed floors.

use sciml_simd::speed::{self, Shape};

/// Below this ratio the second vCPU was not there.
pub const CONTROL_FLOOR: f64 = 1.7;

/// Low-ratio blobs, the shape of an encoded DeepCAM sample: six random
/// bits a byte, so deflate emits mostly literals for a ratio near 1.3.
pub fn low_ratio_samples(n: usize, len: usize) -> Vec<Vec<u8>> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..n)
        .map(|_| {
            (0..len)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 58) as u8
                })
                .collect()
        })
        .collect()
}

/// The control's workload: sixteen 512 KiB [`low_ratio_samples`] as
/// gzip blobs at `Level::Fast`, each inflated four times a call: about
/// 0.1 s a thread on one vCPU.
pub struct InflateControl {
    blobs: Vec<Vec<u8>>,
    raw_len: usize,
}

impl InflateControl {
    /// The blobs, compressed.
    pub fn new() -> Self {
        let samples = low_ratio_samples(16, 512 << 10);
        InflateControl {
            blobs: samples
                .iter()
                .map(|s| sciml_compress::gzip_compress(s, sciml_compress::Level::Fast))
                .collect(),
            raw_len: samples[0].len(),
        }
    }

    /// `threads` threads inflate every blob four times, the blobs split
    /// evenly between them.
    pub fn inflate_all(&self, threads: usize) {
        std::thread::scope(|scope| {
            for part in self.blobs.chunks(self.blobs.len().div_ceil(threads)) {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..4 {
                        for blob in part {
                            out.clear();
                            sciml_compress::gzip_decompress_into(blob, &mut out, self.raw_len)
                                .expect("the control's own blob inflates");
                        }
                    }
                });
            }
        });
    }

    /// One thread's time over two's, timed as a scaling row of
    /// [`sciml_simd::speed`]: `(ratio, one_s, two_s)`.
    pub fn ratio(&self) -> (f64, f64, f64) {
        let two = || self.inflate_all(2);
        let read = speed::compare(Shape::Scaling, &two, &|| self.inflate_all(1));
        (read.ratio, read.slow_s, read.fast_s)
    }
}

impl Default for InflateControl {
    fn default() -> Self {
        Self::new()
    }
}
