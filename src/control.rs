//! The host control row: how much faster two bare threads inflate a
//! fixed set of gzip blobs than one does.
//!
//! On a host whose two vCPUs are both there the ratio reads about 1.9×;
//! a measurement made while the second was taken away reads near 1×.
//! A speed claim made from such a run is flagged, not averaged in: the
//! release-only placement test skips its assertion below
//! [`CONTROL_FLOOR`], and `scripts/ab.sh` runs the
//! `inflate_control` example before every pair and lists the pairs
//! under it.

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

/// The control's workload: gzip blobs of equal-length samples, each
/// inflated `passes` times per timing.
pub struct InflateControl {
    blobs: Vec<Vec<u8>>,
    raw_len: usize,
    passes: usize,
}

impl InflateControl {
    /// Sixteen 512 KiB [`low_ratio_samples`], four passes: about 0.1 s
    /// a thread on one vCPU.
    pub fn new() -> Self {
        Self::over(&low_ratio_samples(16, 512 << 10), 4)
    }

    /// The control over `samples` (all one length, an even number of
    /// them), compressed at `Level::Fast`.
    pub fn over(samples: &[Vec<u8>], passes: usize) -> Self {
        InflateControl {
            blobs: samples
                .iter()
                .map(|s| sciml_compress::gzip_compress(s, sciml_compress::Level::Fast))
                .collect(),
            raw_len: samples.first().map_or(0, Vec::len),
            passes,
        }
    }

    /// Seconds for `threads` threads to inflate every blob `passes`
    /// times, the blobs split evenly between them.
    pub fn inflate_all(&self, threads: usize) -> f64 {
        let started = std::time::Instant::now();
        std::thread::scope(|scope| {
            for part in self.blobs.chunks(self.blobs.len().div_ceil(threads)) {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..self.passes {
                        for blob in part {
                            out.clear();
                            sciml_compress::gzip_decompress_into(blob, &mut out, self.raw_len)
                                .expect("the control's own blob inflates");
                        }
                    }
                });
            }
        });
        started.elapsed().as_secs_f64()
    }

    /// One thread's time over two's, best of `rounds` turn-and-turn-
    /// about timings of each: `(ratio, one_s, two_s)`.
    pub fn ratio(&self, rounds: usize) -> (f64, f64, f64) {
        let (mut one, mut two) = (f64::MAX, f64::MAX);
        for _ in 0..rounds.max(1) {
            one = one.min(self.inflate_all(1));
            two = two.min(self.inflate_all(2));
        }
        (one / two, one, two)
    }
}

impl Default for InflateControl {
    fn default() -> Self {
        Self::new()
    }
}
