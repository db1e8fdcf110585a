//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for gzip
//! trailers and container integrity checks.
//!
//! Two kernels compute the same function on the raw (un-inverted)
//! register, `fn(state: u32, &[u8]) -> u32`, so an incremental
//! [`Crc32`] can cross from one to the other between `update` calls:
//!
//! * **slicing-by-8** — eight derived tables let the inner loop consume
//!   8 bytes per step with no inter-byte dependency chain. Runs on every
//!   host and is the canonical reference the other kernel is tested
//!   against.
//! * **PCLMULQDQ folding** (x86-64) — four 128-bit lanes fold 64 bytes
//!   per step with carry-less multiplies, then fold to one lane, then
//!   Barrett-reduce to 32 bits (Gopal et al., "Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009). It
//!   takes slices of at least 64 bytes; the sub-16-byte tail goes back
//!   through slicing-by-8.
//!
//! `has_clmul` is the one selection point: a runtime CPU probe, no
//! build flag and no environment override. Every integrity check on the
//! data path (shard entries, wire frames, gzip trailers, pack chunks)
//! goes through [`Crc32::update`] and so picks the kernel up unchanged.
//! aarch64 (PMULL) keeps slicing-by-8: no host available to this repo
//! can prove such a kernel bit-exact.

/// Slicing-by-8 tables. `t[0]` is the classic byte-at-a-time table;
/// `t[k][i]` is the CRC of byte `i` followed by `k` zero bytes, so the
/// eight lookups of one 8-byte step can be XOR-combined independently.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Slicing-by-8 kernel: advances the raw register `state` over `data`.
pub(crate) fn crc32_slicing8(state: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut c = state;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        c ^= u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = t[7][(c & 0xFF) as usize]
            ^ t[6][((c >> 8) & 0xFF) as usize]
            ^ t[5][((c >> 16) & 0xFF) as usize]
            ^ t[4][(c >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Shortest slice handed to the folding kernel: one 64-byte block seeds
/// its four lanes.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN_BYTES: usize = 64;

/// Whether this host runs the PCLMULQDQ kernel — the single selection
/// point behind [`Crc32::update`] and [`kernel_name`]. std caches the
/// CPUID result, so the probe is a load and a bit test.
pub(crate) fn has_clmul() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Name of the kernel [`Crc32::update`] uses for slices of 64 bytes or
/// more on this host: `"pclmulqdq"` or `"slicing-by-8"`.
pub fn kernel_name() -> &'static str {
    if has_clmul() {
        "pclmulqdq"
    } else {
        "slicing-by-8"
    }
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected polynomial, from the Intel
    // paper: each is (x^n mod P(x)) bit-reflected and shifted left one.
    /// n = 4·128 + 32.
    const K1: i64 = 0x1_5444_2bd4;
    /// n = 4·128 − 32.
    const K2: i64 = 0x1_c6e4_1596;
    /// n = 128 + 32.
    const K3: i64 = 0x1_7519_97d0;
    /// n = 128 − 32.
    const K4: i64 = 0x0_ccaa_009e;
    /// n = 64.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x) itself, reflected, with its x^32 term.
    const POLY: i64 = 0x1_db71_0641;
    /// ⌊x^64 / P(x)⌋, reflected: the Barrett constant μ.
    const MU: i64 = 0x1_f701_1641;

    /// Unaligned 16-byte load.
    // SAFETY: compiled for SSE2 only, which every x86-64 CPU has; the
    // sole caller `crc32_clmul` sits behind the `has_clmul()` probe.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(lane: &[u8; 16]) -> __m128i {
        // SAFETY: `lane` is 16 readable bytes and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// Multiplies the 128-bit lane `acc` by the power of x that `keys`
    /// encodes (mod P) and adds `next`, the data that many bits on.
    // SAFETY: called only from `crc32_clmul`, which is entered only
    // after the `has_clmul()` probe saw PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// PCLMULQDQ folding kernel: advances the raw register `state` over
    /// `data`. Slices shorter than one 64-byte block, and the tail past
    /// the last whole 16-byte lane, go through [`super::crc32_slicing8`].
    // SAFETY: the caller must have seen `has_clmul()` return true
    // (PCLMULQDQ and SSE4.1 detected at run time). The compiler holds
    // callers to that: from a function without these features the call
    // needs an `unsafe` block.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) fn crc32_clmul(state: u32, data: &[u8]) -> u32 {
        let (lanes, tail) = data.as_chunks::<16>();
        let (blocks, singles) = lanes.as_chunks::<4>();
        let Some((first, blocks)) = blocks.split_first() else {
            return super::crc32_slicing8(state, data);
        };

        // The register is the remainder so far; reflected, it lines up
        // with the first four message bytes.
        let mut x0 = _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&first[1]);
        let mut x2 = load(&first[2]);
        let mut x3 = load(&first[3]);

        // Four independent lanes, each folded 512 bits forward per step.
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks {
            x0 = fold(x0, load(&block[0]), k1k2);
            x1 = fold(x1, load(&block[1]), k1k2);
            x2 = fold(x2, load(&block[2]), k1k2);
            x3 = fold(x3, load(&block[3]), k1k2);
        }

        // Four lanes to one, then the remaining whole lanes, 128 bits
        // forward per step.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x0, x1, k3k4);
        x = fold(x, x2, k3k4);
        x = fold(x, x3, k3k4);
        for lane in singles {
            x = fold(x, load(lane), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction 64 → 32 bits; in the reflected variant the
        // remainder is the upper half of the low quadword.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), poly_mu, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::crc32_slicing8(state, tail)
    }
}

/// Incremental CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= FOLD_MIN_BYTES && has_clmul() {
            // SAFETY: `has_clmul()` just confirmed at run time that this
            // CPU has PCLMULQDQ and SSE4.1 (SSE2 is the x86-64
            // baseline) — the features `crc32_clmul` is compiled for.
            self.state = unsafe { clmul::crc32_clmul(self.state, data) };
            return;
        }
        self.state = crc32_slicing8(self.state, data);
    }

    /// Final checksum value.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// The reflected polynomial, as the kernels use it.
const POLY: u32 = 0xEDB8_8320;

/// `a(x) · b(x) mod P(x)`, both in the reflected representation (the
/// top bit is x⁰). zlib's `multmodp`, bounded to the 32 bits of `a`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0u32;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    p
}

/// `X2N[k]` = x^(2^k) mod P(x). The multiplicative order of x divides
/// 2³² − 1, so the powers repeat with period 32 in `k`.
const X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    t[0] = 1 << 30; // x¹
    let mut k = 1;
    while k < 32 {
        t[k] = multmodp(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// x^(8·n) mod P(x): the operator that shifts a CRC past `n` zero bytes.
fn x8nmodp(mut n: u64) -> u32 {
    let mut p = 1u32 << 31; // x⁰
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of `a ‖ b` from `crc_a` = `crc32(a)`, `crc_b` =
/// `crc32(b)` and `len_b` = `b.len()`, without reading either: zlib's
/// `crc32_combine`. The cost is a few hundred shifts whatever the
/// lengths, so a frame can carry the CRC of a payload whose parts were
/// each checksummed once, where they were read.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    multmodp(x8nmodp(len_b), crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const INIT: u32 = 0xFFFF_FFFF;

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Byte-at-a-time kernel both real kernels must match.
    fn crc32_bytewise(state: u32, data: &[u8]) -> u32 {
        let t = tables();
        let mut c = state;
        for &b in data {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    fn crc32_reference(data: &[u8]) -> u32 {
        crc32_bytewise(INIT, data) ^ INIT
    }

    /// The folding kernel, called directly — or `None`, with a printed
    /// note, on a host that cannot run it.
    fn clmul_kernel() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if has_clmul() {
            // SAFETY: `has_clmul()` just confirmed PCLMULQDQ and SSE4.1.
            return Some(|state, data| unsafe { clmul::crc32_clmul(state, data) });
        }
        println!("note: PCLMULQDQ not detected, folding-kernel checks skipped");
        None
    }

    /// Every kernel this host can run, by name.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![("slicing-by-8", crc32_slicing8)];
        all.extend(clmul_kernel().map(|k| ("pclmulqdq", k)));
        all
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 11) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn known_vectors_through_each_kernel() {
        // Values from zlib. The longer ones reach the 64-byte blocks,
        // the single lanes and the tail of the folding kernel.
        let ramp: Vec<u8> = (0..=255).collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"", 0),
            (b"123456789", 0xCBF4_3926),
            (&b"123456789".repeat(8), 0x8811_A440),
            (&ramp, 0x2905_8C73),
            (&vec![b'a'; 1_000_000], 0xDC25_BFBC),
        ];
        for (name, kernel) in kernels() {
            for (data, want) in vectors {
                assert_eq!(
                    kernel(INIT, data) ^ INIT,
                    want,
                    "{name}, {} bytes",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn sliced_matches_reference_at_every_length() {
        // Cover every remainder length around the 8-byte step, plus a
        // buffer long enough to exercise many full steps.
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(31) ^ 0x5A) as u8)
            .collect();
        for len in (0..64).chain([511, 512, 513, 1024]) {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn kernels_agree_at_every_length_and_offset() {
        // Every length across several 64-byte blocks, at every start
        // offset within a 16-byte lane, from a fresh and from a
        // mid-stream register.
        let buf = noise(1100 + 16);
        for (name, kernel) in kernels() {
            for offset in 0..16 {
                for len in 0..=1100 {
                    let data = &buf[offset..offset + len];
                    for state in [INIT, 0x1234_5678] {
                        assert_eq!(
                            kernel(state, data),
                            crc32_bytewise(state, data),
                            "{name}, offset {offset}, length {len}, state {state:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finalize(), crc32(data));
        // Split points that leave the state mid-way through an 8-byte
        // step must agree too.
        for split in 0..data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), crc32(data), "split {split}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `update` calls of random sizes on both sides of the 64-byte
        /// threshold hand the register from one kernel to the other.
        #[test]
        fn random_splits_match_oneshot_reference(
            data in prop::collection::vec(any::<u8>(), 0..4096),
            cuts in prop::collection::vec(0usize..160, 0..64),
        ) {
            let mut c = Crc32::new();
            let mut rest = data.as_slice();
            for cut in cuts {
                let (piece, after) = rest.split_at(cut.min(rest.len()));
                c.update(piece);
                rest = after;
            }
            c.update(rest);
            prop_assert_eq!(c.finalize(), crc32_slicing8(INIT, &data) ^ INIT);
            prop_assert_eq!(c.finalize(), crc32_reference(&data));
        }
    }

    /// 4 MiB and a ragged tail of noise, made once: long enough that a
    /// combine spans lengths past 2²² bytes.
    fn long_noise() -> &'static [u8] {
        use std::sync::OnceLock;
        static NOISE: OnceLock<Vec<u8>> = OnceLock::new();
        NOISE.get_or_init(|| noise((4 << 20) + 4099))
    }

    #[test]
    fn combine_matches_zlib_and_the_edges() {
        // zlib: crc32_combine(crc32("1234"), crc32("56789"), 5).
        assert_eq!(
            crc32_combine(crc32(b"1234"), crc32(b"56789"), 5),
            0xCBF4_3926
        );
        let data = long_noise();
        let whole = crc32(data);
        // An empty second half leaves the first CRC as it is; an empty
        // first half gives the second.
        assert_eq!(crc32_combine(whole, 0, 0), whole);
        assert_eq!(crc32_combine(0, whole, data.len() as u64), whole);
        // Both halves past 2 MiB, and a second half past 4 MiB.
        for split in [data.len() / 2, 3, 4096] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "split {split}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any cut of any window of the long buffer: the combined CRC
        /// of the two halves is the CRC of the window.
        #[test]
        fn combining_two_halves_gives_the_crc_of_the_whole(
            start in 0usize..4096,
            len in 0usize..(4 << 20) + 3,
            cut in 0.0f64..=1.0,
        ) {
            let window = &long_noise()[start..start + len];
            let (a, b) = window.split_at((len as f64 * cut) as usize);
            prop_assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                crc32(window)
            );
        }
    }

    #[test]
    fn crc_detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        data[17] ^= 0x10;
        assert_ne!(crc32(&data), base);
    }

    #[test]
    fn each_kernel_detects_one_flipped_bit_in_a_deepcam_sized_sample() {
        let mut data = noise(2_200_000);
        for (name, kernel) in kernels() {
            let base = kernel(INIT, &data);
            for at in [0, 1_234_567, data.len() - 1] {
                data[at] ^= 0x04;
                assert_ne!(kernel(INIT, &data), base, "{name}, byte {at}");
                data[at] ^= 0x04;
            }
            assert_eq!(kernel(INIT, &data), base, "{name}");
        }
    }
}
