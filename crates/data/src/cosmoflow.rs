//! Synthetic CosmoFlow universes.
//!
//! The real dataset is a 512³ particle-count histogram of N-body dark
//! matter simulations at four redshifts, decomposed into 128³ sub-volumes,
//! for ~10k universes whose four cosmological parameters vary uniformly
//! over ±30 % of their means. The paper's Fig. 5 analysis shows the
//! properties the codec exploits:
//!
//! 1. few hundred **unique count values** per sample, power-law frequency;
//! 2. the 4-redshift count tuples at a voxel are **highly coupled**, so
//!    the number of unique 4-groups is tiny versus the permutation bound;
//! 3. **progressive clustering**: structure sharpens toward redshift 0.
//!
//! The generator reproduces all three mechanically: a fixed set of halos
//! per universe deposits an integer kernel into the grid, with kernel
//! concentration increasing as redshift decreases. Because deposits are
//! quantized sums of a few kernel values, the count histogram is sparse
//! and heavy-tailed, and because all redshifts share the same halos, the
//! per-voxel tuples are strongly coupled.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four cosmological parameters used as regression labels
/// (Ωm, σ8, n_s, H0-scaled), each varied uniformly over ±30 % of its mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosmoParams {
    /// Matter density parameter (mean 0.30).
    pub omega_m: f32,
    /// Amplitude of matter fluctuations (mean 0.80).
    pub sigma8: f32,
    /// Spectral index (mean 0.96).
    pub n_s: f32,
    /// Hubble parameter / 100 (mean 0.70).
    pub h: f32,
}

impl CosmoParams {
    /// Mean values of the parameter grid.
    pub const MEANS: CosmoParams = CosmoParams {
        omega_m: 0.30,
        sigma8: 0.80,
        n_s: 0.96,
        h: 0.70,
    };

    /// Draws parameters uniformly over ±30 % of the means.
    pub fn sample(rng: &mut impl Rng) -> CosmoParams {
        let v = |mean: f32, rng: &mut dyn rand::RngCore| {
            mean * (1.0 + 0.3 * (rng.gen::<f32>() * 2.0 - 1.0))
        };
        CosmoParams {
            omega_m: v(Self::MEANS.omega_m, rng),
            sigma8: v(Self::MEANS.sigma8, rng),
            n_s: v(Self::MEANS.n_s, rng),
            h: v(Self::MEANS.h, rng),
        }
    }

    /// Label vector in the order used by the benchmark.
    pub fn as_array(&self) -> [f32; 4] {
        [self.omega_m, self.sigma8, self.n_s, self.h]
    }
}

/// Number of redshift snapshots per universe (z = 3.0, 1.5, 0.5, 0.0).
pub const N_REDSHIFTS: usize = 4;

/// Redshift values of the four snapshots.
pub const REDSHIFTS: [f32; N_REDSHIFTS] = [3.0, 1.5, 0.5, 0.0];

/// Configuration of the synthetic universe generator.
#[derive(Debug, Clone)]
pub struct CosmoFlowConfig {
    /// Grid edge length (the paper uses 128 sub-volumes of a 512 grid;
    /// tests use 32).
    pub grid: usize,
    /// Halos per universe; controls structure density.
    pub halos: usize,
    /// Base kernel mass scale; controls the count magnitude distribution.
    pub mass_scale: f32,
    /// Uniform background particle density (counts per voxel).
    pub background: u16,
    /// Master seed; each universe derives its own stream.
    pub seed: u64,
}

impl Default for CosmoFlowConfig {
    fn default() -> Self {
        Self {
            grid: 128,
            halos: 64,
            mass_scale: 60.0,
            background: 1,
            seed: 0x5C1_3ACE,
        }
    }
}

impl CosmoFlowConfig {
    /// A small configuration for unit tests (32³ grid).
    pub fn test_small() -> Self {
        Self {
            grid: 32,
            halos: 24,
            mass_scale: 80.0,
            background: 1,
            seed: 7,
        }
    }

    /// Voxels per redshift channel.
    pub fn voxels(&self) -> usize {
        self.grid * self.grid * self.grid
    }
}

/// One CosmoFlow sample: four redshift channels of particle counts over
/// the same spatial grid, plus the regression label.
#[derive(Debug, Clone, PartialEq)]
pub struct CosmoSample {
    /// Grid edge length.
    pub grid: usize,
    /// Channel-major counts: `counts[z * voxels + v]`.
    pub counts: Vec<u16>,
    /// Cosmological parameter label.
    pub label: CosmoParams,
}

impl CosmoSample {
    /// Voxels per channel.
    pub fn voxels(&self) -> usize {
        self.grid * self.grid * self.grid
    }

    /// Total stored values (voxels × redshifts).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the sample holds no voxels.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The 4-tuple of counts at flat voxel index `v`.
    #[inline]
    pub fn group(&self, v: usize) -> [u16; N_REDSHIFTS] {
        let n = self.voxels();
        [
            self.counts[v],
            self.counts[n + v],
            self.counts[2 * n + v],
            self.counts[3 * n + v],
        ]
    }

    /// Size of the sample in raw f32 storage (what the uncompressed
    /// baseline ships: counts widened to f32).
    pub fn raw_f32_bytes(&self) -> usize {
        self.counts.len() * 4
    }
}

/// Procedural universe generator.
#[derive(Debug, Clone)]
pub struct UniverseGenerator {
    cfg: CosmoFlowConfig,
}

#[derive(Debug, Clone, Copy)]
struct Halo {
    x: f32,
    y: f32,
    z: f32,
    mass: f32,
}

impl UniverseGenerator {
    /// Creates a generator over the given configuration.
    pub fn new(cfg: CosmoFlowConfig) -> Self {
        Self { cfg }
    }

    /// Configuration in use.
    pub fn config(&self) -> &CosmoFlowConfig {
        &self.cfg
    }

    /// Generates universe number `index` deterministically.
    pub fn generate(&self, index: u64) -> CosmoSample {
        let mut rng =
            StdRng::seed_from_u64(self.cfg.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let label = CosmoParams::sample(&mut rng);
        let g = self.cfg.grid;
        let voxels = self.cfg.voxels();

        // Halo field: positions uniform; masses power-law with slope set
        // by n_s, amplitude by sigma8. More matter (omega_m) => more halos.
        let n_halos = ((self.cfg.halos as f32) * (label.omega_m / CosmoParams::MEANS.omega_m))
            .round()
            .max(4.0) as usize;
        let halos: Vec<Halo> = (0..n_halos)
            .map(|_| {
                let u: f32 = rng.gen::<f32>().max(1e-4);
                // Pareto-like mass distribution.
                let slope = 1.2 + (CosmoParams::MEANS.n_s - label.n_s) * 2.0;
                // Quantize masses to a coarse lattice: distinct halos then
                // share kernel value sets, which is what keeps the
                // unique-group count low in the real histograms.
                let raw_mass = self.cfg.mass_scale
                    * (label.sigma8 / CosmoParams::MEANS.sigma8)
                    * u.powf(-1.0 / slope).min(8.0);
                let mass = (raw_mass / 8.0).round() * 8.0;
                Halo {
                    x: rng.gen::<f32>() * g as f32,
                    y: rng.gen::<f32>() * g as f32,
                    z: rng.gen::<f32>() * g as f32,
                    mass,
                }
            })
            .collect();

        let mut counts = vec![0u16; voxels * N_REDSHIFTS];
        for (zi, &redshift) in REDSHIFTS.iter().enumerate() {
            // Clustering concentration grows toward z=0: kernel radius
            // shrinks and central density rises (h controls growth rate).
            let growth = (1.0 + redshift).powf(-0.9 * label.h / CosmoParams::MEANS.h);
            let r_scale = (g as f32 / 22.0) * (1.0 - 0.55 * growth).max(0.18);
            let amp = 0.35 + 1.1 * growth;
            let chan = &mut counts[zi * voxels..(zi + 1) * voxels];
            deposit(chan, g, &halos, r_scale, amp);
        }
        // Voids carry scattered unclustered particles: a small count per
        // voxel, correlated across redshifts (it is the same particle),
        // slowly draining into halos toward z = 0. This is what gives the
        // real histograms their gzip-resistant entropy while adding only
        // a bounded set of extra 4-tuples.
        if self.cfg.background > 0 {
            let salt = self.cfg.seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
            for v in 0..voxels {
                if (0..N_REDSHIFTS).all(|z| counts[z * voxels + v] == 0) {
                    let h = (v as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let h = h ^ (h >> 29);
                    // Base void count 0..=3, heavier at the low end.
                    let base = match h & 0xF {
                        0..=6 => 0u16,
                        7..=10 => 1,
                        11..=13 => 2,
                        _ => 3,
                    } * self.cfg.background;
                    let drain = ((h >> 8) & 0x3) as u16;
                    for z in 0..N_REDSHIFTS {
                        // Later snapshots (z index up) lose a particle when
                        // the drain bit for that epoch fires.
                        let lost = u16::from(z as u16 >= 2 && drain == z as u16);
                        counts[z * voxels + v] = base.saturating_sub(lost);
                    }
                }
            }
        }
        CosmoSample {
            grid: g,
            counts,
            label,
        }
    }

    /// Generates `n` universes starting at `first`.
    pub fn generate_batch(&self, first: u64, n: usize) -> Vec<CosmoSample> {
        (0..n as u64).map(|i| self.generate(first + i)).collect()
    }
}

/// Deposits the integer halo kernel into a channel grid.
///
/// Each halo contributes `round(amp * mass / (1 + shell))` where `shell`
/// is the *quantized* squared radius `floor(r²/r_s²)`, within a
/// truncation radius; contributions sum, then saturate at `u16::MAX`.
/// Quantizing the radius into shells (and each contribution rather than
/// the sum) keeps both the unique value set and the unique 4-tuple set
/// small, matching Fig. 5's properties: counts are piecewise constant on
/// shell intersections, so a halo contributes only a handful of distinct
/// values per channel.
fn deposit(chan: &mut [u16], g: usize, halos: &[Halo], r_scale: f32, amp: f32) {
    chan.fill(0);
    let trunc = (2.5 * r_scale).ceil() as i64;
    let r_s2 = r_scale * r_scale;
    let gi = g as i64;
    for h in halos {
        let (hx, hy, hz) = (h.x as i64, h.y as i64, h.z as i64);
        for dz in -trunc..=trunc {
            let z = (hz + dz).rem_euclid(gi) as usize;
            for dy in -trunc..=trunc {
                let y = (hy + dy).rem_euclid(gi) as usize;
                let row = (z * g + y) * g;
                for dx in -trunc..=trunc {
                    let x = (hx + dx).rem_euclid(gi) as usize;
                    let fx = h.x - (hx + dx) as f32;
                    let fy = h.y - (hy + dy) as f32;
                    let fz = h.z - (hz + dz) as f32;
                    let r2 = fx * fx + fy * fy + fz * fz;
                    if r2 > (trunc * trunc) as f32 + 0.0 {
                        continue;
                    }
                    let shell = (r2 / r_s2).floor();
                    let c = (amp * h.mass / (1.0 + shell)).round() as u32;
                    if c == 0 {
                        continue;
                    }
                    let idx = row + x;
                    chan[idx] = (chan[idx] as u32 + c).min(u16::MAX as u32) as u16;
                }
            }
        }
    }
}

/// Summary statistics used by the Fig. 5 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleStats {
    /// Distinct count values across all four channels.
    pub unique_values: usize,
    /// Distinct 4-tuples across voxels.
    pub unique_groups: usize,
    /// Frequency of each unique value, descending (power-law check).
    pub value_frequencies: Vec<(u16, usize)>,
}

/// Computes the Fig. 5 statistics for a sample.
pub fn sample_stats(sample: &CosmoSample) -> SampleStats {
    use std::collections::HashMap;
    let mut value_freq: HashMap<u16, usize> = HashMap::new();
    for &c in &sample.counts {
        *value_freq.entry(c).or_insert(0) += 1;
    }
    let mut groups: HashMap<[u16; N_REDSHIFTS], usize> = HashMap::new();
    for v in 0..sample.voxels() {
        *groups.entry(sample.group(v)).or_insert(0) += 1;
    }
    let mut value_frequencies: Vec<(u16, usize)> =
        value_freq.iter().map(|(&v, &f)| (v, f)).collect();
    value_frequencies.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    SampleStats {
        unique_values: value_freq.len(),
        unique_groups: groups.len(),
        value_frequencies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sample() -> CosmoSample {
        UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0)
    }

    #[test]
    fn deterministic_per_index() {
        let g = UniverseGenerator::new(CosmoFlowConfig::test_small());
        assert_eq!(g.generate(3), g.generate(3));
        assert_ne!(g.generate(3).counts, g.generate(4).counts);
    }

    #[test]
    fn labels_within_30_percent_band() {
        let g = UniverseGenerator::new(CosmoFlowConfig::test_small());
        for i in 0..50 {
            let l = g.generate(i).label;
            for (v, m) in l.as_array().iter().zip(CosmoParams::MEANS.as_array()) {
                assert!(*v >= m * 0.699 && *v <= m * 1.301, "{v} vs mean {m}");
            }
        }
    }

    #[test]
    fn unique_values_are_few_relative_to_voxels() {
        let s = small_sample();
        let stats = sample_stats(&s);
        // 32³×4 = 131072 values, unique set must be orders smaller.
        assert!(stats.unique_values < 2000, "{}", stats.unique_values);
        assert!(stats.unique_values > 10, "{}", stats.unique_values);
    }

    #[test]
    fn groups_far_below_permutation_bound() {
        let s = small_sample();
        let stats = sample_stats(&s);
        let bound = (stats.unique_values as u64).pow(4);
        assert!(
            (stats.unique_groups as u64) < bound / 100,
            "{} vs bound {}",
            stats.unique_groups,
            bound
        );
        // And below the voxel count too (coupling, not saturation).
        assert!(stats.unique_groups < s.voxels());
    }

    #[test]
    fn value_histogram_is_heavy_tailed() {
        let s = small_sample();
        let stats = sample_stats(&s);
        // The most frequent values (void counts 0..=3) dominate.
        let top4: usize = stats
            .value_frequencies
            .iter()
            .take(4)
            .map(|&(_, f)| f)
            .sum();
        let total: usize = stats.value_frequencies.iter().map(|&(_, f)| f).sum();
        assert!(top4 * 2 > total, "top4 {top4} of {total}");
        // And the frequencies decay fast: the 10th most frequent value
        // appears at least an order of magnitude less often than the top.
        let top = stats.value_frequencies[0].1;
        let tenth = stats.value_frequencies[9.min(stats.value_frequencies.len() - 1)].1;
        assert!(tenth * 10 < top, "tenth {tenth} vs top {top}");
    }

    #[test]
    fn progressive_clustering_sharpens_peak() {
        // Max count should grow as redshift approaches 0 (channel 3).
        let s = small_sample();
        let n = s.voxels();
        let max_z3 = s.counts[..n].iter().copied().max().unwrap();
        let max_z0 = s.counts[3 * n..].iter().copied().max().unwrap();
        assert!(max_z0 > max_z3, "z0 max {max_z0} vs z3 max {max_z3}");
    }

    #[test]
    fn group_accessor_matches_layout() {
        let s = small_sample();
        let n = s.voxels();
        let g = s.group(17);
        assert_eq!(g[0], s.counts[17]);
        assert_eq!(g[2], s.counts[2 * n + 17]);
    }

    #[test]
    fn raw_f32_size() {
        let s = small_sample();
        assert_eq!(s.raw_f32_bytes(), 32 * 32 * 32 * 4 * 4);
    }

    #[test]
    fn batch_generation_is_indexed() {
        let g = UniverseGenerator::new(CosmoFlowConfig::test_small());
        let batch = g.generate_batch(5, 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[1], g.generate(6));
    }
}
