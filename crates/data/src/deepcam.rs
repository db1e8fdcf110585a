//! Synthetic DeepCAM climate samples.
//!
//! The real dataset holds 16-channel 1152×768 FP32 images from the CAM5
//! climate model (temperature, winds, pressure, humidity at several
//! altitudes) with segmentation masks for extreme weather. The paper's
//! differential codec exploits two properties (§V-A):
//!
//! 1. "the x-direction contains the smoothest changes in values" —
//!    fields vary slowly along longitude;
//! 2. "areas with abrupt changes … potentially carry interesting climate
//!    phenomena" — cyclones and atmospheric rivers create sparse, sharp
//!    gradients that must survive compression unharmed.
//!
//! The generator reproduces both: each channel is a sum of low-frequency
//! waves (lower frequency along x than y) plus a latitudinal gradient,
//! perturbed by localized vortices (cyclones) and narrow curved bands
//! (atmospheric rivers), with small additive sensor noise. Label masks
//! mark the anomaly footprints with the 3-class scheme of the benchmark.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Segmentation classes used by the DeepCAM benchmark.
pub const CLASS_BACKGROUND: u8 = 0;
/// Tropical-cyclone pixels.
pub const CLASS_CYCLONE: u8 = 1;
/// Atmospheric-river pixels.
pub const CLASS_RIVER: u8 = 2;

/// Configuration of the synthetic climate generator.
#[derive(Debug, Clone)]
pub struct DeepCamConfig {
    /// Image width (longitude; the real data uses 1152).
    pub width: usize,
    /// Image height (latitude; the real data uses 768).
    pub height: usize,
    /// Channels per sample (the real data uses 16).
    pub channels: usize,
    /// Cyclones per sample.
    pub cyclones: usize,
    /// Atmospheric rivers per sample.
    pub rivers: usize,
    /// Sensor-noise standard deviation relative to field amplitude.
    pub noise: f32,
    /// Master seed.
    pub seed: u64,
}

impl Default for DeepCamConfig {
    fn default() -> Self {
        Self {
            width: 1152,
            height: 768,
            channels: 16,
            cyclones: 3,
            rivers: 2,
            noise: 2.5e-3,
            seed: 0xDEE9_CA55,
        }
    }
}

impl DeepCamConfig {
    /// Small configuration for unit tests.
    pub fn test_small() -> Self {
        Self {
            width: 144,
            height: 96,
            channels: 4,
            cyclones: 2,
            rivers: 1,
            noise: 2.5e-3,
            seed: 11,
        }
    }

    /// Pixels per channel.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// Total f32 values per sample.
    pub fn values(&self) -> usize {
        self.pixels() * self.channels
    }
}

/// One DeepCAM sample: channel-major f32 image stack plus the per-pixel
/// class mask.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepCamSample {
    /// Longitude extent.
    pub width: usize,
    /// Latitude extent.
    pub height: usize,
    /// Channel count.
    pub channels: usize,
    /// `data[c * w * h + y * w + x]`.
    pub data: Vec<f32>,
    /// `mask[y * w + x]` ∈ {0, 1, 2}.
    pub mask: Vec<u8>,
}

impl DeepCamSample {
    /// One channel as a slice.
    pub fn channel(&self, c: usize) -> &[f32] {
        let n = self.width * self.height;
        &self.data[c * n..(c + 1) * n]
    }

    /// One image line (row `y` of channel `c`) — the codec's unit of
    /// independent decode.
    pub fn line(&self, c: usize, y: usize) -> &[f32] {
        let start = c * self.width * self.height + y * self.width;
        &self.data[start..start + self.width]
    }

    /// Raw FP32 sample size in bytes (the baseline's transfer unit).
    pub fn raw_f32_bytes(&self) -> usize {
        self.data.len() * 4
    }
}

/// Procedural climate-field generator.
#[derive(Debug, Clone)]
pub struct ClimateGenerator {
    cfg: DeepCamConfig,
}

#[derive(Debug, Clone, Copy)]
struct Cyclone {
    x: f32,
    y: f32,
    radius: f32,
    strength: f32,
}

#[derive(Debug, Clone, Copy)]
struct River {
    /// Anchor latitude at x = 0.
    y0: f32,
    /// Meander amplitude.
    amp: f32,
    /// Meander wavelength.
    wavelength: f32,
    /// Band half-width.
    halfwidth: f32,
    strength: f32,
}

impl ClimateGenerator {
    /// Creates a generator over the configuration.
    pub fn new(cfg: DeepCamConfig) -> Self {
        Self { cfg }
    }

    /// Configuration in use.
    pub fn config(&self) -> &DeepCamConfig {
        &self.cfg
    }

    /// Generates sample `index` deterministically.
    pub fn generate(&self, index: u64) -> DeepCamSample {
        let c = &self.cfg;
        let mut rng = StdRng::seed_from_u64(c.seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let (w, h) = (c.width as f32, c.height as f32);

        let cyclones: Vec<Cyclone> = (0..c.cyclones)
            .map(|_| Cyclone {
                x: rng.gen::<f32>() * w,
                y: rng.gen::<f32>() * h,
                radius: (0.02 + 0.03 * rng.gen::<f32>()) * w,
                strength: 6.0 + 10.0 * rng.gen::<f32>(),
            })
            .collect();
        let rivers: Vec<River> = (0..c.rivers)
            .map(|_| River {
                y0: (0.15 + 0.7 * rng.gen::<f32>()) * h,
                amp: (0.05 + 0.08 * rng.gen::<f32>()) * h,
                wavelength: (0.4 + 0.6 * rng.gen::<f32>()) * w,
                halfwidth: (0.008 + 0.012 * rng.gen::<f32>()) * h,
                strength: 4.0 + 6.0 * rng.gen::<f32>(),
            })
            .collect();

        let n = c.pixels();
        let mut data = vec![0f32; n * c.channels];
        for ch in 0..c.channels {
            // Channel personality: base level and wave set. Lower spatial
            // frequency along x than y gives the x-smoothness the codec
            // exploits.
            let base = match ch % 4 {
                0 => 270.0 + 20.0 * rng.gen::<f32>(), // temperature-like (K)
                1 => 101.0 + 2.0 * rng.gen::<f32>(),  // pressure-like (kPa)
                2 => 10.0 * (rng.gen::<f32>() - 0.5), // wind-like (m/s)
                _ => 0.02 * rng.gen::<f32>(),         // humidity-like (kg/kg)
            };
            let amp = match ch % 4 {
                0 => 12.0,
                1 => 1.5,
                2 => 8.0,
                _ => 0.008,
            };
            let waves: Vec<(f32, f32, f32, f32, f32)> = (0..4)
                .map(|_| {
                    (
                        (0.5 + 1.5 * rng.gen::<f32>()) * std::f32::consts::TAU / w, // kx (low)
                        (1.0 + 4.0 * rng.gen::<f32>()) * std::f32::consts::TAU / h, // ky
                        rng.gen::<f32>() * std::f32::consts::TAU,                   // phase
                        0.2 + 0.8 * rng.gen::<f32>(),                               // rel amp
                        rng.gen::<f32>() - 0.5,                                     // tilt
                    )
                })
                .collect();
            let lat_grad = amp * (0.5 + rng.gen::<f32>());
            let anomaly_scale = amp / 10.0;

            let chan = &mut data[ch * n..(ch + 1) * n];
            for y in 0..c.height {
                let fy = y as f32;
                for x in 0..c.width {
                    let fx = x as f32;
                    let mut v = base + lat_grad * (fy / h - 0.5);
                    for &(kx, ky, phase, a, tilt) in &waves {
                        v +=
                            amp * a * 0.25 * (kx * fx + ky * fy * (1.0 + tilt * 0.1) + phase).sin();
                    }
                    // Sharp anomalies.
                    for cy in &cyclones {
                        let dx = wrap_dist(fx, cy.x, w);
                        let dy = fy - cy.y;
                        let r2 = dx * dx + dy * dy;
                        let rr = cy.radius * cy.radius;
                        if r2 < 9.0 * rr {
                            // Steep core with ring structure: large local
                            // gradients.
                            let core = (-r2 / (0.25 * rr)).exp();
                            let ring = (-((r2 / rr).sqrt() - 1.5).powi(2) * 4.0).exp();
                            v += anomaly_scale * cy.strength * (2.0 * core - ring);
                        }
                    }
                    for rv in &rivers {
                        let band_y =
                            rv.y0 + rv.amp * (std::f32::consts::TAU * fx / rv.wavelength).sin();
                        let d = (fy - band_y).abs();
                        if d < 4.0 * rv.halfwidth {
                            v += anomaly_scale * rv.strength * (-(d / rv.halfwidth).powi(2)).exp();
                        }
                    }
                    // Sensor noise.
                    let noise = amp * c.noise * (rng.gen::<f32>() * 2.0 - 1.0);
                    chan[y * c.width + x] = v + noise;
                }
            }
        }

        // Label mask from anomaly footprints.
        let mut mask = vec![CLASS_BACKGROUND; n];
        for y in 0..c.height {
            let fy = y as f32;
            for x in 0..c.width {
                let fx = x as f32;
                let idx = y * c.width + x;
                for cy in &cyclones {
                    let dx = wrap_dist(fx, cy.x, w);
                    let dy = fy - cy.y;
                    if dx * dx + dy * dy < cy.radius * cy.radius * 2.25 {
                        mask[idx] = CLASS_CYCLONE;
                    }
                }
                if mask[idx] == CLASS_BACKGROUND {
                    for rv in &rivers {
                        let band_y =
                            rv.y0 + rv.amp * (std::f32::consts::TAU * fx / rv.wavelength).sin();
                        if (fy - band_y).abs() < 2.0 * rv.halfwidth {
                            mask[idx] = CLASS_RIVER;
                        }
                    }
                }
            }
        }

        DeepCamSample {
            width: c.width,
            height: c.height,
            channels: c.channels,
            data,
            mask,
        }
    }

    /// Generates `count` samples starting at `first`.
    pub fn generate_batch(&self, first: u64, count: usize) -> Vec<DeepCamSample> {
        (0..count as u64)
            .map(|i| self.generate(first + i))
            .collect()
    }
}

/// Periodic (wrap-around) distance along the longitude axis.
#[inline]
fn wrap_dist(a: f32, b: f32, period: f32) -> f32 {
    let d = (a - b).abs();
    d.min(period - d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeepCamSample {
        ClimateGenerator::new(DeepCamConfig::test_small()).generate(0)
    }

    /// Mean absolute x-gradient vs y-gradient of a channel; the generator
    /// must produce smaller x-gradients (the property the codec exploits).
    fn gradient_anisotropy(sample: &DeepCamSample, channel: usize) -> (f32, f32) {
        let (w, h) = (sample.width, sample.height);
        let chan = sample.channel(channel);
        let mut gx = 0f64;
        let mut gy = 0f64;
        let mut nx = 0u64;
        let mut ny = 0u64;
        for y in 0..h {
            for x in 1..w {
                gx += (chan[y * w + x] - chan[y * w + x - 1]).abs() as f64;
                nx += 1;
            }
        }
        for y in 1..h {
            for x in 0..w {
                gy += (chan[y * w + x] - chan[(y - 1) * w + x]).abs() as f64;
                ny += 1;
            }
        }
        ((gx / nx as f64) as f32, (gy / ny as f64) as f32)
    }

    #[test]
    fn deterministic_and_indexed() {
        let g = ClimateGenerator::new(DeepCamConfig::test_small());
        assert_eq!(g.generate(1), g.generate(1));
        assert_ne!(g.generate(1).data, g.generate(2).data);
    }

    #[test]
    fn shapes_are_consistent() {
        let s = sample();
        assert_eq!(s.data.len(), 144 * 96 * 4);
        assert_eq!(s.mask.len(), 144 * 96);
        assert_eq!(s.channel(3).len(), 144 * 96);
        assert_eq!(s.line(2, 10).len(), 144);
    }

    #[test]
    fn x_direction_is_smoother_than_y() {
        let s = sample();
        for c in 0..s.channels {
            let (gx, gy) = gradient_anisotropy(&s, c);
            assert!(gx < gy, "channel {c}: gx={gx} gy={gy}");
        }
    }

    #[test]
    fn mask_has_all_classes() {
        let s = sample();
        let has = |cls: u8| s.mask.contains(&cls);
        assert!(has(CLASS_BACKGROUND));
        assert!(has(CLASS_CYCLONE));
        assert!(has(CLASS_RIVER));
        // Anomalies must be sparse.
        let anom = s.mask.iter().filter(|&&m| m != CLASS_BACKGROUND).count();
        assert!(anom * 4 < s.mask.len(), "{anom} of {}", s.mask.len());
    }

    #[test]
    fn anomalies_create_sharp_gradients() {
        // Max |dx| inside cyclone pixels should exceed the median line
        // gradient by a wide margin.
        let s = sample();
        let w = s.width;
        let chan = s.channel(0);
        let mut anom_max = 0f32;
        let mut bg_sum = 0f64;
        let mut bg_n = 0u64;
        for y in 0..s.height {
            for x in 1..w {
                let g = (chan[y * w + x] - chan[y * w + x - 1]).abs();
                if s.mask[y * w + x] == CLASS_CYCLONE {
                    anom_max = anom_max.max(g);
                } else {
                    bg_sum += g as f64;
                    bg_n += 1;
                }
            }
        }
        let bg_mean = (bg_sum / bg_n as f64) as f32;
        assert!(anom_max > 8.0 * bg_mean, "anom {anom_max} vs bg {bg_mean}");
    }

    #[test]
    fn channel_families_have_distinct_ranges() {
        let s = sample();
        let mean = |c: usize| -> f32 {
            let ch = s.channel(c);
            ch.iter().sum::<f32>() / ch.len() as f32
        };
        // temperature-like channel sits near 270, humidity-like near 0.
        assert!(mean(0) > 200.0);
        assert!(mean(3).abs() < 1.0);
    }

    #[test]
    fn wrap_distance() {
        assert_eq!(wrap_dist(1.0, 9.0, 10.0), 2.0);
        assert_eq!(wrap_dist(3.0, 5.0, 10.0), 2.0);
    }

    #[test]
    fn raw_size_matches_paper_shape() {
        let full = DeepCamConfig::default();
        assert_eq!(full.values() * 4, 1152 * 768 * 16 * 4); // ~56.6 MB
    }
}
