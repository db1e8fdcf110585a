//! Output checks: tensor and label digests, and exactly-once delivery.
//!
//! Set-up decodes every blob once through a reference `plugin.decode`
//! and keeps three digests per sample. The warm-up epoch compares the
//! full digest of every delivered tensor; the timed rounds compare a
//! strided digest, which is cheap enough not to take CPU from the decode
//! threads it is measuring.

use sciml_half::F16;
use sciml_pipeline::{Batch, Label};

/// Every `SAMPLED_STRIDE`-th group of four values goes into the strided
/// digest: one 8-byte read per 256 bytes of tensor.
const SAMPLED_STRIDE: usize = 32;

fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 29)
}

fn word(v: &[F16]) -> u64 {
    v.iter()
        .fold(0u64, |w, x| (w << 16) | u64::from(x.to_bits()))
}

pub fn digest_tensor(t: &[F16]) -> u64 {
    let groups = t.chunks_exact(4);
    let tail = word(groups.remainder());
    mix(groups.fold(t.len() as u64, |h, g| mix(h, word(g))), tail)
}

pub fn digest_tensor_sampled(t: &[F16]) -> u64 {
    t.chunks_exact(4)
        .step_by(SAMPLED_STRIDE)
        .fold(t.len() as u64, |h, g| mix(h, word(g)))
}

pub fn digest_bytes(b: &[u8]) -> u64 {
    let words = b.chunks_exact(8);
    let tail = words
        .remainder()
        .iter()
        .fold(0u64, |w, &x| (w << 8) | u64::from(x));
    let h = words.fold(b.len() as u64, |h, w| {
        mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
    });
    mix(h, tail)
}

pub fn digest_label(label: &Label) -> u64 {
    match label {
        Label::Cosmo(p) => p.iter().fold(4, |h, v| mix(h, u64::from(v.to_bits()))),
        Label::Mask(m) => digest_bytes(m),
    }
}

/// What set-up recorded about one sample's reference decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub full: u64,
    pub sampled: u64,
    pub label: u64,
}

impl Reference {
    pub fn of(tensor: &[F16], label: &Label) -> Reference {
        Reference {
            full: digest_tensor(tensor),
            sampled: digest_tensor_sampled(tensor),
            label: digest_label(label),
        }
    }
}

/// Checks the batches of one pipeline run against the references.
pub struct Checker<'a> {
    refs: &'a [Reference],
    /// Deliveries per (epoch, index).
    seen: Vec<u8>,
    full: bool,
    wrong: u64,
}

impl<'a> Checker<'a> {
    /// `full` selects the full tensor digest (warm-up) over the strided
    /// one (timed rounds).
    pub fn new(refs: &'a [Reference], epochs: usize, full: bool) -> Checker<'a> {
        Checker {
            refs,
            seen: vec![0; refs.len() * epochs],
            full,
            wrong: 0,
        }
    }

    pub fn check(&mut self, batch: &Batch) {
        let n = self.refs.len();
        for (slot, &idx) in batch.indices.iter().enumerate() {
            let Some(count) = (idx < n)
                .then(|| self.seen.get_mut(batch.epoch * n + idx))
                .flatten()
            else {
                self.wrong += 1;
                continue;
            };
            *count = count.saturating_add(1);
            let want = &self.refs[idx];
            let tensor = batch.sample(slot);
            let tensor_ok = if self.full {
                digest_tensor(tensor) == want.full
            } else {
                digest_tensor_sampled(tensor) == want.sampled
            };
            if !(tensor_ok && digest_label(&batch.labels[slot]) == want.label) {
                self.wrong += 1;
            }
        }
    }

    /// Samples delivered at least once, counted once each.
    pub fn delivered(&self) -> u64 {
        self.seen.iter().filter(|&&c| c > 0).count() as u64
    }

    /// Samples expected: every index once per epoch.
    pub fn attempted(&self) -> u64 {
        self.seen.len() as u64
    }

    /// Failed operations: a sample missing or delivered twice in its
    /// epoch, delivered under an index the dataset does not have, or
    /// delivered with a wrong tensor or label. Never more than
    /// `attempted`.
    pub fn failed(&self) -> u64 {
        let not_once = self.seen.iter().filter(|&&c| c != 1).count() as u64;
        (not_once + self.wrong).min(self.attempted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(seed: u16, len: usize) -> Vec<F16> {
        (0..len)
            .map(|i| F16::from_bits(seed.wrapping_mul(31).wrapping_add(i as u16)))
            .collect()
    }

    fn batch(epoch: usize, indices: Vec<usize>, tensors: &[Vec<F16>]) -> Batch {
        let data: Vec<F16> = indices.iter().flat_map(|&i| tensors[i].clone()).collect();
        Batch {
            data: data.into(),
            sample_len: tensors[0].len(),
            labels: indices
                .iter()
                .map(|&i| Label::Cosmo([i as f32; 4]))
                .collect(),
            indices,
            epoch,
        }
    }

    fn fixture() -> (Vec<Vec<F16>>, Vec<Reference>) {
        let tensors: Vec<Vec<F16>> = (0..4).map(|i| tensor(i, 1000)).collect();
        let refs = tensors
            .iter()
            .enumerate()
            .map(|(i, t)| Reference::of(t, &Label::Cosmo([i as f32; 4])))
            .collect();
        (tensors, refs)
    }

    #[test]
    fn digests_see_every_value_and_the_length() {
        let t = tensor(1, 1003);
        let mut u = t.clone();
        u[1002] = F16::from_bits(u[1002].to_bits() ^ 1);
        assert_ne!(digest_tensor(&t), digest_tensor(&u));
        assert_ne!(digest_tensor(&t[..1002]), digest_tensor(&t[..1001]));
        assert_ne!(digest_bytes(&[1, 2, 3]), digest_bytes(&[1, 2, 3, 0]));
        assert_ne!(digest_bytes(&[0; 16]), digest_bytes(&[0; 17]));
        // The strided digest reads the first group of every stride.
        let mut v = t.clone();
        v[SAMPLED_STRIDE * 4] = F16::from_bits(!v[SAMPLED_STRIDE * 4].to_bits());
        assert_ne!(digest_tensor_sampled(&t), digest_tensor_sampled(&v));
    }

    #[test]
    fn exactly_once_delivery_passes() {
        let (tensors, refs) = fixture();
        for full in [true, false] {
            let mut c = Checker::new(&refs, 2, full);
            c.check(&batch(0, vec![2, 0], &tensors));
            c.check(&batch(0, vec![1, 3], &tensors));
            c.check(&batch(1, vec![3, 2, 1, 0], &tensors));
            assert_eq!((c.attempted(), c.delivered(), c.failed()), (8, 8, 0));
        }
    }

    #[test]
    fn missing_duplicate_and_foreign_samples_fail() {
        let (tensors, refs) = fixture();
        let mut c = Checker::new(&refs, 1, true);
        c.check(&batch(0, vec![0, 0, 1], &tensors));
        // 0 twice, 2 and 3 missing.
        assert_eq!((c.delivered(), c.failed()), (2, 3));
        let mut c = Checker::new(&refs, 1, true);
        let mut b = batch(0, vec![0, 1, 2, 3], &tensors);
        b.indices[3] = 9;
        c.check(&b);
        // Index 9 does not exist, and 3 is missing.
        assert_eq!(c.failed(), 2);
    }

    #[test]
    fn wrong_tensor_or_label_fails() {
        let (tensors, refs) = fixture();
        let mut c = Checker::new(&refs, 1, true);
        let mut b = batch(0, vec![0, 1, 2, 3], &tensors);
        b.data[5] = F16::from_bits(!b.data[5].to_bits());
        b.labels[2] = Label::Cosmo([9.0; 4]);
        c.check(&b);
        assert_eq!((c.delivered(), c.failed()), (4, 2));
        // A sample in the wrong slot is caught by the strided digest too.
        let mut c = Checker::new(&refs, 1, false);
        let mut b = batch(0, vec![0, 1, 2, 3], &tensors);
        b.indices.swap(0, 1);
        c.check(&b);
        assert_eq!(c.failed(), 2);
    }
}
