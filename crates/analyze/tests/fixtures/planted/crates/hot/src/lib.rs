//! Planted fixture: a 3-deep transitive panic chain
//! (`decode_into -> gather_rows -> lut_get`) and an unsafe block that
//! is deliberately absent from the fixture's (empty) unsafe inventory.
//! The lint gate must fail on both — the integration test and
//! `scripts/ci.sh` assert exactly that.

pub fn decode_into(keys: &[u8], out: &mut [f32]) {
    gather_rows(keys, out);
}

fn gather_rows(keys: &[u8], out: &mut [f32]) {
    for (o, &k) in out.iter_mut().zip(keys) {
        *o = lut_get(k as usize);
    }
}

fn lut_get(i: usize) -> f32 {
    if i >= 256 {
        panic!("lut index out of range");
    }
    i as f32
}

pub fn head(xs: &[f32]) -> f32 {
    // SAFETY: caller guarantees a non-empty slice. (This site is
    // deliberately NOT recorded in the fixture's inventory.)
    unsafe { *xs.as_ptr() }
}
