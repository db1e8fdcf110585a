//! Prints the host control row: one thread's time over two's to inflate
//! a fixed set of gzip blobs, timed as a scaling row of
//! `sciml_simd::speed` (see `sciml_repro::control`). About 1.9 where both vCPUs of a two-vCPU
//! host are there; under 1.7 the second was away, and a benchmark run
//! made then says little about the code.
//!
//! ```text
//! cargo run --release --example inflate_control
//! control 1.93 (1 thread 212.4 ms, 2 threads 110.1 ms)
//! ```

use sciml_repro::control::InflateControl;

fn main() {
    let (ratio, one, two) = InflateControl::new().ratio();
    println!(
        "control {ratio:.2} (1 thread {:.1} ms, 2 threads {:.1} ms)",
        one * 1e3,
        two * 1e3
    );
}
