//! Publishes the process-wide SIMD decode-kernel dispatch counters
//! into a metrics registry, following the [`crate::lockcheck`] pattern:
//! hot paths bump plain atomics in `sciml-simd`;
//! [`crate::Telemetry::exposition`] calls `publish` to lift them into
//! `codec.simd.*` gauges right before it renders.

use crate::registry::MetricsRegistry;
use std::sync::Arc;

/// Sets the `codec.simd.*` gauges from the current dispatch counters
/// (gauges, because the atomics are cumulative and re-publishing must
/// overwrite, not add):
///
/// - `codec.simd.<kernel>.<level>` — dispatches of one kernel at one
///   tier, emitted only once non-zero so expositions stay compact;
/// - `codec.simd.level.<level>` — per-tier totals across kernels
///   (always emitted, so dashboards get a stable series);
/// - `codec.simd.dispatch_total` — grand total, host-independent.
pub(crate) fn publish(registry: &Arc<MetricsRegistry>) {
    // One read of the atomics; totals derive from the same snapshot so
    // the published gauges are mutually consistent even while decodes
    // keep running on other threads.
    let counts = sciml_simd::dispatch_counts();
    let mut total = 0u64;
    let mut by_level = [0u64; sciml_simd::ALL_LEVELS.len()];
    for &(kernel, level, n) in &counts {
        total += n;
        by_level[level.index()] += n;
        if n > 0 {
            let name = format!("codec.simd.{}.{}", kernel.name(), level.name());
            registry.gauge(&name).set(n as i64);
        }
    }
    for level in sciml_simd::ALL_LEVELS {
        let name = format!("codec.simd.level.{}", level.name());
        registry.gauge(&name).set(by_level[level.index()] as i64);
    }
    registry
        .gauge("codec.simd.dispatch_total")
        .set(total as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciml_simd::{record, Kernel};

    #[test]
    fn publish_is_consistent_and_overwrites() {
        let reg = MetricsRegistry::new();
        record(Kernel::HalfWiden, sciml_simd::active_level());
        publish(&reg);
        let snap = reg.snapshot();
        let total = snap.gauge("codec.simd.dispatch_total");
        assert!(total > 0);
        let level_sum: i64 = sciml_simd::ALL_LEVELS
            .iter()
            .map(|l| snap.gauge(&format!("codec.simd.level.{}", l.name())))
            .sum();
        assert_eq!(level_sum, total);
        // Re-publishing replaces rather than accumulates (no dispatches
        // happen between the two calls in this test binary).
        publish(&reg);
        assert_eq!(reg.snapshot().gauge("codec.simd.dispatch_total"), total);
    }
}
