//! Bridge from the `parking_lot` shim's lock-order detector into the
//! metrics registry.
//!
//! In `--cfg lockcheck` builds the detector accumulates global
//! statistics (sites seen, ordering edges, detected cycles); this
//! module publishes them as `analyze.lockcheck.*` gauges so they ride
//! along in every exposition ([`crate::Telemetry::exposition`]). In
//! normal builds `publish` is a no-op — `parking_lot::lockcheck::enabled()`
//! is `const false` and the whole body folds away.

use crate::registry::MetricsRegistry;

/// Gauge-name prefix for detector statistics.
pub const PREFIX: &str = "analyze.lockcheck";

/// Publishes the detector's current statistics into `registry` as
/// `analyze.lockcheck.{sites,edges,cycles,acquisitions,same_site_nesting}`
/// gauges. No-op (registers nothing) when the detector is compiled out.
pub(crate) fn publish(registry: &MetricsRegistry) {
    if !parking_lot::lockcheck::enabled() {
        return;
    }
    let stats = parking_lot::lockcheck::stats();
    let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    registry
        .gauge(&format!("{PREFIX}.sites"))
        .set(clamp(stats.sites));
    registry
        .gauge(&format!("{PREFIX}.edges"))
        .set(clamp(stats.edges));
    registry
        .gauge(&format!("{PREFIX}.cycles"))
        .set(clamp(stats.cycles));
    registry
        .gauge(&format!("{PREFIX}.acquisitions"))
        .set(clamp(stats.acquisitions));
    registry
        .gauge(&format!("{PREFIX}.same_site_nesting"))
        .set(clamp(stats.same_site_nesting));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_matches_detector_state() {
        let reg = MetricsRegistry::new();
        publish(&reg);
        let snap = reg.snapshot();
        if parking_lot::lockcheck::enabled() {
            // Locks have been taken in this process (the registry
            // itself uses the shim), so the stats are live.
            assert!(snap.get(&format!("{PREFIX}.acquisitions")).is_some());
            assert!(snap.get(&format!("{PREFIX}.cycles")).is_some());
        } else {
            // Disabled detector must not pollute snapshots.
            assert!(snap.get(&format!("{PREFIX}.acquisitions")).is_none());
            assert!(snap.metrics.is_empty());
        }
    }
}
