//! Property tests for the log-bucketed histogram (merge commutes,
//! percentiles are monotone in the quantile, every recorded value lands
//! inside its reported bucket bounds) and for the Prometheus text
//! exposition (arbitrary registry contents round-trip through the
//! strict line parser with cumulative, consistent histogram series).

use proptest::prelude::*;
use sciml_obs::histogram::{bucket_bounds, bucket_index, Histogram, NUM_BUCKETS};
use sciml_obs::{parse_prometheus, prometheus_text, MetricsRegistry};

fn build(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #[test]
    fn recorded_value_within_bucket_bounds(v in any::<u64>()) {
        let idx = bucket_index(v);
        prop_assert!(idx < NUM_BUCKETS);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= v, "value {v} below bucket lo {lo}");
        prop_assert!(v < hi || hi == u64::MAX, "value {v} not below bucket hi {hi}");
    }

    #[test]
    fn merge_commutes(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..64),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..64),
    ) {
        let ab = build(&a);
        ab.merge(&build(&b));
        let ba = build(&b);
        ba.merge(&build(&a));
        let (sab, sba) = (ab.snapshot(), ba.snapshot());
        prop_assert_eq!(sab.counts.clone(), sba.counts.clone());
        prop_assert_eq!(sab.count, sba.count);
        prop_assert_eq!(sab.sum, sba.sum);
        if sab.count > 0 {
            prop_assert_eq!(sab.min, sba.min);
            prop_assert_eq!(sab.max, sba.max);
        }
    }

    #[test]
    fn merge_equals_recording_concatenation(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..64),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..64),
    ) {
        let merged = build(&a);
        merged.merge(&build(&b));
        let mut both = a.clone();
        both.extend_from_slice(&b);
        let direct = build(&both);
        prop_assert_eq!(merged.snapshot().counts, direct.snapshot().counts);
        prop_assert_eq!(merged.count(), direct.count());
        prop_assert_eq!(merged.sum(), direct.sum());
    }

    #[test]
    fn percentile_monotone_in_quantile(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..128),
        qa in 0.0f64..=1.0,
        qb in 0.0f64..=1.0,
    ) {
        let snap = build(&values).snapshot();
        let (lo_q, hi_q) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(snap.percentile(lo_q) <= snap.percentile(hi_q),
            "percentile({lo_q}) > percentile({hi_q})");
    }

    #[test]
    fn percentiles_bounded_by_min_max(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..128),
        q in 0.0f64..=1.0,
    ) {
        let snap = build(&values).snapshot();
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let p = snap.percentile(q);
        prop_assert!(p >= min, "percentile {p} below true min {min}");
        prop_assert!(p <= max, "percentile {p} above true max {max}");
    }

    /// Any registry contents — counters, gauges (negative included),
    /// and a histogram of arbitrary values — survive the trip through
    /// [`prometheus_text`] and back through the strict line parser:
    /// every family keeps its declared kind, counter/gauge values are
    /// exact, `_bucket` series are cumulative and monotone ending at
    /// `+Inf == _count`, and `_count`/`_sum` match the histogram.
    #[test]
    fn prometheus_exposition_roundtrips_through_parser(
        counter in 0u64..1_000_000_000,
        gauge in -1_000_000i64..1_000_000,
        values in proptest::collection::vec(0u64..1_000_000_000_000, 0..64),
    ) {
        let reg = MetricsRegistry::new();
        reg.counter("test.events.total").add(counter);
        reg.gauge("test.queue.depth").set(gauge);
        let h = reg.histogram("test.latency_ns");
        for &v in &values {
            h.record(v);
        }
        let text = prometheus_text(&reg.snapshot());
        let parsed = parse_prometheus(&text).expect("exposition parses");

        prop_assert_eq!(parsed.kind("test_events_total"), Some("counter"));
        prop_assert_eq!(
            parsed.samples_named("test_events_total")[0].value.parse::<u64>().ok(),
            Some(counter)
        );
        prop_assert_eq!(parsed.kind("test_queue_depth"), Some("gauge"));
        prop_assert_eq!(
            parsed.samples_named("test_queue_depth")[0].value.parse::<i64>().ok(),
            Some(gauge)
        );

        prop_assert_eq!(parsed.kind("test_latency_ns"), Some("histogram"));
        let buckets = parsed.samples_named("test_latency_ns_bucket");
        prop_assert!(!buckets.is_empty(), "histogram always exposes +Inf");
        let mut prev = 0u64;
        for b in &buckets {
            let c: u64 = b.value.parse().expect("bucket count is an integer");
            prop_assert!(c >= prev, "bucket counts must be cumulative monotone");
            prev = c;
        }
        let last = &buckets[buckets.len() - 1];
        prop_assert_eq!(last.le.as_deref(), Some("+Inf"));
        let count: u64 = parsed.samples_named("test_latency_ns_count")[0]
            .value.parse().expect("count");
        prop_assert_eq!(prev, count, "+Inf bucket equals _count");
        prop_assert_eq!(count, values.len() as u64);
        let sum: u64 = parsed.samples_named("test_latency_ns_sum")[0]
            .value.parse().expect("sum");
        prop_assert_eq!(sum, values.iter().sum::<u64>());
    }
}
