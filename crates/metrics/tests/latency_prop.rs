//! Property suite for the mergeable latency histogram: shard-local
//! histograms folded in any grouping and order must equal the histogram
//! a single sequential stream would build — the invariant that lets a
//! multi-shard run keep tail-latency accounting byte-identical to a
//! one-shard run.

use egm_metrics::LatencyHistogram;
use proptest::prelude::*;

fn build(values: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in values {
        h.record_us(v);
    }
    h
}

proptest! {
    #[test]
    fn merge_is_associative_and_equals_the_single_stream(
        a in prop::collection::vec(0u64..100_000_000, 0..200),
        b in prop::collection::vec(0u64..100_000_000, 0..200),
        c in prop::collection::vec(0u64..100_000_000, 0..200),
    ) {
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));

        // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c).
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // Commuted fold order agrees too.
        let mut flipped = hc.clone();
        flipped.merge(&ha);
        flipped.merge(&hb);
        prop_assert_eq!(&left, &flipped);

        // Any merged grouping equals one sequential stream.
        let whole: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &build(&whole));

        prop_assert_eq!(left.total(), (a.len() + b.len() + c.len()) as u64);
        if !left.is_empty() {
            prop_assert!(left.p50_ms() <= left.p99_ms());
            prop_assert!(left.p99_ms() <= left.p999_ms());
            prop_assert!(left.min_ms() <= left.max_ms());
        }
    }

    #[test]
    fn quantiles_stay_within_the_relative_error_bound(
        values in prop::collection::vec(1u64..100_000_000, 1..300),
        q in 0.0f64..1.0,
    ) {
        let h = build(&values);
        let mut values = values;
        values.sort_unstable();
        let target = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[target - 1];
        let approx = h.quantile_us(q);
        // Log bucketing with 32 sub-buckets: ≤ 1/32 relative error, and
        // clamped into the observed range.
        prop_assert!(approx >= exact, "quantile must not under-report: {approx} < {exact}");
        let bound = exact + exact / 32 + 1;
        prop_assert!(approx <= bound, "quantile {approx} above error bound {bound} (exact {exact})");
        prop_assert!(approx >= values[0] && approx <= *values.last().unwrap());
    }
}
