//! Property tests for the telemetry instruments.
//!
//! The contracts the experiment harness leans on:
//!
//! * **histogram merge is lossless** — recording a stream into one
//!   histogram equals splitting it across two and merging them (this is
//!   what makes the load harness's phase-window rollups exact);
//! * **percentiles are monotone** in the quantile, and exact in the
//!   small-value region where hop and message counts live;
//! * the journal chain, the exemplar reservoir and minute-series ranges
//!   are deterministic functions of the recorded stream.

use kad_telemetry::journal::{Journal, JournalEvent};
use kad_telemetry::trace::{LookupOutcome, LookupRecord, TracePurpose, TARGET_BYTES};
use kad_telemetry::{ExemplarReservoir, LogHistogram, MinuteSeries, TraceTree};
use proptest::prelude::*;

/// Decodes a generated `(selector, a, b)` triple into a journal event —
/// the event stream generator shared by the journal properties.
fn decode_event((selector, a, b): (u8, u64, u32)) -> JournalEvent {
    match selector % 4 {
        0 => JournalEvent::Join { minute: a, node: b },
        1 => JournalEvent::Churn { minute: a, node: b },
        2 => JournalEvent::Compromise { minute: a, node: b },
        _ => JournalEvent::Action {
            minute: a,
            at_ms: a * 60_000 + u64::from(b % 60_000),
            kind: "lookup",
        },
    }
}

/// Decodes a generated `(lookup_id, started, latency)` triple into a
/// minimal trace tree — distinct ids so tree identities are unique, as
/// the simulator guarantees within a run.
fn decode_tree((lookup_id, started_ms, latency): (u64, u64, u64)) -> TraceTree {
    TraceTree {
        record: LookupRecord {
            lookup_id,
            target: [0x33; TARGET_BYTES],
            purpose: TracePurpose::Retrieve,
            outcome: LookupOutcome::ValueFound,
            hops: 1,
            messages: 1,
            responded: 1,
            started_ms,
            completed_ms: started_ms + latency,
        },
        queue_wait_ms: 0,
        spans: Vec::new(),
        final_rpc: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Histogram merge() equals single-stream recording, for arbitrary
    /// samples and an arbitrary split point.
    #[test]
    fn histogram_merge_equals_single_stream(
        samples in proptest::collection::vec(any::<u64>(), 0..256),
        split in any::<u64>(),
    ) {
        let cut = (split % (samples.len() as u64 + 1)) as usize;
        let mut all = LogHistogram::new();
        for &v in &samples {
            all.record(v);
        }
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        for &v in &samples[..cut] {
            left.record(v);
        }
        for &v in &samples[cut..] {
            right.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(&left, &all);
        // Merging in the opposite order is identical too (commutative).
        let mut left2 = LogHistogram::new();
        for &v in &samples[cut..] {
            left2.record(v);
        }
        let mut right2 = LogHistogram::new();
        for &v in &samples[..cut] {
            right2.record(v);
        }
        left2.merge(&right2);
        prop_assert_eq!(&left2, &all);
    }

    /// Percentiles never decrease as the quantile grows, and stay inside
    /// the recorded range (up to bucket resolution below the max).
    #[test]
    fn histogram_percentiles_monotone(
        samples in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        let mut h = LogHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        let mut prev = 0u64;
        for step in 0..=50 {
            let q = step as f64 / 50.0;
            let p = h.percentile(q);
            prop_assert!(p >= prev, "percentile decreased at q={}: {} < {}", q, p, prev);
            prop_assert!(p <= h.max(), "percentile {} above max {}", p, h.max());
            prev = p;
        }
    }

    /// In the exact region (values < 64) the percentile is the true
    /// order statistic.
    #[test]
    fn small_value_percentiles_are_exact(
        samples in proptest::collection::vec(0u64..64, 1..150),
        q_scaled in 0u64..=100,
    ) {
        let mut h = LogHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        let q = q_scaled as f64 / 100.0;
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        prop_assert_eq!(h.percentile(q), sorted[rank - 1]);
    }

    /// Histogram count/sum bookkeeping survives arbitrary splits.
    #[test]
    fn histogram_mean_is_exact(
        samples in proptest::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let mut h = LogHistogram::new();
        let mut sum = 0u64;
        for &v in &samples {
            h.record(v);
            sum += v;
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let expected = sum as f64 / samples.len() as f64;
        prop_assert!((h.mean() - expected).abs() < 1e-9);
    }

    /// The journal's hash chain is capacity-independent: a ring that
    /// truncates aggressively fingerprints the same event stream
    /// identically to an unbounded one, with every truncation accounted.
    #[test]
    fn journal_chain_is_capacity_independent(
        events in proptest::collection::vec((0u8..=255, 0u64..100, 0u32..64), 0..150),
        capacity in 1usize..8,
    ) {
        let mut big = Journal::new();
        let mut small = Journal::with_capacity(capacity);
        for raw in &events {
            let event = decode_event(*raw);
            big.record(event.clone());
            small.record(event);
        }
        prop_assert_eq!(small.chain(), big.chain());
        prop_assert_eq!(small.recorded_events(), events.len() as u64);
        prop_assert_eq!(
            small.dropped_events(),
            events.len().saturating_sub(capacity) as u64,
            "every truncated event is accounted"
        );
        prop_assert_eq!(small.counts(), big.counts());
    }

    /// Prefix property: two runs recording the same event prefix carry
    /// identical seals up to the divergence point and different chains
    /// from the first divergent event on — what `repro audit` relies on
    /// to name the first divergent minute.
    #[test]
    fn journal_seals_localize_the_first_divergence(
        prefix in proptest::collection::vec((0u8..=255, 0u64..100, 0u32..64), 0..60),
        divergence in (0u8..=255, 0u64..100, 0u32..64),
    ) {
        let mut a = Journal::new();
        let mut b = Journal::new();
        for (minute, raw) in prefix.iter().enumerate() {
            let event = decode_event(*raw);
            a.record(event.clone());
            b.record(event);
            a.seal_minute(minute as u64);
            b.seal_minute(minute as u64);
        }
        prop_assert_eq!(a.seals(), b.seals());
        let mutated = {
            // Guarantee the tail differs: bump the node field.
            let (s, m, n) = divergence;
            decode_event((s, m, n ^ 1))
        };
        a.record(decode_event(divergence));
        b.record(mutated);
        a.seal_minute(prefix.len() as u64);
        b.seal_minute(prefix.len() as u64);
        let (last_a, last_b) = (
            a.seals()[prefix.len()],
            b.seals()[prefix.len()],
        );
        prop_assert_eq!(last_a.minute, last_b.minute);
        prop_assert_eq!(last_a.events, last_b.events);
        prop_assert!(last_a.chain != last_b.chain, "divergent event, divergent seal");
    }

    /// The exemplar reservoir is a deterministic top-K: whatever order
    /// the trees arrive in, the kept exemplars are exactly the
    /// worst-latency `capacity` trees under the total rank order
    /// (latency desc, lookup id asc, start asc) — so same-seed runs pick
    /// byte-identical exemplars no matter how event interleaving shuffles
    /// completion order.
    #[test]
    fn exemplar_reservoir_is_an_order_independent_top_k(
        raw in proptest::collection::vec((0u64..1_000_000, 0u64..10_000), 0..80),
        capacity in 0usize..12,
        rotate in any::<u64>(),
    ) {
        // Index-derived lookup ids: unique identities, as in a real run.
        let trees: Vec<TraceTree> = raw
            .iter()
            .enumerate()
            .map(|(i, &(started, latency))| decode_tree((i as u64, started, latency)))
            .collect();
        let mut expected = trees.clone();
        expected.sort_by_key(|t| {
            (
                std::cmp::Reverse(t.end_to_end_ms()),
                t.record.lookup_id,
                t.record.started_ms,
            )
        });
        expected.truncate(capacity);
        let mut forward = ExemplarReservoir::new(capacity);
        for t in &trees {
            forward.offer(t);
        }
        prop_assert_eq!(forward.exemplars(), &expected[..]);
        // Any rotation of the offer order picks the same exemplars.
        let cut = if trees.is_empty() {
            0
        } else {
            (rotate % trees.len() as u64) as usize
        };
        let mut rotated = ExemplarReservoir::new(capacity);
        for t in trees[cut..].iter().chain(&trees[..cut]) {
            rotated.offer(t);
        }
        prop_assert_eq!(&rotated, &forward);
        let mut reversed = ExemplarReservoir::new(capacity);
        for t in trees.iter().rev() {
            reversed.offer(t);
        }
        prop_assert_eq!(&reversed, &forward);
    }

    /// Range aggregation equals the sum of the per-window aggregates.
    #[test]
    fn minute_series_range_consistency(
        samples in proptest::collection::vec((0u64..30, 0u64..1000), 1..120),
        bounds in (0u64..30, 0u64..=30),
    ) {
        let (from, to) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        let mut s = MinuteSeries::new();
        for &(m, v) in &samples {
            s.record(m, v as f64);
        }
        let agg = s.range_stats(from, to);
        let expected: u64 = samples
            .iter()
            .filter(|&&(m, _)| m >= from && m < to)
            .count() as u64;
        prop_assert_eq!(agg.count, expected);
        let expected_sum: u64 = samples
            .iter()
            .filter(|&&(m, _)| m >= from && m < to)
            .map(|&(_, v)| v)
            .sum();
        prop_assert!((agg.sum - expected_sum as f64).abs() < 1e-9);
    }
}
