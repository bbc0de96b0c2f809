//! Property-based tests for the simulation kernel.

use dessim::metrics::Summary;
use dessim::scheduler::EventQueue;
use dessim::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events always come out in non-decreasing time order, with ties
    /// broken by insertion order.
    #[test]
    fn queue_delivers_sorted(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_millis(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, idx)) = q.pop() {
            if let Some((prev_at, prev_idx)) = last {
                prop_assert!(at >= prev_at);
                if at == prev_at {
                    prop_assert!(idx > prev_idx, "FIFO among simultaneous events");
                }
            }
            prop_assert_eq!(at, SimTime::from_millis(times[idx]));
            last = Some((at, idx));
        }
        prop_assert_eq!(q.delivered(), times.len() as u64);
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_is_exact(
        times in proptest::collection::vec(0u64..1000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule_at(SimTime::from_millis(t), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask.get(i).copied().unwrap_or(false) {
                prop_assert!(q.cancel(*id));
            } else {
                expected.push(i);
            }
        }
        let mut delivered: Vec<usize> = Vec::new();
        while let Some((_, idx)) = q.pop() {
            delivered.push(idx);
        }
        delivered.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(delivered, expected);
    }

    /// The clock never runs backwards, regardless of interleaved
    /// scheduling and popping.
    #[test]
    fn clock_is_monotone(ops in proptest::collection::vec((0u64..1000, any::<bool>()), 1..200)) {
        let mut q = EventQueue::new();
        let mut last = SimTime::ZERO;
        for (delay, pop) in ops {
            if pop {
                if q.pop().is_some() {
                    prop_assert!(q.now() >= last);
                    last = q.now();
                }
            } else {
                q.schedule_after(SimDuration::from_millis(delay), ());
            }
        }
    }

    /// Summary matches a naive two-pass mean/variance computation.
    #[test]
    fn summary_matches_naive(data in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s = Summary::new();
        for &x in &data {
            s.record(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        prop_assert_eq!(s.count(), data.len() as u64);
        prop_assert_eq!(s.min(), data.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), data.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Time arithmetic: conversions and ordering are consistent.
    #[test]
    fn time_arithmetic(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let ta = SimTime::from_millis(a);
        let tb = SimTime::from_millis(b);
        prop_assert_eq!(ta < tb, a < b);
        let d = SimDuration::from_millis(b);
        prop_assert_eq!((ta + d).as_millis(), a + b);
        prop_assert_eq!(tb.since(ta).as_millis(), b.saturating_sub(a));
        prop_assert_eq!(SimTime::from_minutes(a / 60_000 + 1).as_minutes(), a / 60_000 + 1);
    }

    /// Labelled RNG streams are reproducible and label-sensitive.
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        use dessim::rng::RngFactory;
        use rand::Rng;
        let f = RngFactory::new(seed);
        let mut a = f.stream(&label);
        let mut b = f.stream(&label);
        for _ in 0..16 {
            prop_assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }
}
