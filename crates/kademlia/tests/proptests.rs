//! Property-based tests for the Kademlia protocol structures.

use dessim::time::SimTime;
use kademlia::config::KademliaConfig;
use kademlia::contact::{Contact, NodeAddr};
use kademlia::id::NodeId;
use kademlia::lookup::{LookupPurpose, LookupState};
use kademlia::routing::RoutingTable;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn contact(v: u64, bits: u16) -> Contact {
    Contact::new(NodeId::from_u64(v, bits), NodeAddr(v as u32))
}

/// Bucket 5 of a 32-bit table owned by id 0 covers ids `32..64`: the
/// single-bucket tests below keep every id inside it.
const BUCKET: usize = 5;
const BUCKET_BASE: u64 = 1 << BUCKET;

fn one_bucket_table(k: usize, s: u32) -> RoutingTable {
    let config = KademliaConfig::builder()
        .bits(32)
        .k(k)
        .staleness_limit(s)
        .build()
        .expect("valid");
    RoutingTable::new(NodeId::from_u64(0, 32), &config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// XOR distance: identity, symmetry, triangle inequality, and the
    /// "unidirectionality" property (for fixed x and distance d there is
    /// exactly one y with d(x,y)=d — xor inversion).
    #[test]
    fn xor_metric_properties(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (x, y, z) = (
            NodeId::from_u64(a, 64),
            NodeId::from_u64(b, 64),
            NodeId::from_u64(c, 64),
        );
        prop_assert_eq!(x.distance(&y), y.distance(&x));
        prop_assert_eq!(x.distance(&x).is_zero(), true);
        prop_assert_eq!(x.distance(&y).is_zero(), a == b);
        let dxz = x.distance(&z).to_u64() as u128;
        let dxy = x.distance(&y).to_u64() as u128;
        let dyz = y.distance(&z).to_u64() as u128;
        prop_assert!(dxz <= dxy + dyz);
        // xor inversion: y = x ^ d reproduces d.
        prop_assert_eq!(x.distance(&NodeId::from_u64(a ^ b, 64)).to_u64(), b);
    }

    /// Bucket index equals floor(log2(distance)) and respects the bucket
    /// range invariant 2^i <= dist < 2^(i+1).
    #[test]
    fn bucket_index_range(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let x = NodeId::from_u64(a, 64);
        let y = NodeId::from_u64(b, 64);
        let i = x.bucket_index_of(&y).expect("distinct ids");
        let d = x.distance(&y).to_u64() as u128;
        prop_assert!(1u128 << i <= d);
        prop_assert!(d < 1u128 << (i + 1));
    }

    /// `random_in_bucket` always lands in the requested bucket and stays
    /// inside the id space.
    #[test]
    fn refresh_targets_in_bucket(seed in any::<u64>(), own in any::<u64>(), index in 0usize..64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let id = NodeId::from_u64(own, 64);
        let target = id.random_in_bucket(&mut rng, index, 64);
        prop_assert!(target.fits(64));
        prop_assert_eq!(id.bucket_index_of(&target), Some(index));
    }

    /// A bucket never exceeds its capacity and never contains duplicates,
    /// under any interleaving of offers, successes and failures.
    #[test]
    fn bucket_invariants(
        k in 1usize..8,
        ops in proptest::collection::vec((0u64..20, 0u8..3), 0..200),
        s in 1u32..6,
    ) {
        let mut table = one_bucket_table(k, s);
        for (v, op) in ops {
            let id = NodeId::from_u64(BUCKET_BASE + v, 32);
            match op {
                0 => {
                    table.offer(contact(BUCKET_BASE + v, 32), SimTime::ZERO);
                }
                1 => {
                    table.record_success(&id, SimTime::ZERO);
                }
                _ => {
                    table.record_failure(&id);
                }
            }
            let bucket = table.bucket(BUCKET);
            prop_assert_eq!(bucket.len(), table.contact_count(), "ids left the bucket");
            prop_assert!(bucket.len() <= k);
            let mut seen = std::collections::HashSet::new();
            for c in bucket.contacts() {
                prop_assert!(seen.insert(c.id), "duplicate contact in bucket");
            }
        }
    }

    /// Exactly `s` consecutive failures evict; any interleaved success
    /// resets the countdown.
    #[test]
    fn staleness_semantics(s in 1u32..6, successes_before in 0u32..4) {
        let mut table = one_bucket_table(4, s);
        let id = NodeId::from_u64(BUCKET_BASE, 32);
        table.offer(contact(BUCKET_BASE, 32), SimTime::ZERO);
        // Partial failures followed by a success leave the contact in.
        for _ in 0..s - 1 {
            prop_assert!(!table.record_failure(&id));
        }
        for _ in 0..successes_before {
            table.record_success(&id, SimTime::ZERO);
        }
        if successes_before > 0 {
            // Counter reset: need the full s failures again.
            for _ in 0..s - 1 {
                prop_assert!(!table.record_failure(&id));
            }
        }
        prop_assert!(table.record_failure(&id));
        prop_assert!(table.bucket(BUCKET).is_empty());
    }

    /// `closest` returns contacts sorted by distance to the target and
    /// never inventing entries.
    #[test]
    fn routing_closest_is_sorted(
        ids in proptest::collection::hash_set(1u64..100_000, 1..60),
        target in any::<u64>(),
        count in 1usize..30,
    ) {
        let config = KademliaConfig::builder().bits(32).k(8).build().expect("valid");
        let own = NodeId::from_u64(0, 32);
        let mut table = RoutingTable::new(own, &config);
        for &v in &ids {
            table.offer(contact(v % (1 << 17), 32), SimTime::ZERO);
        }
        let t = NodeId::from_u64(target % (1 << 17), 32);
        let closest = table.closest(&t, count);
        prop_assert!(closest.len() <= count);
        for pair in closest.windows(2) {
            prop_assert!(pair[0].id.distance(&t) <= pair[1].id.distance(&t));
        }
        for c in &closest {
            prop_assert!(table.contains(&c.id));
        }
    }

    /// Lookup state machine: in-flight never exceeds α; responded never
    /// exceeds the candidates; termination is stable.
    #[test]
    fn lookup_invariants(
        seeds in proptest::collection::hash_set(1u64..5000, 0..40),
        events in proptest::collection::vec((0u64..5000, any::<bool>()), 0..120),
        alpha in 1usize..6,
        k in 1usize..25,
    ) {
        let config = KademliaConfig::builder()
            .bits(32)
            .k(k)
            .alpha(alpha)
            .build()
            .expect("valid");
        let own = NodeId::from_u64(6000, 32);
        let mut state = LookupState::new(
            0,
            NodeId::from_u64(0, 32),
            LookupPurpose::Locate,
            own,
            &seeds.iter().map(|&v| contact(v, 32)).collect::<Vec<_>>(),
            &config,
        );
        let mut queried = Vec::new();
        queried.extend(state.next_queries());
        prop_assert!(state.in_flight() <= alpha);
        for (v, success) in events {
            let id = NodeId::from_u64(v, 32);
            if success {
                state.on_response(&id, &[contact(v.wrapping_mul(7) % 4999 + 1, 32)]);
            } else {
                state.on_failure(&id);
            }
            queried.extend(state.next_queries());
            prop_assert!(state.in_flight() <= alpha, "in-flight exceeds alpha");
            if state.responded() >= k {
                prop_assert!(state.is_finished());
            }
        }
        // No contact is queried twice.
        let mut seen = std::collections::HashSet::new();
        for c in &queried {
            prop_assert!(seen.insert(c.id), "contact queried twice");
        }
    }

    /// Random ids respect the configured bit length for every b.
    #[test]
    fn random_ids_fit(seed in any::<u64>(), bits in 1u16..=160) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..10 {
            prop_assert!(NodeId::random(&mut rng, bits).fits(bits));
        }
    }
}
