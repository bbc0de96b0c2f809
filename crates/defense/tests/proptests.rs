//! Property tests for the defense policies.
//!
//! The load-bearing invariant of [`DiversifyBuckets`]: the diversity cap
//! only acts on **full** buckets. A policy that rejected contacts while a
//! bucket held fewer than `k` live entries would trade connectivity for
//! diversity — exactly the wrong deal while the table is starved — so
//! every `Reject` (and every `Replace`) must be observed at capacity, and
//! a `Replace` must name a contact that is actually stored.

use dessim::time::SimTime;
use kad_defense::{DefensePolicy, DiversifyBuckets, InsertDecision};
use kademlia::config::KademliaConfig;
use kademlia::contact::{Contact, NodeAddr};
use kademlia::id::NodeId;
use kademlia::routing::RoutingTable;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random offer sequences through a bucket guarded by the policy:
    /// rejects and replacements happen only at ≥ k stored contacts, so
    /// the bucket fills to capacity whenever enough distinct contacts
    /// are offered — the "never rejects below k live contacts" contract.
    #[test]
    fn diversify_never_rejects_below_k_live_contacts(
        k in 1usize..9,
        group_bits in 0u16..4,
        bucket_index in 0usize..16,
        offers in proptest::collection::vec(0u16..u16::MAX, 1..120),
    ) {
        let mut policy = DiversifyBuckets { group_bits, cap: None };
        let own = NodeId::from_u64(0, 16);
        let config = KademliaConfig::builder().bits(16).k(k).build().expect("valid");
        let mut table = RoutingTable::new(own, &config);
        let lo = 1u64 << bucket_index;
        let mut distinct = std::collections::HashSet::new();
        for (i, raw) in offers.iter().enumerate() {
            // Constrain candidates into the bucket's distance range
            // [2^i, 2^(i+1)) relative to own_id = 0.
            let id_value = lo + (*raw as u64) % lo.max(1);
            let candidate = Contact::new(
                NodeId::from_u64(id_value, 16),
                NodeAddr(i as u32),
            );
            if table.contains(&candidate.id) {
                continue;
            }
            distinct.insert(id_value);
            let len_before = table.bucket(bucket_index).len();
            match policy.decide_insert(&own, &table.bucket(bucket_index), bucket_index, &candidate) {
                InsertDecision::Admit => {
                    table.offer(candidate, SimTime::ZERO);
                }
                InsertDecision::Reject => {
                    prop_assert!(
                        len_before >= k,
                        "rejected with only {len_before}/{k} live contacts"
                    );
                }
                InsertDecision::Replace(old) => {
                    prop_assert!(
                        len_before >= k,
                        "replaced with only {len_before}/{k} live contacts"
                    );
                    prop_assert!(table.remove(&old), "replace names a stored contact");
                    table.offer(candidate, SimTime::ZERO);
                    prop_assert_eq!(
                        table.bucket(bucket_index).len(),
                        len_before,
                        "replace keeps the bucket full"
                    );
                }
            }
            prop_assert!(table.bucket(bucket_index).len() <= k);
        }
        // Supply permitting, the policy filled the bucket to capacity.
        prop_assert_eq!(table.bucket(bucket_index).len(), k.min(distinct.len()));
        prop_assert_eq!(table.contact_count(), k.min(distinct.len()), "one bucket only");
    }

    /// The prefix group is well-defined: stable per id and bounded by
    /// `2^group_bits`.
    #[test]
    fn diversify_groups_are_stable_and_bounded(
        group_bits in 0u16..6,
        bucket_index in 0usize..16,
        id in 1u64..u16::MAX as u64,
    ) {
        let policy = DiversifyBuckets { group_bits, cap: None };
        let own = NodeId::from_u64(0, 16);
        let node = NodeId::from_u64(id, 16);
        let g1 = policy.group_of(&own, &node, bucket_index);
        let g2 = policy.group_of(&own, &node, bucket_index);
        prop_assert_eq!(g1, g2);
        prop_assert!(g1 < (1u64 << group_bits.min(8)));
    }
}
