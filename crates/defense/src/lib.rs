//! Defense policies for the Kademlia overlay: the counterpart of the
//! attack-campaign engine.
//!
//! The paper measures how fast an adversary destroys connection
//! resilience `κ(t)`; this crate supplies the other side of that ledger —
//! concrete implementations of the protocol-level
//! [`DefensePolicy`] seam (defined in [`kademlia::defense`], installed
//! via [`kademlia::network::SimNetwork::set_defense_policy`]):
//!
//! * [`NoDefense`] — the baseline: every hook is a no-op, so any gap
//!   between it and a real policy is attributable to the policy.
//! * [`EvictUnresponsive`] — liveness-checked bucket maintenance: each
//!   node periodically PINGs its least-recently-seen contacts, so
//!   silently-departed neighbors are evicted at the probe cadence
//!   instead of lingering until the next natural traffic timeout.
//! * [`DiversifyBuckets`] — an S/Kademlia-style prefix-diversity cap
//!   (Salah/Roos/Strufe motivate diversity-aware table maintenance):
//!   when a bucket is full, a candidate from an underrepresented prefix
//!   group may replace the least-recently-seen member of the most
//!   overrepresented group, and candidates whose own group already
//!   saturates its quota are rejected. Eclipse clusters share long
//!   prefixes, so the cap bounds how much of any bucket they can occupy.
//! * [`SelfHeal`] — Ferretti-style local repair (*Resilience of Dynamic
//!   Overlays through Local Interactions*): every eviction launches a
//!   lookup toward the lost contact's id, pulling replacement contacts
//!   from surviving neighbors' closest sets.
//!
//! [`PolicyKind`] names the four for experiment grids and CSV cells.
//!
//! A second, orthogonal countermeasure — disjoint-path retrievals against
//! value-withholding compromised nodes — lives in the protocol crate
//! ([`kademlia::network::SimNetwork::start_find_value_disjoint`]); the
//! defense experiments drive both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kademlia::defense::{DefensePolicy, InsertDecision};

use dessim::time::{SimDuration, SimTime};
use kademlia::bucket::KBucket;
use kademlia::contact::Contact;
use kademlia::id::NodeId;
use kademlia::routing::RoutingTable;
use std::fmt;

/// The four policies the defense experiments cross with the attack
/// strategies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// No defense at all (baseline).
    #[default]
    None,
    /// Liveness-checked bucket eviction ([`EvictUnresponsive`]).
    EvictUnresponsive,
    /// Prefix-diversity caps per bucket ([`DiversifyBuckets`]).
    DiversifyBuckets,
    /// Local repair on neighbor loss ([`SelfHeal`]).
    SelfHeal,
}

impl PolicyKind {
    /// All policies, in presentation order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::None,
        PolicyKind::EvictUnresponsive,
        PolicyKind::DiversifyBuckets,
        PolicyKind::SelfHeal,
    ];

    /// Short label for series names and CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::None => "none",
            PolicyKind::EvictUnresponsive => "evict-unresponsive",
            PolicyKind::DiversifyBuckets => "diversify",
            PolicyKind::SelfHeal => "self-heal",
        }
    }

    /// Builds the policy with its default parameters, ready for
    /// [`kademlia::network::SimNetwork::set_defense_policy`].
    pub fn build(&self) -> Box<dyn DefensePolicy> {
        match self {
            PolicyKind::None => Box::new(NoDefense),
            PolicyKind::EvictUnresponsive => Box::new(EvictUnresponsive::default()),
            PolicyKind::DiversifyBuckets => Box::new(DiversifyBuckets::default()),
            PolicyKind::SelfHeal => Box::new(SelfHeal),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The baseline policy: admits everything, probes nothing, repairs
/// nothing. Installing it (rather than no policy) exercises the hook
/// dispatch itself; grid cells labelled `none` install no policy at all,
/// and kadbench's `kad_defense.policy_overhead_pct` (`defend-grid`)
/// prices the real policies against them.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoDefense;

impl DefensePolicy for NoDefense {
    fn label(&self) -> &'static str {
        "none"
    }
}

/// Liveness-checked bucket eviction.
///
/// Every [`EvictUnresponsive::probe_interval`] each node PINGs up to
/// [`EvictUnresponsive::probes_per_tick`] contacts it has not heard from
/// for at least [`EvictUnresponsive::max_age`], oldest first. A departed
/// contact fails the PING, feeds the staleness limit `s`, and is evicted
/// `s` probes later — bounded staleness instead of "whenever traffic
/// happens to touch it".
#[derive(Clone, Copy, Debug)]
pub struct EvictUnresponsive {
    /// Cadence of the per-node probe tick.
    pub probe_interval: SimDuration,
    /// Minimum silence before a contact is considered probe-worthy.
    pub max_age: SimDuration,
    /// Upper bound on probes per node per tick (bounds the overhead).
    pub probes_per_tick: usize,
}

impl Default for EvictUnresponsive {
    fn default() -> Self {
        EvictUnresponsive {
            probe_interval: SimDuration::from_minutes(2),
            max_age: SimDuration::from_minutes(4),
            probes_per_tick: 8,
        }
    }
}

impl DefensePolicy for EvictUnresponsive {
    fn label(&self) -> &'static str {
        "evict-unresponsive"
    }

    fn probe_interval(&self) -> Option<SimDuration> {
        Some(self.probe_interval)
    }

    fn probe_targets(&mut self, table: &RoutingTable, now: SimTime) -> Vec<Contact> {
        let mut stale: Vec<(SimTime, Contact)> = Vec::new();
        for entry in table.entries() {
            if now.since(entry.last_seen) >= self.max_age {
                stale.push((entry.last_seen, entry.contact));
            }
        }
        stale.sort_by_key(|&(seen, c)| (seen, c.addr.0));
        stale.truncate(self.probes_per_tick);
        stale.into_iter().map(|(_, c)| c).collect()
    }
}

/// S/Kademlia-style prefix-diversity caps per bucket.
///
/// Contacts in bucket `i` all share the owner-relative distance prefix
/// down to bit `i`; the [`DiversifyBuckets::group_bits`] bits *below*
/// that leading bit partition the bucket into `2^group_bits` prefix
/// groups (the id-space analog of subnet diversity — an eclipse cluster
/// planted near one key lands in one group). The policy only acts on
/// **full** buckets, so it can never leave a bucket under-populated:
///
/// * a candidate whose group already holds ≥ `cap` members is rejected
///   (`cap` defaults to `k / 2^group_bits`, i.e. a fair share);
/// * otherwise, if some other group exceeds the candidate's group size,
///   the least-recently-seen member of the largest group is replaced —
///   diversity pressure where plain Kademlia would drop the newcomer.
#[derive(Clone, Copy, Debug)]
pub struct DiversifyBuckets {
    /// Refinement bits below the bucket's leading distance bit.
    pub group_bits: u16,
    /// Per-group quota; `None` derives `k / 2^group_bits` (min 1) from
    /// the bucket's size at decision time.
    pub cap: Option<usize>,
}

impl Default for DiversifyBuckets {
    fn default() -> Self {
        DiversifyBuckets {
            group_bits: 2,
            cap: None,
        }
    }
}

impl DiversifyBuckets {
    /// The prefix group of `id` within bucket `bucket_index` of the
    /// table owned by `own_id`: the `group_bits` distance bits just
    /// below the bucket's leading bit. `group_bits` is clamped to 8
    /// everywhere (256 groups is already far beyond any useful cap), so
    /// the group index always fits the count arrays.
    pub fn group_of(&self, own_id: &NodeId, id: &NodeId, bucket_index: usize) -> u64 {
        let d = own_id.distance(id);
        let mut group = 0u64;
        for j in 1..=self.group_bits.min(8) as usize {
            let bit = bucket_index
                .checked_sub(j)
                .map(|pos| d.bit(pos))
                .unwrap_or(false);
            group = (group << 1) | bit as u64;
        }
        group
    }

    fn effective_cap(&self, bucket_len: usize) -> usize {
        self.cap
            .unwrap_or_else(|| bucket_len >> self.group_bits.min(8))
            .max(1)
    }
}

impl DefensePolicy for DiversifyBuckets {
    fn label(&self) -> &'static str {
        "diversify"
    }

    fn decide_insert(
        &mut self,
        own_id: &NodeId,
        bucket: &KBucket,
        bucket_index: usize,
        candidate: &Contact,
    ) -> InsertDecision {
        if !bucket.is_full() {
            // Under-populated buckets take everything: the cap must never
            // cost connectivity while fewer than k live contacts exist.
            return InsertDecision::Admit;
        }
        let groups = 1usize << self.group_bits.min(8);
        let mut counts = vec![0usize; groups];
        for entry in bucket.iter() {
            counts[self.group_of(own_id, &entry.contact.id, bucket_index) as usize] += 1;
        }
        let own_group = self.group_of(own_id, &candidate.id, bucket_index) as usize;
        let cap = self.effective_cap(bucket.len());
        if counts[own_group] >= cap {
            return InsertDecision::Reject;
        }
        // Admit by replacing the LRS member of the largest group, if that
        // group is strictly bigger than the candidate's would become.
        let (largest, largest_count) = counts
            .iter()
            .enumerate()
            .max_by_key(|&(group, &count)| (count, groups - group))
            .map(|(group, &count)| (group, count))
            .unwrap_or((own_group, 0));
        if largest_count > counts[own_group] + 1 || largest_count > cap {
            let victim = bucket
                .iter()
                .find(|e| self.group_of(own_id, &e.contact.id, bucket_index) as usize == largest)
                .map(|e| e.contact.id);
            if let Some(victim) = victim {
                return InsertDecision::Replace(victim);
            }
        }
        InsertDecision::Reject
    }
}

/// Ferretti-style local self-healing: every evicted neighbor triggers a
/// repair lookup toward the lost contact's id, so surviving neighbors'
/// closest sets refill the hole while the region is still fresh.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfHeal;

impl DefensePolicy for SelfHeal {
    fn label(&self) -> &'static str {
        "self-heal"
    }

    fn repair_target(&mut self, _own_id: &NodeId, lost: &Contact) -> Option<NodeId> {
        Some(lost.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dessim::time::SimTime;
    use kademlia::config::KademliaConfig;
    use kademlia::contact::NodeAddr;

    fn contact(v: u64) -> Contact {
        Contact::new(NodeId::from_u64(v, 16), NodeAddr(v as u32))
    }

    /// An empty 16-bit table owned by id 0 (so distance == id) with
    /// bucket capacity `k`; policies see its buckets through
    /// `table.bucket(i)`.
    fn table_with_k(k: usize) -> RoutingTable {
        let config = KademliaConfig::builder().bits(16).k(k).build().unwrap();
        RoutingTable::new(NodeId::from_u64(0, 16), &config)
    }

    #[test]
    fn kinds_round_trip_to_policies() {
        assert_eq!(PolicyKind::ALL.len(), 4);
        for kind in PolicyKind::ALL {
            let policy = kind.build();
            assert_eq!(policy.label(), kind.label());
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(PolicyKind::None.build().probe_interval(), None);
        assert!(PolicyKind::EvictUnresponsive
            .build()
            .probe_interval()
            .is_some());
    }

    #[test]
    fn evict_unresponsive_probes_oldest_stale_contacts_first() {
        let config = KademliaConfig::builder().bits(16).k(4).build().unwrap();
        let mut table = RoutingTable::new(NodeId::from_u64(0, 16), &config);
        // Seen at t = 0, 60 s, 10 min.
        table.offer(contact(2), SimTime::ZERO);
        table.offer(contact(3), SimTime::from_secs(60));
        table.offer(contact(5), SimTime::from_minutes(10));
        let mut policy = EvictUnresponsive {
            probe_interval: SimDuration::from_minutes(2),
            max_age: SimDuration::from_minutes(4),
            probes_per_tick: 2,
        };
        let targets = policy.probe_targets(&table, SimTime::from_minutes(11));
        // 2 and 3 are stale (≥ 4 min silent), 5 is fresh; oldest first,
        // capped at probes_per_tick.
        assert_eq!(targets, vec![contact(2), contact(3)]);
        let none = policy.probe_targets(&table, SimTime::from_minutes(2));
        assert!(none.is_empty(), "nothing stale yet");
    }

    #[test]
    fn diversify_admits_everything_below_capacity() {
        let mut policy = DiversifyBuckets::default();
        let own = NodeId::from_u64(0, 16);
        let mut table = table_with_k(4);
        for v in [0x10u64, 0x11, 0x12] {
            assert_eq!(
                policy.decide_insert(&own, &table.bucket(4), 4, &contact(v)),
                InsertDecision::Admit,
                "non-full buckets admit even same-group contacts"
            );
            table.offer(contact(v), SimTime::ZERO);
        }
    }

    #[test]
    fn diversify_rejects_saturated_groups_and_replaces_overrepresented() {
        let mut policy = DiversifyBuckets {
            group_bits: 2,
            cap: Some(1),
        };
        let own = NodeId::from_u64(0, 16);
        // Bucket 5 covers distances 32..64; groups are bits 4..3:
        // 32..40 → group 0, 40..48 → group 1, 48..56 → group 2, 56..64 → 3.
        let mut table = table_with_k(3);
        for v in [32u64, 33, 40] {
            table.offer(contact(v), SimTime::ZERO);
        }
        let bucket = table.bucket(5);
        // Full bucket: group 0 holds {32, 33}, group 1 holds {40}.
        // A group-0 candidate is rejected (cap 1 saturated).
        assert_eq!(
            policy.decide_insert(&own, &bucket, 5, &contact(34)),
            InsertDecision::Reject
        );
        // A group-2 candidate replaces the LRS member of group 0.
        assert_eq!(
            policy.decide_insert(&own, &bucket, 5, &contact(48)),
            InsertDecision::Replace(NodeId::from_u64(32, 16))
        );
    }

    #[test]
    fn diversify_group_matches_distance_refinement_bits() {
        let policy = DiversifyBuckets::default();
        let own = NodeId::from_u64(0, 16);
        // Distance == id here; bucket 5, refinement bits 4 and 3.
        assert_eq!(policy.group_of(&own, &NodeId::from_u64(32, 16), 5), 0b00);
        assert_eq!(policy.group_of(&own, &NodeId::from_u64(40, 16), 5), 0b01);
        assert_eq!(policy.group_of(&own, &NodeId::from_u64(48, 16), 5), 0b10);
        assert_eq!(policy.group_of(&own, &NodeId::from_u64(56, 16), 5), 0b11);
        // Bucket 0 has no refinement bits below it: everything is group 0.
        assert_eq!(policy.group_of(&own, &NodeId::from_u64(1, 16), 0), 0);
    }

    #[test]
    fn diversify_oversized_group_bits_are_clamped_not_panicking() {
        // group_bits beyond 8 must clamp consistently in group_of and
        // the count arrays — a full-bucket decision used to index out of
        // bounds.
        let mut policy = DiversifyBuckets {
            group_bits: 9,
            cap: None,
        };
        let own = NodeId::from_u64(0, 16);
        let mut table = table_with_k(2);
        table.offer(contact(0x4000), SimTime::ZERO);
        table.offer(contact(0x4abc), SimTime::ZERO);
        let bucket = table.bucket(14);
        let decision = policy.decide_insert(&own, &bucket, 14, &contact(0x5fff));
        assert_ne!(decision, InsertDecision::Admit, "bucket is full");
        assert!(policy.group_of(&own, &NodeId::from_u64(0x5fff, 16), 14) < 256);
    }

    #[test]
    fn self_heal_repairs_toward_the_lost_id() {
        let mut policy = SelfHeal;
        let own = NodeId::from_u64(0, 16);
        let lost = contact(77);
        assert_eq!(policy.repair_target(&own, &lost), Some(lost.id));
    }
}
