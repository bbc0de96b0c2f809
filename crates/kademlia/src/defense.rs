//! The defense seam: pluggable routing-table hardening policies.
//!
//! The paper measures how fast an adversary destroys connectivity but
//! never asks what the overlay can do about it. This module is the
//! protocol-side seam for that missing chapter: a [`DefensePolicy`] is
//! installed on a [`crate::network::SimNetwork`]
//! ([`crate::network::SimNetwork::set_defense_policy`]) and reacts to the
//! same deterministic event stream the attack campaigns drive —
//!
//! * **insert time** — [`DefensePolicy::decide_insert`] vets every *new*
//!   routing-table insert (S/Kademlia-style prefix-diversity caps live
//!   here; it can also pick an overrepresented victim to replace);
//! * **probe ticks** — [`DefensePolicy::probe_interval`] /
//!   [`DefensePolicy::probe_targets`] drive periodic liveness PINGs so
//!   silently-departed contacts are evicted long before the next natural
//!   timeout would find them;
//! * **evictions** — [`DefensePolicy::repair_target`] turns a neighbor
//!   loss into a Ferretti-style local repair: a lookup toward the lost
//!   id's region pulls replacement contacts from surviving neighbors'
//!   closest sets.
//!
//! The trait lives in the protocol crate (like the [`kad_telemetry`]
//! sink seam) because its vocabulary is protocol state — buckets,
//! contacts, routing tables. The concrete policies — `NoDefense`,
//! `EvictUnresponsive`, `DiversifyBuckets`, `SelfHeal` — live above, in
//! the `kad_defense` crate, which re-exports this trait.
//!
//! Simulations that install no policy pay one `Option` discriminant check
//! per insert. What a policy cell costs over the `none` cell of the same
//! attack and churn is kadbench's `kad_defense.policy_overhead_pct`
//! metric on the `defend-grid` workload.

use crate::bucket::KBucket;
use crate::contact::Contact;
use crate::id::NodeId;
use crate::routing::RoutingTable;
use dessim::time::{SimDuration, SimTime};

/// Verdict of [`DefensePolicy::decide_insert`] on a candidate contact
/// that is *not yet* stored in the target bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertDecision {
    /// Store the candidate under the bucket's normal rules (it may still
    /// be dropped if the bucket is full).
    Admit,
    /// Drop the candidate (diversity cap reached).
    Reject,
    /// Evict the named stored contact first, then insert the candidate —
    /// how a diversity policy frees a slot held by an overrepresented
    /// group when the bucket is full.
    Replace(NodeId),
}

/// A routing-table hardening policy (see the module docs). One instance
/// is shared by every node of the network, so implementations keep
/// per-call state only — all decisions are functions of the arguments.
pub trait DefensePolicy {
    /// Short label for CSV cells and series names.
    fn label(&self) -> &'static str;

    /// Vets the insert of `candidate` (not currently stored) into bucket
    /// `bucket_index` of the table owned by `own_id`. The default admits
    /// everything.
    fn decide_insert(
        &mut self,
        own_id: &NodeId,
        bucket: &KBucket,
        bucket_index: usize,
        candidate: &Contact,
    ) -> InsertDecision {
        let _ = (own_id, bucket, bucket_index, candidate);
        InsertDecision::Admit
    }

    /// Cadence of per-node liveness-probe ticks; `None` (the default)
    /// disables the tick entirely.
    fn probe_interval(&self) -> Option<SimDuration> {
        None
    }

    /// The contacts `table`'s owner should liveness-probe this tick
    /// (each becomes one PING whose timeout feeds the staleness limit).
    /// Only called when [`DefensePolicy::probe_interval`] is `Some`.
    fn probe_targets(&mut self, table: &RoutingTable, now: SimTime) -> Vec<Contact> {
        let _ = (table, now);
        Vec::new()
    }

    /// Called when `lost` was evicted from the table owned by `own_id`;
    /// returning a target launches a repair lookup toward it (surviving
    /// neighbors' closest sets refill the hole). The default does not
    /// repair.
    fn repair_target(&mut self, own_id: &NodeId, lost: &Contact) -> Option<NodeId> {
        let _ = (own_id, lost);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KademliaConfig;
    use crate::contact::NodeAddr;

    /// The trait's defaults are a complete no-op policy.
    struct Passive;

    impl DefensePolicy for Passive {
        fn label(&self) -> &'static str {
            "passive"
        }
    }

    #[test]
    fn default_methods_do_nothing() {
        let mut p = Passive;
        let config = KademliaConfig::builder().bits(16).k(2).build().unwrap();
        let own = NodeId::from_u64(0, 16);
        let table = RoutingTable::new(own, &config);
        let c = Contact::new(NodeId::from_u64(5, 16), NodeAddr(1));
        assert_eq!(
            p.decide_insert(&own, &table.bucket(2), 2, &c),
            InsertDecision::Admit
        );
        assert_eq!(p.probe_interval(), None);
        assert!(p.probe_targets(&table, SimTime::ZERO).is_empty());
        assert_eq!(p.repair_target(&own, &c), None);
        assert_eq!(p.label(), "passive");
    }
}
