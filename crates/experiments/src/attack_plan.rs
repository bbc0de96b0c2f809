//! The shared attack machinery every live grid composes over.
//!
//! One module owns the adversary's vocabulary so the grids cannot drift
//! apart:
//!
//! * [`AttackPlan`] — the victim-selection policies (random,
//!   highest-degree, min-cut-guided, eclipse), re-planned every attack
//!   minute against the current routing state.
//! * [`pick_victim`] + [`EclipseState`] — the selection logic itself,
//!   used by the session's attacker actor (the eclipse re-anchoring rule
//!   lives in exactly one place).
//! * [`AttackSpec`] — the attacker's budget/cadence/start knobs, embedded
//!   by every attacked [`LiveCell`](crate::runner::LiveCell).
//! * [`strategy_label`] / [`grid_base_scenario`] — the labeling and
//!   base-scenario construction every grid uses, so cell naming and
//!   seed derivation stay uniform across `repro
//!   {campaign,service,defend,sweep,load}`.

use crate::scenario::{ChurnRate, Scenario, ScenarioBuilder, TrafficModel};
use kad_resilience::attack::probe_smallest_cut;
use kad_resilience::snapshot_to_digraph;
use kademlia::id::NodeId;
use kademlia::network::SimNetwork;
use kademlia::snapshot::RoutingSnapshot;
use kademlia::NodeAddr;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// The adversary's victim-selection policy, re-planned every attack minute
/// against the current routing state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttackPlan {
    /// Uniformly random honest victims.
    Random,
    /// The honest node with the best-connected routing footprint (highest
    /// in+out degree in the current connectivity snapshot).
    HighestDegree,
    /// Work through minimum vertex cuts of vulnerable snapshot pairs.
    MinCut,
    /// Eclipse a key: compromise the honest nodes closest (XOR) to a fixed
    /// victim identifier, nearest first — wiping out the replica set the
    /// `k`-closest dissemination relies on.
    Eclipse,
}

impl AttackPlan {
    /// All plans, in presentation order.
    pub const ALL: [AttackPlan; 4] = [
        AttackPlan::Random,
        AttackPlan::HighestDegree,
        AttackPlan::MinCut,
        AttackPlan::Eclipse,
    ];

    /// Short label for series names and CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            AttackPlan::Random => "random",
            AttackPlan::HighestDegree => "highest-degree",
            AttackPlan::MinCut => "min-cut",
            AttackPlan::Eclipse => "eclipse",
        }
    }
}

impl fmt::Display for AttackPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The attacker knobs a live cell embeds: plan, budget, cadence and
/// start minute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttackSpec {
    /// Victim-selection policy, re-planned each attack minute.
    pub plan: AttackPlan,
    /// Total compromises the attacker may schedule.
    pub budget: usize,
    /// Compromises scheduled per attack minute.
    pub compromises_per_min: u32,
    /// Simulated minute the attack starts.
    pub start_minute: u64,
}

/// Label of an optional attack's strategy column (`baseline` when absent).
pub fn strategy_label(attack: &Option<AttackSpec>) -> &'static str {
    attack.as_ref().map_or("baseline", |a| a.plan.label())
}

/// The eclipse attacker's moving anchor.
///
/// The attack wipes out the neighborhood of a *victim*: initially the
/// honest node closest (XOR) to a random key. Victims are re-resolved
/// every step; if the current victim **churns out** of the network before
/// (or after) its compromise fires, the attacker re-anchors on the
/// nearest surviving honest node instead of forever grinding the stale
/// id's now-empty neighborhood. (A victim the attacker *compromised*
/// stays the anchor — its replica neighborhood is exactly what the
/// attack keeps dismantling.)
#[derive(Clone, Debug)]
pub struct EclipseState {
    /// The id whose k-closest neighborhood is being wiped.
    anchor: NodeId,
    /// The resolved victim node owning the anchor neighborhood.
    victim: Option<NodeAddr>,
}

impl EclipseState {
    /// Starts anchored at the attacker's chosen key.
    pub fn new(key: NodeId) -> Self {
        EclipseState {
            anchor: key,
            victim: None,
        }
    }

    /// The current anchor id (exposed for the regression tests).
    #[cfg(test)]
    pub(crate) fn anchor(&self) -> NodeId {
        self.anchor
    }
}

/// Picks the next victim under `plan` from the honest nodes of `snap`,
/// excluding nodes already targeted. Returns `None` when nobody is left.
/// Called by the session engine's attacker actor
/// ([`crate::session::AttackerActor`]).
pub fn pick_victim(
    plan: AttackPlan,
    net: &SimNetwork,
    snap: &RoutingSnapshot,
    targeted: &HashSet<NodeAddr>,
    cut_queue: &mut VecDeque<NodeAddr>,
    eclipse: &mut EclipseState,
    rng: &mut SmallRng,
) -> Option<NodeAddr> {
    let candidates: Vec<NodeAddr> = snap
        .addrs()
        .iter()
        .copied()
        .filter(|addr| !targeted.contains(addr))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    match plan {
        AttackPlan::Random => Some(candidates[rng.random_range(0..candidates.len())]),
        AttackPlan::HighestDegree => {
            let g = snapshot_to_digraph(snap);
            snap.addrs()
                .iter()
                .enumerate()
                .filter(|(_, addr)| !targeted.contains(addr))
                .max_by_key(|&(dense, addr)| {
                    (
                        g.out_degree(dense as u32) + g.in_degree(dense as u32),
                        std::cmp::Reverse(addr.index()),
                    )
                })
                .map(|(_, addr)| *addr)
        }
        AttackPlan::MinCut => {
            // Queued cut members from earlier minutes stay valid targets as
            // long as they are still honest (present in the snapshot).
            while let Some(queued) = cut_queue.pop_front() {
                if !targeted.contains(&queued) && snap.addrs().contains(&queued) {
                    return Some(queued);
                }
            }
            // Scout the dense snapshot indices (every honest node is a
            // candidate pair end).
            let g = snapshot_to_digraph(snap);
            let dense: Vec<u32> = (0..snap.node_count() as u32).collect();
            if let Some(cut) = probe_smallest_cut(&g, &dense, 16, rng) {
                cut_queue.extend(cut.into_iter().map(|dense| snap.addrs()[dense as usize]));
                while let Some(queued) = cut_queue.pop_front() {
                    if !targeted.contains(&queued) {
                        return Some(queued);
                    }
                }
            }
            // Disconnected or tiny: mop up randomly.
            Some(candidates[rng.random_range(0..candidates.len())])
        }
        AttackPlan::Eclipse => {
            // Re-resolve the victim each step. A victim that churned out
            // (departed, not compromised) leaves a neighborhood the
            // attack budget would be wasted on: re-anchor on the nearest
            // surviving honest node and wipe *its* neighborhood instead.
            let victim_churned = eclipse.victim.is_some_and(|addr| !net.node(addr).alive);
            if victim_churned {
                let stale = eclipse.anchor;
                let next = candidates
                    .iter()
                    .copied()
                    .min_by_key(|addr| net.node(*addr).id().distance(&stale))?;
                eclipse.anchor = net.node(next).id();
                eclipse.victim = Some(next);
            }
            let pick = candidates
                .into_iter()
                .min_by_key(|addr| net.node(*addr).id().distance(&eclipse.anchor));
            if eclipse.victim.is_none() {
                // First resolution: the closest honest node *is* the
                // victim whose neighborhood the key denotes.
                eclipse.victim = pick;
            }
            pick
        }
    }
}

/// Builds the base [`Scenario`] of one live-grid cell: the shared
/// `quick(size, 8)` shape with the cell's churn, phase lengths, snapshot
/// grid and traffic applied, and its seed derived from `base_seed` and the
/// cell name exactly like the figure harness. Every grid (`repro
/// campaign`/`service`/`defend`/`sweep`/`load`) constructs its cells
/// through this, so naming and seed derivation cannot diverge between
/// them.
#[allow(clippy::too_many_arguments)]
pub fn grid_base_scenario(
    name: &str,
    size: usize,
    churn: ChurnRate,
    stabilization_minutes: Option<u64>,
    churn_minutes: u64,
    snapshot_minutes: u64,
    traffic: TrafficModel,
    base_seed: u64,
) -> Scenario {
    let mut b = ScenarioBuilder::quick(size, 8);
    b.name(name)
        .churn(churn)
        .churn_minutes(churn_minutes)
        .snapshot_minutes(snapshot_minutes)
        .traffic(traffic)
        .seed(crate::figures::seed_for(base_seed, name));
    if let Some(minutes) = stabilization_minutes {
        b.stabilization_minutes(minutes);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(AttackPlan::ALL.len(), 4);
        assert_eq!(AttackPlan::MinCut.label(), "min-cut");
        assert_eq!(strategy_label(&None), "baseline");
        let spec = AttackSpec {
            plan: AttackPlan::Eclipse,
            budget: 3,
            compromises_per_min: 1,
            start_minute: 40,
        };
        assert_eq!(strategy_label(&Some(spec)), "eclipse");
    }

    #[test]
    fn grid_base_scenario_derives_seed_from_name() {
        let traffic = TrafficModel {
            lookups_per_min: 2,
            stores_per_min: 1,
        };
        let a = grid_base_scenario("cell-a", 16, ChurnRate::NONE, None, 10, 5, traffic, 1);
        let b = grid_base_scenario("cell-b", 16, ChurnRate::NONE, None, 10, 5, traffic, 1);
        assert_ne!(a.seed, b.seed, "seed depends on the cell name");
        assert_eq!(a.stabilization_minutes, 90, "quick() default kept");
        let c = grid_base_scenario(
            "cell-a",
            16,
            ChurnRate::ONE_ONE,
            Some(40),
            10,
            5,
            traffic,
            1,
        );
        assert_eq!(c.stabilization_minutes, 40, "override applied");
        assert_eq!(a.seed, c.seed, "same name, same seed");
    }

    #[test]
    fn eclipse_reanchors_when_the_victim_churns_out() {
        use dessim::latency::LatencyModel;
        use dessim::time::{SimDuration, SimTime};
        use dessim::transport::Transport;
        use rand::SeedableRng;

        // Build a small stabilized overlay by hand so we can churn the
        // victim out between picks.
        let config = kademlia::config::KademliaConfig::builder()
            .bits(32)
            .k(4)
            .staleness_limit(1)
            .build()
            .expect("valid");
        let transport = Transport::lossless(LatencyModel::Constant(SimDuration::from_millis(10)));
        let mut net = SimNetwork::new(config, transport, 77);
        let mut prev = None;
        for i in 0..12 {
            let addr = net.spawn_node();
            net.join(addr, prev);
            prev = Some(addr);
            net.run_until(SimTime::from_secs((i + 1) * 10));
        }
        net.run_until(SimTime::from_minutes(30));

        let key = NodeId::from_u64(0x5A5A_5A5A, 32);
        let mut eclipse = EclipseState::new(key);
        let mut targeted = HashSet::new();
        let mut cut_queue = VecDeque::new();
        let mut rng = SmallRng::seed_from_u64(1);

        let snap = net.snapshot();
        let first = pick_victim(
            AttackPlan::Eclipse,
            &net,
            &snap,
            &targeted,
            &mut cut_queue,
            &mut eclipse,
            &mut rng,
        )
        .expect("victim");
        // First pick: the honest node closest to the key, which becomes
        // the anchored victim.
        let expected_first = net
            .honest_addrs()
            .into_iter()
            .min_by_key(|a| net.node(*a).id().distance(&key))
            .unwrap();
        assert_eq!(first, expected_first);
        assert_eq!(eclipse.anchor(), key, "anchor untouched while victim lives");

        // The victim churns out *without* being compromised. The next
        // pick must re-anchor on the nearest surviving honest node — not
        // keep grinding the stale id's neighborhood.
        net.remove_node(first);
        let stale_anchor = net.node(first).id();
        let snap = net.snapshot();
        let survivor = net
            .honest_addrs()
            .into_iter()
            .min_by_key(|a| net.node(*a).id().distance(&stale_anchor))
            .unwrap();
        let second = pick_victim(
            AttackPlan::Eclipse,
            &net,
            &snap,
            &targeted,
            &mut cut_queue,
            &mut eclipse,
            &mut rng,
        )
        .expect("victim");
        assert_eq!(
            eclipse.anchor(),
            net.node(survivor).id(),
            "anchor moved to the nearest surviving honest node"
        );
        assert_eq!(second, survivor, "and that node is the next victim");

        // A victim the attacker *compromises* keeps the anchor: its
        // neighborhood is exactly what the attack dismantles next.
        targeted.insert(second);
        net.compromise_node(second);
        let anchor_before = eclipse.anchor();
        let snap = net.snapshot();
        let third = pick_victim(
            AttackPlan::Eclipse,
            &net,
            &snap,
            &targeted,
            &mut cut_queue,
            &mut eclipse,
            &mut rng,
        )
        .expect("victim");
        assert_eq!(
            eclipse.anchor(),
            anchor_before,
            "compromise keeps the anchor"
        );
        assert_ne!(third, second, "targeted nodes are never re-picked");
    }
}
