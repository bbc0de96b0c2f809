//! Service-level telemetry experiments: what the overlay *delivers* while
//! `κ` degrades.
//!
//! The paper's connection resilience `κ(D)` is a structural proxy for the
//! service operators actually care about — do lookups still succeed, and
//! does disseminated data stay reachable? A service cell is a live cell
//! ([`crate::runner::run_cell`]) with a durability-probe actor
//! disseminating and re-retrieving objects and traffic from honest
//! origins only, producing for every snapshot instant:
//!
//! * the connectivity report `κ(t)` / `r(t)` (the paper's axis),
//! * the data-lookup success rate and hop statistics in the window since
//!   the previous snapshot (the Roos / Salah axis: hop distributions and
//!   lookup performance are how Kademlia deployments are judged),
//! * the fraction of probe retrievals that found their object —
//!   dissemination durability under churn and compromise.
//!
//! The grid ([`service_grid`]) crosses churn with every attack strategy
//! (plus an attack-free baseline); `repro service` runs it and emits
//! `service-timeseries.csv` (aligned series) and `service-hops.csv`
//! (hop-count distributions).
//!
//! # Example
//!
//! ```
//! use kad_experiments::runner::{run_cell, LiveCell};
//! use kad_experiments::scenario::ScenarioBuilder;
//!
//! let mut b = ScenarioBuilder::quick(16, 4);
//! b.name("doc-service").seed(5).stabilization_minutes(40).churn_minutes(6);
//! let scenario = LiveCell::unattacked(b.build());
//! let outcome = run_cell(&scenario);
//! let last = outcome.points.last().expect("snapshot grid");
//! assert!(last.lookup_success_rate > 0.5, "healthy overlay serves lookups");
//! assert!(!outcome.hops.is_empty(), "hop distribution collected");
//! ```

use crate::attack_plan::{grid_base_scenario, AttackPlan, AttackSpec};
use crate::runner::{CellOutcome, LiveCell};
use crate::scale::Scale;
use crate::scenario::{ChurnRate, TrafficModel};
use kad_telemetry::{Cell, Recorder};

// ----------------------------------------------------------------------
// Analytic hop-count expectation
// ----------------------------------------------------------------------

/// Roos-style analytic expectation of the mean lookup hop count on a
/// stabilized, churn-free overlay of `n` nodes with bucket size `k`.
///
/// Derivation (the integer core of Roos et al.'s hop-distribution model,
/// "Comprehending Kademlia Routing", arXiv:1307.7000): a lookup for a
/// uniform target starts at XOR distance ≈ `2^(b-1)`; querying a node at
/// distance `d` returns the `k` contacts of its bucket covering the
/// target, which are uniform over a range of size ≈ `d`, so the closest
/// of them sits at expected distance ≈ `d / (k + 1)` — each hop resolves
/// ≈ `log2(k + 1)` bits. The lookup is over once the queried node's
/// distance falls inside the target's `k`-closest set, whose radius is
/// ≈ `k/n` of the id space; the seed hop out of the local routing table
/// is hop 1. Hence
///
/// ```text
/// E[hops] ≈ 1 + max(0, log2(n / 2k)) / log2(k + 1)
/// ```
///
/// This is a *mean-field* model: it ignores routing-table fullness
/// (simulated tables at small `n` hold most of the network, biasing hops
/// down) and α-parallelism racing (which can only shorten the winning
/// chain). The integration test `hop_validation.rs` therefore checks the
/// measured mean against this expectation within the documented tolerance
/// [`ANALYTIC_HOP_TOLERANCE`], and the distribution's upper tail against
/// `log2(n)` — both properties Roos et al. establish for real deployments.
pub fn analytic_hop_mean(n: usize, k: usize) -> f64 {
    let n = n as f64;
    let k = k as f64;
    1.0 + (n / (2.0 * k)).max(1.0).log2() / (k + 1.0).log2()
}

/// Absolute tolerance on the mean hop count used by the hop-distribution
/// validation test (in hops). The mean-field model above is exact only in
/// the limit of sparse routing tables; at simulable scales its bias stays
/// well under one hop.
pub const ANALYTIC_HOP_TOLERANCE: f64 = 0.75;

// ----------------------------------------------------------------------
// Grid + rendering
// ----------------------------------------------------------------------

/// The grid `repro service` runs: churn off/`1/1` crossed with an
/// attack-free baseline plus all four [`AttackPlan`]s, at the given scale.
/// Seeds derive from `base_seed` and the cell name, like every other grid.
pub fn service_grid(scale: Scale, base_seed: u64) -> Vec<LiveCell> {
    let cfg = scale.config();
    let size = cfg.small_size;
    let budget = (size / 4).max(2);
    let mut grid = Vec::new();
    for churn in [ChurnRate::NONE, ChurnRate::ONE_ONE] {
        for plan in std::iter::once(None).chain(AttackPlan::ALL.into_iter().map(Some)) {
            let strategy = plan.map_or("baseline", |p| p.label());
            let name = format!("service-{}-churn{}", strategy, churn.label());
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
            let start_minute = base.stabilization_minutes;
            grid.push(LiveCell {
                attack: plan.map(|plan| AttackSpec {
                    plan,
                    budget,
                    compromises_per_min: 1,
                    start_minute,
                }),
                ..LiveCell::unattacked(base)
            });
        }
    }
    grid
}

/// The aligned time-series CSV: κ(t) next to lookup success, hop mean and
/// retrievability, one row per (cell, snapshot).
pub fn service_timeseries_csv(outcomes: &[CellOutcome]) -> String {
    let mut rec = Recorder::new(&[
        "strategy",
        "churn",
        "time_min",
        "budget_spent",
        "honest_size",
        "kappa_min",
        "kappa_avg",
        "resilience",
        "lookups",
        "lookup_success_rate",
        "hop_mean",
        "retrieves",
        "retrievability",
        "stored_objects",
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
                p.lookups.into(),
                Cell::f64(p.lookup_success_rate, 4),
                Cell::f64(p.hop_mean, 3),
                p.retrieves.into(),
                Cell::f64(p.retrievability, 4),
                p.stored_objects.into(),
            ]);
        }
    }
    rec.finish()
}

/// The hop-count distribution CSV: one row per (cell, hop bucket), with
/// the per-cell p50/p90/mean repeated for convenience.
pub fn service_hops_csv(outcomes: &[CellOutcome]) -> String {
    let mut rec = Recorder::new(&[
        "strategy", "churn", "hops", "count", "share", "mean", "p50", "p90",
    ]);
    for outcome in outcomes {
        let strategy = outcome.scenario.strategy_label();
        let churn = outcome.scenario.base.churn.label();
        let h = &outcome.hops;
        let total = h.count().max(1) as f64;
        for (hops, count) in h.iter() {
            rec.row(&[
                strategy.into(),
                churn.clone().into(),
                hops.into(),
                count.into(),
                Cell::f64(count as f64 / total, 4),
                Cell::f64(h.mean(), 3),
                h.percentile(0.5).into(),
                h.percentile(0.9).into(),
            ]);
        }
    }
    rec.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixRunner;
    use crate::runner::{run_cell, ProbeSpec};
    use crate::scenario::ScenarioBuilder;
    use std::collections::HashSet;

    fn quick_service(attack: Option<AttackPlan>, seed: u64) -> LiveCell {
        let mut b = ScenarioBuilder::quick(18, 4);
        b.name(format!(
            "test-service-{}",
            attack.map_or("baseline", |p| p.label())
        ))
        .seed(seed)
        .stabilization_minutes(40)
        .churn_minutes(12)
        .snapshot_minutes(20);
        let base = b.build();
        LiveCell {
            attack: attack.map(|plan| AttackSpec {
                plan,
                budget: 5,
                compromises_per_min: 1,
                start_minute: 40,
            }),
            probe: Some(ProbeSpec {
                store_every_min: 5,
                ..ProbeSpec::SERVICE
            }),
            ..LiveCell::unattacked(base)
        }
    }

    #[test]
    fn healthy_overlay_serves_lookups_and_retrievals() {
        let outcome = run_cell(&quick_service(None, 3));
        assert_eq!(outcome.budget_spent, 0);
        let last = outcome.points.last().expect("points");
        assert!(last.lookups > 0, "traffic produced lookups");
        assert!(
            last.lookup_success_rate > 0.8,
            "healthy lossless overlay converges: {last:?}"
        );
        assert!(last.retrieves > 0, "probe ran");
        assert!(
            last.retrievability > 0.8,
            "stored objects stay reachable: {last:?}"
        );
        assert!(last.stored_objects >= 3);
        assert!(outcome.hops.mean() >= 1.0, "hop counts start at the seed");
        let located: u64 = outcome.points.iter().map(|p| p.lookups).sum();
        assert!(
            located >= outcome.hops.count(),
            "only converged lookups count hops"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let a = run_cell(&quick_service(Some(AttackPlan::Random), 7));
        let b = run_cell(&quick_service(Some(AttackPlan::Random), 7));
        assert_eq!(a, b);
        let c = run_cell(&quick_service(Some(AttackPlan::Random), 8));
        assert_ne!(a.points, c.points, "seeds diverge");
    }

    #[test]
    fn attack_spends_budget_and_is_visible_in_kappa() {
        let outcome = run_cell(&quick_service(Some(AttackPlan::HighestDegree), 11));
        assert_eq!(outcome.budget_spent, 5);
        let last = outcome.points.last().expect("points");
        assert_eq!(last.honest_size, 18 - 5);
        let baseline = &outcome.points[0];
        assert!(baseline.budget_spent == 0, "pre-attack baseline point");
        assert!(
            last.report.min_connectivity <= baseline.report.min_connectivity,
            "κ does not improve while the attacker works: {} -> {}",
            baseline.report.min_connectivity,
            last.report.min_connectivity
        );
    }

    #[test]
    fn eclipse_attack_degrades_retrievability_of_eclipsed_keys() {
        // Not asserting a specific drop (the eclipse key is independent of
        // the probe keys), only that the pipeline runs end to end and the
        // probe keeps reporting while nodes fall.
        let outcome = run_cell(&quick_service(Some(AttackPlan::Eclipse), 13));
        assert_eq!(outcome.budget_spent, 5);
        let last = outcome.points.last().expect("points");
        assert!(last.retrieves > 0, "probe still runs under attack");
    }

    #[test]
    fn grid_covers_baseline_and_all_plans_and_csvs_render() {
        let grid = service_grid(Scale::Bench, 5);
        assert_eq!(grid.len(), 10, "(1 baseline + 4 plans) × 2 churn levels");
        let strategies: HashSet<&str> = grid.iter().map(|c| c.strategy_label()).collect();
        assert_eq!(strategies.len(), 5);
        let mut seeds: Vec<u64> = grid.iter().map(|c| c.base.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10, "unique seed per cell");
        // Smoke-run the two cheapest cells through the MatrixRunner.
        let sample: Vec<LiveCell> = grid.into_iter().filter(|c| c.attack.is_none()).collect();
        let mut done = 0usize;
        let outcomes =
            MatrixRunner::new()
                .scenario_threads(2)
                .run_tasks(&sample, run_cell, |_, _| done += 1);
        assert_eq!(done, sample.len());
        let ts = service_timeseries_csv(&outcomes);
        assert!(ts.starts_with("strategy,churn,time_min"));
        assert!(ts.contains("baseline,1/1"));
        let hops = service_hops_csv(&outcomes);
        assert!(hops.starts_with("strategy,churn,hops,count"));
        assert!(
            hops.lines().count() > 2,
            "hop distribution has rows: {hops}"
        );
    }
}
