//! Regression fixture for the κ_min every grid publishes.
//!
//! Grid snapshots report κ_min from [`AnalysisConfig::paper_sampled`]:
//! the paper's §5.2 heuristic, which runs flows only from the
//! lowest-out-degree sources. That is an *upper bound* on κ(D), so at
//! every snapshot it must be at least `exact_min` of the same graph. On
//! three bench cells the bound is loose, and this test pins each gap:
//!
//! * `paper::sim_gh(Scale::Bench, false, 10, 3)` at seed 2 publishes 18
//!   where κ(D) = 11 for t = 40–120;
//! * `paper::sim_ef(Scale::Bench, true, 10)` at seed 2 publishes 15 where
//!   κ(D) = 11 at t = 140;
//! * `paper::sim_ef(Scale::Bench, true, 20)` at seed 1 publishes 35 where
//!   κ(D) = 34 at t = 160.
//!
//! A sweep that certifies κ_min is expected to turn all three into
//! equality.

use kad_experiments::runner::run_scenario;
use kad_experiments::scale::Scale;
use kad_experiments::scenario::{paper, Scenario};
use kad_experiments::session::{
    ChurnActor, EndCtx, JoinSchedule, Sampler, SessionDriver, SnapshotGrid, TrafficActor,
    TrafficOrigins,
};
use kad_resilience::kappa::exact_min;
use kad_resilience::{analyze_snapshot, snapshot_to_digraph, AnalysisConfig};
use kademlia::network::SimNetwork;

/// `(time_min, published κ_min, exact κ_min)` at every grid snapshot of
/// a plain cell, driven with the same actors `run_cell` wires for it.
fn published_and_exact(base: &Scenario) -> Vec<(f64, u64, u64)> {
    let mut driver = SessionDriver::new(base);
    let mut joins = JoinSchedule::new(&mut driver);
    let mut churn = ChurnActor;
    let mut traffic = TrafficActor::new(TrafficOrigins::AllAlive);
    let mut sampler = Sampler::new(
        SnapshotGrid {
            base_minutes: base.snapshot_minutes,
            attack_start: None,
            attack_minutes: base.snapshot_minutes,
        },
        |net: &mut SimNetwork, ctx: &mut EndCtx<'_>| {
            let snap = net.snapshot();
            let published =
                analyze_snapshot(&snap, &AnalysisConfig::paper_sampled()).min_connectivity;
            (
                ctx.time_min,
                published,
                exact_min(&snapshot_to_digraph(&snap)),
            )
        },
    );
    driver.run(&mut [&mut joins, &mut churn, &mut traffic, &mut sampler]);
    sampler.into_points()
}

/// `(time_min, published κ_min, exact κ_min)` pinned at every snapshot of
/// one cell.
type Rows = [(f64, u64, u64); 8];

/// The three cells whose published κ_min overstates κ(D) somewhere.
fn gap_cells() -> [(&'static str, Scenario, u64, Rows); 3] {
    [
        (
            "sim_gh(Bench, false, 10, 3)",
            paper::sim_gh(Scale::Bench, false, 10, 3),
            2,
            [
                (20.0, 11, 11),
                (40.0, 18, 11),
                (60.0, 18, 11),
                (80.0, 18, 11),
                (100.0, 18, 11),
                (120.0, 18, 11),
                (140.0, 9, 9),
                (160.0, 10, 10),
            ],
        ),
        (
            "sim_ef(Bench, true, 10)",
            paper::sim_ef(Scale::Bench, true, 10),
            2,
            [
                (20.0, 10, 10),
                (40.0, 12, 12),
                (60.0, 12, 12),
                (80.0, 12, 12),
                (100.0, 12, 12),
                (120.0, 12, 12),
                (140.0, 15, 11),
                (160.0, 13, 13),
            ],
        ),
        (
            "sim_ef(Bench, true, 20)",
            paper::sim_ef(Scale::Bench, true, 20),
            1,
            [
                (20.0, 24, 24),
                (40.0, 22, 22),
                (60.0, 22, 22),
                (80.0, 22, 22),
                (100.0, 22, 22),
                (120.0, 22, 22),
                (140.0, 29, 29),
                (160.0, 35, 34),
            ],
        ),
    ]
}

#[test]
fn paper_sampled_kappa_min_is_an_upper_bound_with_a_known_gap() {
    for (cell, mut base, seed, pinned) in gap_cells() {
        base.seed = seed;
        let rows = published_and_exact(&base);

        // The re-driven session is the one the grids run: same snapshots,
        // same published values.
        let grid: Vec<(f64, u64)> = run_scenario(&base)
            .points
            .iter()
            .map(|p| (p.time_min, p.report.min_connectivity))
            .collect();
        let redriven: Vec<(f64, u64)> = rows
            .iter()
            .map(|&(t, published, _)| (t, published))
            .collect();
        assert_eq!(redriven, grid, "{cell} seed {seed}");

        for &(t, published, exact) in &rows {
            assert!(
                published >= exact,
                "{cell} seed {seed}, t = {t}: published κ_min {published} below exact {exact}"
            );
        }
        assert_eq!(rows, pinned, "{cell} seed {seed}");
    }
}
