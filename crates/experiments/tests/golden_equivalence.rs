//! Golden-equivalence suite: no refactor of the runners may change a
//! single output byte.
//!
//! The files under `tests/golden/` were generated by the runners that
//! preceded each port (`repro {campaign,service,defend} --scale bench
//! --seed 1` by the hand-rolled minute loops before the
//! [`kad_experiments::session`] driver; `sweep`, `load` and the `matrix`
//! slice by the per-grid runners before the one
//! [`kad_experiments::runner::run_cell`]). Every test here re-runs the
//! same grid in-process and asserts the rendered CSVs are
//! **byte-identical** to those pinned outputs. A diff in any of these
//! tests means a change altered the event order, an RNG draw, or a
//! format string somewhere. The `<grid>-counters.csv` files pin the
//! simulator counters of the same runs (`cell,name,value`, from
//! `Counters::iter`), generated before the counter table became one
//! typed array.

use std::fmt::Write as _;

use kad_experiments::matrix::MatrixRunner;
use kad_experiments::runner::{run_cell, CellOutcome, LiveCell};
use kad_experiments::scale::Scale;

const SEED: u64 = 1;

fn run(grid: &[LiveCell]) -> Vec<CellOutcome> {
    MatrixRunner::new().run_tasks(grid, run_cell, |_, _| {})
}

/// First differing line (1-based) between two CSV strings, for a readable
/// failure message instead of a megabyte assert_eq dump.
fn assert_csv_identical(kind: &str, actual: &str, golden: &str) {
    if actual == golden {
        return;
    }
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .map_or_else(
            || actual.lines().count().min(golden.lines().count()) + 1,
            |i| i + 1,
        );
    let show = |s: &str| s.lines().nth(line - 1).unwrap_or("<missing>").to_string();
    panic!(
        "{kind} diverged from the pre-refactor golden at line {line}:\n  \
         golden: {}\n  actual: {}\n(total {} golden / {} actual lines)",
        show(golden),
        show(actual),
        golden.lines().count(),
        actual.lines().count(),
    );
}

/// `cell,name,value` rows from every outcome's simulator counters, in
/// grid order and then name order. No grid CSV prints the counters, so
/// these rows pin their names, values and iteration order.
fn counters_csv(outcomes: &[CellOutcome]) -> String {
    let mut out = String::from("cell,name,value\n");
    for o in outcomes {
        for (name, value) in o.counters.iter() {
            writeln!(out, "{},{name},{value}", o.scenario.base.name).expect("write to String");
        }
    }
    out
}

#[test]
fn campaign_csv_is_byte_identical_to_pre_refactor_golden() {
    use kad_experiments::campaign::{campaign_csv, campaign_grid};
    let grid = campaign_grid(Scale::Bench, SEED);
    let outcomes = run(&grid);
    assert_csv_identical(
        "campaign-timeseries.csv",
        &campaign_csv(&outcomes),
        include_str!("golden/campaign-timeseries.csv"),
    );
    assert_csv_identical(
        "campaign-counters.csv",
        &counters_csv(&outcomes),
        include_str!("golden/campaign-counters.csv"),
    );
}

#[test]
fn service_csvs_are_byte_identical_to_pre_refactor_goldens() {
    use kad_experiments::service::{service_grid, service_hops_csv, service_timeseries_csv};
    let grid = service_grid(Scale::Bench, SEED);
    let outcomes = run(&grid);
    assert_csv_identical(
        "service-timeseries.csv",
        &service_timeseries_csv(&outcomes),
        include_str!("golden/service-timeseries.csv"),
    );
    assert_csv_identical(
        "service-hops.csv",
        &service_hops_csv(&outcomes),
        include_str!("golden/service-hops.csv"),
    );
    assert_csv_identical(
        "service-counters.csv",
        &counters_csv(&outcomes),
        include_str!("golden/service-counters.csv"),
    );
}

/// The load engine must be *inert* when its arrival process is silent: a
/// rate-0 [`kad_experiments::LoadSpec`] wired into every service cell —
/// fanout sink installed, hot keys drawn, actor in the minute loop — must
/// leave every simulator counter and the hop histogram byte-identical to
/// the pre-load goldens. This pins the two halves of the opt-in contract:
/// the load actor's own RNG streams (`load-keys`, `load-arrivals`) are
/// label-isolated from the harness streams, and a silent process draws
/// nothing, issues nothing and anchors no eclipse. (A load cell reports
/// its ledger instead of κ snapshots, so the service time series has no
/// rows to compare.)
#[test]
fn rate_zero_load_actor_leaves_service_csvs_byte_identical() {
    use kad_experiments::service::{service_grid, service_hops_csv};
    use kad_experiments::traffic::ArrivalProcess;
    use kad_experiments::LoadSpec;
    let mut grid = service_grid(Scale::Bench, SEED);
    for scenario in &mut grid {
        let start = scenario.base.stabilization_minutes;
        scenario.load = Some(LoadSpec {
            arrival: ArrivalProcess::Poisson { rate_per_min: 0.0 },
            start_minute: start,
            phase_split: start,
        });
    }
    let outcomes = run(&grid);
    assert_csv_identical(
        "service-counters.csv (rate-0 load)",
        &counters_csv(&outcomes),
        include_str!("golden/service-counters.csv"),
    );
    assert_csv_identical(
        "service-hops.csv (rate-0 load)",
        &service_hops_csv(&outcomes),
        include_str!("golden/service-hops.csv"),
    );
}

#[test]
fn defense_csvs_are_byte_identical_to_pre_refactor_goldens() {
    use kad_experiments::defense::{defense_grid, defense_summary_csv, defense_timeseries_csv};
    let grid = defense_grid(Scale::Bench, SEED);
    let outcomes = run(&grid);
    assert_csv_identical(
        "defense-timeseries.csv",
        &defense_timeseries_csv(&outcomes),
        include_str!("golden/defense-timeseries.csv"),
    );
    assert_csv_identical(
        "defense-summary.csv",
        &defense_summary_csv(&outcomes),
        include_str!("golden/defense-summary.csv"),
    );
    assert_csv_identical(
        "defense-counters.csv",
        &counters_csv(&outcomes),
        include_str!("golden/defense-counters.csv"),
    );
}

/// The flight recorder must be a pure observer: running a grid with
/// `observe` on — journal created and wired into the telemetry fanout,
/// span profile installed per cell, minute seals folded — must leave the
/// golden CSVs byte-identical. Journal recording draws no randomness and
/// never touches the network, and the span guards only read the clock;
/// this pins both claims on a full grid against the same goldens the
/// un-observed tests use.
#[test]
fn observed_campaign_csv_is_byte_identical_to_golden() {
    use kad_experiments::campaign::{campaign_csv, campaign_grid};
    let mut grid = campaign_grid(Scale::Bench, SEED);
    for scenario in &mut grid {
        scenario.base.observe = true;
    }
    let outcomes = run(&grid);
    assert_csv_identical(
        "campaign-timeseries.csv (observed)",
        &campaign_csv(&outcomes),
        include_str!("golden/campaign-timeseries.csv"),
    );
    assert_csv_identical(
        "campaign-counters.csv (observed)",
        &counters_csv(&outcomes),
        include_str!("golden/campaign-counters.csv"),
    );
}

/// Same contract for the defense grid, whose cells compose the journal
/// with an existing telemetry sink through a fanout: fanning the records
/// out to the journal must not perturb a byte of the goldens.
#[test]
fn observed_defense_csvs_are_byte_identical_to_goldens() {
    use kad_experiments::defense::{defense_grid, defense_summary_csv, defense_timeseries_csv};
    let mut grid = defense_grid(Scale::Bench, SEED);
    for scenario in &mut grid {
        scenario.base.observe = true;
    }
    let outcomes = run(&grid);
    assert_csv_identical(
        "defense-timeseries.csv (observed)",
        &defense_timeseries_csv(&outcomes),
        include_str!("golden/defense-timeseries.csv"),
    );
    assert_csv_identical(
        "defense-summary.csv (observed)",
        &defense_summary_csv(&outcomes),
        include_str!("golden/defense-summary.csv"),
    );
    assert_csv_identical(
        "defense-counters.csv (observed)",
        &counters_csv(&outcomes),
        include_str!("golden/defense-counters.csv"),
    );
}

/// `repro sweep --scale bench --seed 1`, generated at the last commit
/// that still had a dedicated sweep runner: the phased attacker, its
/// per-minute trough reading and the `phase` column are pinned byte for
/// byte.
#[test]
fn sweep_csv_is_byte_identical_to_golden() {
    use kad_experiments::sweep::{sweep_grid, sweep_timeseries_csv};
    let grid = sweep_grid(Scale::Bench, SEED);
    let outcomes = run(&grid);
    assert_csv_identical(
        "sweep-timeseries.csv",
        &sweep_timeseries_csv(&outcomes),
        include_str!("golden/sweep-timeseries.csv"),
    );
    assert_csv_identical(
        "sweep-counters.csv",
        &counters_csv(&outcomes),
        include_str!("golden/sweep-counters.csv"),
    );
}

/// `repro load --scale bench --seed 1`, same provenance: the hot-key
/// eclipse anchor and the per-minute ledger rows with their κ readings
/// are pinned byte for byte.
#[test]
fn load_csvs_are_byte_identical_to_goldens() {
    use kad_experiments::load::{load_grid, load_summary_csv, load_timeseries_csv};
    let grid = load_grid(Scale::Bench, SEED);
    let outcomes = run(&grid);
    assert_csv_identical(
        "load-timeseries.csv",
        &load_timeseries_csv(&outcomes),
        include_str!("golden/load-timeseries.csv"),
    );
    assert_csv_identical(
        "load-summary.csv",
        &load_summary_csv(&outcomes),
        include_str!("golden/load-summary.csv"),
    );
    assert_csv_identical(
        "load-counters.csv",
        &counters_csv(&outcomes),
        include_str!("golden/load-counters.csv"),
    );
}

/// `repro sampling --scale bench --seed 1`: the §5.2 validation table,
/// exact κ_min against the c ∈ {0.01, 0.02, 0.05, 0.10} source samples on
/// three overlay snapshots and six symmetric k-out graphs. Pinned before
/// the κ sweeps moved into one module.
#[test]
fn sampling_table_is_byte_identical_to_golden() {
    use kad_experiments::figures::{run_experiment, ExperimentId};
    let result = run_experiment(ExperimentId::Sampling, Scale::Bench, SEED);
    assert_eq!(result.tables.len(), 1, "one validation table");
    assert_csv_identical(
        "sampling-table0.csv",
        &result.tables[0].to_csv(),
        include_str!("golden/sampling-table0.csv"),
    );
}

/// Every 5th cell of `repro matrix --scale bench --seed 1 --observe`,
/// generated by the pre-session hand-rolled minute loop (now deleted): the
/// `matrix-summary.csv` rows and the observed `audit-chain.csv` of the
/// paper's k-sweep grid are pinned byte for byte.
#[test]
fn matrix_slice_summary_and_audit_chain_are_byte_identical_to_goldens() {
    use kad_experiments::matrix::{matrix_summary_csv, paper_matrix};
    use kad_experiments::observe;
    let mut slice: Vec<_> = paper_matrix(Scale::Bench, SEED)
        .into_iter()
        .step_by(5)
        .collect();
    for cell in &mut slice {
        cell.base.observe = true;
    }
    observe::begin_collection();
    let outcomes = run(&slice);
    // The collector is process-global: drop what the other observed
    // tests of this binary submitted while the window was open.
    let observations: Vec<_> = observe::end_collection()
        .into_iter()
        .filter(|o| slice.iter().any(|c| c.base.name == o.cell))
        .collect();
    let summary = matrix_summary_csv(&outcomes);
    assert_csv_identical(
        "matrix-summary.csv (every 5th cell)",
        &summary,
        include_str!("golden/matrix-slice-summary.csv"),
    );
    assert_csv_identical(
        "audit-chain.csv (every 5th matrix cell)",
        &observe::audit_chain_csv(&observations),
        include_str!("golden/matrix-slice-audit-chain.csv"),
    );
    // The span profile explains each cell: ≥ 95 % of the root's wall time
    // lands in named spans below it, every nanosecond is attributed once,
    // and the session driver's phases are all present.
    assert_eq!(observations.len(), slice.len(), "one observation per cell");
    for obs in &observations {
        let profile = &obs.profile;
        let root = profile.get("cell").expect("root cell span");
        assert!(
            root.self_ns * 20 <= root.total_ns,
            "{}: ≥95% of cell wall time must be attributed below the root: \
             self {} of {} ns",
            obs.cell,
            root.self_ns,
            root.total_ns
        );
        assert_eq!(
            profile.attributed_ns(),
            profile.root_total_ns(),
            "{}",
            obs.cell
        );
        for path in [
            "cell/session",
            "cell/session/on-minute",
            "cell/session/actions",
            "cell/session/drain",
            "cell/session/minute-end",
        ] {
            assert!(
                profile.get(path).is_some(),
                "{}: expected span {path:?}",
                obs.cell
            );
        }
    }
}
