//! `defend-grid`: wall-clock of one `repro defend` grid.
//!
//! `defense_grid(Scale::Laptop, seed)` — 4 policies × 4 attacks × churn
//! off/1-1 at n=75 — run cell by cell through `run_defense`, then rendered
//! through both CSV writers. Every layer does a little: session engine,
//! `kad_defense` hooks, durability probes, per-minute κ, the telemetry sink
//! and CSV emission. No single layer dominates, which is the point: the
//! grid-engine unification must leave this flat.

use crate::harness::{Check, Measured, RunArgs};
use crate::machine;
use crate::probes;
use crate::spec;
use crate::stats::{self, Fnv};
use crate::trace::{Tracer, TIMED};
use kad_defense::PolicyKind;
use kad_experiments::defense::{
    defense_grid, defense_summary_csv, defense_timeseries_csv, DefenseOutcome, DefenseScenario,
};
use kad_experiments::observe;
use kad_experiments::{run_defense, Scale};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Grid positions re-run under `observe` to price the flight recorder.
const OBSERVED_CELLS: [usize; 4] = [0, 5, 18, 27];

fn grid(seed: u64, quick: bool, cells: usize) -> Vec<DefenseScenario> {
    let scale = if quick { Scale::Bench } else { Scale::Laptop };
    let mut grid = defense_grid(scale, seed);
    grid.truncate(cells);
    grid
}

/// Header/row-count schema of one rendered CSV.
fn csv_schema_ok(csv: &str, first_columns: &str, rows: usize) -> bool {
    let mut lines = csv.lines();
    let Some(header) = lines.next() else {
        return false;
    };
    let columns = header.split(',').count();
    let body: Vec<&str> = lines.collect();
    header.starts_with(first_columns)
        && body.len() == rows
        && body.iter().all(|row| row.split(',').count() == columns)
}

/// Mean relative extra time of each policy cell over the `none` cell with
/// the same attack and churn, in percent.
fn policy_overhead_pct(outcomes: &[DefenseOutcome], cell_ms: &[f64]) -> f64 {
    let key = |o: &DefenseOutcome| (o.scenario.strategy_label(), o.scenario.base.churn);
    let mut ratios = Vec::new();
    for (outcome, &ms) in outcomes.iter().zip(cell_ms) {
        if outcome.scenario.policy == PolicyKind::None {
            continue;
        }
        let baseline = outcomes
            .iter()
            .zip(cell_ms)
            .find(|(o, _)| o.scenario.policy == PolicyKind::None && key(o) == key(outcome));
        if let Some((_, &none_ms)) = baseline {
            ratios.push(ms / none_ms - 1.0);
        }
    }
    if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64 * 100.0
    }
}

/// Runs `defend-grid`.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Measured {
    let sizes = spec::sizes(args.workload, args.quick);
    let mut m = Measured {
        lengths: vec![("cells", sizes.cells as u64)],
        ..Measured::default()
    };

    // Set-up: generate the grid and run its first cell once, untimed, so
    // allocator and caches are warm before the clock starts.
    let mut cells = Vec::new();
    for _ in 0..sizes.setup_reps {
        let start = Instant::now();
        cells = grid(args.seed, args.quick, sizes.cells);
        black_box(run_defense(&cells[0]).budget_spent);
        m.setup_s.push(start.elapsed().as_secs_f64());
    }

    m.lengths.push(("nodes", cells[0].base.size as u64));

    // Timed phase: every cell serially, then both CSVs.
    let mut outcomes: Vec<DefenseOutcome> = Vec::with_capacity(cells.len());
    let mut panicked = 0u64;
    let timed = tracer.open(TIMED);
    let timed_start = Instant::now();
    for cell in &cells {
        let span = tracer.open("cell");
        let (result, secs) = tracer.span("kad_experiments.run_defense", || {
            catch_unwind(AssertUnwindSafe(|| run_defense(cell)))
        });
        tracer.close(span);
        match result {
            Ok(outcome) => {
                outcomes.push(outcome);
                m.unit_ms.push(secs * 1e3);
            }
            Err(_) => panicked += 1,
        }
    }
    let (timeseries, timeseries_s) = tracer.span("kad_experiments.defense_timeseries_csv", || {
        defense_timeseries_csv(&outcomes)
    });
    let (summary, summary_s) = tracer.span("kad_experiments.defense_summary_csv", || {
        defense_summary_csv(&outcomes)
    });
    m.wall_s = timed_start.elapsed().as_secs_f64();
    tracer.close(timed);
    m.peak_rss_mb = machine::peak_rss_mb();
    m.work_items = outcomes.len() as f64;
    m.attempted = cells.len() as u64;
    m.failed = panicked;

    let mut h = Fnv::default();
    h.str(&timeseries);
    h.str(&summary);
    m.digest = h.finish();
    let points: usize = outcomes.iter().map(|o| o.points.len()).sum();
    let rpcs: u64 = outcomes.iter().map(|o| o.counters.get("rpc_sent")).sum();
    m.counts = vec![
        ("cells", outcomes.len() as u64),
        ("timeseries_rows", points as u64),
        ("rpc_sent", rpcs),
        (
            "budget_spent",
            outcomes.iter().map(|o| o.budget_spent as u64).sum(),
        ),
    ];
    m.checks.push(Check::new(
        "every_cell_completes",
        panicked == 0 && outcomes.len() == cells.len(),
        format!(
            "{} of {} cells, {panicked} panicked",
            outcomes.len(),
            cells.len()
        ),
    ));
    m.checks.push(Check::new(
        "csv_schema",
        csv_schema_ok(&timeseries, "policy,strategy,churn,time_min,", points)
            && csv_schema_ok(&summary, "policy,strategy,churn,kappa_pre,", outcomes.len()),
        format!(
            "timeseries {} rows for {points} points, summary {} rows for {} cells",
            timeseries.lines().count().saturating_sub(1),
            summary.lines().count().saturating_sub(1),
            outcomes.len()
        ),
    ));
    m.check_pins(args, None);

    if args.trace && panicked == 0 {
        m.layer("kad_experiments.cell_ms_p50", stats::median(&m.unit_ms));
        m.layer(
            "kad_experiments.csv_render_ms",
            (timeseries_s + summary_s) * 1e3,
        );
        m.layer(
            "kad_defense.policy_overhead_pct",
            policy_overhead_pct(&outcomes, &m.unit_ms),
        );
        let actions: u64 = outcomes
            .iter()
            .map(|o| {
                [
                    "defense_probe",
                    "defense_repair",
                    "defense_diversity_reject",
                    "defense_diversity_replace",
                ]
                .iter()
                .map(|name| o.counters.get(name))
                .sum::<u64>()
            })
            .sum();
        m.layer(
            "kad_defense.actions_per_cell",
            actions as f64 / outcomes.len() as f64,
        );
        observed_layer_metrics(&mut m, &cells);
        m.layer(
            "kad_telemetry.histogram_record_ns",
            probes::histogram_record_ns(args.seed),
        );
    }
    m
}

/// Re-runs a few fixed cells with the flight recorder on. Their extra time
/// over the plain pass is the recorder's cost; their span profiles — the
/// program's own PR 8 spans — split the session minute into its phases,
/// which the harness cannot bracket from outside `run_defense`.
fn observed_layer_metrics(m: &mut Measured, cells: &[DefenseScenario]) {
    let picks: Vec<usize> = OBSERVED_CELLS
        .into_iter()
        .filter(|&i| i < cells.len())
        .collect();
    let mut plain_ms = 0.0;
    let mut observed_ms = 0.0;
    observe::begin_collection();
    for &i in &picks {
        let mut cell = cells[i].clone();
        cell.base.observe = true;
        let start = Instant::now();
        black_box(run_defense(&cell).budget_spent);
        observed_ms += start.elapsed().as_secs_f64() * 1e3;
        plain_ms += m.unit_ms[i];
    }
    let observations = observe::end_collection();
    m.layer(
        "kad_telemetry.observed_overhead_pct",
        (probes::ratio(observed_ms, plain_ms) - 1.0) * 100.0,
    );

    // (total nanoseconds, calls) of one span path over the observed cells.
    let sum = |path: &str| -> (f64, f64) {
        observations
            .iter()
            .filter_map(|o| o.profile.get(path))
            .fold((0.0, 0.0), |(ns, calls), s| {
                (ns + s.total_ns as f64, calls + s.calls as f64)
            })
    };
    let (on_minute_ns, minutes) = sum("cell/session/on-minute");
    let (actions_ns, _) = sum("cell/session/actions");
    let (drain_ns, _) = sum("cell/session/drain");
    let (minute_end_ns, _) = sum("cell/session/minute-end");
    let (session_ns, _) = sum("cell/session");
    let per_minute_ms = |ns: f64| probes::ratio(ns, minutes) / 1e6;
    m.layer(
        "kad_experiments.session_on_minute_ms",
        per_minute_ms(on_minute_ns),
    );
    m.layer(
        "kad_experiments.session_drain_ms",
        per_minute_ms(actions_ns + drain_ns),
    );
    m.layer(
        "kad_experiments.session_minute_end_ms",
        per_minute_ms(minute_end_ns),
    );
    m.layer(
        "kad_experiments.session_harness_share",
        1.0 - probes::ratio(actions_ns + drain_ns, session_ns),
    );
}
