//! Observing is a pure observer at the scale where the per-minute κ
//! reading switches estimators: one n=1000 cell with churn and a load
//! workload, run once observed and once unobserved, must produce equal
//! outcomes. At 1,000 honest nodes `minute_kappa` runs the sampled
//! estimator, and the load ledger carries each minute's κ and estimate,
//! so the comparison covers the κ reading as well as the ledger and the
//! simulator counters.

use kad_experiments::runner::{run_cell, CellOutcome, LiveCell};
use kad_experiments::scenario::{ChurnRate, ScenarioBuilder};
use kad_experiments::session::{TrafficOrigins, SAMPLED_KAPPA_MIN_NODES};
use kad_experiments::traffic::ArrivalProcess;
use kad_experiments::LoadSpec;

const SIZE: usize = 1_000;
const LOAD_START: u64 = 64;

fn cell(observe: bool) -> LiveCell {
    let mut b = ScenarioBuilder::quick(SIZE, 20);
    b.name("observe-determinism-n1000")
        .seed(4)
        .no_traffic()
        .churn(ChurnRate::ONE_ONE)
        .stabilization_minutes(LOAD_START)
        .churn_minutes(4)
        .observe(observe);
    let spec = LoadSpec {
        arrival: ArrivalProcess::Poisson { rate_per_min: 30.0 },
        start_minute: LOAD_START,
        phase_split: LOAD_START + 2,
    };
    LiveCell {
        origins: TrafficOrigins::HonestOnly,
        load: Some(spec),
        ..LiveCell::plain(b.build())
    }
}

#[test]
fn observing_a_thousand_node_cell_changes_no_outcome() {
    assert_eq!(
        SIZE, SAMPLED_KAPPA_MIN_NODES,
        "the sampled regime of minute_kappa"
    );
    let unobserved = run_cell(&cell(false));
    let mut observed: CellOutcome = run_cell(&cell(true));

    let ledger = unobserved.load.as_ref().expect("load cell");
    assert!(!ledger.points.is_empty(), "ledger minutes recorded");
    assert!(
        ledger.points.iter().all(|p| p.kappa_estimate.is_some()),
        "every ledger minute ran the sampled estimator"
    );
    assert!(unobserved.counters.get("node_removed") > 0, "churn ran");
    let exemplars = observed
        .load
        .as_ref()
        .and_then(|l| l.telemetry.exemplars.as_ref());
    assert!(exemplars.is_some(), "the observed run captured traces");

    // The observe flag and the exemplar reservoirs are the only fields
    // an observed run may add; everything else must match exactly.
    observed.scenario.base.observe = false;
    observed
        .load
        .as_mut()
        .expect("load cell")
        .telemetry
        .exemplars = None;
    assert_eq!(observed.points, unobserved.points);
    assert_eq!(observed.counters, unobserved.counters);
    assert_eq!(observed, unobserved);
}
