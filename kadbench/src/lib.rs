//! `kadbench`: the benchmark every performance claim about this
//! repository is measured with.
//!
//! Six named workloads, five end-to-end metrics and the per-layer metrics
//! behind them, all declared in the root `BENCHMARK.json`. Every layer is
//! measured from outside, by timing calls into its public functions; the
//! program under test is not modified. See `README.md` next to this crate
//! for the tables, the predictions and how to run and compare.

pub mod agree;
pub mod churn;
pub mod cli;
pub mod grid;
pub mod harness;
pub mod json;
pub mod kappa;
pub mod machine;
pub mod probes;
pub mod sim;
pub mod spec;
pub mod stats;
pub mod trace;

use harness::{Outcome, RunArgs};
use spec::Workload;
use trace::Tracer;

/// Runs one workload once, traced or untraced, and assembles its metrics.
/// With `args.trace_out` set, a traced run also writes its spans there as
/// Chrome trace-event JSON.
pub fn run_workload(args: &RunArgs) -> Outcome {
    let mut tracer = Tracer::new(args.trace);
    let measured = match args.workload {
        Workload::Steady1k | Workload::Steady10k => sim::run(args, &mut tracer),
        Workload::ChurnLossy1k => churn::run(args, &mut tracer),
        Workload::DefendGrid => grid::run(args, &mut tracer),
        Workload::KappaMin1k | Workload::KappaPaper250 => kappa::run(args, &mut tracer),
    };
    if let (true, Some(path)) = (args.trace, &args.trace_out) {
        if let Err(err) = tracer.write_chrome(path) {
            eprintln!("kadbench: cannot write trace {}: {err}", path.display());
        }
    }
    harness::assemble(args, &tracer, measured)
}
