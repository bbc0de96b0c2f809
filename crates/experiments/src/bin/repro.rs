//! `repro` — regenerate any table or figure from the paper.
//!
//! ```text
//! repro fig2                   # Simulation A at laptop scale
//! repro tab2 --scale bench     # quick smoke-scale Table 2
//! repro all --out results/     # everything, CSVs written to results/
//! repro matrix --scale bench   # the paper's k-sweep grid, run in parallel
//! repro campaign --out results/ # attack campaigns: κ(t) per strategy
//! ```
//!
//! Arguments are parsed by hand (the build environment has no clap):
//! `<experiment> [--scale bench|laptop|large|paper] [--seed N] [--out DIR]
//! [--jobs N]`.

use kad_experiments::figures::{run_experiment, ExperimentId, ExperimentResult};
use kad_experiments::matrix::MatrixRunner;
use kad_experiments::observe;
use kad_experiments::runner::{run_cell, CellOutcome, LiveCell};
use kad_experiments::scale::Scale;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone)]
struct Args {
    experiment: String,
    scale: Scale,
    seed: u64,
    out: Option<PathBuf>,
    jobs: Option<usize>,
    observe: Option<PathBuf>,
    /// Positional arguments after the experiment (only `audit` takes any:
    /// its two run directories).
    rest: Vec<String>,
}

const USAGE: &str =
    "usage: repro <experiment> [--scale bench|laptop|large|paper] [--seed N] [--out DIR] [--jobs N] [--observe DIR]\n\
    \x20      repro audit RUN_A RUN_B\n\
    experiments: all, matrix, campaign, service, defend, sweep, load, tab1, fig2..fig14, tab2, fig10, bitlen, sampling\n\
    all: the full figure/table registry, then every grid (matrix, campaign, service, defend, sweep, load)\n\
    campaign: attack-during-churn grid (random/highest-degree/min-cut/eclipse), κ(t) CSV\n\
    service: κ(t) × lookup success × hop counts × retrievability grid, two CSVs\n\
    load: production-traffic grid (offered rate × attack plan), latency percentiles under attack, two CSVs\n\
    defend: defense-policy grid (none/evict-unresponsive/diversify/self-heal × attacks × churn), two CSVs\n\
    sweep: mixed-phase attacker grid (strategy switches mid-campaign, e.g. eclipse→min-cut at the κ trough) × policies, one CSV\n\
    audit: diff two --observe runs' audit-chain.csv; exit 0 when the chains match, 1 naming the first divergent (cell, minute)\n\
    --scale large runs n=1000 overlays: the per-minute κ reading (load ledger, trough switch) switches to the sampled estimator\n\
    \x20   (kappa_est/kappa_ci_lo/kappa_ci_hi columns in load-timeseries.csv; na at smaller scales)\n\
    --seed N makes every CSV bit-identically reproducible (all subcommands)\n\
    --jobs N (at least 1) sets the cell-level worker count of every grid (matrix/campaign/service/defend/sweep/load);\n\
    \x20   outputs are byte-identical for any value; the figure/table registry auto-splits\n\
    --observe DIR writes run-manifest.json, profile.csv, audit-chain.csv, metrics.prom,\n\
    \x20   traces.json (Chrome trace-event p99 exemplar trees) and latency-attribution.csv\n\
    \x20   (critical-path queue/rtt/timeout decomposition, conserving per row)\n\
    \x20   (wall-clock data lands only in those artifacts; the golden CSVs stay byte-identical)";

/// Renders a grid's outcomes as text (a CSV, a terminal chart).
type Render = fn(&[CellOutcome]) -> String;

/// One `repro` grid: what actually differs between grids is the cell
/// list and the CSV columns; [`run_grid`] owns everything else.
struct Grid {
    /// Subcommand, `--observe` manifest label and `repro all` subdirectory.
    name: &'static str,
    /// Builds the grid's cells for a scale and base seed.
    cells: fn(Scale, u64) -> Vec<LiveCell>,
    /// Terminal rendering printed to stdout after the run, if any.
    chart: Option<Render>,
    /// Output files: name and renderer, written to `--out DIR` or printed.
    csvs: &'static [(&'static str, Render)],
}

fn campaign_chart(outcomes: &[CellOutcome]) -> String {
    let figure = kad_experiments::campaign::campaign_figure(outcomes);
    kad_experiments::ascii_chart::render_min_connectivity(&figure)
}

/// Every grid, in `repro all` order.
const GRIDS: [Grid; 6] = {
    use kad_experiments::{campaign, defense, load, matrix, service, sweep};
    [
        // The paper's full k-sweep scenario grid.
        Grid {
            name: "matrix",
            cells: matrix::paper_matrix,
            chart: None,
            csvs: &[("matrix-summary.csv", matrix::matrix_summary_csv)],
        },
        // Four attack strategies × churn on/off: κ(t) per strategy.
        Grid {
            name: "campaign",
            cells: campaign::campaign_grid,
            chart: Some(campaign_chart),
            csvs: &[("campaign-timeseries.csv", campaign::campaign_csv)],
        },
        // Baseline + four strategies × churn on/off: the aligned
        // κ/lookup/retrievability series and the hop-count distributions.
        Grid {
            name: "service",
            cells: service::service_grid,
            chart: None,
            csvs: &[
                ("service-timeseries.csv", service::service_timeseries_csv),
                ("service-hops.csv", service::service_hops_csv),
            ],
        },
        // 4 policies × 4 strategies × churn on/off: the series with
        // per-policy activity counters, and time-to-κ-collapse, recovery
        // slope and message overhead per cell.
        Grid {
            name: "defend",
            cells: defense::defense_grid,
            chart: None,
            csvs: &[
                ("defense-timeseries.csv", defense::defense_timeseries_csv),
                ("defense-summary.csv", defense::defense_summary_csv),
            ],
        },
        // 2 attacker phase scripts × 4 policies: the κ/service series
        // with the active attack phase per row.
        Grid {
            name: "sweep",
            cells: sweep::sweep_grid,
            chart: None,
            csvs: &[("sweep-timeseries.csv", sweep::sweep_timeseries_csv)],
        },
        // Offered request rate × attack plan, plus bursty/diurnal
        // baselines: one row per cell-minute, and per-cell phase
        // percentiles with the attack-phase p99 delta.
        Grid {
            name: "load",
            cells: load::load_grid,
            chart: None,
            csvs: &[
                ("load-timeseries.csv", load::load_timeseries_csv),
                ("load-summary.csv", load::load_summary_csv),
            ],
        },
    ]
};

/// Every registered subcommand, for the unknown-experiment error message.
fn registered_subcommands() -> String {
    std::iter::once("all")
        .chain(GRIDS.iter().map(|g| g.name))
        .chain(["audit"])
        .map(str::to_string)
        .chain(ExperimentId::ALL.iter().map(|i| i.to_string()))
        .collect::<Vec<_>>()
        .join(", ")
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        experiment: String::new(),
        scale: Scale::Laptop,
        seed: 1,
        out: None,
        jobs: None,
        observe: None,
        rest: Vec::new(),
    };
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--scale" => {
                let value = raw.next().ok_or("--scale needs a value")?;
                args.scale = value.parse()?;
            }
            "--seed" => {
                let value = raw.next().ok_or("--seed needs a value")?;
                args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
            }
            "--out" => {
                let value = raw.next().ok_or("--out needs a value")?;
                args.out = Some(PathBuf::from(value));
            }
            "--jobs" => {
                let value = raw.next().ok_or("--jobs needs a value")?;
                args.jobs = match value.parse::<usize>() {
                    Ok(jobs) if jobs > 0 => Some(jobs),
                    _ => return Err(format!("bad job count {value:?}")),
                };
            }
            "--observe" => {
                let value = raw.next().ok_or("--observe needs a value")?;
                args.observe = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if args.experiment.is_empty() && !other.starts_with('-') => {
                args.experiment = other.to_string();
            }
            other if !other.starts_with('-') && args.experiment.eq_ignore_ascii_case("audit") => {
                args.rest.push(other.to_string());
            }
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    if args.experiment.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    let all = args.experiment.eq_ignore_ascii_case("all");

    if args.experiment.eq_ignore_ascii_case("audit") {
        run_audit(&args);
        return;
    }
    if let Some(grid) = GRIDS
        .iter()
        .find(|g| args.experiment.eq_ignore_ascii_case(g.name))
    {
        create_output_dirs(&args);
        run_grid(grid, &args);
        return;
    }

    let ids: Vec<ExperimentId> = if all {
        ExperimentId::ALL.to_vec()
    } else {
        match args.experiment.parse::<ExperimentId>() {
            Ok(id) => vec![id],
            Err(err) => {
                eprintln!("error: {err}");
                eprintln!("available: {}", registered_subcommands());
                std::process::exit(2);
            }
        }
    };
    create_output_dirs(&args);

    // Under `repro all --observe DIR`, each workload gets its own
    // artifact subdirectory (the registry included); a single subcommand
    // writes into DIR directly.
    let registry_args = sub_observe_args(&args, "registry", all);
    let observing = begin_observation(&registry_args);
    for id in ids {
        let started = Instant::now();
        eprintln!(
            "== running {id} at {} scale (seed {}) ==",
            args.scale, args.seed
        );
        // Observing a registry experiment yields the span profile of the
        // whole experiment as one cell (its scenarios run unobserved), not
        // a journal.
        let result = observe::run_observed(observing, &id.to_string(), || {
            (
                run_experiment(id, args.scale, args.seed),
                observe::CellReport::empty(),
            )
        });
        println!("{}", result.render());
        eprintln!("== {id} done in {:.1?} ==\n", started.elapsed());
        if let Some(dir) = &args.out {
            write_csvs(dir, &result);
        }
    }
    finish_observation(
        &registry_args,
        if all { "registry" } else { &args.experiment },
    );

    // `repro all` reproduces *everything*: after the figure/table
    // registry, run every grid workload too.
    if all {
        for grid in &GRIDS {
            run_grid(grid, &sub_observe_args(&args, grid.name, all));
        }
    }
}

/// A copy of `args` whose `--observe` directory is redirected into the
/// per-workload subdirectory when running under `repro all`.
fn sub_observe_args(args: &Args, name: &str, all: bool) -> Args {
    let mut sub = args.clone();
    if all {
        sub.observe = args.observe.as_ref().map(|dir| dir.join(name));
    }
    sub
}

/// Starts observation collection for a grid when `--observe` is on.
/// Returns whether the grid's cells should run with `observe` set.
fn begin_observation(args: &Args) -> bool {
    if args.observe.is_some() {
        observe::begin_collection();
        true
    } else {
        false
    }
}

/// Drains the observation collector and writes the artifact set into the
/// `--observe` directory (no-op without the flag).
fn finish_observation(args: &Args, experiment: &str) {
    let Some(dir) = &args.observe else { return };
    let observations = observe::end_collection();
    let meta = observe::RunMeta {
        experiment: experiment.to_string(),
        scale: args.scale.to_string(),
        seed: args.seed,
    };
    match observe::write_artifacts(dir, &meta, &observations) {
        Ok(()) => eprintln!(
            "wrote observe artifacts ({} cells) to {}",
            observations.len(),
            dir.display()
        ),
        Err(err) => {
            eprintln!(
                "error writing observe artifacts to {}: {err}",
                dir.display()
            );
            std::process::exit(1);
        }
    }
}

/// `repro audit RUN_A RUN_B`: parses both runs' `audit-chain.csv` (each
/// argument an `--observe` directory, or the file itself) and reports the
/// first divergent `(cell, minute)` — exit 0 on a clean match, 1 on
/// divergence, 2 on usage or parse errors.
fn run_audit(args: &Args) {
    let [run_a, run_b] = &args.rest[..] else {
        eprintln!("usage: repro audit RUN_A RUN_B\n(each an --observe directory containing audit-chain.csv, or the file itself)");
        std::process::exit(2);
    };
    let load = |raw: &str| -> observe::AuditChains {
        let mut path = PathBuf::from(raw);
        if path.is_dir() {
            path = path.join("audit-chain.csv");
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|err| {
            eprintln!("error reading {}: {err}", path.display());
            std::process::exit(2);
        });
        observe::parse_audit_chain(&text).unwrap_or_else(|err| {
            eprintln!("error parsing {}: {err}", path.display());
            std::process::exit(2);
        })
    };
    let report = observe::compare_audit_chains(&load(run_a), &load(run_b));
    match report.divergence {
        None => println!(
            "audit: {} cells, {} sealed minutes, zero divergence",
            report.cells, report.minutes
        ),
        Some(div) => {
            println!(
                "first divergence at cell={} minute={}",
                div.cell, div.minute
            );
            eprintln!("  {}", div.detail);
            std::process::exit(1);
        }
    }
}

/// Runs one grid: builds its cells (observed under `--observe`), executes
/// them on `--jobs` workers with one progress line per finished cell,
/// prints the grid's chart, and writes each CSV to `--out DIR` (or prints
/// it without the flag).
fn run_grid(grid: &Grid, args: &Args) {
    let mut cells = (grid.cells)(args.scale, args.seed);
    if begin_observation(args) {
        for cell in &mut cells {
            cell.base.observe = true;
        }
    }
    eprintln!(
        "== running {} {} cells at {} scale (seed {}) ==",
        cells.len(),
        grid.name,
        args.scale,
        args.seed
    );
    let mut runner = MatrixRunner::new();
    if let Some(jobs) = args.jobs {
        runner = runner.scenario_threads(jobs);
    }
    let started = Instant::now();
    let outcomes = runner.run_tasks(&cells, run_cell, |index, outcome| {
        let kappa = outcome
            .points
            .last()
            .map(|p| p.report.min_connectivity)
            .or_else(|| Some(outcome.load.as_ref()?.points.last()?.kappa_min));
        eprintln!(
            "[{}/{}] {}: final κ_min={} spent {} compromises",
            index + 1,
            cells.len(),
            outcome.scenario.base.name,
            kappa.unwrap_or(0),
            outcome.budget_spent,
        );
    });
    if let Some(chart) = grid.chart {
        println!("{}", chart(&outcomes));
    }
    for (file, render) in grid.csvs {
        let csv = render(&outcomes);
        match &args.out {
            Some(dir) => write_output(dir, file, &csv),
            None => println!("{csv}"),
        }
    }
    finish_observation(args, grid.name);
    eprintln!("== {} done in {:.1?} ==", grid.name, started.elapsed());
}

/// Creates the `--out` and `--observe` directories before any cell runs,
/// so an unusable path fails at once instead of after the whole run;
/// exits 1 on an I/O error.
fn create_output_dirs(args: &Args) {
    for dir in [&args.out, &args.observe].into_iter().flatten() {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("error writing {}: {err}", dir.display());
            std::process::exit(1);
        }
    }
}

/// Writes one output file into `dir` (created if absent); exits 1 on an
/// I/O error.
fn write_output(dir: &Path, file: &str, contents: &str) {
    let path = dir.join(file);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(err) => {
            eprintln!("error writing {}: {err}", path.display());
            std::process::exit(1);
        }
    }
}

fn write_csvs(dir: &Path, result: &ExperimentResult) {
    for (i, figure) in result.figures.iter().enumerate() {
        let file = format!("{}-figure{}.csv", result.name, i);
        write_output(dir, &file, &figure.to_csv());
    }
    for (i, table) in result.tables.iter().enumerate() {
        let file = format!("{}-table{}.csv", result.name, i);
        write_output(dir, &file, &table.to_csv());
    }
}
