//! Flight-recorder overhead: the span profiler and journal must be free
//! when off and nearly free when on.
//!
//! The observability layer (PR 8) threads span guards through the session
//! driver, the κ sweep and the lookup dispatcher, and hangs a
//! journal off every observed session. Both claims the design makes are
//! pinned here:
//!
//! * **off = one `Option` check** — `defense_cell_plain` is the same
//!   bench-scale defense cell `perf_session` times; its median must not
//!   move across PRs (the committed `BENCH_summary.json` diff shows it).
//! * **on ≤ 5 %** — `defense_cell_observed` runs the identical cell with
//!   `observe` set: span profile installed, journal recording every
//!   action and sealing every minute. The acceptance assert interleaves
//!   plain/observed runs and fails the bench if the observed median
//!   exceeds the plain median by more than 5 %.
//! * **≥ 95 % attribution** — the observed cell's span profile must
//!   attribute at least 95 % of the root `cell` wall-time to named spans
//!   beneath it (the driver's phase spans), so `profile.csv` explains
//!   where a cell's time went rather than lumping it into the root.
//!
//! The κ sweep pair (`kappa_sweep_plain` / `kappa_sweep_observed`) pins
//! the same off/on contract on the hot kernel alone: the min-κ sweep (one
//! span per source, none per pair) with and without a profile installed on
//! the calling thread.
//!
//! `criterion_main!` writes the machine-readable medians to
//! `BENCH_perf_telemetry.json` (`BENCH_JSON_DIR` overrides the
//! directory); `repro bench` folds them into `BENCH_summary.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use kad_bench::support::overlay_graph;
use kad_experiments::defense::{defense_grid, DefenseScenario};
use kad_experiments::observe;
use kad_experiments::run_defense;
use kad_experiments::scale::Scale;
use kad_resilience::sampled::sampled_connectivity;
use kad_resilience::AnalysisConfig;
use kad_telemetry::span;
use std::hint::black_box;
use std::time::Instant;

/// The bench-scale defense cell every perf PR pins: none policy ×
/// min-cut attack × no churn, with `observe` as requested.
fn defense_cell(observe: bool) -> DefenseScenario {
    let mut cell = defense_grid(Scale::Bench, 1)
        .into_iter()
        .find(|cell| {
            cell.policy == kad_defense::PolicyKind::None
                && !cell.base.churn.is_active()
                && cell
                    .attack
                    .as_ref()
                    .is_some_and(|a| a.plan == kad_experiments::AttackPlan::MinCut)
        })
        .expect("grid cell");
    cell.base.observe = observe;
    cell
}

fn bench_telemetry(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(10);

    let plain = defense_cell(false);
    let observed = defense_cell(true);

    group.bench_function("defense_cell_plain", |bencher| {
        bencher.iter(|| black_box(run_defense(&plain).budget_spent));
    });
    group.bench_function("defense_cell_observed", |bencher| {
        bencher.iter(|| black_box(run_defense(&observed).budget_spent));
    });

    // The κ kernel alone, with and without a profile on this thread.
    let g = overlay_graph(96, 10, 11);
    let config = AnalysisConfig::min_only();
    group.bench_function("kappa_sweep_plain", |bencher| {
        bencher.iter(|| black_box(sampled_connectivity(&g, &config).min));
    });
    group.bench_function("kappa_sweep_observed", |bencher| {
        bencher.iter(|| {
            span::install();
            let min = sampled_connectivity(&g, &config).min;
            black_box(span::take().map(|p| p.len()));
            black_box(min)
        });
    });
    group.finish();

    // Acceptance assert 1: observing a defense cell costs ≤ 5 %.
    // Interleaved pairs decorrelate machine drift from the comparison,
    // and comparing the *minima* strips one-sided scheduler noise (a
    // descheduled run can only inflate a time, never deflate it), so the
    // ratio approximates the true instrumentation cost on shared CI
    // machines instead of whichever run caught a noisy neighbour.
    const RUNS: usize = 9;
    let mut plain_best = f64::INFINITY;
    let mut observed_best = f64::INFINITY;
    for _ in 0..RUNS {
        let started = Instant::now();
        black_box(run_defense(&plain).budget_spent);
        plain_best = plain_best.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        black_box(run_defense(&observed).budget_spent);
        observed_best = observed_best.min(started.elapsed().as_secs_f64());
    }
    let overhead = observed_best / plain_best - 1.0;
    println!(
        "  defense cell: plain {plain_best:.3}s, observed {observed_best:.3}s \
         ({:+.2}% overhead, best of {RUNS} interleaved)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.05,
        "observing a defense cell must cost ≤5%: plain {plain_best:.3}s, \
         observed {observed_best:.3}s ({:+.1}%)",
        overhead * 100.0
    );

    // Acceptance assert 2: ≥95% of the observed cell's wall-time lands
    // in named spans beneath the root, and the profile is internally
    // consistent (every nanosecond attributed exactly once).
    observe::begin_collection();
    black_box(run_defense(&observed).budget_spent);
    let observations = observe::end_collection();
    let profile = &observations
        .first()
        .expect("one observed cell collected")
        .profile;
    let root = profile.get("cell").expect("root cell span");
    assert!(
        root.self_ns * 20 <= root.total_ns,
        "≥95% of cell wall-time must be attributed below the root: \
         self {} of {} ns",
        root.self_ns,
        root.total_ns
    );
    assert_eq!(profile.attributed_ns(), profile.root_total_ns());
    for path in [
        "cell/session",
        "cell/session/on-minute",
        "cell/session/actions",
        "cell/session/drain",
        "cell/session/minute-end",
    ] {
        assert!(profile.get(path).is_some(), "expected span {path:?}");
    }
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
