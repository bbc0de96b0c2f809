//! Session-engine dispatch overhead.
//!
//! PR 4's `perf_defense` pinned the defense seam at below-noise cost;
//! this bench pins the cost of the session-engine refactor the same way:
//! the minute loop now reaches every per-minute behavior through
//! `&mut dyn MinuteActor`, and that indirection must stay ≤ ~5 % of a
//! bench-scale defense cell. Three measurements triangulate it:
//!
//! * `defense_cell` — one full bench-scale defense grid cell through the
//!   ported `run_defense` (the end-to-end denominator; directly
//!   comparable with the per-cell times `perf_defense`-era `repro
//!   defend` reported: ~32 cells in ~7 s single-core ⇒ ~220 ms/cell);
//! * `campaign_cell` — one bench-scale campaign cell through the ported
//!   `run_campaign` (the lighter workload, same driver);
//! * `driver_dispatch_only` — the driver running the same minute span
//!   over six no-op actors on an *empty* network: no joins, no traffic,
//!   no events — nothing but the loop, the context construction and the
//!   dynamic dispatch (the numerator; divide by `defense_cell` for the
//!   indirection share).
//!
//! `criterion_main!` writes the machine-readable medians to
//! `BENCH_perf_session.json` (`BENCH_JSON_DIR` overrides the directory).

use criterion::{criterion_group, criterion_main, Criterion};
use kad_experiments::campaign::campaign_grid;
use kad_experiments::defense::defense_grid;
use kad_experiments::scale::Scale;
use kad_experiments::scenario::ScenarioBuilder;
use kad_experiments::session::{MinuteActor, SessionDriver};
use kad_experiments::{run_campaign, run_defense};
use std::hint::black_box;

/// An actor that does nothing in both hooks: what remains is the
/// driver's own per-minute cost.
struct NoopActor;

impl MinuteActor for NoopActor {}

fn bench_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("session");
    group.sample_size(10);

    // One real defense cell (none policy × min-cut × no churn — the cell
    // the PR 4 headline test pins).
    let defense_cell = defense_grid(Scale::Bench, 1)
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
    group.bench_function("defense_cell", |bencher| {
        bencher.iter(|| black_box(run_defense(&defense_cell).budget_spent));
    });

    let campaign_cell = campaign_grid(Scale::Bench, 1)
        .into_iter()
        .find(|cell| {
            cell.attack
                .is_some_and(|a| a.plan == kad_experiments::AttackPlan::MinCut)
                && !cell.base.churn.is_active()
        })
        .expect("grid cell");
    group.bench_function("campaign_cell", |bencher| {
        bencher.iter(|| black_box(run_campaign(&campaign_cell).budget_spent));
    });

    // The dispatch-only session: same minute span as the defense cell,
    // six dyn actors (the defense wiring's actor count), zero nodes —
    // the loop and the indirection with nothing behind them.
    let minutes = defense_cell.base.end_minutes();
    let mut b = ScenarioBuilder::quick(1, 8);
    b.name("dispatch-only")
        .seed(1)
        .stabilization_minutes(minutes)
        .churn_minutes(0);
    let empty = b.build();
    group.bench_function("driver_dispatch_only", |bencher| {
        bencher.iter(|| {
            let mut driver = SessionDriver::new(&empty);
            let (mut a1, mut a2, mut a3) = (NoopActor, NoopActor, NoopActor);
            let (mut a4, mut a5, mut a6) = (NoopActor, NoopActor, NoopActor);
            driver.run(&mut [&mut a1, &mut a2, &mut a3, &mut a4, &mut a5, &mut a6]);
            let (net, shared) = driver.finish();
            black_box((net.counters().get("msg_sent"), shared.budget_spent))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_session);
criterion_main!(benches);
