//! Trace-tree overhead: span recording must be free when no sink wants
//! traces and nearly free when one does.
//!
//! The tracing layer (PR 9) hangs an `RpcSpan` off every FIND_NODE /
//! FIND_VALUE a lookup issues, threads causal parents through the event
//! loop, and keeps per-phase exemplar reservoirs in the load telemetry.
//! Both claims the design makes are pinned here on the same pinned load
//! cell (`load-poisson-60-eclipse` at bench scale, seed 1) whose
//! attack-phase p99 delta `latency-attribution.csv` decomposes:
//!
//! * **off = one cached bool** — `load_cell_plain` runs the cell with no
//!   trace-hungry sink installed; no span buffers are ever allocated.
//! * **on ≤ 5 %** — `load_cell_traced` runs the identical cell observed:
//!   every lookup's spans recorded, trace trees assembled and offered to
//!   the exemplar reservoirs (plus the PR 8 journal and span profile).
//!   The acceptance assert interleaves plain/traced runs and fails the
//!   bench if the traced best exceeds the plain best by more than 5 %.
//!
//! The extraction micro-bench (`critical_path_extract`) times walking a
//! deep caused-by chain — artifact-writer cost, never simulation cost.

use criterion::{criterion_group, criterion_main, Criterion};
use kad_experiments::load::{load_grid, run_load, LoadScenario};
use kad_experiments::observe;
use kad_experiments::scale::Scale;
use kad_experiments::AttackPlan;
use kad_telemetry::trace::{LookupOutcome, LookupRecord, TracePurpose, TARGET_BYTES};
use kad_telemetry::{RpcSpan, SpanOutcome, TraceTree};
use std::hint::black_box;
use std::time::Instant;

/// The pinned load cell: Poisson 60 req/min × eclipse at bench scale,
/// seed 1 — the cell the headline attribution decomposes.
fn load_cell(observe: bool) -> LoadScenario {
    let mut cell = load_grid(Scale::Bench, 1)
        .into_iter()
        .find(|cell| {
            cell.load
                .is_some_and(|spec| spec.arrival.mean_rate() == 60.0)
                && cell.attack.is_some_and(|a| a.plan == AttackPlan::Eclipse)
        })
        .expect("grid cell");
    cell.base.observe = observe;
    cell
}

/// A synthetic trace tree with a `depth`-long caused-by chain plus one
/// straggler per link — the worst-case shape for path extraction.
fn deep_tree(depth: u64) -> TraceTree {
    let mut spans = Vec::new();
    for i in 0..depth {
        let (sent, done) = (i * 40, (i + 1) * 40);
        let caused_by = (i > 0).then(|| 2 * i - 1);
        spans.push(RpcSpan {
            rpc_id: 2 * i + 1,
            to_node: i as u32,
            to_compromised: i % 3 == 0,
            sent_ms: sent,
            completed_ms: done,
            outcome: if i % 4 == 0 {
                SpanOutcome::TimedOut
            } else {
                SpanOutcome::Responded
            },
            caused_by,
        });
        spans.push(RpcSpan {
            rpc_id: 2 * i + 2,
            to_node: (depth + i) as u32,
            to_compromised: false,
            sent_ms: sent,
            completed_ms: depth * 40,
            outcome: SpanOutcome::Inflight,
            caused_by,
        });
    }
    TraceTree {
        record: LookupRecord {
            lookup_id: 1,
            target: [0x44; TARGET_BYTES],
            purpose: TracePurpose::Retrieve,
            outcome: LookupOutcome::ValueFound,
            hops: depth as u32,
            messages: spans.len() as u32,
            responded: depth as u32,
            started_ms: 0,
            completed_ms: depth * 40,
        },
        queue_wait_ms: 120,
        spans,
        final_rpc: Some(2 * depth - 1),
    }
}

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.sample_size(10);

    let plain = load_cell(false);
    let traced = load_cell(true);

    group.bench_function("load_cell_plain", |bencher| {
        bencher.iter(|| black_box(run_load(&plain).budget_spent));
    });
    group.bench_function("load_cell_traced", |bencher| {
        bencher.iter(|| black_box(run_load(&traced).budget_spent));
    });

    let tree = deep_tree(64);
    group.bench_function("critical_path_extract", |bencher| {
        bencher.iter(|| black_box(tree.critical_path().attribution.total_ms()));
    });
    group.finish();

    // Acceptance assert 1: tracing an observed load cell costs ≤ 5 %.
    // Interleaved pairs decorrelate machine drift, and comparing the
    // minima strips one-sided scheduler noise (a descheduled run can only
    // inflate a time, never deflate it).
    const RUNS: usize = 9;
    let mut plain_best = f64::INFINITY;
    let mut traced_best = f64::INFINITY;
    for _ in 0..RUNS {
        let started = Instant::now();
        black_box(run_load(&plain).budget_spent);
        plain_best = plain_best.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        black_box(run_load(&traced).budget_spent);
        traced_best = traced_best.min(started.elapsed().as_secs_f64());
    }
    let overhead = traced_best / plain_best - 1.0;
    println!(
        "  load cell: plain {plain_best:.3}s, traced {traced_best:.3}s \
         ({:+.2}% overhead, best of {RUNS} interleaved)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.05,
        "tracing an observed load cell must cost ≤5%: plain {plain_best:.3}s, \
         traced {traced_best:.3}s ({:+.1}%)",
        overhead * 100.0
    );

    // Acceptance assert 2: the traced cell actually captured exemplars,
    // every one conserves, and the artifact writers render them.
    observe::begin_collection();
    black_box(run_load(&traced).budget_spent);
    let observations = observe::end_collection();
    let cell = observations.first().expect("one observed cell collected");
    assert!(!cell.exemplars.is_empty(), "exemplar reservoirs filled");
    for ex in &cell.exemplars {
        assert!(
            ex.tree.conserves(),
            "attribution must conserve on {:?}",
            ex.tree.record
        );
    }
    let csv = observe::latency_attribution_csv(&observations);
    assert!(csv.lines().count() > 1, "attribution rows rendered");
    let json = observe::render_traces_json(&observations);
    assert!(json.contains("\"traceEvents\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
