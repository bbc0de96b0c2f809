//! Live-κ cost: the default κ engine (`batched: true` — the unit-vertex
//! flow kernel on the graph's CSR rows) against the per-pair baseline
//! (`batched: false` — Dinic on the explicit Even network) on the min-only
//! sweep the session engine runs every simulated minute, plus the headline
//! scale check — exact κ_min at n=1000 inside a one-minute budget.
//!
//! The bench ids keep the `batched_*` / `per_pair_*` names they were first
//! recorded under, so `BENCH_summary.json` stays one series per id. The
//! `kappa` group is what the CI `kappa-perf-smoke` job parses out of
//! `BENCH_perf_kappa.json`: it fails the build unless the default engine's
//! best median is at least 2× faster than the per-pair baseline's. Set
//! `PERF_KAPPA_QUICK=1` to shrink the sweep size and skip the n=1000
//! minute-budget check (CI smoke mode); the full run is the acceptance
//! benchmark.
//!
//! Both engines are asserted equal here before timing anything — the
//! speedup is never allowed to buy a different answer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kad_bench::support::overlay_graph;
use kad_resilience::sampled::sampled_connectivity;
use kad_resilience::AnalysisConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// CI smoke mode: smaller overlay, no minute-budget check.
fn quick() -> bool {
    std::env::var("PERF_KAPPA_QUICK").is_ok_and(|v| v == "1")
}

/// The live sampler's configuration (min-only, cutoff pruning) with the
/// engine pinned.
fn min_only(batched: bool) -> AnalysisConfig {
    AnalysisConfig {
        batched,
        ..AnalysisConfig::min_only()
    }
}

fn bench_min_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("kappa");
    group.sample_size(10);
    let n = if quick() { 96 } else { 256 };
    let g = overlay_graph(n, 10, 11);

    // Engines must agree before either is timed. κ_min is exact under
    // cutoff pruning, so this also pins the value the sampler publishes.
    let batched = sampled_connectivity(&g, &min_only(true));
    let per_pair = sampled_connectivity(&g, &min_only(false));
    assert_eq!(
        batched, per_pair,
        "kernel and per-pair engines must produce identical sweeps"
    );
    println!(
        "  n={n}: κ_min={} over {} sources",
        batched.min, batched.sources_used
    );

    for (id, engine_batched) in [("batched_min_sweep", true), ("per_pair_min_sweep", false)] {
        let config = min_only(engine_batched);
        group.bench_with_input(BenchmarkId::new(id, format!("n{n}")), &g, |bencher, g| {
            bencher.iter(|| black_box(sampled_connectivity(g, &config).min));
        });
    }
    group.finish();
}

/// The acceptance check from the κ-engine PR: one per-minute κ_min sweep
/// at n=1000 (k=20 symmetric overlay, the paper's larger network size
/// scaled 2.5×) must fit inside the simulated minute it accounts for.
fn bench_live_minute(c: &mut Criterion) {
    if quick() {
        println!("  PERF_KAPPA_QUICK=1: skipping the n=1000 minute-budget check");
        return;
    }
    let n = 1000usize;
    let mut rng = SmallRng::seed_from_u64(11);
    let g = flowgraph::generators::random_k_out_symmetric(n, 20, &mut rng);
    let config = min_only(true);

    // One-shot wall-clock budget: a live sampler charges one sweep per
    // simulated minute, so the sweep must cost well under 60 s.
    let start = Instant::now();
    let sweep = sampled_connectivity(&g, &config);
    let elapsed = start.elapsed();
    println!(
        "  n={n}: κ_min={} in {:.2?} (budget: one simulated minute)",
        sweep.min, elapsed
    );
    assert!(
        elapsed.as_secs() < 60,
        "per-minute κ at n={n} took {elapsed:.2?} — over the one-minute budget"
    );

    let mut group = c.benchmark_group("kappa");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("live_minute_kappa", format!("n{n}")),
        &g,
        |bencher, g| {
            bencher.iter(|| black_box(sampled_connectivity(g, &config).min));
        },
    );
    group.finish();
}

criterion_group!(benches, bench_min_sweep, bench_live_minute);
criterion_main!(benches);
