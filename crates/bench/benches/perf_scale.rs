//! Scale bench: minutes-simulated-per-second on 1k–10k-node overlays,
//! plus the zero-allocation gate the scale-leap PR is held to — **zero
//! steady-state heap allocations** across a full simulated minute of the
//! pinned load cell (checked at n=1000, and at n=4000 in the full run).
//!
//! The `throughput` group is what the CI `scale-smoke` job parses out of
//! `BENCH_perf_scale.json`. Set `PERF_SCALE_QUICK=1` to run the n=1000
//! cell only (CI smoke mode); the full run adds n=4000 and n=10000 and is
//! the acceptance benchmark. Pre-refactor baseline (same workload, same
//! machine class) is recorded in REPRODUCING.md; the acceptance bar is a
//! ≥5× minutes-per-second improvement at n=1000.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dessim::time::{SimDuration, SimTime};
use dessim::transport::Transport;
use kad_resilience::{sampled_kappa, snapshot_to_digraph, AnalysisConfig, SampledKappaConfig};
use kademlia::config::{KademliaConfig, RefreshPolicy};
use kademlia::id::NodeId;
use kademlia::network::SimNetwork;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting allocator: same harness the PR 1 `perf_connectivity` bench
/// introduced, extended here to gate the whole event loop.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// CI smoke mode: n=1000 only.
fn quick() -> bool {
    std::env::var("PERF_SCALE_QUICK").is_ok_and(|v| v == "1")
}

/// The pinned load cell: paper protocol (b=160, k=20, α=3) at s=1 with
/// margin-refresh, the same shape `--scale large` runs end-to-end.
fn scale_config() -> KademliaConfig {
    KademliaConfig::builder()
        .k(20)
        .staleness_limit(1)
        .refresh_policy(RefreshPolicy::OccupiedWithMargin(3))
        .build()
        .expect("valid config")
}

/// Builds an n-node overlay: joins spread over the first 20 simulated
/// minutes, then stabilization through one full bucket-refresh round.
fn build_overlay(n: usize, seed: u64) -> SimNetwork {
    let mut net = SimNetwork::new(scale_config(), Transport::default(), seed);
    let join_interval_ms = (20 * 60 * 1000) / n as u64;
    let mut prev = None;
    for i in 0..n {
        let addr = net.spawn_node();
        net.join(addr, prev);
        prev = Some(addr);
        net.run_until(SimTime::from_millis((i as u64 + 1) * join_interval_ms));
    }
    net.run_until(SimTime::from_minutes(80));
    net
}

/// Injects one simulated minute of data traffic (1 lookup per node plus a
/// store per 8 nodes, targets pre-drawn so the generator does not count
/// against the event loop) and drains the event queue to the minute end.
fn drive_minute(net: &mut SimNetwork, plan: &TrafficPlan) {
    let end = net.now() + SimDuration::from_minutes(1);
    for &(origin_idx, target) in &plan.lookups {
        let addrs = &plan.alive;
        net.start_lookup(addrs[origin_idx % addrs.len()], target);
    }
    for &(origin_idx, key) in &plan.stores {
        let addrs = &plan.alive;
        net.start_store(addrs[origin_idx % addrs.len()], key);
    }
    net.run_until(end);
}

/// Pre-drawn traffic for one minute: the bench measures the simulator, not
/// the random-target generator.
struct TrafficPlan {
    alive: Vec<kademlia::contact::NodeAddr>,
    lookups: Vec<(usize, NodeId)>,
    stores: Vec<(usize, NodeId)>,
}

fn plan_minute(net: &SimNetwork, rng: &mut SmallRng, bits: u16) -> TrafficPlan {
    let alive = net.alive_addrs();
    let n = alive.len();
    let lookups = (0..n)
        .map(|_| (rng.random_range(0..n), NodeId::random(rng, bits)))
        .collect();
    let stores = (0..n / 8)
        .map(|_| (rng.random_range(0..n), NodeId::random(rng, bits)))
        .collect();
    TrafficPlan {
        alive,
        lookups,
        stores,
    }
}

/// The zero-allocation gate: after warm-up lets every pool reach its
/// high-water mark, a full simulated minute of the pinned load must not
/// allocate at all on the event loop. Traffic plans are drawn *outside*
/// the counted region (the generator is not the system under test).
fn assert_zero_alloc_minute(net: &mut SimNetwork, rng: &mut SmallRng, bits: u16) {
    // Warm until a full minute records zero allocations (pools converge
    // within a couple of minutes; the bound is generous, not expected).
    let mut warmed = false;
    for _ in 0..8 {
        let plan = plan_minute(net, rng, bits);
        let before = allocations();
        drive_minute(net, &plan);
        if allocations() == before {
            warmed = true;
            break;
        }
    }
    assert!(warmed, "event loop still allocating after 8 warm minutes");
    // The gate proper.
    let plan = plan_minute(net, rng, bits);
    let before = allocations();
    drive_minute(net, &plan);
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "event loop allocated {during} times across the gate minute"
    );
    println!("  zero-alloc gate: 0 allocations across a full simulated minute");
}

/// Estimator/exact tolerance gate, two layers:
///
/// 1. **True agreement** on a cell where exact is affordable: a
///    Kademlia-like k-out graph at n=100 whose exact mean κ the estimator
///    computes exhaustively, then re-estimates under a genuine sampling
///    budget at 99% confidence. The CI must bracket the exact mean — the
///    same property the `kad_resilience` proptests pin, re-asserted here
///    so the CI smoke job fails on estimator drift without a test run.
/// 2. **Invariants** on the real n=1000 overlay snapshot, where exact
///    mean κ is out of budget: the sampled minimum upper-bounds the exact
///    `κ_min` (min-only sweep, the affordable exact path), the
///    strong-connectivity verdicts agree, and the CI is ordered.
fn assert_estimator_agreement(net: &SimNetwork) {
    let g = flowgraph::generators::random_k_out_symmetric(
        100,
        20,
        &mut SmallRng::seed_from_u64(0x5ca1e),
    );
    let exact = sampled_kappa(
        &g,
        &SampledKappaConfig {
            target_pairs: usize::MAX,
            ..Default::default()
        },
    );
    assert!(exact.exact, "full budget must take the exhaustive path");
    let sampled = sampled_kappa(
        &g,
        &SampledKappaConfig {
            target_pairs: 400,
            confidence: 0.99,
            ..Default::default()
        },
    );
    assert!(!sampled.exact, "budget 400 must actually sample");
    assert!(
        sampled.brackets(exact.kappa_est),
        "estimator CI [{:.3}, {:.3}] must bracket the exact mean {:.3}",
        sampled.ci_lo,
        sampled.ci_hi,
        exact.kappa_est,
    );

    let snap = net.snapshot();
    let overlay = snapshot_to_digraph(&snap);
    let est = sampled_kappa(&overlay, &SampledKappaConfig::default());
    let report = kad_resilience::analyze_graph(&overlay, &AnalysisConfig::min_only());
    assert_eq!(
        est.strongly_connected, report.strongly_connected,
        "pre-checks must agree on the live overlay"
    );
    assert!(
        est.min_sampled >= report.min_connectivity,
        "sampled min {} must upper-bound exact κ_min {}",
        est.min_sampled,
        report.min_connectivity,
    );
    assert!(est.ci_lo <= est.kappa_est && est.kappa_est <= est.ci_hi);
    println!(
        "  estimator gate: CI [{:.3}, {:.3}] brackets exact {:.3} at n=100; \
         n=1000 overlay κ_est={:.2} (κ_min exact {} ≤ sampled {})",
        sampled.ci_lo,
        sampled.ci_hi,
        exact.kappa_est,
        est.kappa_est,
        report.min_connectivity,
        est.min_sampled,
    );
}

/// Wall-clock ceiling for one simulated minute at n=10000 — "completes a
/// minute inside the bench budget". Generous against machine noise: the
/// measured figure is ~two orders of magnitude under it.
const N10K_MINUTE_BUDGET: f64 = 60.0;

/// Minutes-simulated-per-second at each network size. n=10000 must finish
/// its measured minutes inside the bench budget — the scale-leap
/// acceptance bar.
fn bench_throughput(c: &mut Criterion) {
    let sizes: &[usize] = if quick() {
        &[1000]
    } else {
        &[1000, 4000, 10000]
    };
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    for &n in sizes {
        let build_start = Instant::now();
        let mut net = build_overlay(n, 11);
        let mut rng = SmallRng::seed_from_u64(7);
        let bits = net.config().bits;
        println!(
            "  n={n}: built in {:.2?}, {} alive, {} msgs",
            build_start.elapsed(),
            net.alive_count(),
            net.counters().get("msg_sent")
        );
        // Warm one minute outside measurement (fills pools, tops up
        // high-water marks), then hold the event loop to zero steady-state
        // allocations — at the acceptance cell and, in the full run, at
        // n=4000 too, so the claim is checked above the cache-resident
        // size.
        let plan = plan_minute(&net, &mut rng, bits);
        drive_minute(&mut net, &plan);
        if n <= 4000 {
            assert_zero_alloc_minute(&mut net, &mut rng, bits);
        }
        if n == 1000 {
            assert_estimator_agreement(&net);
        }
        let measure_start = Instant::now();
        let minutes = 3u32;
        for _ in 0..minutes {
            let plan = plan_minute(&net, &mut rng, bits);
            drive_minute(&mut net, &plan);
        }
        let elapsed = measure_start.elapsed();
        let mins_per_sec = minutes as f64 / elapsed.as_secs_f64();
        println!(
            "  n={n}: {mins_per_sec:.2} simulated minutes/second ({elapsed:.2?} for {minutes} min)"
        );
        if n == 10000 {
            let secs_per_minute = elapsed.as_secs_f64() / minutes as f64;
            assert!(
                secs_per_minute < N10K_MINUTE_BUDGET,
                "n=10000 took {secs_per_minute:.1}s per simulated minute \
                 (budget {N10K_MINUTE_BUDGET}s)"
            );
        }
        group.bench_with_input(
            BenchmarkId::new("simulated_minute", format!("n{n}")),
            &n,
            |bencher, _| {
                bencher.iter(|| {
                    let plan = plan_minute(&net, &mut rng, bits);
                    drive_minute(&mut net, &plan);
                    black_box(net.counters().get("lookup_finished"))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
