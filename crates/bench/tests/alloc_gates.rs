//! Zero-allocation gates for the two hot loops the design keeps off the
//! allocator: the simulator's event loop and the κ kernel's pair sweep.
//!
//! A counting global allocator tallies every `alloc`/`realloc` per thread,
//! so the tests of this binary can run in parallel without counting each
//! other's allocations. Each gate first warms its subject — one minute, or
//! one sweep — so every pool and scratch buffer reaches its high-water
//! mark, then asserts that a
//! full steady-state unit of work — one simulated minute of the pinned
//! load cell, or three kernel sweeps — records exactly zero allocations.

use dessim::time::{SimDuration, SimTime};
use dessim::transport::Transport;
use flowgraph::generators;
use kad_bench::support::overlay_graph;
use kad_resilience::pair::PairEvaluator;
use kad_resilience::SolverKind;
use kad_telemetry::{NoopSink, TelemetrySink};
use kademlia::config::{KademliaConfig, RefreshPolicy};
use kademlia::contact::NodeAddr;
use kademlia::id::NodeId;
use kademlia::network::SimNetwork;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with its arguments unchanged,
// so `System`'s `GlobalAlloc` guarantees carry over; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `body` performs on the calling thread.
fn allocations_during(body: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    body();
    ALLOCATIONS.with(Cell::get) - before
}

/// The pinned load cell: paper protocol (b=160, k=20, α=3) at s=1 with
/// margin-3 refresh, joins spread over the first 20 simulated minutes,
/// then stabilised to minute 80.
fn pinned_overlay(n: usize) -> SimNetwork {
    let config = KademliaConfig::builder()
        .k(20)
        .staleness_limit(1)
        .refresh_policy(RefreshPolicy::OccupiedWithMargin(3))
        .build()
        .expect("valid config");
    let mut net = SimNetwork::new(config, Transport::default(), 11);
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

/// One minute of pre-drawn traffic — 1 lookup per node, 1 store per 8
/// nodes — so the generator's own allocations stay outside the count.
struct TrafficPlan {
    alive: Vec<NodeAddr>,
    lookups: Vec<(usize, NodeId)>,
    stores: Vec<(usize, NodeId)>,
}

fn plan_minute(net: &SimNetwork, rng: &mut SmallRng) -> TrafficPlan {
    let bits = net.config().bits;
    let alive = net.alive_addrs();
    let n = alive.len();
    let mut draw = |count: usize| -> Vec<(usize, NodeId)> {
        (0..count)
            .map(|_| (rng.random_range(0..n), NodeId::random(rng, bits)))
            .collect()
    };
    let lookups = draw(n);
    let stores = draw(n / 8);
    TrafficPlan {
        alive,
        lookups,
        stores,
    }
}

/// Injects the plan and drains the event queue to the minute's end.
fn drive_minute(net: &mut SimNetwork, plan: &TrafficPlan) {
    let end = net.now() + SimDuration::from_minutes(1);
    for &(origin, target) in &plan.lookups {
        net.start_lookup(plan.alive[origin], target);
    }
    for &(origin, key) in &plan.stores {
        net.start_store(plan.alive[origin], key);
    }
    net.run_until(end);
}

/// One warm-up minute fills every pool; the next full minute must not
/// touch the allocator at all. With `sink`, the minute runs with that
/// telemetry sink installed, as every grid cell does.
fn assert_steady_minute_allocates_nothing(n: usize, sink: Option<Box<dyn TelemetrySink>>) {
    let mut net = pinned_overlay(n);
    let with_sink = sink.is_some();
    if let Some(sink) = sink {
        net.set_telemetry_sink(sink);
    }
    let mut rng = SmallRng::seed_from_u64(7);
    let warm = plan_minute(&net, &mut rng);
    drive_minute(&mut net, &warm);
    let plan = plan_minute(&net, &mut rng);
    let during = allocations_during(|| drive_minute(&mut net, &plan));
    assert_eq!(
        during, 0,
        "n={n}, sink {with_sink}: the event loop allocated {during} times across a steady-state minute"
    );
}

#[test]
fn steady_state_minute_allocates_nothing_at_n1000() {
    assert_steady_minute_allocates_nothing(1000, None);
}

#[test]
fn steady_state_minute_allocates_nothing_at_n4000() {
    assert_steady_minute_allocates_nothing(4000, None);
}

/// A sink that keeps `wants_traces() == false` must not make the event
/// loop allocate: every lookup's record is built on the stack and handed
/// over by reference.
#[test]
fn steady_state_minute_with_a_flat_sink_allocates_nothing_at_n1000() {
    let sink = NoopSink;
    assert!(!sink.wants_traces(), "the gate covers the flat-record path");
    assert_steady_minute_allocates_nothing(1000, Some(Box::new(sink)));
}

/// The κ kernel reuses its rows and scratch across pairs: after one warm
/// sweep, further sweeps over the same sources allocate nothing, however
/// many pairs they evaluate. The bidirected ring's level graphs run about
/// 200 arcs deep, so its warm sweep grows one `in_alive` bitset per even
/// level, about 100 of them, and the steady sweeps must reuse them all.
#[test]
fn kernel_sweeps_allocate_nothing_per_pair() {
    for (name, g) in [
        ("overlay(120, 10)", overlay_graph(120, 10, 11)),
        ("bidirected_cycle(200)", generators::bidirected_cycle(200)),
    ] {
        let n = g.node_count() as u32;
        let mut eval = PairEvaluator::new(&g, SolverKind::Dinic);
        let mut sweep = || {
            let mut min = u64::MAX;
            for v in 0..4u32 {
                for w in 0..n {
                    if let Some(flow) = eval.connectivity(v, w, None) {
                        min = min.min(flow);
                    }
                }
            }
            std::hint::black_box(min);
        };
        sweep();
        let during = allocations_during(|| (0..3).for_each(|_| sweep()));
        assert_eq!(
            during,
            0,
            "{name}: three steady-state kernel sweeps ({} pairs) allocated {during} times",
            3 * 4 * n
        );
    }
}
