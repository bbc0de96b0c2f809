//! `steady-1k` and `steady-10k`: the simulator alone, on PR 10's pinned
//! load cell, driven through raw `SimNetwork` calls.
//!
//! Lossless, no churn: `dessim` and the `kademlia` read path do all the
//! work, `flowgraph` and `kad_resilience` none. Load is closed-loop in
//! simulated time — each minute's traffic is injected at the minute
//! boundary and the event loop drains to the next one — and every target
//! is drawn before the clock starts.

use crate::harness::{Check, Measured, RunArgs};
use crate::machine;
use crate::probes::{self, CounterDelta, ReplayMix};
use crate::spec;
use crate::stats::{self, Fnv};
use crate::trace::{Tracer, TIMED};
use dessim::metrics::Counters;
use dessim::time::{SimDuration, SimTime};
use dessim::transport::Transport;
use kad_telemetry::{DefenseAction, LookupRecord, TelemetrySink, TracePurpose};
use kademlia::config::{KademliaConfig, RefreshPolicy};
use kademlia::contact::NodeAddr;
use kademlia::id::NodeId;
use kademlia::lookup::LookupPurpose;
use kademlia::network::SimNetwork;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The pinned cell's protocol: b=160, k=20, α=3, s=1, margin-3 refresh.
pub fn cell_config() -> KademliaConfig {
    KademliaConfig::builder()
        .k(20)
        .staleness_limit(1)
        .refresh_policy(RefreshPolicy::OccupiedWithMargin(3))
        .build()
        .expect("the pinned cell's config is valid")
}

/// Builds the pinned cell's overlay: `n` joins spread over the first 20
/// simulated minutes, then stabilisation to minute 80 (one full
/// bucket-refresh round) — the same recipe as the `perf_scale` bench.
pub fn build_overlay(n: usize, seed: u64) -> SimNetwork {
    let mut net = SimNetwork::new(cell_config(), Transport::default(), seed);
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

/// One simulated minute of pre-drawn traffic: 1 lookup per node and 1
/// store per 8 nodes, as `(origin, target)`.
struct MinutePlan {
    lookups: Vec<(NodeAddr, NodeId)>,
    stores: Vec<(NodeAddr, NodeId)>,
}

impl MinutePlan {
    fn draw(alive: &[NodeAddr], rng: &mut SmallRng, bits: u16) -> MinutePlan {
        let n = alive.len();
        let mut pick = |count: usize| -> Vec<(NodeAddr, NodeId)> {
            (0..count)
                .map(|_| (alive[rng.random_range(0..n)], NodeId::random(rng, bits)))
                .collect()
        };
        MinutePlan {
            lookups: pick(n),
            stores: pick(n / 8),
        }
    }

    fn ops(&self) -> u64 {
        (self.lookups.len() + self.stores.len()) as u64
    }

    /// Injects the minute's traffic; returns how many injections the
    /// program refused.
    fn inject(&self, net: &mut SimNetwork) -> u64 {
        let mut refused = 0;
        for &(origin, target) in &self.lookups {
            refused += u64::from(net.start_lookup(origin, target).is_none());
        }
        for &(origin, key) in &self.stores {
            refused += u64::from(net.start_store(origin, key).is_none());
        }
        refused
    }
}

/// Counts lookup completions by purpose; the traced runs' only addition to
/// the simulator's own path.
#[derive(Debug, Default)]
pub struct CountingSink {
    pub data_lookups: u64,
    pub data_successes: u64,
    pub data_rpcs: u64,
    pub defense_actions: u64,
}

impl TelemetrySink for CountingSink {
    fn on_lookup(&mut self, record: &LookupRecord) {
        if matches!(
            record.purpose,
            TracePurpose::Locate | TracePurpose::Disseminate
        ) {
            self.data_lookups += 1;
            self.data_successes += u64::from(record.outcome.is_success());
            self.data_rpcs += u64::from(record.messages);
        }
    }

    fn on_defense(&mut self, _action: DefenseAction) {
        self.defense_actions += 1;
    }
}

/// Data lookups (locate, disseminate) still in progress on alive nodes.
/// After the final drain this is the count of operations the program
/// accepted and never finished.
pub fn unfinished_data_lookups(net: &SimNetwork) -> u64 {
    net.alive_addrs()
        .into_iter()
        .map(|addr| {
            net.node(addr)
                .lookups
                .iter()
                .filter(|l| {
                    matches!(
                        l.purpose(),
                        LookupPurpose::Locate | LookupPurpose::Disseminate
                    )
                })
                .count() as u64
        })
        .sum()
}

/// FNV-1a over every counter, the alive count and the snapshot's edge
/// count: a speed-only change must leave it untouched.
pub fn simulation_digest(counters: &Counters, alive: usize, edges: usize) -> u64 {
    let mut h = Fnv::default();
    for (name, value) in counters.iter() {
        h.str(name);
        h.u64(value);
    }
    h.u64(alive as u64);
    h.u64(edges as u64);
    h.finish()
}

/// A simulator workload's end state.
pub struct Drained {
    /// Data lookups still in progress on alive nodes.
    pub unfinished: u64,
    pub alive: usize,
    pub edges: usize,
    pub digest: u64,
}

/// Final drain: two idle simulated minutes let every in-flight lookup
/// terminate; what is still unfinished then was accepted and never
/// completed. The digest covers the drained state.
pub fn drain_and_digest(net: &mut SimNetwork) -> Drained {
    net.run_until(net.now() + SimDuration::from_minutes(2));
    let (alive, edges) = (net.alive_count(), net.snapshot().edge_count());
    Drained {
        unfinished: unfinished_data_lookups(net),
        alive,
        edges,
        digest: simulation_digest(net.counters(), alive, edges),
    }
}

/// The simulated counts `kadbench agree` requires to repeat exactly.
pub fn exact_counts(
    delta: &CounterDelta<'_>,
    alive: usize,
    edges: usize,
) -> Vec<(&'static str, u64)> {
    vec![
        ("msg_sent", delta.get("msg_sent")),
        ("rpc_sent", delta.get("rpc_sent")),
        ("rpc_timeout", delta.get("rpc_timeout")),
        ("lookup_started", delta.get("lookup_started")),
        ("store_started", delta.get("store_started")),
        ("lookup_finished", delta.get("lookup_finished")),
        ("contact_evicted", delta.get("contact_evicted")),
        ("alive", alive as u64),
        ("edges", edges as u64),
    ]
}

/// The `kademlia.*` and `dessim.*` figures every simulator workload
/// derives from its counter deltas and its time inside `run_until`.
pub fn counter_layer_metrics(
    m: &mut Measured,
    delta: &CounterDelta<'_>,
    minutes: u64,
    run_secs: f64,
    seed: u64,
    timeout_ms: u64,
) {
    m.layer(
        "kademlia.run_ns_per_msg",
        probes::ratio(run_secs * 1e9, delta.get("msg_sent") as f64),
    );
    m.layer(
        "kademlia.run_us_per_lookup",
        probes::ratio(run_secs * 1e6, delta.get("lookup_finished") as f64),
    );
    m.layer(
        "kademlia.msgs_per_sim_min",
        delta.get("msg_sent") as f64 / minutes as f64,
    );
    m.layer(
        "kademlia.rpc_timeout_share",
        delta.per("rpc_timeout", "rpc_sent"),
    );
    m.layer(
        "kademlia.evictions_per_sim_min",
        delta.get("contact_evicted") as f64 / minutes as f64,
    );
    m.layer(
        "dessim.timer_cancel_share",
        delta.per("response_received", "rpc_sent"),
    );
    let replay = probes::dessim_replay(ReplayMix::per_minute(delta, minutes), timeout_ms, seed);
    m.layer("dessim.replay_ns_per_event", replay.ns_per_event);
    m.layer(
        "dessim.replay_share",
        probes::ratio(replay.secs_per_minute, run_secs / minutes as f64),
    );
}

/// The sink-derived figures (traced runs).
pub fn sink_layer_metrics(m: &mut Measured, sink: &CountingSink) {
    m.layer(
        "kademlia.lookup_success_share",
        probes::ratio(sink.data_successes as f64, sink.data_lookups as f64),
    );
    m.layer(
        "kademlia.msgs_per_lookup",
        probes::ratio(sink.data_rpcs as f64, sink.data_lookups as f64),
    );
}

/// The `kademlia.*` figures probed on the built overlay and the per-minute
/// samples: build cost per node, the minute tail, `closest_into` over 10k
/// pre-drawn targets, `snapshot`.
pub fn overlay_layer_metrics(
    m: &mut Measured,
    net: &SimNetwork,
    nodes: usize,
    build_s: f64,
    seed: u64,
) {
    m.layer("kademlia.build_us_per_node", build_s * 1e6 / nodes as f64);
    m.layer(
        "kademlia.minute_ms_p95",
        stats::percentile(&m.unit_ms, 0.95),
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc105e);
    let targets = probes::draw_targets(&mut rng, net.config().bits, 10_000);
    m.layer(
        "kademlia.closest_into_ns",
        probes::closest_into_ns(net, &targets),
    );
    m.layer("kademlia.snapshot_ms", probes::snapshot_ms(net));
}

/// Runs `steady-1k` or `steady-10k`.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Measured {
    let sizes = spec::sizes(args.workload, args.quick);
    let minutes = args.timed_minutes();
    let mut m = Measured {
        lengths: vec![("nodes", sizes.nodes as u64), ("timed_minutes", minutes)],
        ..Measured::default()
    };

    // Set-up: build and stabilise the overlay, pre-draw every minute's
    // traffic, then one untimed warm minute so pools reach their
    // high-water marks before the clock starts.
    let mut built = None;
    for _ in 0..sizes.setup_reps {
        let start = Instant::now();
        let mut net = build_overlay(sizes.nodes, args.seed);
        let build_s = start.elapsed().as_secs_f64();
        let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x7ea_ff1c);
        let bits = net.config().bits;
        let alive = net.alive_addrs();
        let warm = MinutePlan::draw(&alive, &mut rng, bits);
        let plans: Vec<MinutePlan> = (0..minutes)
            .map(|_| MinutePlan::draw(&alive, &mut rng, bits))
            .collect();
        let end = net.now() + SimDuration::from_minutes(1);
        warm.inject(&mut net);
        net.run_until(end);
        m.setup_s.push(start.elapsed().as_secs_f64());
        built = Some((net, plans, build_s));
    }
    let (mut net, plans, build_s) = built.expect("at least one set-up");

    let sink = Rc::new(RefCell::new(CountingSink::default()));
    if args.trace {
        net.set_telemetry_sink(Box::new(Rc::clone(&sink)));
    }

    // Timed phase.
    let before = net.counters().clone();
    let mut refused = 0u64;
    let mut inject_s = 0.0;
    let mut run_s = 0.0;
    let timed = tracer.open(TIMED);
    let timed_start = Instant::now();
    for plan in &plans {
        let minute = tracer.open("minute");
        let minute_start = Instant::now();
        let end = net.now() + SimDuration::from_minutes(1);
        let (r, secs) = tracer.span("kademlia.inject", || plan.inject(&mut net));
        refused += r;
        inject_s += secs;
        let ((), secs) = tracer.span("kademlia.run_until", || net.run_until(end));
        run_s += secs;
        m.unit_ms.push(minute_start.elapsed().as_secs_f64() * 1e3);
        tracer.close(minute);
    }
    m.wall_s = timed_start.elapsed().as_secs_f64();
    tracer.close(timed);
    m.peak_rss_mb = machine::peak_rss_mb();
    m.work_items = minutes as f64;
    let after_timed = net.counters().clone();

    let Drained {
        unfinished,
        alive,
        edges,
        digest,
    } = drain_and_digest(&mut net);
    let ops: u64 = plans.iter().map(MinutePlan::ops).sum();
    m.attempted = ops;
    m.failed = refused + unfinished;
    m.digest = digest;
    let delta = CounterDelta {
        before: &before,
        after: &after_timed,
    };
    m.counts = exact_counts(&delta, alive, edges);
    m.checks.push(Check::new(
        "lossless_lookups_finish",
        (unfinished as f64) <= 0.001 * ops as f64 && refused == 0,
        format!("{ops} injected, {refused} refused, {unfinished} unfinished after the drain"),
    ));
    m.checks.push(Check::new(
        "overlay_intact",
        alive == sizes.nodes,
        format!("{alive} of {} nodes alive", sizes.nodes),
    ));
    m.check_pins(args, None);

    if args.trace {
        let timeout_ms = net.config().rpc_timeout.as_millis();
        counter_layer_metrics(&mut m, &delta, minutes, run_s, args.seed, timeout_ms);
        sink_layer_metrics(&mut m, &sink.borrow());
        m.layer("kademlia.inject_us_per_op", inject_s * 1e6 / ops as f64);
        overlay_layer_metrics(&mut m, &net, sizes.nodes, build_s, args.seed);
    }
    m
}
