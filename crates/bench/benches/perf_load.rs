//! Metric-family recording overhead on the load engine's hot path.
//!
//! The load engine installs a [`kad_experiments::load::LoadTelemetry`]
//! sink that fans every completed lookup out into labelled metric
//! families — a `(purpose, outcome, phase)` counter, a per-minute latency
//! histogram family and a found-rate minute series. That is strictly more
//! bookkeeping per record than the service grid's single-histogram sink,
//! and it runs once per request at production rates, so its cost must be
//! measured, not assumed. Two benches drive the *same* FIND_VALUE
//! retrieval workload (the load engine's traffic):
//!
//! * `retrieve_noop_sink` — the floor: [`kad_telemetry::NoopSink`]
//!   installed, so the run pays the sink seam but records nothing;
//! * `retrieve_family_sink` — the full family-recording path.
//!
//! Retrievals run at 60 per simulated minute, the load grid's base rate,
//! in the quiet stretch between two bucket-refresh rounds, so each
//! iteration is one bare retrieval (a few µs) rather than a slice of
//! refresh traffic that would hide the sink's cost.
//!
//! The bench then gates itself: batches on two identical networks whose
//! sinks swap every round, best batch of each sink compared, and it fails
//! if the family path costs more than 10 % over the noop floor. The families are O(1) BTreeMap
//! updates per completed lookup; the design contract is ≤ 5 %, the gate's
//! extra 5 % absorbs shared-machine noise.

use criterion::{criterion_group, criterion_main, Criterion};
use dessim::time::{SimDuration, SimTime};
use kad_bench::support::stabilized_network;
use kad_experiments::load::LoadTelemetry;
use kad_telemetry::{NoopSink, TelemetrySink};
use kademlia::contact::NodeAddr;
use kademlia::id::NodeId;
use kademlia::network::SimNetwork;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// A stabilised 100-node overlay holding one stored key, retrieved over
/// and over from random alive nodes.
struct Retriever {
    net: SimNetwork,
    rng: SmallRng,
    key: NodeId,
    alive: Vec<NodeAddr>,
}

impl Retriever {
    fn new() -> Self {
        let mut net = stabilized_network(100, 20, 3);
        let mut rng = SmallRng::seed_from_u64(2);
        let key = NodeId::random(&mut rng, net.config().bits);
        net.start_store(net.alive_addrs()[0], key);
        // Joins 10 s apart put every node's hourly bucket refresh between
        // minutes 120 and ~137; retrievals start after that round and the
        // next one begins at minute 180.
        net.run_until(SimTime::from_minutes(145));
        let alive = net.alive_addrs();
        Retriever {
            net,
            rng,
            key,
            alive,
        }
    }

    /// Installs a fresh family-recording sink, or the noop floor.
    fn install(&mut self, family: bool) {
        let sink: Box<dyn TelemetrySink> = if family {
            Box::new(LoadTelemetry::new(u64::MAX))
        } else {
            Box::new(NoopSink)
        };
        self.net.set_telemetry_sink(sink);
    }

    /// One FIND_VALUE, drained for one simulated second.
    fn retrieve(&mut self) -> u64 {
        let from = self.alive[self.rng.random_range(0..self.alive.len())];
        self.net.start_find_value(from, self.key);
        self.net
            .run_until(self.net.now() + SimDuration::from_secs(1));
        self.net.counters().get("value_hit")
    }
}

fn bench_load_sink(c: &mut Criterion) {
    let mut group = c.benchmark_group("load_sink");
    // The recording delta is small against per-iteration noise; a larger
    // sample keeps the median meaningful.
    group.sample_size(40);
    for (id, family) in [
        ("retrieve_noop_sink", false),
        ("retrieve_family_sink", true),
    ] {
        group.bench_function(id, |bencher| {
            let mut retriever = Retriever::new();
            retriever.install(family);
            bencher.iter(|| black_box(retriever.retrieve()));
        });
    }
    group.finish();

    // The gate. Two identical networks replay the same retrievals (a sink
    // never changes the simulation), so batch `i` is the same work on
    // either; the sinks swap networks every round, which cancels any
    // difference between the two instances and the order they run in.
    // Comparing minima strips one-sided scheduler noise. Twelve batches
    // of 150 stay inside the quiet half hour.
    const RUNS: usize = 12;
    const BATCH: usize = 150;
    let mut nets = [Retriever::new(), Retriever::new()];
    let mut best = [f64::INFINITY; 2]; // [noop, family]
    for run in 0..RUNS {
        for (i, retriever) in nets.iter_mut().enumerate() {
            let family = (run + i) % 2 == 1;
            retriever.install(family);
            let started = Instant::now();
            for _ in 0..BATCH {
                black_box(retriever.retrieve());
            }
            let side = &mut best[usize::from(family)];
            *side = side.min(started.elapsed().as_secs_f64());
        }
    }
    let [noop_best, family_best] = best;
    let overhead = family_best / noop_best - 1.0;
    println!(
        "  {BATCH} retrievals: noop {:.3} ms, family sink {:.3} ms \
         ({:+.2}% overhead, best of {RUNS} each, interleaved)",
        noop_best * 1e3,
        family_best * 1e3,
        overhead * 100.0
    );
    assert!(
        overhead <= 0.10,
        "family-recording sink must cost ≤10% over the noop floor: {:+.1}%",
        overhead * 100.0
    );
}

criterion_group!(benches, bench_load_sink);
criterion_main!(benches);
