//! The two overhead gates: what recording costs on top of the work it
//! records. Both are wall-clock comparisons, so they only mean something
//! in an optimized build; the dev profile skips them.
//!
//! ```text
//! cargo test --release -p kad_bench --test overhead_gates -- --test-threads=1
//! ```
//!
//! One thread keeps the two timing tests from overlapping when the red
//! trace gate is run too (`--include-ignored`). The trace gate interleaves
//! its two sides and compares the best run of each: a descheduled run can
//! only inflate a time, never deflate it. The load gate reads
//! the median of per-round paired ratios
//! ([`kad_bench::support::paired_ratio_median`]); its two calibration
//! checks, an A/A run and a planted overhead, are ignored and run by name:
//!
//! ```text
//! cargo test --release -p kad_bench --test overhead_gates -- --ignored --test-threads=1 load_gate_
//! ```

use dessim::time::{SimDuration, SimTime};
use kad_bench::support::{paired_ratio_median, stabilized_network};
use kad_experiments::load::{load_grid, LoadTelemetry};
use kad_experiments::runner::{run_cell, LiveCell};
use kad_experiments::scale::Scale;
use kad_experiments::AttackPlan;
use kad_telemetry::{LookupRecord, NoopSink, TelemetrySink, TracePurpose};
use kademlia::contact::NodeAddr;
use kademlia::id::NodeId;
use kademlia::network::SimNetwork;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Paired rounds per load-gate reading.
const ROUNDS: usize = 11;

/// Interleaved slices per side per round, and retrievals per slice: a
/// side totals 2,000 retrievals a round, about 12 ms on the 2-core
/// reference container, in slices of about 0.6 ms.
const SLICES: usize = 20;
const SLICE: usize = 100;

/// A stabilised 100-node overlay holding one stored key, retrieved over
/// and over from random alive nodes.
struct Retriever {
    net: SimNetwork,
    rng: SmallRng,
    key: NodeId,
    alive: Vec<NodeAddr>,
}

impl Retriever {
    /// The overlay at minute 140 with `sink` installed. Joins 10 s apart
    /// put every node's hourly bucket refresh between minutes 120 and
    /// ~137; the next round begins at minute 180, so a round's 2,100
    /// retrievals (a warm-up slice and 20 timed ones) one simulated second
    /// apart stay inside the quiet stretch.
    fn new(sink: Box<dyn TelemetrySink>) -> Self {
        let mut net = stabilized_network(100, 20, 3);
        let mut rng = SmallRng::seed_from_u64(2);
        let key = NodeId::random(&mut rng, net.config().bits);
        net.start_store(net.alive_addrs()[0], key);
        net.run_until(SimTime::from_minutes(140));
        net.set_telemetry_sink(sink);
        let alive = net.alive_addrs();
        Retriever {
            net,
            rng,
            key,
            alive,
        }
    }

    /// One FIND_VALUE, drained for one simulated second.
    fn retrieve(&mut self) -> u64 {
        let from = self.alive[self.rng.random_range(0..self.alive.len())];
        self.net.start_find_value(from, self.key);
        self.net
            .run_until(self.net.now() + SimDuration::from_secs(1));
        self.net.counters().get("value_hit")
    }

    /// One slice of [`SLICE`] retrievals.
    fn slice(&mut self) {
        for _ in 0..SLICE {
            black_box(self.retrieve());
        }
    }
}

/// What `sink()` costs over the [`NoopSink`] floor: the median over
/// [`ROUNDS`] paired rounds of the per-round time ratio, minus one. Each
/// round builds two identical overlays, one per side; a sink never
/// changes the simulation, so both replay the same retrievals slice by
/// slice.
fn sink_overhead(sink: impl Fn() -> Box<dyn TelemetrySink>) -> f64 {
    paired_ratio_median(
        ROUNDS,
        SLICES,
        |treated| Retriever::new(if treated { sink() } else { Box::new(NoopSink) }),
        Retriever::slice,
    ) - 1.0
}

/// The load engine's [`LoadTelemetry`] sink records every completed
/// retrieval into a per-minute latency histogram and a found-rate series:
/// two BTreeMap updates keyed by minute. The design contract is ≤ 5 %
/// over the [`NoopSink`] floor; the gate's extra 5 % absorbs
/// shared-machine noise.
///
/// Retrievals run at 60 per simulated minute, the load grid's base rate,
/// in the quiet stretch between two bucket-refresh rounds, so each one is
/// a bare retrieval rather than a slice of refresh traffic that would
/// hide the sink's cost.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn load_sink_costs_at_most_10_percent_over_the_noop_floor() {
    let overhead = sink_overhead(|| Box::new(LoadTelemetry::new(u64::MAX)));
    println!(
        "  load sink {:+.2}% over noop (median of {ROUNDS} paired rounds)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.10,
        "load-telemetry sink must cost ≤10% over the noop floor: {:+.1}%",
        overhead * 100.0
    );
}

/// `iterations` turns of an empty loop the optimizer must keep: work that
/// slows down and speeds up with the host, like the retrievals it is
/// weighed against.
fn spin(iterations: u64) {
    for i in 0..iterations {
        black_box(i);
    }
}

/// A test-only sink that spins a fixed number of iterations per completed
/// retrieval: a planted overhead of known size.
struct SpinSink(u64);

impl TelemetrySink for SpinSink {
    fn on_lookup(&mut self, record: &LookupRecord) {
        if record.purpose == TracePurpose::Retrieve {
            spin(self.0);
        }
    }
}

/// Calibration, A/A: the noop sink on both sides must read within half
/// the load gate's bound, ±5 %.
#[test]
#[ignore = "calibration of the load gate: run by name in release (module docs)"]
fn load_gate_reads_noop_against_noop_within_half_its_bound() {
    let overhead = sink_overhead(|| Box::new(NoopSink));
    println!("  A/A: noop {:+.2}% over noop", overhead * 100.0);
    assert!(
        overhead.abs() <= 0.05,
        "noop against noop read {:+.1}%",
        overhead * 100.0
    );
}

/// Calibration, power: a sink that spins for 20 % of a noop retrieval's
/// time, twice the gate's bound, must fail the gate. The spin is sized
/// against retrievals timed as the gate times them, two overlays taking
/// turns slice by slice, with a spin probe after each slice so that both
/// see the same host speed. Each slice yields one ratio, spin turns per
/// retrieval, and the spin is sized from their median, so one slice or
/// probe that a descheduling slowed cannot move it.
#[test]
#[ignore = "calibration of the load gate: run by name in release (module docs)"]
fn load_gate_catches_a_planted_20_percent_overhead() {
    const PROBE: u64 = 100_000;
    let mut pair = [
        Retriever::new(Box::new(NoopSink)),
        Retriever::new(Box::new(NoopSink)),
    ];
    let mut ratios: Vec<f64> = (0..SLICES)
        .map(|_| {
            let started = Instant::now();
            for retriever in &mut pair {
                retriever.slice();
            }
            let per_retrieval = started.elapsed().as_secs_f64() / (2 * SLICE) as f64;
            let started = Instant::now();
            spin(PROBE);
            let per_turn = started.elapsed().as_secs_f64() / PROBE as f64;
            per_retrieval / per_turn
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let turns_per_retrieval = ratios[SLICES / 2];
    let turns = (0.2 * turns_per_retrieval).round() as u64;
    let overhead = sink_overhead(|| Box::new(SpinSink(turns)));
    println!(
        "  planted {turns} turns per retrieval of {turns_per_retrieval:.0} turns: {:+.2}% over noop",
        overhead * 100.0
    );
    assert!(
        overhead > 0.10,
        "a planted 20% overhead passed the 10% gate: {:+.1}%",
        overhead * 100.0
    );
}

/// The pinned load cell: Poisson 60 req/min × eclipse at bench scale,
/// seed 1 — the cell the headline attribution decomposes.
fn load_cell(observe: bool) -> LiveCell {
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

/// Tracing an observed load cell — every lookup's spans recorded, trace
/// trees assembled and offered to the exemplar reservoirs, plus the
/// journal and span profile — must cost ≤ 5 % over the same cell run
/// plain.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
#[cfg_attr(
    not(debug_assertions),
    ignore = "red until ROADMAP item 4 cuts tracing cost: median +21.2 % over 9 runs against its 5 % bound"
)]
fn traced_load_cell_costs_at_most_5_percent_over_plain() {
    const RUNS: usize = 9;
    let plain = load_cell(false);
    let traced = load_cell(true);
    let mut plain_best = f64::INFINITY;
    let mut traced_best = f64::INFINITY;
    for _ in 0..RUNS {
        let started = Instant::now();
        black_box(run_cell(&plain).budget_spent);
        plain_best = plain_best.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        black_box(run_cell(&traced).budget_spent);
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
}
