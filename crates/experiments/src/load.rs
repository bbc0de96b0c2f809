//! The production-load engine: what attack damage *costs* at the request
//! level, measured in latency percentiles under sustained traffic.
//!
//! The paper's structural story (κ degrades under targeted compromise)
//! and the service story (`repro service`: success rates sag) both leave
//! out the quantity a DHT operator actually pages on: tail latency at a
//! given offered request rate. This module closes that gap. A
//! [`LoadActor`] drives sustained per-minute request volumes from a
//! pluggable [`ArrivalProcess`] (Poisson, bursty on/off, diurnal) over a
//! Zipf-skewed hot-key set, with a bounded in-flight window and a finite
//! backlog queue (overflow is *shed* and counted). Every retrieval's
//! simulated latency lands in a [`LogHistogram`] per completed minute,
//! and whether it found the value in a per-minute found series.
//!
//! The grid ([`load_grid`]) crosses offered rate with the attack plans
//! (plus a baseline per rate); `repro load` runs it and emits
//! `load-timeseries.csv` (offered vs completed req/min, p50/p90/p99,
//! shed, κ — one row per cell-minute; at sampled-κ scales the
//! `kappa_est`/`kappa_ci_lo`/`kappa_ci_hi` columns carry the estimator's
//! mean and interval, `na` otherwise) and `load-summary.csv` (per cell:
//! phase percentiles and the attack-phase p99 delta against the baseline
//! cell at the same offered rate — "eclipse costs X ms of p99 at rate
//! Y").
//!
//! # Why the hot keys matter
//!
//! Compromised nodes keep answering FIND_NODE (they stay routable) but
//! withhold stored values. Uniform-target lookups therefore barely feel
//! an eclipse; *retrievals of the keys the eclipse anchors on* feel it
//! fully — the replica set is compromised, the retrieval exhausts its
//! candidate list before finding the value, and every extra round trip
//! lands in the latency tail. The load grid anchors the eclipse attacker
//! on the Zipf-hottest key ([`crate::session::AttackerActor::with_anchor`]),
//! which is exactly the adversary a skewed workload invites.
//!
//! # Backpressure semantics (minute granularity)
//!
//! Admission control runs at each minute boundary, before the minute's
//! arrivals are applied:
//!
//! 1. `in_flight = issued_total − completed_total` (completions read from
//!    the run's own telemetry sink);
//! 2. up to `window − in_flight` requests admit: backlogged requests
//!    first (oldest load drains first, at the minute boundary), then the
//!    minute's new arrivals at their sampled instants;
//! 3. arrivals beyond that queue up to `queue_capacity`; the rest is
//!    **shed** and counted — sheds are load the overlay refused, not
//!    load that failed.
//!
//! A silent spec (rate 0) is fully inert: no key stores, no stream draws,
//! no actions — the golden-equivalence suite pins that wiring a rate-0
//! [`LoadActor`] into the service grid leaves its CSVs byte-identical.

use crate::attack_plan::{grid_base_scenario, AttackPlan, AttackSpec};
pub use crate::runner::{
    run_cell as run_load, CellOutcome as LoadOutcome, LiveCell as LoadScenario,
};
use crate::scale::Scale;
use crate::scenario::{ChurnRate, TrafficModel};
use crate::session::{
    Action, EndCtx, MinuteActor, MinuteCtx, Sampler, SessionDriver, SnapshotGrid, TrafficOrigins,
};
use crate::traffic::{ArrivalProcess, ZipfSampler};
use kad_telemetry::{
    Cell, ExemplarReservoir, LogHistogram, LookupRecord, MinuteSeries, Recorder, TelemetrySink,
    TracePurpose, TraceTree,
};
use kademlia::id::NodeId;
use kademlia::network::SimNetwork;
use rand::rngs::SmallRng;
use rand::Rng;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Minutes between the hot-key store round and the first request minute:
/// dissemination must settle before retrievals race it.
const STORE_LEAD_MINUTES: u64 = 5;

/// Worst-latency trace trees kept per phase when the run is observed —
/// enough to name a phase's p99 offenders without ballooning artifacts.
pub const EXEMPLARS_PER_PHASE: usize = 5;

/// The load workload: arrival shape, key skew, and backpressure bounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadSpec {
    /// Offered-load model (requests per minute across the network).
    pub arrival: ArrivalProcess,
    /// Number of distinct hot keys (stored once, retrieved forever).
    pub hot_keys: usize,
    /// Zipf exponent of the key popularity (rank 0 hottest).
    pub zipf_exponent: f64,
    /// Maximum requests in flight at a minute boundary.
    pub window: usize,
    /// Maximum backlogged requests; overflow is shed.
    pub queue_capacity: usize,
    /// First minute requests are issued. Must leave the store lead
    /// (`STORE_LEAD_MINUTES`) after the setup phase for the key stores.
    pub start_minute: u64,
    /// `Some(minute)` makes the cell a *ledger* cell: it reports one
    /// [`LoadPoint`] per load minute instead of κ snapshots, with the
    /// telemetry's pre-attack/attack phases split at this minute
    /// (baseline cells carry their attacked siblings' attack start, so
    /// phase windows align across a rate). `None` — a workload merely
    /// riding on a snapshot cell — splits at the cell's own attack start.
    pub ledger_split: Option<u64>,
    /// Anchor the cell's eclipse attacker on the Zipf-hottest key
    /// ([`crate::session::AttackerActor::with_anchor`]) instead of a
    /// random id.
    pub anchor_eclipse: bool,
}

impl LoadSpec {
    /// A spec with the grid's default skew and backpressure bounds,
    /// riding on a snapshot cell (no ledger, random eclipse anchor).
    pub fn new(arrival: ArrivalProcess, start_minute: u64) -> LoadSpec {
        LoadSpec {
            arrival,
            hot_keys: 16,
            zipf_exponent: 1.1,
            window: 64,
            queue_capacity: 256,
            start_minute,
            ledger_split: None,
            anchor_eclipse: false,
        }
    }

    /// The minute the hot keys are disseminated.
    pub fn store_minute(&self) -> u64 {
        self.start_minute.saturating_sub(STORE_LEAD_MINUTES)
    }

    /// Label combining arrival shape and mean rate (`poisson-60`).
    pub fn rate_label(&self) -> String {
        format!(
            "{}-{}",
            self.arrival.label(),
            self.arrival.mean_rate().round() as u64
        )
    }
}

/// Which attack phase a completion belongs to, for the per-phase
/// exemplar reservoirs. `Ord` so the reservoir map iterates
/// deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LoadPhase {
    /// Completed before the cell's phase-split minute.
    PreAttack,
    /// Completed at or after it.
    Attack,
}

impl LoadPhase {
    /// Short label for CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            LoadPhase::PreAttack => "pre-attack",
            LoadPhase::Attack => "attack",
        }
    }
}

/// The telemetry aggregates of one load run, installed as the run's sink.
/// Baseline cells use the same phase-split minute as their attacked
/// siblings so phase windows stay comparable across a rate.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadTelemetry {
    phase_split: u64,
    /// Retrieval latency (ms) keyed by completed minute.
    pub latency_by_minute: BTreeMap<u64, LogHistogram>,
    /// Per-minute retrieval hits: 1.0 = value found.
    pub found: MinuteSeries,
    /// Retrievals completed so far (the in-flight accounting feed).
    pub completed_retrievals: u64,
    /// Per-phase p99 exemplar reservoirs, `Some` only for observed runs
    /// (enabling them turns on the simulator's span recording).
    pub exemplars: Option<BTreeMap<LoadPhase, ExemplarReservoir>>,
}

impl LoadTelemetry {
    /// A sink splitting phases at `phase_split` minutes.
    pub fn new(phase_split: u64) -> LoadTelemetry {
        LoadTelemetry {
            phase_split,
            latency_by_minute: BTreeMap::new(),
            found: MinuteSeries::new(),
            completed_retrievals: 0,
            exemplars: None,
        }
    }

    /// Enables trace capture: the sink answers `wants_traces`, and every
    /// retrieval tree competes for the phase's [`EXEMPLARS_PER_PHASE`]
    /// worst-latency slots. Observation only — aggregates and CSVs are
    /// byte-identical with or without it.
    pub fn with_exemplars(phase_split: u64) -> LoadTelemetry {
        let mut t = LoadTelemetry::new(phase_split);
        t.exemplars = Some(BTreeMap::new());
        t
    }

    /// Retrieval latency over completed minutes in `[from, to)`.
    pub fn latency_window(&self, from: u64, to: u64) -> LogHistogram {
        let mut window = LogHistogram::new();
        for (_, h) in self.latency_by_minute.range(from..to.max(from)) {
            window.merge(h);
        }
        window
    }

    /// Pre-attack retrieval latency (`load_start` to the phase split).
    pub fn latency_pre(&self, load_start: u64) -> LogHistogram {
        self.latency_window(load_start, self.phase_split)
    }

    /// Attack-phase retrieval latency (phase split to run end).
    pub fn latency_attack(&self) -> LogHistogram {
        self.latency_window(self.phase_split, u64::MAX)
    }

    /// The phase a completed minute belongs to.
    fn phase_of(&self, minute: u64) -> LoadPhase {
        if minute >= self.phase_split {
            LoadPhase::Attack
        } else {
            LoadPhase::PreAttack
        }
    }

    /// The captured exemplars as `(phase, reservoir)` pairs (empty unless
    /// the run was observed), pre-attack first.
    pub fn exemplar_reservoirs(&self) -> Vec<(LoadPhase, &ExemplarReservoir)> {
        self.exemplars
            .iter()
            .flat_map(|m| m.iter().map(|(p, r)| (*p, r)))
            .collect()
    }
}

impl TelemetrySink for LoadTelemetry {
    fn on_lookup(&mut self, record: &LookupRecord) {
        if record.purpose == TracePurpose::Retrieve {
            let minute = record.completed_minute();
            self.completed_retrievals += 1;
            self.latency_by_minute
                .entry(minute)
                .or_default()
                .record(record.latency_ms());
            self.found.record(
                minute,
                if record.outcome.is_success() {
                    1.0
                } else {
                    0.0
                },
            );
        }
    }

    fn wants_traces(&self) -> bool {
        self.exemplars.is_some()
    }

    fn on_trace(&mut self, tree: &TraceTree) {
        if !matches!(
            tree.record.purpose,
            TracePurpose::Retrieve | TracePurpose::RetrieveDisjoint
        ) {
            return;
        }
        let phase = self.phase_of(tree.record.completed_minute());
        let Some(reservoirs) = &mut self.exemplars else {
            return;
        };
        reservoirs
            .entry(phase)
            .or_insert_with(|| ExemplarReservoir::new(EXEMPLARS_PER_PHASE))
            .offer(tree);
    }
}

/// One minute of admission bookkeeping, as recorded by the [`LoadActor`]
/// at the minute boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinuteLoad {
    /// Requests that arrived this minute.
    pub offered: u64,
    /// Requests issued this minute (backlog + new arrivals).
    pub admitted: u64,
    /// Requests dropped because the backlog queue was full.
    pub shed: u64,
    /// Backlog depth after admission.
    pub queue_depth: u64,
    /// Requests in flight at the minute boundary (before admission).
    pub in_flight: u64,
}

/// The actor's admission ledger, shared with the sampler.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoadStats {
    /// Per-minute admission bookkeeping.
    pub minutes: BTreeMap<u64, MinuteLoad>,
    /// Total requests offered.
    pub offered_total: u64,
    /// Total requests issued.
    pub admitted_total: u64,
    /// Total requests shed.
    pub shed_total: u64,
}

/// Draws the run's hot keys from the session's `load-keys` stream
/// (label-keyed, so drawing them shifts no other stream).
pub fn draw_hot_keys(driver: &SessionDriver<'_>, n: usize) -> Vec<NodeId> {
    let bits = driver.base().protocol.bits;
    let mut rng = driver.factory().stream("load-keys");
    (0..n).map(|_| NodeId::random(&mut rng, bits)).collect()
}

/// The load generator (see the module docs for the backpressure
/// semantics). Stores the hot keys once at [`LoadSpec::store_minute`],
/// then issues Zipf-keyed retrievals under the admission window from
/// [`LoadSpec::start_minute`] on. Inert when the spec is silent.
pub struct LoadActor {
    spec: LoadSpec,
    keys: Vec<NodeId>,
    zipf: ZipfSampler,
    rng: SmallRng,
    sink: Rc<RefCell<LoadTelemetry>>,
    stats: Rc<RefCell<LoadStats>>,
    /// Arrival instants (ms) of backlogged requests, oldest first. The
    /// instants exist purely so a drained request's queue wait can ride
    /// its trace; admission counts and RNG draw order are unchanged from
    /// the scalar-backlog formulation.
    backlog: VecDeque<u64>,
    issued: u64,
    stored: bool,
}

impl LoadActor {
    /// Wires the actor's `load-arrivals` stream from the session factory.
    /// `keys` comes from [`draw_hot_keys`] (the grid also hands `keys[0]`
    /// to the eclipse attacker as its anchor).
    pub fn new(
        driver: &SessionDriver<'_>,
        spec: LoadSpec,
        keys: Vec<NodeId>,
        sink: Rc<RefCell<LoadTelemetry>>,
        stats: Rc<RefCell<LoadStats>>,
    ) -> LoadActor {
        let zipf = ZipfSampler::new(keys.len().max(1), spec.zipf_exponent);
        LoadActor {
            spec,
            keys,
            zipf,
            rng: driver.factory().stream("load-arrivals"),
            sink,
            stats,
            backlog: VecDeque::new(),
            issued: 0,
            stored: false,
        }
    }

    /// Queues one retrieval of a Zipf-drawn key from a random honest
    /// origin at `at_ms`. `queue_wait_ms` is how long the request sat in
    /// the backlog before admission (0 for fresh arrivals); it annotates
    /// the request's trace tree and touches nothing else.
    fn issue(
        &mut self,
        origins: &[kademlia::NodeAddr],
        at_ms: u64,
        queue_wait_ms: u64,
        ctx: &mut MinuteCtx<'_>,
    ) {
        let key = self.keys[self.zipf.sample(&mut self.rng)];
        let addr = origins[self.rng.random_range(0..origins.len())];
        ctx.actions
            .push((at_ms, Action::RetrieveKey(addr, key, queue_wait_ms)));
    }
}

impl MinuteActor for LoadActor {
    fn on_minute(&mut self, net: &mut SimNetwork, ctx: &mut MinuteCtx<'_>) {
        if self.spec.arrival.is_silent() || self.keys.is_empty() {
            return;
        }
        if !self.stored && ctx.minute >= self.spec.store_minute() {
            self.stored = true;
            let origins = net.honest_addrs();
            if !origins.is_empty() {
                for i in 0..self.keys.len() {
                    let addr = origins[self.rng.random_range(0..origins.len())];
                    net.start_store(addr, self.keys[i]);
                }
            }
        }
        if ctx.minute < self.spec.start_minute {
            return;
        }
        let arrivals = self
            .spec
            .arrival
            .arrivals_in_minute(ctx.minute, &mut self.rng);
        let offered = arrivals.len() as u64;
        let completed = self.sink.borrow().completed_retrievals;
        let in_flight = self.issued.saturating_sub(completed);
        let mut capacity = (self.spec.window as u64).saturating_sub(in_flight);
        let origins = net.honest_addrs();
        let mut admitted = 0u64;
        let shed;
        if origins.is_empty() {
            // Nobody left to originate from: the whole minute sheds.
            shed = self.backlog.len() as u64 + offered;
            self.backlog.clear();
        } else {
            // Backlogged requests first, at the boundary instant. Each
            // carries its time-in-queue so the wait shows up in traces.
            let from_backlog = (self.backlog.len() as u64).min(capacity);
            for _ in 0..from_backlog {
                let arrived_ms = self.backlog.pop_front().expect("backlog non-empty");
                let wait = ctx.minute_start_ms.saturating_sub(arrived_ms);
                self.issue(&origins, ctx.minute_start_ms, wait, ctx);
            }
            capacity -= from_backlog;
            admitted += from_backlog;
            // Then the minute's arrivals at their sampled instants.
            let admit_new = (arrivals.len() as u64).min(capacity) as usize;
            for &offset in &arrivals[..admit_new] {
                self.issue(&origins, ctx.minute_start_ms + offset, 0, ctx);
            }
            admitted += admit_new as u64;
            let leftover = offered - admit_new as u64;
            let to_queue =
                leftover.min((self.spec.queue_capacity as u64) - self.backlog.len() as u64);
            for &offset in &arrivals[admit_new..admit_new + to_queue as usize] {
                self.backlog.push_back(ctx.minute_start_ms + offset);
            }
            shed = leftover - to_queue;
        }
        self.issued += admitted;
        let mut stats = self.stats.borrow_mut();
        stats.minutes.insert(
            ctx.minute,
            MinuteLoad {
                offered,
                admitted,
                shed,
                queue_depth: self.backlog.len() as u64,
                in_flight,
            },
        );
        stats.offered_total += offered;
        stats.admitted_total += admitted;
        stats.shed_total += shed;
    }
}

// ----------------------------------------------------------------------
// The load ledger
// ----------------------------------------------------------------------

/// One cell-minute of the load time series.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadPoint {
    /// The completed minute this row summarizes.
    pub minute: u64,
    /// Requests that arrived.
    pub offered: u64,
    /// Requests issued.
    pub admitted: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Backlog depth after admission.
    pub queue_depth: u64,
    /// In flight at the minute boundary.
    pub in_flight: u64,
    /// Retrievals completed within the minute.
    pub completed: u64,
    /// Fraction of those that found their value.
    pub found_rate: f64,
    /// Latency percentiles of the minute's completions, ms.
    pub p50_ms: u64,
    /// 90th percentile, ms.
    pub p90_ms: u64,
    /// 99th percentile, ms.
    pub p99_ms: u64,
    /// The honest subgraph's κ_min at the minute end. On sampled minutes
    /// (overlays at [`crate::session::SAMPLED_KAPPA_MIN_NODES`] and above)
    /// this is the sampled minimum — an upper bound, not exact κ.
    pub kappa_min: u64,
    /// The sampled κ estimate for the minute, when the live feed ran the
    /// estimator instead of the exact sweep. `None` on exact minutes, so
    /// the CSV renders `na` and downstream parsing can never mistake a
    /// sampled mean for exact κ.
    pub kappa_estimate: Option<kad_resilience::KappaEstimate>,
    /// Compromises scheduled so far.
    pub budget_spent: usize,
}

/// What a load workload leaves in its cell's
/// [`CellOutcome`](crate::runner::CellOutcome).
#[derive(Clone, Debug, PartialEq)]
pub struct LoadReport {
    /// One point per load-phase minute, ascending (ledger cells only —
    /// see [`LoadSpec::ledger_split`]).
    pub points: Vec<LoadPoint>,
    /// The run's telemetry aggregates (per-minute latency and found rate).
    pub telemetry: LoadTelemetry,
    /// The admission ledger.
    pub stats: LoadStats,
}

/// The sampler of a ledger cell: one [`LoadPoint`] per completed minute
/// from the load start on (`None` before it).
pub(crate) fn ledger_sampler(
    sink: Rc<RefCell<LoadTelemetry>>,
    stats: Rc<RefCell<LoadStats>>,
    load_start: u64,
) -> Sampler<Option<LoadPoint>, impl FnMut(&mut SimNetwork, &mut EndCtx<'_>) -> Option<LoadPoint>> {
    Sampler::new(
        SnapshotGrid {
            base_minutes: 1,
            attack_start: None,
            attack_minutes: 1,
        },
        move |_net: &mut SimNetwork, ctx: &mut EndCtx<'_>| {
            if ctx.at_minute <= load_start {
                return None;
            }
            let minute = ctx.at_minute - 1;
            let t = sink.borrow();
            let latency = t
                .latency_by_minute
                .get(&minute)
                .cloned()
                .unwrap_or_default();
            let found = t.found.range_stats(minute, minute + 1);
            let ledger = stats
                .borrow()
                .minutes
                .get(&minute)
                .copied()
                .unwrap_or_default();
            Some(LoadPoint {
                minute,
                offered: ledger.offered,
                admitted: ledger.admitted,
                shed: ledger.shed,
                queue_depth: ledger.queue_depth,
                in_flight: ledger.in_flight,
                completed: latency.count(),
                found_rate: found.mean(),
                p50_ms: latency.percentile(0.5),
                p90_ms: latency.percentile(0.9),
                p99_ms: latency.percentile(0.99),
                kappa_min: ctx.shared.last_kappa.map(|(_, k)| k).unwrap_or(0),
                kappa_estimate: ctx.shared.last_kappa_estimate.map(|(_, e)| e),
                budget_spent: ctx.shared.budget_spent,
            })
        },
    )
}

// ----------------------------------------------------------------------
// Grid + rendering
// ----------------------------------------------------------------------

/// Stabilization override for load cells: the load phase needs most of
/// the runtime, and the quick shape's 90 minutes of stabilization buys
/// nothing at grid sizes.
const LOAD_STABILIZATION_MIN: u64 = 45;
/// Minutes of load phase after stabilization.
const LOAD_PHASE_MIN: u64 = 35;
/// First request minute (stores go out at `-5`).
const LOAD_START_MIN: u64 = 47;
/// Attack start: 8 minutes of pre-attack latency baseline first.
const LOAD_ATTACK_START_MIN: u64 = 55;

/// The grid `repro load` runs: Poisson offered rates crossed with an
/// attack-free baseline plus all four [`AttackPlan`]s, plus bursty and
/// diurnal baseline cells at the middle rate (their arrival statistics
/// are pinned by the traffic test suite; the attack cross uses the
/// stationary process so rate stays the only moving part). Churn is off:
/// the load engine's in-flight accounting requires origins not to die
/// mid-lookup, and the attack's damage is the variable under study.
pub fn load_grid(scale: Scale, base_seed: u64) -> Vec<LoadScenario> {
    let cfg = scale.config();
    let size = cfg.small_size;
    let budget = (size / 4).max(2);
    let mut grid = Vec::new();
    let push = |arrival: ArrivalProcess, plan: Option<AttackPlan>, grid: &mut Vec<_>| {
        // Ledger cells; the eclipse anchors on the hottest key, so the
        // replica set it wipes is the one the skewed traffic depends on.
        let spec = LoadSpec {
            ledger_split: Some(LOAD_ATTACK_START_MIN),
            anchor_eclipse: true,
            ..LoadSpec::new(arrival, LOAD_START_MIN)
        };
        let strategy = plan.map_or("baseline", |p| p.label());
        let name = format!("load-{}-{}", spec.rate_label(), strategy);
        let base = grid_base_scenario(
            &name,
            size,
            ChurnRate::NONE,
            Some(LOAD_STABILIZATION_MIN),
            LOAD_PHASE_MIN,
            cfg.snapshot_minutes,
            TrafficModel {
                lookups_per_min: cfg.lookups_per_min,
                stores_per_min: cfg.stores_per_min,
            },
            base_seed,
        );
        grid.push(LoadScenario {
            attack: plan.map(|plan| AttackSpec {
                plan,
                budget,
                compromises_per_min: 2,
                start_minute: LOAD_ATTACK_START_MIN,
            }),
            origins: TrafficOrigins::HonestOnly,
            live_kappa_from: Some(spec.start_minute),
            load: Some(spec),
            ..LoadScenario::plain(base)
        });
    };
    for rate in [60.0, 180.0] {
        let arrival = ArrivalProcess::Poisson { rate_per_min: rate };
        for plan in std::iter::once(None).chain(AttackPlan::ALL.into_iter().map(Some)) {
            push(arrival, plan, &mut grid);
        }
    }
    push(
        ArrivalProcess::Bursty {
            on_minutes: 5,
            off_minutes: 5,
            rate_on: 200.0,
            rate_off: 40.0,
        },
        None,
        &mut grid,
    );
    push(
        ArrivalProcess::Diurnal {
            mean_rate_per_min: 120.0,
            amplitude: 0.8,
            period_minutes: 30,
        },
        None,
        &mut grid,
    );
    grid
}

/// Every outcome that ran a workload, with its spec and report.
fn loaded(outcomes: &[LoadOutcome]) -> impl Iterator<Item = (&LoadOutcome, LoadSpec, &LoadReport)> {
    outcomes
        .iter()
        .filter_map(|o| Some((o, o.scenario.load?, o.load.as_ref()?)))
}

/// The per-minute CSV: offered vs completed req/min, latency percentiles,
/// shed and κ, one row per (cell, minute).
pub fn load_timeseries_csv(outcomes: &[LoadOutcome]) -> String {
    let mut rec = Recorder::new(&[
        "strategy",
        "arrival",
        "rate_per_min",
        "minute",
        "offered",
        "admitted",
        "shed",
        "queue_depth",
        "in_flight",
        "completed",
        "found_rate",
        "p50_ms",
        "p90_ms",
        "p99_ms",
        "kappa_min",
        "kappa_est",
        "kappa_ci_lo",
        "kappa_ci_hi",
        "budget_spent",
    ]);
    for (outcome, spec, report) in loaded(outcomes) {
        let strategy = outcome.scenario.strategy_label();
        let arrival = spec.arrival.label();
        let rate = spec.arrival.mean_rate();
        for p in &report.points {
            rec.row(&[
                strategy.into(),
                arrival.into(),
                Cell::f64(rate, 1),
                p.minute.into(),
                p.offered.into(),
                p.admitted.into(),
                p.shed.into(),
                p.queue_depth.into(),
                p.in_flight.into(),
                p.completed.into(),
                Cell::f64(p.found_rate, 4),
                p.p50_ms.into(),
                p.p90_ms.into(),
                p.p99_ms.into(),
                p.kappa_min.into(),
                Cell::opt_f64(p.kappa_estimate.map(|e| e.kappa_est), 3),
                Cell::opt_f64(p.kappa_estimate.map(|e| e.ci_lo), 3),
                Cell::opt_f64(p.kappa_estimate.map(|e| e.ci_hi), 3),
                p.budget_spent.into(),
            ]);
        }
    }
    rec.finish()
}

/// The per-cell summary CSV: totals, phase percentiles, and the
/// attack-phase p99 delta against the baseline cell at the same arrival
/// shape and rate (0 for baselines themselves — the "eclipse costs X ms
/// of p99 at rate Y" column).
pub fn load_summary_csv(outcomes: &[LoadOutcome]) -> String {
    let baseline_p99 = |arrival: ArrivalProcess| -> Option<u64> {
        loaded(outcomes)
            .find(|(o, spec, _)| o.scenario.attack.is_none() && spec.arrival == arrival)
            .map(|(_, _, report)| report.telemetry.latency_attack().percentile(0.99))
    };
    let mut rec = Recorder::new(&[
        "strategy",
        "arrival",
        "rate_per_min",
        "offered_total",
        "admitted_total",
        "shed_total",
        "completed_total",
        "found_rate",
        "pre_p50_ms",
        "pre_p99_ms",
        "attack_p50_ms",
        "attack_p99_ms",
        "p99_delta_vs_baseline_ms",
    ]);
    for (outcome, spec, report) in loaded(outcomes) {
        let pre = report.telemetry.latency_pre(spec.start_minute);
        let attack = report.telemetry.latency_attack();
        // Each completed retrieval put a 1.0 (value found) or a 0.0 into
        // the found series, so its sum is the found count.
        let found = report
            .telemetry
            .found
            .iter()
            .map(|(_, w)| w.sum)
            .sum::<f64>() as u64;
        let completed = report.telemetry.completed_retrievals;
        let delta = baseline_p99(spec.arrival)
            .map(|b| attack.percentile(0.99) as i64 - b as i64)
            .unwrap_or(0);
        rec.row(&[
            outcome.scenario.strategy_label().into(),
            spec.arrival.label().into(),
            Cell::f64(spec.arrival.mean_rate(), 1),
            report.stats.offered_total.into(),
            report.stats.admitted_total.into(),
            report.stats.shed_total.into(),
            completed.into(),
            Cell::f64(found as f64 / completed.max(1) as f64, 4),
            pre.percentile(0.5).into(),
            pre.percentile(0.99).into(),
            attack.percentile(0.5).into(),
            attack.percentile(0.99).into(),
            delta.to_string().into(),
        ]);
    }
    rec.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixRunner;
    use crate::runner::run_cell_reported;
    use crate::scenario::ScenarioBuilder;

    fn quick_load(plan: Option<AttackPlan>, rate: f64, seed: u64) -> LoadScenario {
        let mut b = ScenarioBuilder::quick(18, 4);
        b.name(format!(
            "test-load-{}",
            plan.map_or("baseline", |p| p.label())
        ))
        .seed(seed)
        .stabilization_minutes(40)
        .churn_minutes(20);
        let spec = LoadSpec {
            hot_keys: 4,
            ledger_split: Some(48),
            anchor_eclipse: true,
            ..LoadSpec::new(ArrivalProcess::Poisson { rate_per_min: rate }, 42)
        };
        LoadScenario {
            attack: plan.map(|plan| AttackSpec {
                plan,
                budget: 5,
                compromises_per_min: 1,
                start_minute: 48,
            }),
            origins: TrafficOrigins::HonestOnly,
            live_kappa_from: Some(spec.start_minute),
            load: Some(spec),
            ..LoadScenario::plain(b.build())
        }
    }

    fn spec_mut(scenario: &mut LoadScenario) -> &mut LoadSpec {
        scenario.load.as_mut().expect("load cell")
    }

    fn ledger(outcome: &LoadOutcome) -> &LoadReport {
        outcome.load.as_ref().expect("cell ran a load workload")
    }

    #[test]
    fn baseline_load_completes_and_finds_values() {
        let outcome = run_load(&quick_load(None, 30.0, 3));
        assert_eq!(outcome.budget_spent, 0);
        let report = ledger(&outcome);
        assert!(report.stats.offered_total > 0, "arrivals happened");
        assert!(
            report.telemetry.completed_retrievals > 0,
            "retrievals completed"
        );
        let pre = report.telemetry.latency_pre(42);
        assert!(pre.count() > 0 && pre.mean() > 0.0, "latency recorded");
        let last = report.points.last().expect("points");
        assert!(last.found_rate > 0.5, "hot keys retrievable: {last:?}");
        assert!(
            outcome.points.is_empty(),
            "ledger cells take no κ snapshots"
        );
        // Every completed retrieval landed in both per-minute aggregates.
        let t = &report.telemetry;
        assert_eq!(t.found.total_count(), t.completed_retrievals);
        let latencies: u64 = t.latency_by_minute.values().map(LogHistogram::count).sum();
        assert_eq!(latencies, t.completed_retrievals);
    }

    #[test]
    fn latency_window_merges_the_half_open_minute_range() {
        let mut t = LoadTelemetry::new(5);
        for (minute, latency_ms, found) in [
            (3u64, 10u64, true),
            (3, 20, false),
            (4, 30, true),
            (5, 40, true),
            (9, 50, false),
        ] {
            let completed_ms = minute * 60_000 + 59_000;
            t.on_lookup(&LookupRecord {
                lookup_id: minute,
                target: [0; kad_telemetry::trace::TARGET_BYTES],
                purpose: TracePurpose::Retrieve,
                outcome: if found {
                    kad_telemetry::LookupOutcome::ValueFound
                } else {
                    kad_telemetry::LookupOutcome::ValueMissing
                },
                hops: 1,
                messages: 1,
                responded: 1,
                started_ms: completed_ms - latency_ms,
                completed_ms,
            });
        }
        assert_eq!(t.completed_retrievals, 5);
        assert_eq!(t.latency_by_minute[&3].count(), 2);
        let pre = t.latency_pre(3);
        assert_eq!((pre.count(), pre.min(), pre.max()), (3, 10, 30));
        let attack = t.latency_attack();
        assert_eq!((attack.count(), attack.min(), attack.max()), (2, 40, 50));
        assert_eq!(t.latency_window(4, 5).count(), 1, "[4, 5) is minute 4 only");
        assert!(
            t.latency_window(6, 3).is_empty(),
            "a reversed range is empty"
        );
        assert_eq!(t.found.range_stats(0, 10).sum, 3.0, "three values found");
    }

    #[test]
    fn replay_is_deterministic() {
        let a = run_load(&quick_load(Some(AttackPlan::Eclipse), 30.0, 7));
        let b = run_load(&quick_load(Some(AttackPlan::Eclipse), 30.0, 7));
        assert_eq!(a, b);
        let c = run_load(&quick_load(Some(AttackPlan::Eclipse), 30.0, 8));
        assert_ne!(ledger(&a).points, ledger(&c).points, "seeds diverge");
    }

    #[test]
    fn silent_spec_is_inert() {
        let mut scenario = quick_load(None, 0.0, 5);
        spec_mut(&mut scenario).arrival = ArrivalProcess::Poisson { rate_per_min: 0.0 };
        let outcome = run_load(&scenario);
        let report = ledger(&outcome);
        assert_eq!(report.stats.offered_total, 0);
        assert_eq!(report.telemetry.completed_retrievals, 0);
        assert!(report.points.iter().all(|p| p.offered == 0));
    }

    #[test]
    fn tiny_window_sheds_overload() {
        let mut scenario = quick_load(None, 120.0, 9);
        spec_mut(&mut scenario).window = 4;
        spec_mut(&mut scenario).queue_capacity = 8;
        let outcome = run_load(&scenario);
        let report = ledger(&outcome);
        assert!(
            report.stats.shed_total > 0,
            "a 4-wide window cannot carry 120 req/min: {:?}",
            report.stats
        );
        // Conservation: every offered request was admitted, queued or shed.
        let queued_at_end = report.points.last().map(|p| p.queue_depth).unwrap_or(0);
        assert_eq!(
            report.stats.offered_total,
            report.stats.admitted_total + report.stats.shed_total + queued_at_end,
        );
    }

    #[test]
    fn eclipse_on_hot_key_degrades_found_rate_and_latency() {
        let baseline = run_load(&quick_load(None, 30.0, 11));
        let eclipsed = run_load(&quick_load(Some(AttackPlan::Eclipse), 30.0, 11));
        assert_eq!(eclipsed.budget_spent, 5);
        let base_attack = ledger(&baseline).telemetry.latency_attack();
        let ecl_attack = ledger(&eclipsed).telemetry.latency_attack();
        assert!(base_attack.count() > 0 && ecl_attack.count() > 0);
        // The anchored eclipse wipes the hot key's replica set: retrievals
        // exhaust more candidates, so the attack-phase tail grows.
        assert!(
            ecl_attack.percentile(0.99) > base_attack.percentile(0.99),
            "eclipse p99 {} <= baseline p99 {}",
            ecl_attack.percentile(0.99),
            base_attack.percentile(0.99)
        );
    }

    #[test]
    fn observed_cell_captures_conserving_exemplars() {
        let mut scenario = quick_load(Some(AttackPlan::Eclipse), 30.0, 11);
        scenario.base.observe = true;
        let (outcome, report) = run_cell_reported(&scenario);
        assert!(!report.exemplars.is_empty(), "observed run captured trees");
        let mut phases = std::collections::BTreeSet::new();
        for ex in &report.exemplars {
            phases.insert(ex.phase);
            assert!(
                matches!(
                    ex.tree.record.purpose,
                    TracePurpose::Retrieve | TracePurpose::RetrieveDisjoint
                ),
                "only retrievals compete for exemplar slots"
            );
            assert!(
                ex.tree.conserves(),
                "queue+rtt+timeout == end-to-end on {:?}",
                ex.tree.record
            );
            assert!(!ex.tree.spans.is_empty(), "exemplars carry spans");
        }
        assert!(phases.contains("attack"), "attack-phase offenders captured");
        for (_, reservoir) in ledger(&outcome).telemetry.exemplar_reservoirs() {
            assert!(reservoir.len() <= EXEMPLARS_PER_PHASE);
            let lat: Vec<u64> = reservoir
                .exemplars()
                .iter()
                .map(|t| t.end_to_end_ms())
                .collect();
            let mut sorted = lat.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(lat, sorted, "worst latency first");
        }
        // Unobserved sibling: no reservoirs, byte-identical aggregates —
        // trace capture is observation only.
        let unobserved = run_load(&quick_load(Some(AttackPlan::Eclipse), 30.0, 11));
        let (observed, unobserved) = (ledger(&outcome), ledger(&unobserved));
        assert!(unobserved.telemetry.exemplars.is_none());
        assert_eq!(observed.points, unobserved.points);
        assert_eq!(observed.telemetry.found, unobserved.telemetry.found);
        assert_eq!(
            observed.telemetry.latency_by_minute,
            unobserved.telemetry.latency_by_minute
        );
        // Same seed, same exemplars (the determinism contract the proptest
        // suite pins at the reservoir level).
        let (_, report2) = run_cell_reported(&scenario);
        assert_eq!(report.exemplars.len(), report2.exemplars.len());
        for (a, b) in report.exemplars.iter().zip(&report2.exemplars) {
            assert_eq!(a.phase, b.phase);
            assert_eq!(a.tree, b.tree);
        }
    }

    #[test]
    fn eclipse_attack_phase_delta_decomposes_onto_compromised_nodes() {
        let observed = |plan| {
            let mut scenario = quick_load(plan, 30.0, 11);
            scenario.base.observe = true;
            run_cell_reported(&scenario)
        };
        let (_, base_report) = observed(None);
        let (_, ecl_report) = observed(Some(AttackPlan::Eclipse));
        let attack_attr = |report: &crate::observe::CellReport| {
            report
                .exemplars
                .iter()
                .filter(|ex| ex.phase == LoadPhase::Attack.label())
                .map(|ex| ex.tree.critical_path().attribution)
                .fold((0u64, 0u64), |(total, compromised), a| {
                    (total + a.total_ms(), compromised + a.compromised_ms())
                })
        };
        let (base_total, base_compromised) = attack_attr(&base_report);
        let (ecl_total, ecl_compromised) = attack_attr(&ecl_report);
        assert!(base_total > 0 && ecl_total > 0);
        // No attacker, no compromised time — the category only lights up
        // under the eclipse, which is what makes the p99 delta legible.
        assert_eq!(base_compromised, 0, "baseline has no compromised nodes");
        assert!(
            ecl_compromised > 0,
            "the eclipsed tail spends critical-path time on compromised nodes"
        );
        // The worst attack-phase offender personally carries compromised
        // time on its critical path: the p99 exemplar names the cause.
        let worst = ecl_report
            .exemplars
            .iter()
            .filter(|ex| ex.phase == LoadPhase::Attack.label())
            .max_by_key(|ex| ex.tree.end_to_end_ms())
            .expect("attack-phase exemplar");
        assert!(worst.tree.critical_path().attribution.compromised_ms() > 0);
    }

    #[test]
    fn timeseries_csv_labels_sampled_kappa_distinctly_from_exact() {
        // One exact minute (no estimate: the `kappa_*` estimator columns
        // must render `na`) and one sampled minute (the estimate lands in
        // its own columns, never in `kappa_min`).
        let point = |minute: u64, estimate| LoadPoint {
            minute,
            offered: 10,
            admitted: 10,
            shed: 0,
            queue_depth: 0,
            in_flight: 0,
            completed: 10,
            found_rate: 1.0,
            p50_ms: 120,
            p90_ms: 200,
            p99_ms: 340,
            kappa_min: 3,
            kappa_estimate: estimate,
            budget_spent: 0,
        };
        let est = kad_resilience::KappaEstimate {
            kappa_est: 4.25,
            ci_lo: 3.9,
            ci_hi: 4.6,
            confidence: 0.95,
            min_sampled: 3,
            strongly_connected: true,
            pairs_sampled: 256,
            strata_used: 4,
            exact: false,
        };
        let outcome = LoadOutcome {
            scenario: quick_load(None, 30.0, 3),
            points: Vec::new(),
            hops: LogHistogram::default(),
            victims: Vec::new(),
            phase_switches: Vec::new(),
            live_kappa: Vec::new(),
            load: Some(LoadReport {
                points: vec![point(50, None), point(51, Some(est))],
                telemetry: LoadTelemetry::new(48),
                stats: LoadStats::default(),
            }),
            budget_spent: 0,
            counters: dessim::metrics::Counters::default(),
        };
        let csv = load_timeseries_csv(std::slice::from_ref(&outcome));
        let header = csv.lines().next().expect("header");
        assert!(
            header.ends_with("kappa_min,kappa_est,kappa_ci_lo,kappa_ci_hi,budget_spent"),
            "estimator columns are labeled distinctly: {header}"
        );
        assert!(
            csv.contains(",3,na,na,na,0"),
            "exact minutes render na estimator cells: {csv}"
        );
        assert!(
            csv.contains(",3,4.250,3.900,4.600,0"),
            "sampled minutes carry mean and interval: {csv}"
        );
    }

    #[test]
    fn grid_covers_rates_and_plans_and_csvs_render() {
        let grid = load_grid(Scale::Bench, 5);
        assert_eq!(grid.len(), 12, "2 rates × (1+4) + bursty + diurnal");
        let mut seeds: Vec<u64> = grid.iter().map(|c| c.base.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12, "unique seed per cell");
        for cell in &grid {
            let spec = cell.load.expect("load cell");
            let split = spec.ledger_split.expect("ledger cell");
            assert!(spec.start_minute >= cell.base.setup_minutes + STORE_LEAD_MINUTES);
            assert!(split > spec.start_minute && split < cell.base.end_minutes());
        }
        // Smoke-run two cheap cells (low-rate baseline + eclipse) and
        // render both CSVs.
        let sample: Vec<LoadScenario> = grid
            .into_iter()
            .filter(|c| {
                c.load.is_some_and(|spec| spec.arrival.mean_rate() == 60.0)
                    && (c.attack.is_none()
                        || c.attack.is_some_and(|a| a.plan == AttackPlan::Eclipse))
            })
            .collect();
        assert_eq!(sample.len(), 2);
        let mut done = 0usize;
        let outcomes =
            MatrixRunner::new()
                .scenario_threads(2)
                .run_tasks(&sample, run_load, |_, _| done += 1);
        assert_eq!(done, 2);
        let ts = load_timeseries_csv(&outcomes);
        assert!(ts.starts_with("strategy,arrival,rate_per_min,minute"));
        assert!(ts.contains("\nbaseline,poisson,60.0"));
        assert!(ts.contains("\neclipse,poisson,60.0"));
        let summary = load_summary_csv(&outcomes);
        assert!(summary.starts_with("strategy,arrival,rate_per_min"));
        assert_eq!(summary.lines().count(), 3, "header + one row per cell");
        // The baseline row's delta column is 0 by construction.
        let baseline_row = summary
            .lines()
            .find(|l| l.starts_with("baseline"))
            .expect("baseline row");
        assert!(baseline_row.ends_with(",0"), "{baseline_row}");
    }
}
