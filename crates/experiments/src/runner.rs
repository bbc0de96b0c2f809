//! The one live-cell runner: every `repro` grid is this function over a
//! different list of cells.
//!
//! The paper's evaluation (Sections 5.3–5.4) is one experiment repeated
//! over a grid — join, stabilise, churn/traffic minute by minute, snapshot
//! κ — and every extension this repository grew (attack campaigns,
//! service telemetry, defenses, phased attackers, production load) is the
//! same loop with more actors switched on. A [`LiveCell`] describes which:
//!
//! * **Setup** (minute 0–30): the initial nodes join at uniformly random
//!   instants, each bootstrapping off a node chosen uniformly among those
//!   already joined.
//! * **Stabilization** (minute 30–120): the network settles; every node
//!   performs at least one 60-minute bucket refresh.
//! * **Churn** (minute 120 onward): `remove/add` actions per minute at
//!   random instants within each minute.
//! * **Traffic**: when enabled, every origin node performs its lookups
//!   and disseminations per minute, again at random instants.
//! * **Attack / defense / probe / load**: optional, per cell.
//! * **Snapshots**: on a fixed grid (dense from the attack start); each is
//!   converted into a connectivity graph and analysed.
//!
//! [`run_cell`] wires the canonical actor order once — `probe?, joins,
//! churn, traffic, load?, attacker?, sampler` — over the shared
//! [`SessionDriver`]; the grid modules
//! ([`crate::matrix`], [`crate::campaign`], [`crate::service`],
//! [`crate::defense`], [`crate::sweep`], [`crate::load`]) only build cell
//! lists and render CSV columns.
//!
//! # Example
//!
//! Run a miniature scenario end to end and read the final connectivity:
//!
//! ```
//! use kad_experiments::runner::run_scenario;
//! use kad_experiments::scenario::ScenarioBuilder;
//!
//! let mut b = ScenarioBuilder::quick(12, 4);
//! b.name("doc-run").seed(9);
//! let outcome = run_scenario(&b.build());
//! let last = outcome.points.last().expect("snapshots on the grid");
//! assert_eq!(last.honest_size, 12);
//! // Deterministic: the same scenario replays the same series.
//! assert_eq!(run_scenario(&b.build()).points, outcome.points);
//! ```

use crate::attack_plan::{strategy_label, AttackSpec};
use crate::load::{
    draw_hot_keys, ledger_sampler, LoadActor, LoadReport, LoadSpec, LoadStats, LoadTelemetry,
};
use crate::observe::{run_observed, CellReport, TraceExemplar};
use crate::scenario::Scenario;
use crate::session::{
    AttackerActor, ChurnActor, JoinSchedule, MinuteActor, ProbeActor, Sampler, SessionDriver,
    SnapshotGrid, TrafficActor, TrafficOrigins,
};
use crate::sweep::{AttackPhase, PhasedAttackerActor};
use dessim::metrics::Counters;
use kad_defense::PolicyKind;
use kad_resilience::{analyze_snapshot, AnalysisConfig, ConnectivityReport};
use kad_telemetry::{
    FanoutSink, LogHistogram, LookupRecord, MinuteSeries, TelemetrySink, TracePurpose,
};
use kademlia::id::NodeId;
use std::cell::RefCell;
use std::rc::Rc;

/// Snapshot spacing from the attack start on, in minutes — denser than
/// the base grid so the series resolves each budget increment.
const ATTACK_SNAPSHOT_MINUTES: u64 = 2;

/// Cadence of the dissemination-durability probe. Every probe stores
/// [`PROBE_OBJECTS_PER_ROUND`](crate::session::PROBE_OBJECTS_PER_ROUND)
/// objects per store round and retrieves every
/// [`PROBE_EVERY_MIN`](crate::session::PROBE_EVERY_MIN) minutes (the
/// attack-phase snapshot spacing, so every attack-phase window holds a
/// retrievability sample).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeSpec {
    /// Minutes between store rounds (first at the end of setup).
    pub store_every_min: u64,
    /// Disjoint paths per disjoint probe retrieval (`d`); values ≤ 1
    /// disable the disjoint probe column.
    pub disjoint_paths: usize,
}

impl ProbeSpec {
    /// The service cadence: single-path retrievals.
    pub const SERVICE: ProbeSpec = ProbeSpec {
        store_every_min: 10,
        disjoint_paths: 1,
    };
    /// The defense cadence: single- and 3-disjoint-path retrievals.
    pub const DEFENSE: ProbeSpec = ProbeSpec {
        store_every_min: 8,
        disjoint_paths: 3,
    };
}

/// One live cell: a base [`Scenario`] plus everything that may act on the
/// overlay while it runs. The grids differ only in which of these are
/// switched on.
#[derive(Clone, Debug, PartialEq)]
pub struct LiveCell {
    /// The overlay scenario (size, churn, traffic, loss, protocol, seed).
    /// Its name is the cell's name in progress lines and observe
    /// artifacts.
    pub base: Scenario,
    /// The routing-table hardening policy ([`PolicyKind::None`] installs
    /// nothing).
    pub policy: PolicyKind,
    /// The attacker, if any.
    pub attack: Option<AttackSpec>,
    /// The attacker's phase script, first phase first; empty means the
    /// fixed plan of `attack` for the whole run. A trough-switched phase
    /// ([`SwitchRule::KappaBelow`](crate::sweep::SwitchRule::KappaBelow))
    /// reads [`minute_kappa`](crate::session::minute_kappa) at each of
    /// its minute boundaries after the first.
    pub phases: Vec<AttackPhase>,
    /// The durability probe, if any.
    pub probe: Option<ProbeSpec>,
    /// Which nodes originate the scenario's data traffic.
    pub origins: TrafficOrigins,
    /// A production-load workload ([`crate::load`]). A load cell reports
    /// its per-minute ledger, each row with that minute's
    /// [`minute_kappa`](crate::session::minute_kappa), instead of κ
    /// snapshots.
    pub load: Option<LoadSpec>,
}

impl LiveCell {
    /// The paper's plain scenario: traffic from every alive node, no
    /// attacker, no policy, no probe — what the figure registry and
    /// `repro matrix` run.
    pub fn plain(base: Scenario) -> Self {
        LiveCell {
            base,
            policy: PolicyKind::None,
            attack: None,
            phases: Vec::new(),
            probe: None,
            origins: TrafficOrigins::AllAlive,
            load: None,
        }
    }

    /// A service-telemetry cell with [`ProbeSpec::SERVICE`] and no
    /// attacker. Traffic comes from *honest* origins only: the success
    /// rates are honest-user quantities and the sink cannot tell an
    /// attacker-originated lookup apart.
    pub fn unattacked(base: Scenario) -> Self {
        LiveCell {
            probe: Some(ProbeSpec::SERVICE),
            origins: TrafficOrigins::HonestOnly,
            ..LiveCell::plain(base)
        }
    }

    /// A defense cell with no policy, no attacker and
    /// [`ProbeSpec::DEFENSE`]; honest origins like the service cell.
    pub fn undefended(base: Scenario) -> Self {
        LiveCell {
            probe: Some(ProbeSpec::DEFENSE),
            ..LiveCell::unattacked(base)
        }
    }

    /// Label of the attack-strategy column (`baseline` when unattacked).
    pub fn strategy_label(&self) -> &'static str {
        strategy_label(&self.attack)
    }
}

/// One snapshot of a live cell: κ and the service metrics over the window
/// since the previous point. Columns a cell's actors never feed stay 0.
#[derive(Clone, Debug, PartialEq)]
pub struct CellPoint {
    /// Simulated minutes (the x-axis of the paper's figures).
    pub time_min: f64,
    /// Label of the attack plan active at the snapshot (empty when the
    /// cell has no attacker).
    pub phase: &'static str,
    /// Compromises scheduled so far.
    pub budget_spent: usize,
    /// Honest alive nodes at the snapshot — the alive network size when
    /// nothing is compromised (the figures' right-hand axis).
    pub honest_size: usize,
    /// Connectivity analysis of the honest subgraph: the paper's c = 0.02
    /// sample with full flows ([`AnalysisConfig::paper_sampled`]).
    pub report: ConnectivityReport,
    /// Data lookups (purpose `Locate`) completed in the window.
    pub lookups: u64,
    /// Fraction of those that converged (0 when none completed).
    pub lookup_success_rate: f64,
    /// Mean hop count of converged lookups in the window (0 when none).
    pub hop_mean: f64,
    /// Single-path retrieval probes completed in the window.
    pub retrieves: u64,
    /// Fraction of those that found their object (0 when none ran).
    pub retrievability: f64,
    /// Disjoint-path retrieval probes completed in the window.
    pub retrieves_disjoint: u64,
    /// Fraction of those that found their object (0 when none ran).
    pub retrievability_disjoint: f64,
    /// Objects disseminated by the probe so far.
    pub stored_objects: usize,
    /// Cumulative defense liveness probes sent.
    pub probes: u64,
    /// Cumulative contact evictions, **network-wide**: natural staleness
    /// evictions are included, so the `none` rows are the baseline to
    /// subtract when attributing evictions to a policy.
    pub evictions: u64,
    /// Cumulative repair lookups launched.
    pub repairs: u64,
    /// Cumulative diversity rejections.
    pub diversity_rejects: u64,
    /// Cumulative diversity replacements.
    pub diversity_replaces: u64,
    /// Cumulative RPCs sent by everyone (the message bill the defense
    /// summary's overhead column is computed from).
    pub rpc_sent: u64,
}

/// The result of one live cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutcome {
    /// The cell that ran.
    pub scenario: LiveCell,
    /// Snapshot series, ascending in time (empty for load cells, whose
    /// per-minute rows are in `load`).
    pub points: Vec<CellPoint>,
    /// Hop-count distribution of all converged data lookups.
    pub hops: LogHistogram,
    /// Victims in scheduling order (`(minute, addr)`), for audit/replay
    /// comparisons.
    pub victims: Vec<(u64, u32)>,
    /// Phase transitions: `(minute, label of the plan switched to)`.
    pub phase_switches: Vec<(u64, &'static str)>,
    /// The load engine's ledger and telemetry, when the cell carried a
    /// load. Each ledger point holds that minute's κ reading
    /// ([`minute_kappa`](crate::session::minute_kappa)).
    pub load: Option<LoadReport>,
    /// Total compromises the attacker scheduled (≤ configured budget
    /// when it ran out of honest victims).
    pub budget_spent: usize,
    /// Protocol/transport counters accumulated over the run
    /// (`node_compromised` may trail `compromise_scheduled` if a victim
    /// churned away before its compromise fired).
    pub counters: Counters,
}

impl CellOutcome {
    /// Snapshots taken during the churn phase (time ≥ stabilization end)
    /// — the window Table 2 aggregates over.
    pub fn churn_phase(&self) -> impl Iterator<Item = &CellPoint> {
        let start = self.scenario.base.stabilization_minutes as f64;
        self.points.iter().filter(move |p| p.time_min >= start)
    }
}

/// The service aggregates every cell collects through the telemetry sink,
/// shared between the simulator and the sampler via `Rc<RefCell>`.
/// Aggregation is O(1) per record.
#[derive(Debug, Default)]
struct CellTelemetry {
    /// Per-minute locate completions: 1.0 = converged, 0.0 = not.
    lookups: MinuteSeries,
    /// Per-minute converged-locate hop counts.
    hop_series: MinuteSeries,
    /// Per-minute single-path retrievals: 1.0 = found, 0.0 = missing.
    retrieves: MinuteSeries,
    /// Per-minute disjoint-path retrievals: 1.0 = found, 0.0 = missing.
    retrieves_disjoint: MinuteSeries,
    /// Hop counts of converged locates, whole run.
    hops: LogHistogram,
}

impl TelemetrySink for CellTelemetry {
    fn on_lookup(&mut self, record: &LookupRecord) {
        let minute = record.completed_minute();
        let ok = record.outcome.is_success();
        let sample = if ok { 1.0 } else { 0.0 };
        match record.purpose {
            TracePurpose::Locate => {
                self.lookups.record(minute, sample);
                if ok {
                    self.hops.record(record.hops as u64);
                    self.hop_series.record(minute, record.hops as f64);
                }
            }
            TracePurpose::Retrieve => self.retrieves.record(minute, sample),
            TracePurpose::RetrieveDisjoint => self.retrieves_disjoint.record(minute, sample),
            // Maintenance, dissemination-control and repair traffic are
            // not service observations (repairs surface through the
            // network's `defense_repair` counter instead).
            _ => {}
        }
    }
}

/// The load engine's shared handles while a cell runs.
struct LoadWiring {
    spec: LoadSpec,
    sink: Rc<RefCell<LoadTelemetry>>,
    stats: Rc<RefCell<LoadStats>>,
    keys: Vec<NodeId>,
}

/// Runs a plain [`Scenario`] — [`run_cell`] on [`LiveCell::plain`].
pub fn run_scenario(scenario: &Scenario) -> CellOutcome {
    run_cell(&LiveCell::plain(scenario.clone()))
}

/// Runs a live cell to completion. Deterministic: the base scenario's
/// seed fixes the overlay, the attacker, the probe, the load arrivals and
/// the policy (labelled streams; policies are deterministic functions of
/// protocol state), so identical cells replay byte-identical outcomes.
///
/// When the base scenario observes, the cell runs under
/// [`run_observed`]: span profile installed on this thread, the session
/// journal joined to the telemetry sinks so lookup and defense records
/// land in the hash chain too, and (for load cells) p99 exemplar trace
/// trees captured. Observation never changes the outcome.
pub fn run_cell(cell: &LiveCell) -> CellOutcome {
    run_observed(cell.base.observe, &cell.base.name, || {
        run_cell_reported(cell)
    })
}

pub(crate) fn run_cell_reported(cell: &LiveCell) -> (CellOutcome, CellReport) {
    let base = &cell.base;
    let mut driver = SessionDriver::new(base);
    if cell.policy != PolicyKind::None {
        driver.network_mut().set_defense_policy(cell.policy.build());
    }
    let journal = driver.journal();
    let sink = Rc::new(RefCell::new(CellTelemetry::default()));
    let load = cell.load.map(|spec| {
        // Observed runs capture p99 exemplar trace trees; unobserved
        // runs keep `wants_traces` false so the simulator records no
        // spans at all.
        let telemetry = if base.observe {
            LoadTelemetry::with_exemplars(spec.phase_split)
        } else {
            LoadTelemetry::new(spec.phase_split)
        };
        LoadWiring {
            spec,
            sink: Rc::new(RefCell::new(telemetry)),
            stats: Rc::new(RefCell::new(LoadStats::default())),
            keys: draw_hot_keys(&driver),
        }
    });
    let mut sinks: Vec<Box<dyn TelemetrySink>> = vec![Box::new(Rc::clone(&sink))];
    if let Some(load) = &load {
        sinks.push(Box::new(Rc::clone(&load.sink)));
    }
    if let Some(journal) = &journal {
        sinks.push(Box::new(Rc::clone(journal)));
    }
    driver
        .network_mut()
        .set_telemetry_sink(if sinks.len() == 1 {
            sinks.pop().expect("one sink")
        } else {
            Box::new(FanoutSink::new(sinks))
        });

    // Probe rounds fire at the minute boundary *before* fresh stores and
    // before the minute's actions.
    let mut probe = cell
        .probe
        .map(|p| ProbeActor::new(&driver, p.store_every_min, p.disjoint_paths));
    let mut joins = JoinSchedule::new(&mut driver);
    let mut churn = ChurnActor;
    let mut traffic = TrafficActor::new(cell.origins);
    let mut load_actor = load.as_ref().map(|load| {
        LoadActor::new(
            &driver,
            load.spec,
            load.keys.clone(),
            Rc::clone(&load.sink),
            Rc::clone(&load.stats),
        )
    });
    let mut attacker = cell.attack.map(|spec| {
        // A non-silent load anchors the eclipse on its hottest key: the
        // replica set the attacker wipes is then the one the skewed
        // retrieval traffic depends on.
        let hottest = load
            .as_ref()
            .filter(|load| !load.spec.arrival.is_silent())
            .and_then(|load| load.keys.first());
        let inner = match hottest {
            Some(&key) => AttackerActor::with_anchor(spec, &driver, key),
            None => AttackerActor::new(spec, &driver),
        };
        PhasedAttackerActor::new(inner, &cell.phases)
    });
    let mut ledger = load.as_ref().map(|load| {
        ledger_sampler(
            Rc::clone(&load.sink),
            Rc::clone(&load.stats),
            load.spec.start_minute,
        )
    });
    let sink_handle = Rc::clone(&sink);
    let mut window_start = 0u64;
    let mut snapshots = ledger.is_none().then(|| {
        Sampler::new(
            SnapshotGrid {
                base_minutes: base.snapshot_minutes,
                attack_start: cell.attack.map(|a| a.start_minute),
                attack_minutes: ATTACK_SNAPSHOT_MINUTES,
            },
            move |net, ctx| {
                let snap = net.snapshot();
                let report = analyze_snapshot(&snap, &AnalysisConfig::paper_sampled());
                let t = sink_handle.borrow();
                let (from, to) = (window_start, ctx.at_minute);
                window_start = to;
                let window = |series: &MinuteSeries| series.range_stats(from, to);
                let (lookups, hops) = (window(&t.lookups), window(&t.hop_series));
                let (retrieves, disjoint) = (window(&t.retrieves), window(&t.retrieves_disjoint));
                let counters = net.counters();
                CellPoint {
                    time_min: ctx.time_min,
                    phase: ctx.shared.attack_label,
                    budget_spent: ctx.shared.budget_spent,
                    honest_size: snap.node_count(),
                    report,
                    lookups: lookups.count,
                    lookup_success_rate: lookups.mean(),
                    hop_mean: hops.mean(),
                    retrieves: retrieves.count,
                    retrievability: retrieves.mean(),
                    retrieves_disjoint: disjoint.count,
                    retrievability_disjoint: disjoint.mean(),
                    stored_objects: ctx.shared.stored_objects,
                    probes: counters.get("defense_probe"),
                    evictions: counters.get("contact_evicted"),
                    repairs: counters.get("defense_repair"),
                    diversity_rejects: counters.get("defense_diversity_reject"),
                    diversity_replaces: counters.get("defense_diversity_replace"),
                    rpc_sent: counters.get("rpc_sent"),
                }
            },
        )
    });

    fn optional<A: MinuteActor>(actor: &mut Option<A>) -> Option<&mut dyn MinuteActor> {
        actor.as_mut().map(|a| a as &mut dyn MinuteActor)
    }
    let mut actors: Vec<&mut dyn MinuteActor> = Vec::new();
    actors.extend(optional(&mut probe));
    actors.extend([&mut joins as &mut dyn MinuteActor, &mut churn, &mut traffic]);
    actors.extend(optional(&mut load_actor));
    actors.extend(optional(&mut attacker));
    actors.extend(optional(&mut ledger));
    actors.extend(optional(&mut snapshots));
    driver.run(&mut actors);

    let (net, shared) = driver.finish();
    let counters = net.counters().clone();
    let telemetry = sink.take();
    let load = load.zip(ledger).map(|(load, ledger)| LoadReport {
        points: ledger.into_points().into_iter().flatten().collect(),
        telemetry: load.sink.replace(LoadTelemetry::new(0)),
        stats: load.stats.take(),
    });
    let exemplars = load
        .iter()
        .flat_map(|report| report.telemetry.exemplar_reservoirs())
        .flat_map(|(phase, reservoir)| {
            reservoir.exemplars().iter().map(move |tree| TraceExemplar {
                phase: phase.label(),
                tree: tree.clone(),
            })
        })
        .collect();
    let outcome = CellOutcome {
        scenario: cell.clone(),
        points: snapshots.map_or_else(Vec::new, Sampler::into_points),
        hops: telemetry.hops,
        victims: shared.victims,
        phase_switches: shared.phase_switches,
        load,
        budget_spent: shared.budget_spent,
        counters: counters.clone(),
    };
    (
        outcome,
        CellReport {
            journal,
            counters,
            exemplars,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChurnRate, ScenarioBuilder, TrafficModel};

    fn tiny_scenario() -> Scenario {
        let mut b = ScenarioBuilder::quick(24, 8);
        b.name("tiny").seed(11);
        b.build()
    }

    #[test]
    fn tiny_run_produces_snapshots() {
        let outcome = run_scenario(&tiny_scenario());
        assert!(!outcome.points.is_empty());
        let last = outcome.points.last().expect("snapshots");
        assert_eq!(last.honest_size, 24);
        assert!(
            last.report.min_connectivity > 0,
            "stabilized lossless network should be connected: {}",
            last.report
        );
    }

    #[test]
    fn snapshots_are_time_ordered_on_grid() {
        let outcome = run_scenario(&tiny_scenario());
        let times: Vec<f64> = outcome.points.iter().map(|s| s.time_min).collect();
        let mut sorted = times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        assert_eq!(times, sorted);
        assert!((times[0] - 20.0).abs() < 1e-9, "first grid point at 20min");
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let a = run_scenario(&tiny_scenario());
        let b = run_scenario(&tiny_scenario());
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.report, y.report);
            assert_eq!(x.honest_size, y.honest_size);
        }
        assert_eq!(a.counters.get("msg_sent"), b.counters.get("msg_sent"));
    }

    #[test]
    fn different_seed_different_run() {
        let mut b = ScenarioBuilder::quick(24, 8);
        b.seed(12);
        let other = run_scenario(&b.build());
        let base = run_scenario(&tiny_scenario());
        assert_ne!(
            base.counters.get("msg_sent"),
            other.counters.get("msg_sent"),
            "different seeds should produce different traffic patterns"
        );
    }

    #[test]
    fn zero_one_churn_drains_network() {
        let mut b = ScenarioBuilder::quick(30, 6);
        b.name("drain")
            .seed(5)
            .churn(ChurnRate::ZERO_ONE)
            .churn_minutes(15)
            .snapshot_minutes(5);
        // quick() sets stabilization at 80 minutes.
        let outcome = run_scenario(&b.build());
        let last = outcome.points.last().expect("snapshots");
        assert_eq!(last.honest_size, 15, "30 nodes - 15 removals");
    }

    #[test]
    fn one_one_churn_keeps_size_stable() {
        let mut b = ScenarioBuilder::quick(20, 6);
        b.name("steady")
            .seed(6)
            .churn(ChurnRate::ONE_ONE)
            .churn_minutes(20)
            .snapshot_minutes(10);
        let outcome = run_scenario(&b.build());
        let last = outcome.points.last().expect("snapshots");
        assert_eq!(last.honest_size, 20);
        assert!(outcome.counters.get("node_removed") >= 20);
        assert!(outcome.counters.get("node_joined") >= 40);
    }

    #[test]
    fn churn_phase_filter() {
        let mut b = ScenarioBuilder::quick(16, 4);
        b.churn(ChurnRate::ONE_ONE)
            .churn_minutes(20)
            .snapshot_minutes(10);
        let outcome = run_scenario(&b.build());
        let churn_count = outcome.churn_phase().count();
        assert!(churn_count >= 2, "got {churn_count}");
        for s in outcome.churn_phase() {
            assert!(s.time_min >= 90.0);
        }
    }

    #[test]
    fn journaled_legacy_run_seals_minutes_and_stays_equivalent() {
        let mut b = ScenarioBuilder::quick(12, 4);
        b.name("legacy-journal").seed(3).traffic(TrafficModel {
            lookups_per_min: 2,
            stores_per_min: 1,
        });
        let scenario = b.build();
        let mut observed = LiveCell::plain(scenario.clone());
        observed.base.observe = true;
        let (outcome, report) = run_cell_reported(&observed);
        let journal = report.journal.expect("observed cells keep a journal");
        {
            let j = journal.borrow();
            assert_eq!(
                j.seals().len() as u64,
                scenario.end_minutes(),
                "one seal per minute"
            );
            assert!(j.counts()["join"] >= scenario.size as u64);
            assert!(j.counts()["action"] > 0, "traffic actions journaled");
            assert!(j.counts()["lookup"] > 0, "completed lookups journaled");
        }
        // Journaling is observation only: the run itself is unchanged.
        let unjournaled = run_scenario(&scenario);
        assert_eq!(outcome.points, unjournaled.points);
        assert_eq!(outcome.counters, unjournaled.counters);
        // Same seed, same chain: this is what `repro audit` diffs.
        let (_, again) = run_cell_reported(&observed);
        assert_eq!(
            journal.borrow().seals(),
            again.journal.expect("journal").borrow().seals()
        );
    }

    #[test]
    fn traffic_counters_reflect_scenario() {
        let mut b = ScenarioBuilder::quick(16, 4);
        b.traffic(TrafficModel {
            lookups_per_min: 3,
            stores_per_min: 1,
        });
        let outcome = run_scenario(&b.build());
        assert!(outcome.counters.get("lookup_started") > 0);
        assert!(outcome.counters.get("store_started") > 0);
        assert!(outcome.counters.get("store_rpc_sent") > 0);
    }

    /// One cell of each shape the grids build: same seed replays the same
    /// outcome, whichever actors are switched on.
    #[test]
    fn every_cell_shape_replays_identically() {
        use crate::scale::Scale;
        let first_of = |grid: Vec<LiveCell>| grid.into_iter().next().expect("non-empty grid");
        for cell in [
            first_of(crate::campaign::campaign_grid(Scale::Bench, 3)),
            first_of(crate::service::service_grid(Scale::Bench, 3)),
            first_of(crate::defense::defense_grid(Scale::Bench, 3)),
            first_of(crate::sweep::sweep_grid(Scale::Bench, 3)),
            first_of(crate::load::load_grid(Scale::Bench, 3)),
        ] {
            assert_eq!(run_cell(&cell), run_cell(&cell), "{}", cell.base.name);
        }
    }
}
