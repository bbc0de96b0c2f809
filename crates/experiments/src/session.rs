//! The minute-loop session engine: one composable driver for every live
//! workload.
//!
//! The paper's method is temporal — measure `κ` and `r` minute by minute
//! while churn, traffic, attackers and defenses act on the overlay. Three
//! runners used to hand-mirror that minute loop (campaign, service,
//! defense), each comment-pinned to the others; this module extracts the
//! loop once. A [`SessionDriver`] owns the [`SimNetwork`] and the minute
//! clock and runs an ordered set of [`MinuteActor`]s; the runners shrink
//! to actor wiring plus point assembly, and new workload shapes (the
//! mixed-phase `repro sweep`, for one) compose from the same parts
//! instead of cloning an 800-line loop.
//!
//! # Actor ordering semantics
//!
//! Each simulated minute the driver fires two hook rounds, both in the
//! order actors were passed to [`SessionDriver::run`]:
//!
//! 1. [`MinuteActor::on_minute`] at the minute boundary. Actors may
//!    mutate the network directly (probe rounds, scheduled compromises)
//!    and/or push timed [`Action`]s for this minute into the shared
//!    action list. Nothing is applied yet: an actor planning against the
//!    network (the attacker's snapshot) sees the state at the minute
//!    boundary regardless of what earlier actors queued.
//! 2. The driver sorts the queued actions by timestamp (stable, so
//!    same-instant actions keep actor order), applies each at its instant
//!    — advancing the event kernel between them — then drains the kernel
//!    to the minute end.
//! 3. [`MinuteActor::at_minute_end`] with the clock at `minute + 1`.
//!    Measurement actors sample here ([`Sampler`]).
//!
//! The canonical order, matching the historical runners byte for byte:
//! probes, joins, churn, traffic, attacker, sampler.
//!
//! # Determinism contract
//!
//! Every random draw comes from a labelled [`RngFactory`] stream, and
//! streams are independent (label-keyed, not sequential), so *which*
//! actors are wired only affects the streams they own:
//!
//! * `harness-schedule` — join instants (drawn in full by
//!   [`JoinSchedule::new`]), then churn and traffic instants in actor
//!   order within each minute;
//! * `harness-choices` / `harness-targets` — drawn by the driver while
//!   applying actions, in sorted-time order;
//! * `attacker` / `attacker-eclipse-target` — owned by the attacker
//!   actors; `service-probe` — owned by [`ProbeActor`].
//!
//! Identical scenario + identical actor wiring therefore replays
//! byte-identical outcomes, and the golden-equivalence suite pins that
//! the ported runners reproduce the pre-refactor CSVs exactly.

use crate::attack_plan::{pick_victim, AttackPlan, AttackSpec, EclipseState};
use crate::scenario::Scenario;
use dessim::rng::RngFactory;
use dessim::time::SimTime;
use kad_telemetry::journal::{Journal, JournalEvent};
use kad_telemetry::span;
use kademlia::id::NodeId;
use kademlia::network::SimNetwork;
use kademlia::NodeAddr;
use rand::rngs::SmallRng;
use rand::Rng;
use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::rc::Rc;

/// Harness actions applied at random instants within a minute. Attacker
/// compromises are *not* actions — they are scheduled through the event
/// queue directly so they interleave with deliveries at exact simulated
/// times.
#[derive(Clone, Copy, Debug)]
pub enum Action {
    /// Spawn a node and join it through a random alive bootstrap.
    Join,
    /// Silently remove a random alive node.
    Remove,
    /// Start a data lookup from this node for a random target.
    Lookup(NodeAddr),
    /// Start a dissemination from this node for a random key.
    Store(NodeAddr),
    /// Start a value retrieval from this node for a *fixed* key (the load
    /// engine's hot-key traffic; the key was drawn from the load actor's
    /// own stream at wiring time, so applying this draws nothing from the
    /// shared harness streams). The third field is the simulated
    /// milliseconds the request waited in the load engine's admission
    /// queue — a pure trace annotation (0 for unqueued requests) that the
    /// journal's `kind()`-only encoding never sees.
    RetrieveKey(NodeAddr, NodeId, u64),
}

impl Action {
    /// Static label naming the action kind (journal `Action` records).
    pub fn kind(&self) -> &'static str {
        match self {
            Action::Join => "join",
            Action::Remove => "churn",
            Action::Lookup(_) => "lookup",
            Action::Store(_) => "store",
            Action::RetrieveKey(..) => "retrieve",
        }
    }
}

/// The harness RNG streams shared between the driver and the schedule
/// actors (see the module docs for the stream map).
#[derive(Debug)]
pub struct HarnessRngs {
    /// Action instants: joins, churn, traffic (`harness-schedule`).
    pub schedule: SmallRng,
    /// Node choices while applying actions (`harness-choices`).
    pub choice: SmallRng,
    /// Lookup/store targets while applying actions (`harness-targets`).
    pub target: SmallRng,
}

/// Cross-actor state: actors publish, later actors (and the final
/// outcome assembly) read. Extending a workload means adding a field
/// here, not threading another `Rc<RefCell<_>>` through a hand loop.
#[derive(Clone, Debug, Default)]
pub struct SessionShared {
    /// Compromises scheduled so far (the attacker's spent budget).
    pub budget_spent: usize,
    /// Victims in scheduling order (`(minute, addr index)`), for
    /// audit/replay comparisons.
    pub victims: Vec<(u64, u32)>,
    /// Objects disseminated by the durability probe so far.
    pub stored_objects: usize,
    /// The most recent `κ_min` a sampler observed, as `(at_minute,
    /// κ_min)`, if it publishes one ([`SessionShared::publish_kappa`]) —
    /// the feedback signal phase-switching attackers trigger on. The
    /// sample minute travels with the value so consumers can reject
    /// stale feedback (e.g. a pre-attack snapshot).
    pub last_kappa: Option<(u64, u64)>,
    /// The live feed's *sampled* κ estimate for the latest fed minute, as
    /// `(at_minute, estimate)`. Only the sampled live feed
    /// ([`LiveKappaActor`] at [`SAMPLED_KAPPA_MIN_NODES`] and above)
    /// writes this; a min-only minute clears it, so it is `None` whenever
    /// the latest `κ_min` came from the sweep. That is how the CSV
    /// emitters know to render `na` in the `kappa_est`/`kappa_ci_*`
    /// columns instead of a number that could be mistaken for the sweep's
    /// bound, or for an earlier minute's estimate.
    pub last_kappa_estimate: Option<(u64, kad_resilience::KappaEstimate)>,
    /// Label of the attack phase currently active (phased attackers).
    pub attack_label: &'static str,
    /// Phase transitions a phased attacker performed: `(minute, label of
    /// the plan switched to)`.
    pub phase_switches: Vec<(u64, &'static str)>,
    /// The run's event journal, present when the scenario was built with
    /// [`Scenario::observe`](crate::scenario::Scenario) set. The driver
    /// records applied actions and seals each minute; actors with
    /// journal-worthy events (the attacker's compromises) record through
    /// the same handle. Recording draws no randomness and never touches
    /// the network, so observing a run cannot change its outcome.
    pub journal: Option<Rc<RefCell<Journal>>>,
}

impl SessionShared {
    /// Publishes a sampler's `κ_min` observation together with the
    /// minute it was taken at (samplers call this from their
    /// [`MinuteActor::at_minute_end`] hook).
    pub fn publish_kappa(&mut self, at_minute: u64, kappa_min: u64) {
        self.last_kappa = Some((at_minute, kappa_min));
    }

    /// The latest published `κ_min` sampled strictly *after* `minute` —
    /// `None` when the only feedback available predates it. Phased
    /// attackers use this so a stale pre-attack (or pre-phase) snapshot
    /// can never trigger a switch.
    pub fn kappa_since(&self, minute: u64) -> Option<u64> {
        self.last_kappa
            .filter(|&(at, _)| at > minute)
            .map(|(_, kappa)| kappa)
    }
}

/// Context handed to [`MinuteActor::on_minute`].
pub struct MinuteCtx<'a> {
    /// The minute about to run (clock is at its boundary).
    pub minute: u64,
    /// `minute * 60_000`.
    pub minute_start_ms: u64,
    /// Total session length in minutes.
    pub end_min: u64,
    /// The base scenario (churn, traffic, phases, protocol).
    pub base: &'a Scenario,
    /// The shared harness streams.
    pub rngs: &'a mut HarnessRngs,
    /// Cross-actor state.
    pub shared: &'a mut SessionShared,
    /// The minute's action list; the driver sorts and applies it after
    /// every actor ran.
    pub actions: &'a mut Vec<(u64, Action)>,
}

/// Context handed to [`MinuteActor::at_minute_end`].
pub struct EndCtx<'a> {
    /// The minute that just completed (`minute + 1`; the clock is here).
    pub at_minute: u64,
    /// `at_minute` as fractional minutes (the series x-axis).
    pub time_min: f64,
    /// Total session length in minutes.
    pub end_min: u64,
    /// The base scenario.
    pub base: &'a Scenario,
    /// Cross-actor state.
    pub shared: &'a mut SessionShared,
}

/// One composable per-minute behavior. Both hooks default to no-ops so
/// actors implement only the phase they act in.
pub trait MinuteActor {
    /// Called at the minute boundary, in actor order, before any of the
    /// minute's actions are applied.
    fn on_minute(&mut self, _net: &mut SimNetwork, _ctx: &mut MinuteCtx<'_>) {}

    /// Called after the minute's events drained, clock at `minute + 1`.
    fn at_minute_end(&mut self, _net: &mut SimNetwork, _ctx: &mut EndCtx<'_>) {}

    /// Static label for the actor's span in the driver's profile
    /// (`on-minute/<label>`, `minute-end/<label>`).
    fn label(&self) -> &'static str {
        "actor"
    }
}

/// Owns the network, the clock and the shared streams; runs the minute
/// loop over an ordered actor set. See the module docs for the exact
/// per-minute phase order.
pub struct SessionDriver<'s> {
    base: &'s Scenario,
    factory: RngFactory,
    net: SimNetwork,
    rngs: HarnessRngs,
    shared: SessionShared,
}

impl<'s> SessionDriver<'s> {
    /// Builds the network (transport from the scenario's loss model) and
    /// the harness streams for `base`.
    pub fn new(base: &'s Scenario) -> SessionDriver<'s> {
        let factory = RngFactory::new(base.seed);
        let transport = dessim::transport::Transport::default().with_loss(base.loss.to_model());
        let net = SimNetwork::new(base.protocol, transport, base.seed);
        let rngs = HarnessRngs {
            schedule: factory.stream("harness-schedule"),
            choice: factory.stream("harness-choices"),
            target: factory.stream("harness-targets"),
        };
        let mut shared = SessionShared::default();
        if base.observe {
            shared.journal = Some(Rc::new(RefCell::new(Journal::new())));
        }
        SessionDriver {
            base,
            factory,
            net,
            rngs,
            shared,
        }
    }

    /// The run's journal handle, when the scenario enables observation.
    /// Runners clone it to compose the journal into the telemetry sink
    /// chain and to emit `audit-chain.csv` after the run.
    pub fn journal(&self) -> Option<Rc<RefCell<Journal>>> {
        self.shared.journal.clone()
    }

    /// The scenario this session runs.
    pub fn base(&self) -> &'s Scenario {
        self.base
    }

    /// The labelled stream factory (actors derive their own streams from
    /// it at wiring time).
    pub fn factory(&self) -> &RngFactory {
        &self.factory
    }

    /// Mutable network access for pre-run wiring: telemetry sinks,
    /// defense policies.
    pub fn network_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    /// The harness streams, for actor constructors that must draw from a
    /// shared stream before the loop starts ([`JoinSchedule::new`]).
    pub fn rngs_mut(&mut self) -> &mut HarnessRngs {
        &mut self.rngs
    }

    /// Runs the full minute loop (`0..base.end_minutes()`) over the
    /// actors, in order. See the module docs for phase semantics.
    pub fn run(&mut self, actors: &mut [&mut dyn MinuteActor]) {
        let _session = span::span("session");
        let journal = self.shared.journal.clone();
        let end_min = self.base.end_minutes();
        for minute in 0..end_min {
            let minute_start_ms = minute * 60_000;
            let mut actions: Vec<(u64, Action)> = Vec::new();
            {
                let _phase = span::span("on-minute");
                let mut ctx = MinuteCtx {
                    minute,
                    minute_start_ms,
                    end_min,
                    base: self.base,
                    rngs: &mut self.rngs,
                    shared: &mut self.shared,
                    actions: &mut actions,
                };
                for actor in actors.iter_mut() {
                    let _actor = span::span(actor.label());
                    actor.on_minute(&mut self.net, &mut ctx);
                }
            }
            // Stable sort: same-instant actions keep actor order.
            actions.sort_by_key(|&(t, _)| t);
            {
                let _phase = span::span("actions");
                for (t, action) in actions {
                    self.net.run_until(SimTime::from_millis(t));
                    let affected = apply_action(
                        &mut self.net,
                        action,
                        self.base,
                        &mut self.rngs.choice,
                        &mut self.rngs.target,
                    );
                    if let Some(journal) = &journal {
                        let mut journal = journal.borrow_mut();
                        match (action, affected) {
                            (Action::Join, Some(addr)) => journal.record(JournalEvent::Join {
                                minute,
                                node: addr.index() as u32,
                            }),
                            (Action::Remove, Some(addr)) => journal.record(JournalEvent::Churn {
                                minute,
                                node: addr.index() as u32,
                            }),
                            _ => journal.record(JournalEvent::Action {
                                minute,
                                at_ms: t,
                                kind: action.kind(),
                            }),
                        }
                    }
                }
            }
            let minute_end = SimTime::from_minutes(minute + 1);
            {
                let _phase = span::span("drain");
                self.net.run_until(minute_end);
            }
            {
                let _phase = span::span("minute-end");
                let mut ctx = EndCtx {
                    at_minute: minute + 1,
                    time_min: minute_end.as_minutes_f64(),
                    end_min,
                    base: self.base,
                    shared: &mut self.shared,
                };
                for actor in actors.iter_mut() {
                    let _actor = span::span(actor.label());
                    actor.at_minute_end(&mut self.net, &mut ctx);
                }
            }
            if let Some(journal) = &journal {
                journal.borrow_mut().seal_minute(minute);
            }
        }
    }

    /// Tears the session down: the network (for counters; dropping it
    /// releases any telemetry-sink handle) and the shared state.
    pub fn finish(self) -> (SimNetwork, SessionShared) {
        (self.net, self.shared)
    }
}

/// Picks a uniformly random alive node, if any.
pub fn random_alive(net: &SimNetwork, rng: &mut SmallRng) -> Option<NodeAddr> {
    let alive = net.alive_addrs();
    if alive.is_empty() {
        None
    } else {
        Some(alive[rng.random_range(0..alive.len())])
    }
}

/// Applies one [`Action`] to the network, drawing node choices and
/// targets from the given streams. Returns the node the action created
/// or removed (joins and removals), so callers can journal the exact
/// population change without re-deriving the random choice.
pub fn apply_action(
    net: &mut SimNetwork,
    action: Action,
    base: &Scenario,
    choice_rng: &mut SmallRng,
    target_rng: &mut SmallRng,
) -> Option<NodeAddr> {
    match action {
        Action::Join => {
            let bootstrap = random_alive(net, choice_rng);
            let addr = net.spawn_node();
            net.join(addr, bootstrap);
            Some(addr)
        }
        Action::Remove => {
            let victim = random_alive(net, choice_rng);
            if let Some(addr) = victim {
                net.remove_node(addr);
            }
            victim
        }
        Action::Lookup(addr) => {
            // Draw the target before the liveness check (inside
            // `start_lookup`) so the random stream stays aligned whether or
            // not the node departed mid-minute.
            let target = NodeId::random(target_rng, base.protocol.bits);
            net.start_lookup(addr, target);
            None
        }
        Action::Store(addr) => {
            let key = NodeId::random(target_rng, base.protocol.bits);
            net.start_store(addr, key);
            None
        }
        Action::RetrieveKey(addr, key, queue_wait_ms) => {
            net.start_find_value_queued(addr, key, queue_wait_ms);
            None
        }
    }
}

// ----------------------------------------------------------------------
// The standard actors
// ----------------------------------------------------------------------

/// Queues the initial joins: instants uniform over the setup phase, drawn
/// in full from the `harness-schedule` stream at construction (before any
/// other actor draws from it — the historical stream order).
pub struct JoinSchedule {
    join_times: Vec<u64>,
    cursor: usize,
}

impl JoinSchedule {
    /// Draws the scenario's join schedule from the driver's shared
    /// schedule stream.
    pub fn new(driver: &mut SessionDriver<'_>) -> JoinSchedule {
        let base = driver.base();
        let setup_ms = base.setup_minutes.max(1) * 60_000;
        let size = base.size;
        let schedule = &mut driver.rngs_mut().schedule;
        let mut join_times: Vec<u64> = (0..size)
            .map(|_| schedule.random_range(0..setup_ms))
            .collect();
        join_times.sort_unstable();
        JoinSchedule {
            join_times,
            cursor: 0,
        }
    }
}

impl MinuteActor for JoinSchedule {
    fn label(&self) -> &'static str {
        "joins"
    }

    fn on_minute(&mut self, _net: &mut SimNetwork, ctx: &mut MinuteCtx<'_>) {
        while self.cursor < self.join_times.len()
            && self.join_times[self.cursor] < ctx.minute_start_ms + 60_000
        {
            ctx.actions
                .push((self.join_times[self.cursor], Action::Join));
            self.cursor += 1;
        }
    }
}

/// Queues churn actions (removals first, then joins — the historical draw
/// order) from the end of stabilization onward.
pub struct ChurnActor;

impl MinuteActor for ChurnActor {
    fn label(&self) -> &'static str {
        "churn"
    }

    fn on_minute(&mut self, _net: &mut SimNetwork, ctx: &mut MinuteCtx<'_>) {
        let base = ctx.base;
        if base.churn.is_active() && ctx.minute >= base.stabilization_minutes {
            for _ in 0..base.churn.remove_per_min {
                ctx.actions.push((
                    ctx.minute_start_ms + ctx.rngs.schedule.random_range(0..60_000),
                    Action::Remove,
                ));
            }
            for _ in 0..base.churn.add_per_min {
                ctx.actions.push((
                    ctx.minute_start_ms + ctx.rngs.schedule.random_range(0..60_000),
                    Action::Join,
                ));
            }
        }
    }
}

/// Which nodes originate data traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficOrigins {
    /// Every alive node, compromised included — right when the run
    /// measures only structural quantities (κ), since compromised nodes
    /// mimic honest behavior (the campaign runner).
    AllAlive,
    /// Honest nodes only — right when lookup success rates are the
    /// metric, because the population of origins *is* the metric's
    /// denominator and the sink cannot tell an attacker-originated
    /// lookup apart (the service and defense runners).
    HonestOnly,
}

/// Queues the per-node data traffic (lookups then stores per origin, the
/// historical draw order).
pub struct TrafficActor {
    origins: TrafficOrigins,
}

impl TrafficActor {
    /// A traffic actor drawing origins from the given population.
    pub fn new(origins: TrafficOrigins) -> TrafficActor {
        TrafficActor { origins }
    }
}

impl MinuteActor for TrafficActor {
    fn label(&self) -> &'static str {
        "traffic"
    }

    fn on_minute(&mut self, net: &mut SimNetwork, ctx: &mut MinuteCtx<'_>) {
        let Some(traffic) = ctx.base.traffic else {
            return;
        };
        let origins = match self.origins {
            TrafficOrigins::AllAlive => net.alive_addrs(),
            TrafficOrigins::HonestOnly => net.honest_addrs(),
        };
        for addr in origins {
            for _ in 0..traffic.lookups_per_min {
                ctx.actions.push((
                    ctx.minute_start_ms + ctx.rngs.schedule.random_range(0..60_000),
                    Action::Lookup(addr),
                ));
            }
            for _ in 0..traffic.stores_per_min {
                ctx.actions.push((
                    ctx.minute_start_ms + ctx.rngs.schedule.random_range(0..60_000),
                    Action::Store(addr),
                ));
            }
        }
    }
}

/// The live adversary: re-plans at each attack-minute boundary against a
/// fresh snapshot, picks victims under its [`AttackPlan`], and schedules
/// the compromises at random instants within the minute through the
/// event kernel. Publishes spent budget and the victim schedule into
/// [`SessionShared`].
pub struct AttackerActor {
    spec: AttackSpec,
    targeted: HashSet<NodeAddr>,
    cut_queue: VecDeque<NodeAddr>,
    eclipse: EclipseState,
    rng: SmallRng,
}

impl AttackerActor {
    /// Wires the attacker's streams (`attacker`,
    /// `attacker-eclipse-target`) from the session factory.
    pub fn new(spec: AttackSpec, driver: &SessionDriver<'_>) -> AttackerActor {
        let factory = driver.factory();
        let bits = driver.base().protocol.bits;
        AttackerActor {
            spec,
            targeted: HashSet::new(),
            cut_queue: VecDeque::new(),
            eclipse: EclipseState::new(NodeId::random(
                &mut factory.stream("attacker-eclipse-target"),
                bits,
            )),
            rng: factory.stream("attacker"),
        }
    }

    /// An attacker whose eclipse anchor is a *chosen* id rather than a
    /// random one — the load grid anchors the eclipse on its hottest key,
    /// so the compromised replica set sits exactly where the skewed
    /// retrieval traffic lands. The `attacker-eclipse-target` stream is
    /// left undrawn; streams are label-keyed, so no other stream shifts.
    pub fn with_anchor(
        spec: AttackSpec,
        driver: &SessionDriver<'_>,
        anchor: NodeId,
    ) -> AttackerActor {
        AttackerActor {
            spec,
            targeted: HashSet::new(),
            cut_queue: VecDeque::new(),
            eclipse: EclipseState::new(anchor),
            rng: driver.factory().stream("attacker"),
        }
    }

    /// Switches the victim-selection plan in place, keeping the targeted
    /// set, the cut queue and the eclipse anchor — the phased attackers
    /// of `repro sweep` drive this between minutes.
    pub fn set_plan(&mut self, plan: AttackPlan) {
        self.spec.plan = plan;
    }

    /// The active plan.
    pub fn plan(&self) -> AttackPlan {
        self.spec.plan
    }

    /// The attack spec this actor was wired with (plan reflects
    /// [`AttackerActor::set_plan`] switches).
    pub fn spec(&self) -> &AttackSpec {
        &self.spec
    }
}

impl MinuteActor for AttackerActor {
    fn label(&self) -> &'static str {
        "attacker"
    }

    fn on_minute(&mut self, net: &mut SimNetwork, ctx: &mut MinuteCtx<'_>) {
        if ctx.minute < self.spec.start_minute || ctx.shared.budget_spent >= self.spec.budget {
            return;
        }
        let snap = net.snapshot();
        for _ in 0..self.spec.compromises_per_min {
            if ctx.shared.budget_spent >= self.spec.budget {
                break;
            }
            let Some(victim) = pick_victim(
                self.spec.plan,
                net,
                &snap,
                &self.targeted,
                &mut self.cut_queue,
                &mut self.eclipse,
                &mut self.rng,
            ) else {
                break; // no honest victim left
            };
            self.targeted.insert(victim);
            let at = ctx.minute_start_ms + self.rng.random_range(0..60_000);
            net.schedule_compromise(SimTime::from_millis(at), victim);
            if let Some(journal) = &ctx.shared.journal {
                journal.borrow_mut().record(JournalEvent::Compromise {
                    minute: ctx.minute,
                    node: victim.index() as u32,
                });
            }
            ctx.shared.victims.push((ctx.minute, victim.index() as u32));
            ctx.shared.budget_spent += 1;
        }
    }
}

/// Objects the durability probe disseminates per store round.
pub const PROBE_OBJECTS_PER_ROUND: usize = 4;

/// Minutes between the durability probe's retrieval rounds.
pub const PROBE_EVERY_MIN: u64 = 2;

/// The dissemination-durability probe as an actor: retrieval rounds fire
/// every [`PROBE_EVERY_MIN`] minutes at the minute boundary *before*
/// fresh stores, so a probe never races the dissemination it just
/// scheduled. Publishes the tracked-object count into
/// [`SessionShared::stored_objects`].
pub struct ProbeActor {
    probe: kademlia::probe::DurabilityProbe,
    rng: SmallRng,
    store_every_min: u64,
    /// Paths per disjoint retrieval; ≤ 1 disables the disjoint column.
    disjoint_paths: usize,
}

impl ProbeActor {
    /// Wires the probe's `service-probe` stream from the session factory.
    pub fn new(
        driver: &SessionDriver<'_>,
        store_every_min: u64,
        disjoint_paths: usize,
    ) -> ProbeActor {
        ProbeActor {
            probe: kademlia::probe::DurabilityProbe::new(),
            rng: driver.factory().stream("service-probe"),
            store_every_min,
            disjoint_paths,
        }
    }
}

impl MinuteActor for ProbeActor {
    fn label(&self) -> &'static str {
        "probe"
    }

    fn on_minute(&mut self, net: &mut SimNetwork, ctx: &mut MinuteCtx<'_>) {
        if ctx.minute >= ctx.base.setup_minutes {
            if ctx.minute.is_multiple_of(PROBE_EVERY_MIN) && !self.probe.keys().is_empty() {
                self.probe.probe_round(net, &mut self.rng);
                if self.disjoint_paths > 1 {
                    self.probe
                        .probe_round_disjoint(net, self.disjoint_paths, &mut self.rng);
                }
            }
            if ctx.minute.is_multiple_of(self.store_every_min.max(1)) {
                self.probe
                    .store_round(net, PROBE_OBJECTS_PER_ROUND, &mut self.rng);
            }
        }
        ctx.shared.stored_objects = self.probe.keys().len();
    }
}

/// When snapshots are due: a base grid, optionally densified from the
/// attack's start minute (the κ(t) series must resolve each budget
/// increment). The final minute always samples.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotGrid {
    /// Grid spacing outside the attack phase, in minutes.
    pub base_minutes: u64,
    /// Minute the dense phase starts, if any.
    pub attack_start: Option<u64>,
    /// Grid spacing from `attack_start` onward.
    pub attack_minutes: u64,
}

impl SnapshotGrid {
    /// Whether `at_minute` is a sampling instant.
    pub fn due(&self, at_minute: u64, end_min: u64) -> bool {
        let grid = match self.attack_start {
            Some(start) if at_minute >= start => self.attack_minutes.max(1),
            _ => self.base_minutes.max(1),
        };
        at_minute.is_multiple_of(grid) || at_minute == end_min
    }
}

/// The per-minute κ feed: publishes the honest subgraph's `κ_min` into
/// [`SessionShared`] at the end of **every** minute from `start_minute`
/// on — not just at snapshot-grid instants. Trough-triggered attackers
/// ([`crate::sweep::SwitchRule::KappaBelow`]) and defense feedback loops
/// then react within one simulated minute of the connectivity dropping,
/// instead of waiting for the next grid sample.
///
/// Each minute costs one minimum-only sweep
/// ([`AnalysisConfig::min_only`](kad_resilience::AnalysisConfig::min_only):
/// cutoff pruning, unit-vertex flow kernel) on the honest snapshot. That
/// sweep is the paper's c = 0.02 heuristic (§5.2): flows only from the
/// `max(⌈0.02·n⌉, 8)` lowest-out-degree sources. The published value is
/// therefore an *upper bound* on κ(D), not the exact minimum — on
/// `paper::sim_gh(Scale::Bench, false, 10, 3)` at seed 2 it reads 18
/// where κ(D) = 11. One sweep at n=1000 is what kadbench's `kappa-min-1k`
/// workload times. The actor keeps no series: consumers read the feed
/// through [`SessionShared`] (a load cell's ledger records each minute's
/// value).
///
/// At [`SAMPLED_KAPPA_MIN_NODES`] honest nodes and above, the actor
/// switches to the stratified sampled estimator
/// ([`kad_resilience::sampled_kappa`]): a fixed pair budget per minute
/// instead of a min-only sweep whose cost grows with the overlay. The
/// published scalar is then the sampled minimum (an *upper bound* on the
/// true `κ_min`, exactly 0 whenever the strong-connectivity pre-check
/// fails — never falsely healthy), and the full estimate (mean + CI)
/// additionally lands in [`SessionShared::last_kappa_estimate`] for the
/// `kappa_est`/`kappa_ci_*` CSV columns. A min-only minute clears that
/// estimate, so an overlay that shrinks below the threshold stops
/// reporting one. Below the threshold nothing else changes, so bench- and
/// laptop-scale outputs stay byte-identical.
pub struct LiveKappaActor {
    start_minute: u64,
    analysis: kad_resilience::AnalysisConfig,
    sampled: kad_resilience::SampledKappaConfig,
    sampled_min_nodes: usize,
}

/// Honest-snapshot size at which [`LiveKappaActor`] switches from the
/// minimum-only sweep to the sampled estimator. Matches the scale where
/// `repro --scale large` starts (n=1000): below it the per-minute sweep
/// is affordable and keeps goldens byte-identical.
pub const SAMPLED_KAPPA_MIN_NODES: usize = 1_000;

/// Per-minute pair budget of the live sampled feed. Deliberately far
/// below [`kad_resilience::SampledKappaConfig::default`]'s offline
/// budget: the feed runs every simulated minute, and a couple hundred
/// max-flows bound its cost to the same order as the minimum-only sweep
/// it replaces at n=1k while staying flat through n=10k.
const LIVE_SAMPLED_PAIRS: usize = 256;

impl LiveKappaActor {
    /// A live κ feed active from `start_minute` (typically the attack
    /// start — feedback before that has nothing to react to).
    pub fn new(start_minute: u64) -> LiveKappaActor {
        LiveKappaActor {
            start_minute,
            analysis: kad_resilience::AnalysisConfig::min_only(),
            sampled: kad_resilience::SampledKappaConfig {
                target_pairs: LIVE_SAMPLED_PAIRS,
                ..Default::default()
            },
            sampled_min_nodes: SAMPLED_KAPPA_MIN_NODES,
        }
    }

    /// Like [`LiveKappaActor::new`] but with a custom sampled-mode
    /// threshold. `min_nodes: 0` forces the estimator on any overlay
    /// (used by tests to exercise the sampled path without building a
    /// thousand-node network); `usize::MAX` pins the min-only sweep.
    pub fn with_sampled_threshold(start_minute: u64, min_nodes: usize) -> LiveKappaActor {
        LiveKappaActor {
            sampled_min_nodes: min_nodes,
            ..LiveKappaActor::new(start_minute)
        }
    }
}

impl MinuteActor for LiveKappaActor {
    fn label(&self) -> &'static str {
        "live-kappa"
    }

    fn at_minute_end(&mut self, net: &mut SimNetwork, ctx: &mut EndCtx<'_>) {
        if ctx.at_minute < self.start_minute {
            return;
        }
        let snap = net.snapshot();
        let estimate = (snap.node_count() >= self.sampled_min_nodes).then(|| {
            let g = kad_resilience::snapshot_to_digraph(&snap);
            kad_resilience::sampled_kappa(&g, &self.sampled)
        });
        let kappa = match estimate {
            Some(est) => est.min_sampled,
            None => kad_resilience::analyze_snapshot(&snap, &self.analysis).min_connectivity,
        };
        ctx.shared.last_kappa_estimate = estimate.map(|est| (ctx.at_minute, est));
        ctx.shared.publish_kappa(ctx.at_minute, kappa);
    }
}

/// The measurement actor: on each due grid instant, runs the sample
/// closure and collects its typed point. The closure gets the network
/// (snapshots, counters) and the end-of-minute context (shared state,
/// time axis) — sink handles and window bookkeeping live in its
/// captures, so each runner's measurement logic stays local to it.
pub struct Sampler<P, F>
where
    F: FnMut(&mut SimNetwork, &mut EndCtx<'_>) -> P,
{
    grid: SnapshotGrid,
    sample: F,
    points: Vec<P>,
}

impl<P, F> Sampler<P, F>
where
    F: FnMut(&mut SimNetwork, &mut EndCtx<'_>) -> P,
{
    /// A sampler on the given grid.
    pub fn new(grid: SnapshotGrid, sample: F) -> Sampler<P, F> {
        Sampler {
            grid,
            sample,
            points: Vec::new(),
        }
    }

    /// The collected series, ascending in time.
    pub fn into_points(self) -> Vec<P> {
        self.points
    }
}

impl<P, F> MinuteActor for Sampler<P, F>
where
    F: FnMut(&mut SimNetwork, &mut EndCtx<'_>) -> P,
{
    fn label(&self) -> &'static str {
        "sampler"
    }

    fn at_minute_end(&mut self, net: &mut SimNetwork, ctx: &mut EndCtx<'_>) {
        if self.grid.due(ctx.at_minute, ctx.end_min) {
            let point = (self.sample)(net, ctx);
            self.points.push(point);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChurnRate, ScenarioBuilder};
    use kad_resilience::KappaEstimate;

    #[test]
    fn driver_with_join_actor_builds_the_overlay() {
        let mut b = ScenarioBuilder::quick(10, 4);
        b.name("session-joins").seed(3).stabilization_minutes(35);
        let base = b.build();
        let mut driver = SessionDriver::new(&base);
        let mut joins = JoinSchedule::new(&mut driver);
        let mut traffic = TrafficActor::new(TrafficOrigins::AllAlive);
        driver.run(&mut [&mut joins, &mut traffic]);
        let (net, shared) = driver.finish();
        assert_eq!(net.alive_addrs().len(), 10, "every scheduled join landed");
        assert_eq!(shared.budget_spent, 0);
    }

    #[test]
    fn snapshot_grid_densifies_from_attack_start() {
        let grid = SnapshotGrid {
            base_minutes: 20,
            attack_start: Some(40),
            attack_minutes: 2,
        };
        assert!(grid.due(20, 100));
        assert!(!grid.due(30, 100), "off-grid before the attack");
        assert!(grid.due(42, 100), "dense during the attack");
        assert!(!grid.due(43, 100));
        assert!(grid.due(100, 100), "final minute always samples");
        let no_attack = SnapshotGrid {
            base_minutes: 20,
            attack_start: None,
            attack_minutes: 2,
        };
        assert!(!no_attack.due(42, 100));
    }

    #[test]
    fn composed_session_replays_identically() {
        let run = || {
            let mut b = ScenarioBuilder::quick(12, 4);
            b.name("session-replay")
                .seed(9)
                .stabilization_minutes(40)
                .churn(ChurnRate::ONE_ONE)
                .churn_minutes(8)
                .snapshot_minutes(10);
            let base = b.build();
            let mut driver = SessionDriver::new(&base);
            let mut joins = JoinSchedule::new(&mut driver);
            let mut churn = ChurnActor;
            let mut traffic = TrafficActor::new(TrafficOrigins::AllAlive);
            let mut attacker = AttackerActor::new(
                AttackSpec {
                    plan: AttackPlan::Random,
                    budget: 3,
                    compromises_per_min: 1,
                    start_minute: 40,
                },
                &driver,
            );
            let mut sampler = Sampler::new(
                SnapshotGrid {
                    base_minutes: 10,
                    attack_start: Some(40),
                    attack_minutes: 2,
                },
                |net: &mut SimNetwork, ctx: &mut EndCtx<'_>| {
                    (
                        ctx.at_minute,
                        net.snapshot().node_count(),
                        ctx.shared.budget_spent,
                    )
                },
            );
            driver.run(&mut [
                &mut joins,
                &mut churn,
                &mut traffic,
                &mut attacker,
                &mut sampler,
            ]);
            let (net, shared) = driver.finish();
            (
                sampler.into_points(),
                shared.victims,
                net.counters().clone(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same wiring, same seed, same everything");
        assert_eq!(a.1.len(), 3, "attacker spent its budget");
    }

    #[test]
    fn live_kappa_switches_to_the_sampled_estimator_past_the_threshold() {
        // Same overlay, two thresholds: above the overlay size the actor
        // must run the min-only sweep (no estimates), at 0 it must run the
        // estimator every minute and publish both the scalar feed and the
        // full estimate. A 14-node network stands in for n=1000 — the
        // switch tests size against `sampled_min_nodes`, nothing else. The
        // feed is read the way a load ledger reads it: through a sampler
        // over `SessionShared` at every minute end.
        type Fed = (u64, usize, Option<(u64, u64)>, Option<(u64, KappaEstimate)>);
        let run = |min_nodes: usize, churn: ChurnRate| -> Vec<Fed> {
            let mut b = ScenarioBuilder::quick(14, 4);
            b.name("session-live-kappa")
                .seed(5)
                .stabilization_minutes(35)
                .churn(churn)
                .churn_minutes(4);
            let base = b.build();
            let mut driver = SessionDriver::new(&base);
            let mut joins = JoinSchedule::new(&mut driver);
            let mut churn = ChurnActor;
            let mut traffic = TrafficActor::new(TrafficOrigins::AllAlive);
            let mut kappa = LiveKappaActor::with_sampled_threshold(30, min_nodes);
            let every_minute = SnapshotGrid {
                base_minutes: 1,
                attack_start: None,
                attack_minutes: 1,
            };
            let mut feed = Sampler::new(
                every_minute,
                |net: &mut SimNetwork, ctx: &mut EndCtx<'_>| {
                    (
                        ctx.at_minute,
                        net.snapshot().node_count(),
                        ctx.shared.last_kappa,
                        ctx.shared.last_kappa_estimate,
                    )
                },
            );
            driver.run(&mut [&mut joins, &mut churn, &mut traffic, &mut kappa, &mut feed]);
            feed.into_points()
                .into_iter()
                .filter(|&(at, ..)| at >= 30)
                .collect()
        };

        let fed = run(usize::MAX, ChurnRate::NONE);
        assert!(!fed.is_empty());
        for &(at, _, kappa, estimate) in &fed {
            assert_eq!(
                kappa.map(|(k_at, _)| k_at),
                Some(at),
                "scalar feed every minute"
            );
            assert!(estimate.is_none(), "min-only path publishes no estimates");
        }

        for &(at, _, kappa, estimate) in &run(0, ChurnRate::NONE) {
            let (est_at, est) = estimate.expect("sampled path estimates every fed minute");
            assert_eq!(est_at, at);
            assert_eq!(
                kappa,
                Some((at, est.min_sampled)),
                "the scalar feed is the sampled minimum"
            );
            assert!(est.ci_lo <= est.ci_hi);
            assert!(est.brackets(est.kappa_est));
        }

        // A shrinking overlay at the threshold: 0/1 churn takes the
        // 14-node overlay below 14 from minute 36 on. Every minute at the
        // threshold carries its own estimate; every minute below it ran
        // the min-only sweep and must carry none — not the last estimate
        // from before the overlay shrank.
        let fed = run(14, ChurnRate::ZERO_ONE);
        assert!(fed.iter().any(|&(_, n, ..)| n >= 14), "sampled minutes ran");
        assert!(fed.iter().any(|&(_, n, ..)| n < 14), "the overlay shrank");
        for &(at, n, _, estimate) in &fed {
            if n >= 14 {
                assert_eq!(estimate.map(|(est_at, _)| est_at), Some(at), "minute {at}");
            } else {
                assert!(
                    estimate.is_none(),
                    "minute {at} ({n} honest nodes) ran the min-only sweep \
                     but carries the estimate from minute {:?}",
                    estimate.map(|(est_at, _)| est_at)
                );
            }
        }
    }
}
