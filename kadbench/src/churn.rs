//! `churn-lossy-1k`: the same layers as the steady workloads, used the
//! other way — the *write* path, under the session engine.
//!
//! n=1000 through `SessionDriver` with `JoinSchedule`, `ChurnActor` and
//! `TrafficActor`: churn 10/10, 25 % two-way loss, one lookup and one store
//! per node per minute. Joins, departures, RPC timeouts, evictions and
//! expiring (not cancelled) timers dominate, with the session's minute loop
//! on top.
//!
//! `SessionDriver::run` owns the whole minute loop, so the harness brackets
//! it from inside: a first and a last `MinuteActor`, owned by the
//! benchmark, timestamp both hook rounds of every minute. Everything
//! between the last `on_minute` and the first `at_minute_end` is the
//! driver applying actions and draining the event kernel.

use crate::harness::{Check, Measured, RunArgs};
use crate::machine;
use crate::probes::CounterDelta;
use crate::sim::{self, CountingSink, Drained};
use crate::spec;
use crate::stats;
use crate::trace::{SpanId, Tracer, TIMED};
use dessim::loss::LossScenario;
use dessim::metrics::Counters;
use kad_experiments::scenario::{ChurnRate, Scenario, ScenarioBuilder, TrafficModel};
use kad_experiments::session::{
    Action, ChurnActor, EndCtx, JoinSchedule, MinuteActor, MinuteCtx, SessionDriver, TrafficActor,
    TrafficOrigins,
};
use kademlia::config::RefreshPolicy;
use kademlia::network::SimNetwork;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Joins over 20 simulated minutes, stabilisation to minute 60.
const SETUP_MINUTES: u64 = 20;
const STABLE_MINUTES: u64 = 60;

fn scenario(nodes: usize, timed_minutes: u64, seed: u64) -> Scenario {
    let mut b = ScenarioBuilder::default();
    b.name("kadbench-churn-lossy")
        .size(nodes)
        .churn(ChurnRate::TEN_TEN)
        .traffic(TrafficModel {
            lookups_per_min: 1,
            stores_per_min: 1,
        })
        .loss(LossScenario::Medium)
        .k(20)
        .staleness_limit(1)
        .refresh_policy(RefreshPolicy::OccupiedWithMargin(3))
        .setup_minutes(SETUP_MINUTES)
        .stabilization_minutes(STABLE_MINUTES)
        .churn_minutes(timed_minutes)
        .seed(seed);
    b.build()
}

/// The harness's clock inside the session: shared by the two bracketing
/// actors.
struct Clock<'t> {
    tracer: &'t mut Tracer,
    sink: Option<Rc<RefCell<CountingSink>>>,
    session_start: Instant,
    setup_s: f64,
    timed_start: Instant,
    wall_s: f64,
    mark: Instant,
    /// Lookup/store actions the traffic actor queued in timed minutes.
    planned_ops: u64,
    counters_at_start: Counters,
    timed_span: Option<SpanId>,
    minute_span: Option<SpanId>,
    phase_span: Option<SpanId>,
    on_minute_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    minute_end_ms: Vec<f64>,
    minute_ms: Vec<f64>,
    minute_start: Instant,
}

impl Clock<'_> {
    /// Closes the running phase span, opens the next, and returns the
    /// milliseconds the closed phase took.
    fn next_phase(&mut self, next: Option<&'static str>) -> f64 {
        if let Some(span) = self.phase_span.take() {
            self.tracer.close(span);
        }
        let now = Instant::now();
        let ms = now.duration_since(self.mark).as_secs_f64() * 1e3;
        self.mark = now;
        self.phase_span = next.map(|name| self.tracer.open(name));
        ms
    }
}

/// Which end of the actor list a [`Bracket`] sits at.
#[derive(Clone, Copy, PartialEq)]
enum End {
    First,
    Last,
}

struct Bracket<'t> {
    end: End,
    clock: Rc<RefCell<Clock<'t>>>,
}

impl MinuteActor for Bracket<'_> {
    fn label(&self) -> &'static str {
        "kadbench-bracket"
    }

    fn on_minute(&mut self, net: &mut SimNetwork, ctx: &mut MinuteCtx<'_>) {
        if ctx.minute < STABLE_MINUTES {
            return;
        }
        let mut guard = self.clock.borrow_mut();
        let clock = &mut *guard;
        match self.end {
            End::First => {
                if ctx.minute == STABLE_MINUTES {
                    clock.setup_s = clock.session_start.elapsed().as_secs_f64();
                    clock.counters_at_start = net.counters().clone();
                    if let Some(sink) = &clock.sink {
                        net.set_telemetry_sink(Box::new(Rc::clone(sink)));
                    }
                    clock.timed_span = Some(clock.tracer.open(TIMED));
                    clock.timed_start = Instant::now();
                }
                clock.minute_span = Some(clock.tracer.open("minute"));
                clock.minute_start = Instant::now();
                clock.mark = clock.minute_start;
                clock.phase_span = Some(clock.tracer.open("kad_experiments.on_minute"));
            }
            End::Last => {
                clock.planned_ops += ctx
                    .actions
                    .iter()
                    .filter(|(_, a)| matches!(a, Action::Lookup(_) | Action::Store(_)))
                    .count() as u64;
                let ms = clock.next_phase(Some("kad_experiments.actions_drain"));
                clock.on_minute_ms.push(ms);
            }
        }
    }

    fn at_minute_end(&mut self, _net: &mut SimNetwork, ctx: &mut EndCtx<'_>) {
        if ctx.at_minute <= STABLE_MINUTES {
            return;
        }
        let mut guard = self.clock.borrow_mut();
        let clock = &mut *guard;
        match self.end {
            End::First => {
                let ms = clock.next_phase(Some("kad_experiments.minute_end"));
                clock.drain_ms.push(ms);
            }
            End::Last => {
                let ms = clock.next_phase(None);
                clock.minute_end_ms.push(ms);
                if let Some(span) = clock.minute_span.take() {
                    clock.tracer.close(span);
                }
                clock
                    .minute_ms
                    .push(clock.minute_start.elapsed().as_secs_f64() * 1e3);
                if ctx.at_minute == ctx.end_min {
                    clock.wall_s = clock.timed_start.elapsed().as_secs_f64();
                    if let Some(span) = clock.timed_span.take() {
                        clock.tracer.close(span);
                    }
                }
            }
        }
    }
}

/// Runs `churn-lossy-1k`.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Measured {
    let sizes = spec::sizes(args.workload, args.quick);
    let minutes = args.timed_minutes();
    let base = scenario(sizes.nodes, minutes, args.seed);
    let sink = args
        .trace
        .then(|| Rc::new(RefCell::new(CountingSink::default())));

    let now = Instant::now();
    let clock = Rc::new(RefCell::new(Clock {
        tracer,
        sink: sink.clone(),
        session_start: now,
        setup_s: 0.0,
        timed_start: now,
        wall_s: 0.0,
        mark: now,
        planned_ops: 0,
        counters_at_start: Counters::new(),
        timed_span: None,
        minute_span: None,
        phase_span: None,
        on_minute_ms: Vec::new(),
        drain_ms: Vec::new(),
        minute_end_ms: Vec::new(),
        minute_ms: Vec::new(),
        minute_start: now,
    }));

    let mut driver = SessionDriver::new(&base);
    let mut joins = JoinSchedule::new(&mut driver);
    let mut churn = ChurnActor;
    let mut traffic = TrafficActor::new(TrafficOrigins::AllAlive);
    let mut first = Bracket {
        end: End::First,
        clock: Rc::clone(&clock),
    };
    let mut last = Bracket {
        end: End::Last,
        clock: Rc::clone(&clock),
    };
    driver.run(&mut [&mut first, &mut joins, &mut churn, &mut traffic, &mut last]);
    let peak_rss_mb = machine::peak_rss_mb();
    let (mut net, _shared) = driver.finish();
    drop((first, last));
    let clock = Rc::try_unwrap(clock)
        .unwrap_or_else(|_| panic!("bracket actors dropped"))
        .into_inner();

    let after_timed = net.counters().clone();
    let Drained {
        unfinished,
        alive,
        edges,
        digest,
    } = sim::drain_and_digest(&mut net);
    let delta = CounterDelta {
        before: &clock.counters_at_start,
        after: &after_timed,
    };
    // A node that departs mid-minute cannot start the traffic planned for
    // it: those injections never reach the program and are the model's
    // doing, so they count as neither attempted nor failed. What the
    // program accepted and did not finish on a live node is a failure.
    let started = delta.get("lookup_started") + delta.get("store_started");

    let mut m = Measured {
        setup_s: vec![clock.setup_s],
        wall_s: clock.wall_s,
        work_items: minutes as f64,
        unit_ms: clock.minute_ms,
        peak_rss_mb,
        attempted: started,
        failed: unfinished,
        digest,
        lengths: vec![
            ("nodes", sizes.nodes as u64),
            ("setup_minutes", STABLE_MINUTES),
            ("timed_minutes", minutes),
        ],
        ..Measured::default()
    };
    m.counts = sim::exact_counts(&delta, alive, edges);
    m.counts.push(("planned_ops", clock.planned_ops));
    m.counts
        .push(("origin_departed", clock.planned_ops - started));
    m.checks.push(Check::new(
        "accepted_lookups_finish",
        unfinished == 0,
        format!(
            "{} planned, {started} accepted, {unfinished} unfinished on live nodes after the drain",
            clock.planned_ops
        ),
    ));
    m.checks.push(Check::new(
        "churn_keeps_size",
        alive == sizes.nodes,
        format!("{alive} alive after 10/10 churn on {}", sizes.nodes),
    ));
    m.check_pins(args, None);

    if let Some(sink) = sink {
        let drain_s: f64 = clock.drain_ms.iter().sum::<f64>() / 1e3;
        let timeout_ms = net.config().rpc_timeout.as_millis();
        sim::counter_layer_metrics(&mut m, &delta, minutes, drain_s, args.seed, timeout_ms);
        sim::sink_layer_metrics(&mut m, &sink.borrow());
        sim::overlay_layer_metrics(&mut m, &net, sizes.nodes, clock.setup_s, args.seed);
        m.layer(
            "kad_experiments.session_on_minute_ms",
            stats::median(&clock.on_minute_ms),
        );
        m.layer(
            "kad_experiments.session_drain_ms",
            stats::median(&clock.drain_ms),
        );
        m.layer(
            "kad_experiments.session_minute_end_ms",
            stats::median(&clock.minute_end_ms),
        );
        m.layer(
            "kad_experiments.session_harness_share",
            1.0 - drain_s / clock.wall_s,
        );
    }
    m
}
