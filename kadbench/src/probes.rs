//! Isolated probes: one layer's public API replayed on inputs taken from
//! the workload, with everything random drawn before the clock starts.

use crate::stats;
use dessim::event::EventId;
use dessim::metrics::Counters;
use dessim::scheduler::EventQueue;
use dessim::time::SimTime;
use kad_telemetry::LogHistogram;
use kademlia::contact::{Contact, NodeAddr};
use kademlia::id::NodeId;
use kademlia::network::SimNetwork;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// The difference of two counter snapshots, by name.
pub struct CounterDelta<'a> {
    pub before: &'a Counters,
    pub after: &'a Counters,
}

impl CounterDelta<'_> {
    pub fn get(&self, name: &str) -> u64 {
        self.after.get(name) - self.before.get(name)
    }

    pub fn per(&self, numerator: &str, denominator: &str) -> f64 {
        ratio(self.get(numerator) as f64, self.get(denominator) as f64)
    }
}

/// `a / b`, 0 when `b` is 0 (a layer the workload never entered).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One simulated minute's scheduler traffic, from the workload's own
/// counter deltas: every RPC arms a timeout timer, every message that
/// survives the transport is a delivery event, every in-time response
/// cancels its timer.
#[derive(Clone, Copy, Debug)]
pub struct ReplayMix {
    pub rpcs: u64,
    pub deliveries: u64,
    pub cancels: u64,
}

impl ReplayMix {
    pub fn per_minute(delta: &CounterDelta<'_>, minutes: u64) -> ReplayMix {
        let per = |v: u64| v / minutes.max(1);
        ReplayMix {
            rpcs: per(delta.get("rpc_sent")),
            deliveries: per(delta.get("msg_sent") - delta.get("msg_lost")),
            cancels: per(delta.get("response_received")),
        }
    }
}

/// What became of one replayed RPC.
#[derive(Clone, Copy, PartialEq)]
enum Fate {
    /// Request and response delivered; the response cancels the timer.
    Answered,
    /// Request delivered, no response: the timer expires.
    Unanswered,
    /// Request lost: only the timer exists.
    Lost,
}

#[derive(Clone, Copy)]
struct PlannedRpc {
    start_ms: u32,
    request_delay: u16,
    response_delay: u16,
    fate: Fate,
}

enum Replayed {
    Request(u32),
    Response(u32),
    Timeout,
}

/// Result of [`dessim_replay`].
pub struct ReplayCost {
    pub ns_per_event: f64,
    /// Host seconds one replayed minute took (median).
    pub secs_per_minute: f64,
}

/// Replays one simulated minute of the workload's scheduler mix on a bare
/// [`EventQueue`]: deliveries with transport-window delays (10–100 ms),
/// timeout timers at `timeout_ms`, cancels on answered RPCs. No protocol
/// logic runs, so the cost is the scheduler's alone — the ceiling on what a
/// scheduler change can save. RPC start instants are uniform over the
/// minute. One warm minute fills the queue's pools, then the median of
/// three.
pub fn dessim_replay(mix: ReplayMix, timeout_ms: u64, seed: u64) -> ReplayCost {
    if mix.rpcs == 0 {
        return ReplayCost {
            ns_per_event: 0.0,
            secs_per_minute: 0.0,
        };
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xde55_1a11);
    let answered = mix.cancels.min(mix.rpcs);
    let unanswered = mix
        .deliveries
        .saturating_sub(2 * answered)
        .min(mix.rpcs - answered);
    let mut plan: Vec<PlannedRpc> = (0..mix.rpcs)
        .map(|i| PlannedRpc {
            start_ms: rng.random_range(0..60_000u32),
            request_delay: rng.random_range(10..=100u16),
            response_delay: rng.random_range(10..=100u16),
            fate: if i < answered {
                Fate::Answered
            } else if i < answered + unanswered {
                Fate::Unanswered
            } else {
                Fate::Lost
            },
        })
        .collect();
    plan.sort_by_key(|rpc| rpc.start_ms);

    let mut queue: EventQueue<Replayed> = EventQueue::new();
    let mut timers: Vec<Option<EventId>> = vec![None; plan.len()];
    let mut scheduled = 0u64;
    let handle = |queue: &mut EventQueue<Replayed>,
                  timers: &mut [Option<EventId>],
                  scheduled: &mut u64,
                  at: SimTime,
                  event: Replayed| match event {
        Replayed::Request(i) => {
            let rpc = plan[i as usize];
            if rpc.fate == Fate::Answered {
                let due = SimTime::from_millis(at.as_millis() + u64::from(rpc.response_delay));
                queue.schedule_at(due, Replayed::Response(i));
                *scheduled += 1;
            }
        }
        Replayed::Response(i) => {
            if let Some(timer) = timers[i as usize].take() {
                queue.cancel(timer);
            }
        }
        Replayed::Timeout => {}
    };

    let mut minute_secs = Vec::new();
    let mut measured_events = 0u64;
    for minute in 0..4u64 {
        let base = minute * 60_000;
        let events_before = scheduled;
        let start = Instant::now();
        for (i, rpc) in plan.iter().enumerate() {
            let now = SimTime::from_millis(base + u64::from(rpc.start_ms));
            while let Some((at, event)) = queue.pop_before(now) {
                handle(&mut queue, &mut timers, &mut scheduled, at, event);
            }
            queue.advance_to(now);
            let expiry = SimTime::from_millis(now.as_millis() + timeout_ms);
            timers[i] = Some(queue.schedule_at(expiry, Replayed::Timeout));
            scheduled += 1;
            if rpc.fate != Fate::Lost {
                let due = SimTime::from_millis(now.as_millis() + u64::from(rpc.request_delay));
                queue.schedule_at(due, Replayed::Request(i as u32));
                scheduled += 1;
            }
        }
        // Drain to the minute boundary only, like `SimNetwork::run_until`:
        // the tail spills into the next minute, which in steady state
        // inherits as much as it passes on.
        let end = SimTime::from_millis(base + 60_000);
        while let Some((at, event)) = queue.pop_before(end) {
            handle(&mut queue, &mut timers, &mut scheduled, at, event);
        }
        queue.advance_to(end);
        if minute > 0 {
            minute_secs.push(start.elapsed().as_secs_f64());
            measured_events = scheduled - events_before;
        }
    }
    black_box(queue.delivered());
    let secs_per_minute = stats::median(&minute_secs);
    ReplayCost {
        ns_per_event: secs_per_minute * 1e9 / measured_events.max(1) as f64,
        secs_per_minute,
    }
}

/// Nanoseconds per `RoutingTable::closest_into` over the built tables:
/// `targets` pre-drawn ids, each asked of the next alive node in turn, `k`
/// closest into a reused buffer.
pub fn closest_into_ns(net: &SimNetwork, targets: &[NodeId]) -> f64 {
    let alive: Vec<NodeAddr> = net.alive_addrs();
    if alive.is_empty() || targets.is_empty() {
        return 0.0;
    }
    let k = net.config().k;
    let mut out: Vec<Contact> = Vec::with_capacity(k);
    let start = Instant::now();
    for (i, target) in targets.iter().enumerate() {
        let table = &net.node(alive[i % alive.len()]).routing;
        table.closest_into(black_box(target), k, &mut out);
        black_box(out.len());
    }
    start.elapsed().as_nanos() as f64 / targets.len() as f64
}

/// Pre-draws `count` lookup targets.
pub fn draw_targets(rng: &mut SmallRng, bits: u16, count: usize) -> Vec<NodeId> {
    (0..count).map(|_| NodeId::random(rng, bits)).collect()
}

/// Median milliseconds of three runs of `f`.
pub fn median_ms_of_three(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// Median milliseconds of three `SimNetwork::snapshot` calls.
pub fn snapshot_ms(net: &SimNetwork) -> f64 {
    median_ms_of_three(|| {
        black_box(net.snapshot().edge_count());
    })
}

/// Nanoseconds per `LogHistogram::record` over a million pre-drawn
/// latency-like values.
pub fn histogram_record_ns(seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4157);
    let values: Vec<u64> = (0..1_000_000)
        .map(|_| rng.random_range(1..5_000u64))
        .collect();
    let mut histogram = LogHistogram::new();
    let start = Instant::now();
    for &v in &values {
        histogram.record(black_box(v));
    }
    let ns = start.elapsed().as_nanos() as f64 / values.len() as f64;
    black_box(histogram.count());
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_schedules_the_mix_it_was_given() {
        let mix = ReplayMix {
            rpcs: 2_000,
            deliveries: 3_400,
            cancels: 1_500,
        };
        let cost = dessim_replay(mix, 1_000, 3);
        assert!(cost.ns_per_event > 0.0);
        assert!(cost.secs_per_minute > 0.0);
        let idle = dessim_replay(
            ReplayMix {
                rpcs: 0,
                deliveries: 0,
                cancels: 0,
            },
            1_000,
            3,
        );
        assert_eq!(idle.ns_per_event, 0.0);
    }
}
