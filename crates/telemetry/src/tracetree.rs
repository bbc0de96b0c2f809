//! Simulated-time trace trees: per-RPC spans, critical-path latency
//! attribution and the deterministic p99 exemplar reservoir.
//!
//! A [`crate::LookupRecord`] says *how long* a lookup took; a
//! [`TraceTree`] says *why*. Every FIND_NODE / FIND_VALUE RPC a lookup
//! issues becomes an [`RpcSpan`] carrying its send instant, its outcome
//! (response or timeout), whether the queried node was compromised when
//! the span closed, and a causal parent: the RPC whose completion
//! triggered this dispatch. In the discrete-event simulator a triggered
//! RPC departs at the *same instant* its cause completed, so the chain of
//! `caused_by` links walked back from the finalizing RPC telescopes
//! exactly — the per-link durations sum to `completed_ms − started_ms`
//! with no slack. [`TraceTree::critical_path`] extracts that chain and
//! buckets each link's duration into RTT or timeout time (split by the
//! compromise flag), prepending the load engine's queue wait, and the
//! resulting [`Attribution`] provably conserves: `queue + rtt + timeout ==`
//! end-to-end latency (pinned by [`TraceTree::conserves`] and the
//! experiment-level conservation tests).
//!
//! [`ExemplarReservoir`] keeps the worst-latency trees per cell and phase
//! without randomness: a bounded top-K ordered by end-to-end latency
//! (ties broken by lookup id, then start instant), so same-seed runs pick
//! byte-identical exemplars.

use crate::trace::LookupRecord;

/// How an RPC span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanOutcome {
    /// A response arrived; the span's duration is the round-trip time.
    Responded,
    /// The RPC timed out; the span's duration is the full timeout window.
    TimedOut,
    /// Still pending when the lookup terminated (a straggler the lookup
    /// no longer needed). Never on the critical path.
    Inflight,
}

impl SpanOutcome {
    /// Short label for CSV cells and trace-event names.
    pub fn label(&self) -> &'static str {
        match self {
            SpanOutcome::Responded => "responded",
            SpanOutcome::TimedOut => "timeout",
            SpanOutcome::Inflight => "inflight",
        }
    }
}

/// One RPC issued by a lookup, as a simulated-time span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpcSpan {
    /// The simulator-unique RPC id (also the span id).
    pub rpc_id: u64,
    /// Index of the queried node.
    pub to_node: u32,
    /// Whether the queried node was compromised when the span closed.
    pub to_compromised: bool,
    /// Simulated send instant, milliseconds.
    pub sent_ms: u64,
    /// Simulated completion instant (response delivery, timeout firing,
    /// or — for [`SpanOutcome::Inflight`] — the lookup's own completion).
    pub completed_ms: u64,
    /// How the span ended.
    pub outcome: SpanOutcome,
    /// The RPC of the **same lookup** whose completion triggered this
    /// dispatch; `None` for seed queries sent when the lookup started.
    pub caused_by: Option<u64>,
}

impl RpcSpan {
    /// Span duration in simulated milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.completed_ms.saturating_sub(self.sent_ms)
    }
}

/// Critical-path latency decomposition, in simulated milliseconds.
///
/// `rtt_compromised_ms ⊆ rtt_ms` and `timeout_compromised_ms ⊆
/// timeout_ms`: the compromised columns are the share of each category
/// spent on compromised nodes, not additional time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Admission-queue wait before the lookup was issued.
    pub queue_ms: u64,
    /// Round-trip time of responded critical-path RPCs.
    pub rtt_ms: u64,
    /// Timeout windows burned on unresponsive critical-path RPCs.
    pub timeout_ms: u64,
    /// Share of `rtt_ms` spent querying compromised nodes.
    pub rtt_compromised_ms: u64,
    /// Share of `timeout_ms` spent waiting on compromised nodes.
    pub timeout_compromised_ms: u64,
}

impl Attribution {
    /// End-to-end latency the attribution accounts for:
    /// `queue + rtt + timeout`.
    pub fn total_ms(&self) -> u64 {
        self.queue_ms + self.rtt_ms + self.timeout_ms
    }

    /// Critical-path time spent on compromised nodes (RTT + timeouts).
    pub fn compromised_ms(&self) -> u64 {
        self.rtt_compromised_ms + self.timeout_compromised_ms
    }
}

/// The chain of dependent RPCs that determined a lookup's completion
/// time, root (seed query) first, plus its latency decomposition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// RPC ids on the path, in causal (send) order.
    pub rpc_ids: Vec<u64>,
    /// Where the end-to-end latency went.
    pub attribution: Attribution,
}

/// A completed lookup's full trace: its record, its admission queue wait,
/// every RPC span it (or, for a disjoint-path group, any member path)
/// issued, and the RPC whose completion finalized it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceTree {
    /// The flat record the same lookup emitted through
    /// [`crate::TelemetrySink::on_lookup`].
    pub record: LookupRecord,
    /// Simulated milliseconds the request waited in the load engine's
    /// admission queue before the lookup was issued (0 outside the load
    /// engine).
    pub queue_wait_ms: u64,
    /// Every RPC span, in send order.
    pub spans: Vec<RpcSpan>,
    /// The RPC whose completion finalized the lookup; `None` when the
    /// lookup terminated at creation without sending anything.
    pub final_rpc: Option<u64>,
}

impl TraceTree {
    /// End-to-end request latency: queue wait plus lookup wall time.
    pub fn end_to_end_ms(&self) -> u64 {
        self.queue_wait_ms + self.record.latency_ms()
    }

    /// Extracts the critical path: walk `caused_by` links back from the
    /// finalizing RPC, then reverse into causal order. Each link
    /// contributes its duration as RTT or timeout time; the queue wait is
    /// prepended.
    pub fn critical_path(&self) -> CriticalPath {
        let mut attribution = Attribution {
            queue_ms: self.queue_wait_ms,
            ..Attribution::default()
        };
        let mut rpc_ids = Vec::new();
        let mut cursor = self.final_rpc;
        while let Some(id) = cursor {
            let Some(span) = self.spans.iter().find(|s| s.rpc_id == id) else {
                break;
            };
            rpc_ids.push(id);
            let d = span.duration_ms();
            match span.outcome {
                SpanOutcome::Responded => {
                    attribution.rtt_ms += d;
                    if span.to_compromised {
                        attribution.rtt_compromised_ms += d;
                    }
                }
                SpanOutcome::TimedOut => {
                    attribution.timeout_ms += d;
                    if span.to_compromised {
                        attribution.timeout_compromised_ms += d;
                    }
                }
                // Stragglers never finalize a lookup; reaching one means
                // the link data is inconsistent, so stop rather than
                // attribute unfinished time.
                SpanOutcome::Inflight => break,
            }
            cursor = span.caused_by;
        }
        rpc_ids.reverse();
        CriticalPath {
            rpc_ids,
            attribution,
        }
    }

    /// Whether the critical-path attribution exactly accounts for the
    /// end-to-end latency — true by construction for trees recorded by
    /// the simulator (triggered RPCs depart the instant their cause
    /// completes, so chain durations telescope).
    pub fn conserves(&self) -> bool {
        self.critical_path().attribution.total_ms() == self.end_to_end_ms()
    }
}

/// Ordering key: worst end-to-end latency first, ties broken by lookup
/// id then start instant so selection is deterministic under any offer
/// order.
fn rank_key(t: &TraceTree) -> (std::cmp::Reverse<u64>, u64, u64) {
    (
        std::cmp::Reverse(t.end_to_end_ms()),
        t.record.lookup_id,
        t.record.started_ms,
    )
}

/// A deterministic bounded top-K of the worst-latency trace trees.
///
/// No randomness: [`offer`](ExemplarReservoir::offer) keeps the `capacity`
/// trees with the highest end-to-end latency (stable tiebreaks), so the
/// trees backing a histogram's high-percentile buckets — the p99
/// offenders — survive while the bulk is dropped. Same-seed runs pick
/// byte-identical exemplars whatever order the trees arrive in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExemplarReservoir {
    capacity: usize,
    entries: Vec<TraceTree>,
}

impl ExemplarReservoir {
    /// An empty reservoir keeping at most `capacity` exemplars.
    pub fn new(capacity: usize) -> ExemplarReservoir {
        ExemplarReservoir {
            capacity,
            entries: Vec::new(),
        }
    }

    /// The maximum number of exemplars kept.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Exemplars currently held, worst latency first.
    pub fn exemplars(&self) -> &[TraceTree] {
        &self.entries
    }

    /// Number of exemplars currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the reservoir holds no exemplars.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offers a tree; it is cloned in iff it ranks inside the top
    /// `capacity` — rejected offers (the common case on a hot stream)
    /// never clone.
    pub fn offer(&mut self, tree: &TraceTree) {
        if self.capacity == 0 {
            return;
        }
        let pos = self
            .entries
            .binary_search_by_key(&rank_key(tree), rank_key)
            .unwrap_or_else(|pos| pos);
        if pos >= self.capacity {
            return;
        }
        self.entries.insert(pos, tree.clone());
        self.entries.truncate(self.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{LookupOutcome, TracePurpose, TARGET_BYTES};

    fn record(lookup_id: u64, started_ms: u64, completed_ms: u64) -> LookupRecord {
        LookupRecord {
            lookup_id,
            target: [0x11; TARGET_BYTES],
            purpose: TracePurpose::Retrieve,
            outcome: LookupOutcome::ValueFound,
            hops: 2,
            messages: 3,
            responded: 3,
            started_ms,
            completed_ms,
        }
    }

    fn span(
        rpc_id: u64,
        sent_ms: u64,
        completed_ms: u64,
        outcome: SpanOutcome,
        compromised: bool,
        caused_by: Option<u64>,
    ) -> RpcSpan {
        RpcSpan {
            rpc_id,
            to_node: rpc_id as u32,
            to_compromised: compromised,
            sent_ms,
            completed_ms,
            outcome,
            caused_by,
        }
    }

    /// A three-hop chain with a timeout in the middle and an off-path
    /// straggler: 100..140 rtt, 140..640 timeout (compromised), 640..700
    /// rtt — total 600 ms plus 50 ms queue wait.
    fn chain_tree() -> TraceTree {
        TraceTree {
            record: record(9, 100, 700),
            queue_wait_ms: 50,
            spans: vec![
                span(1, 100, 140, SpanOutcome::Responded, false, None),
                span(2, 100, 180, SpanOutcome::Responded, false, None),
                span(3, 140, 640, SpanOutcome::TimedOut, true, Some(1)),
                span(4, 640, 700, SpanOutcome::Responded, true, Some(3)),
                span(5, 640, 700, SpanOutcome::Inflight, false, Some(3)),
            ],
            final_rpc: Some(4),
        }
    }

    #[test]
    fn critical_path_walks_causes_and_attributes_categories() {
        let tree = chain_tree();
        let cp = tree.critical_path();
        assert_eq!(cp.rpc_ids, vec![1, 3, 4]);
        assert_eq!(cp.attribution.queue_ms, 50);
        assert_eq!(cp.attribution.rtt_ms, 40 + 60);
        assert_eq!(cp.attribution.timeout_ms, 500);
        assert_eq!(cp.attribution.rtt_compromised_ms, 60);
        assert_eq!(cp.attribution.timeout_compromised_ms, 500);
        assert_eq!(cp.attribution.compromised_ms(), 560);
        assert_eq!(cp.attribution.total_ms(), 650);
        assert_eq!(tree.end_to_end_ms(), 650);
        assert!(tree.conserves());
    }

    #[test]
    fn empty_tree_conserves_trivially() {
        let tree = TraceTree {
            record: record(1, 500, 500),
            queue_wait_ms: 0,
            spans: Vec::new(),
            final_rpc: None,
        };
        let cp = tree.critical_path();
        assert!(cp.rpc_ids.is_empty());
        assert_eq!(cp.attribution.total_ms(), 0);
        assert!(tree.conserves());
    }

    fn quick_tree(lookup_id: u64, latency_ms: u64) -> TraceTree {
        TraceTree {
            record: record(lookup_id, 1_000, 1_000 + latency_ms),
            queue_wait_ms: 0,
            spans: Vec::new(),
            final_rpc: None,
        }
    }

    #[test]
    fn reservoir_keeps_worst_latencies_deterministically() {
        let mut r = ExemplarReservoir::new(2);
        for (id, lat) in [(1, 40), (2, 900), (3, 10), (4, 300)] {
            r.offer(&quick_tree(id, lat));
        }
        let picked: Vec<u64> = r.exemplars().iter().map(|t| t.record.lookup_id).collect();
        assert_eq!(picked, vec![2, 4], "worst first, rest dropped");
        // Equal latencies: lower lookup id wins the tie.
        let mut r = ExemplarReservoir::new(1);
        r.offer(&quick_tree(8, 100));
        r.offer(&quick_tree(5, 100));
        assert_eq!(r.exemplars()[0].record.lookup_id, 5);
    }

    #[test]
    fn zero_capacity_reservoir_stays_empty() {
        let mut r = ExemplarReservoir::new(0);
        r.offer(&quick_tree(1, 10));
        assert!(r.is_empty());
    }
}
