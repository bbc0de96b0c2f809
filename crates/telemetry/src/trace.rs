//! Per-lookup trace records and the sink the simulator emits them through.
//!
//! The protocol layer knows everything a service-level metric needs — how
//! many hops a lookup took, how many RPCs it cost, whether it converged —
//! but the analysis layer must not live inside the protocol crate. The
//! [`TelemetrySink`] trait is the seam: the simulator calls
//! [`TelemetrySink::on_lookup`] once per completed lookup with a
//! [`LookupRecord`]; experiment harnesses install whatever sink they need
//! (aggregating, recording, forwarding). Simulations that install nothing
//! use [`NoopSink`] semantics and pay a single `Option` check per lookup.

/// Why a lookup ran. Mirrors the protocol layer's lookup purposes but
/// stays independent of it so this crate remains dependency-free.
/// `Ord` (declaration order) so purposes sort deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TracePurpose {
    /// Data-traffic lookup: locate the k closest nodes to a target.
    Locate,
    /// Dissemination: locate the k closest, then STORE on them.
    Disseminate,
    /// Value retrieval: locate the key and ask holders for it.
    Retrieve,
    /// Maintenance: periodic bucket-refresh lookup.
    Refresh,
    /// Maintenance: the self-lookup performed on join.
    Bootstrap,
    /// Defense: a self-healing repair lookup launched after a neighbor
    /// was evicted, targeting the lost contact's id region.
    Repair,
    /// A disjoint-path retrieval group: `d` independent sub-lookups over
    /// disjoint candidate sets, reported as **one** record once every
    /// path terminated (value-withholding countermeasure).
    RetrieveDisjoint,
}

impl TracePurpose {
    /// Short label for CSV cells and series names.
    pub fn label(&self) -> &'static str {
        match self {
            TracePurpose::Locate => "locate",
            TracePurpose::Disseminate => "disseminate",
            TracePurpose::Retrieve => "retrieve",
            TracePurpose::Refresh => "refresh",
            TracePurpose::Bootstrap => "bootstrap",
            TracePurpose::Repair => "repair",
            TracePurpose::RetrieveDisjoint => "retrieve-disjoint",
        }
    }
}

/// A defense-subsystem event, emitted through
/// [`TelemetrySink::on_defense`] so harnesses can account per-policy
/// activity (and its message overhead) without reaching into the
/// simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DefenseAction {
    /// A liveness-probe PING sent by an eviction policy.
    Probe,
    /// A stale contact was evicted after consecutive failures.
    Eviction,
    /// A self-healing repair lookup was launched for a lost neighbor.
    Repair,
    /// A routing-table insert was rejected by a diversity cap.
    DiversityReject,
    /// An overrepresented contact was replaced to admit a diverse one.
    DiversityReplace,
}

impl DefenseAction {
    /// All actions, in presentation order.
    pub const ALL: [DefenseAction; 5] = [
        DefenseAction::Probe,
        DefenseAction::Eviction,
        DefenseAction::Repair,
        DefenseAction::DiversityReject,
        DefenseAction::DiversityReplace,
    ];

    /// Short label for CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            DefenseAction::Probe => "probe",
            DefenseAction::Eviction => "eviction",
            DefenseAction::Repair => "repair",
            DefenseAction::DiversityReject => "diversity-reject",
            DefenseAction::DiversityReplace => "diversity-replace",
        }
    }
}

/// How a lookup ended. `Ord` (declaration order) so outcomes sort
/// deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LookupOutcome {
    /// `k` nodes responded — the lookup fully converged.
    Converged,
    /// Some nodes responded, but fewer than `k` and no candidates remain.
    Partial,
    /// Not a single node responded.
    Failed,
    /// A retrieval found the value.
    ValueFound,
    /// A retrieval exhausted its candidates without finding the value.
    ValueMissing,
}

impl LookupOutcome {
    /// Whether the lookup delivered its service: full convergence for
    /// locate/disseminate-style lookups, a value hit for retrievals.
    pub fn is_success(&self) -> bool {
        matches!(self, LookupOutcome::Converged | LookupOutcome::ValueFound)
    }

    /// Short label for CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            LookupOutcome::Converged => "converged",
            LookupOutcome::Partial => "partial",
            LookupOutcome::Failed => "failed",
            LookupOutcome::ValueFound => "value-found",
            LookupOutcome::ValueMissing => "value-missing",
        }
    }
}

/// Byte length of a trace target (matches the protocol's 160-bit ids).
pub const TARGET_BYTES: usize = 20;

/// One completed lookup, as observed by the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupRecord {
    /// The simulator-unique lookup id.
    pub lookup_id: u64,
    /// The lookup target / key, big-endian (the protocol's id bytes).
    pub target: [u8; TARGET_BYTES],
    /// Why the lookup ran.
    pub purpose: TracePurpose,
    /// How it ended.
    pub outcome: LookupOutcome,
    /// Hop depth of the closest responding node: seeds from the local
    /// routing table are hop 1, contacts learned from a hop-`h` response
    /// are hop `h + 1`. 0 when nothing responded.
    pub hops: u32,
    /// FIND_NODE / FIND_VALUE RPCs this lookup sent.
    pub messages: u32,
    /// Nodes that responded before termination.
    pub responded: u32,
    /// Simulated start time in milliseconds.
    pub started_ms: u64,
    /// Simulated completion time in milliseconds.
    pub completed_ms: u64,
}

impl LookupRecord {
    /// Simulated wall time the lookup took, in milliseconds.
    pub fn latency_ms(&self) -> u64 {
        self.completed_ms.saturating_sub(self.started_ms)
    }

    /// The simulated minute the lookup completed in — the key used by
    /// [`crate::MinuteSeries`].
    pub fn completed_minute(&self) -> u64 {
        self.completed_ms / 60_000
    }
}

/// Receiver for trace events. The simulator holds the sink as a trait
/// object and calls it from the event loop; implementations should be
/// O(1) per event (aggregate, don't analyse).
pub trait TelemetrySink {
    /// Called once when a lookup terminates (converges, exhausts its
    /// candidates, or finds its value).
    fn on_lookup(&mut self, record: &LookupRecord);

    /// Called once per defense-subsystem event (probe sent, contact
    /// evicted, repair launched, diversity decision). Defaults to a
    /// no-op so plain service sinks need not care.
    fn on_defense(&mut self, action: DefenseAction) {
        let _ = action;
    }

    /// Whether this sink wants full [`crate::TraceTree`]s. The simulator
    /// asks once at install time and only pays the per-RPC span-buffer
    /// cost when some installed sink answers `true`; flat-record sinks
    /// keep the default and cost nothing extra.
    fn wants_traces(&self) -> bool {
        false
    }

    /// Called once per terminated lookup with its full trace tree,
    /// immediately after [`on_lookup`](TelemetrySink::on_lookup) — but
    /// only when [`wants_traces`](TelemetrySink::wants_traces) was `true`
    /// at install time. Defaults to a no-op.
    fn on_trace(&mut self, tree: &crate::TraceTree) {
        let _ = tree;
    }
}

/// Sharing a sink between the simulator (which owns it as a boxed trait
/// object) and the harness that reads the aggregates afterwards: any sink
/// works behind `Rc<RefCell<_>>`, so harnesses keep one handle and hand
/// the simulator a clone.
///
/// ```
/// use kad_telemetry::{TelemetrySink, VecSink};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let shared = Rc::new(RefCell::new(VecSink::default()));
/// let for_simulator: Box<dyn TelemetrySink> = Box::new(Rc::clone(&shared));
/// drop(for_simulator);
/// assert!(shared.borrow().records.is_empty());
/// ```
impl<S: TelemetrySink> TelemetrySink for std::rc::Rc<std::cell::RefCell<S>> {
    fn on_lookup(&mut self, record: &LookupRecord) {
        self.borrow_mut().on_lookup(record);
    }

    fn on_defense(&mut self, action: DefenseAction) {
        self.borrow_mut().on_defense(action);
    }

    fn wants_traces(&self) -> bool {
        self.borrow().wants_traces()
    }

    fn on_trace(&mut self, tree: &crate::TraceTree) {
        self.borrow_mut().on_trace(tree);
    }
}

/// Fans every event out to several sinks, in order. Harnesses that need
/// two independent aggregations over one run (the service recorder plus a
/// load recorder, say) compose them here instead of writing a combined
/// sink; with a single inner sink the forwarding is observationally
/// identical to installing that sink directly.
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Box<dyn TelemetrySink>>,
}

impl FanoutSink {
    /// A fanout over the given sinks (events delivered in vec order).
    pub fn new(sinks: Vec<Box<dyn TelemetrySink>>) -> FanoutSink {
        FanoutSink { sinks }
    }
}

impl TelemetrySink for FanoutSink {
    fn on_lookup(&mut self, record: &LookupRecord) {
        for sink in &mut self.sinks {
            sink.on_lookup(record);
        }
    }

    fn on_defense(&mut self, action: DefenseAction) {
        for sink in &mut self.sinks {
            sink.on_defense(action);
        }
    }

    fn wants_traces(&self) -> bool {
        self.sinks.iter().any(|sink| sink.wants_traces())
    }

    fn on_trace(&mut self, tree: &crate::TraceTree) {
        for sink in &mut self.sinks {
            sink.on_trace(tree);
        }
    }
}

/// A sink that discards everything — the semantics of running with no sink
/// installed. Exists so benches can measure the dispatch cost itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn on_lookup(&mut self, _record: &LookupRecord) {}
}

/// A sink that stores every record, for tests and benches. Wants traces,
/// so installing one also exercises the simulator's span-recording path.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// The records received, in completion order.
    pub records: Vec<LookupRecord>,
    /// The defense events received, in emission order.
    pub defense: Vec<DefenseAction>,
    /// The trace trees received, in completion order.
    pub traces: Vec<crate::TraceTree>,
}

impl TelemetrySink for VecSink {
    fn on_lookup(&mut self, record: &LookupRecord) {
        self.records.push(*record);
    }

    fn on_defense(&mut self, action: DefenseAction) {
        self.defense.push(action);
    }

    fn wants_traces(&self) -> bool {
        true
    }

    fn on_trace(&mut self, tree: &crate::TraceTree) {
        self.traces.push(tree.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(purpose: TracePurpose, outcome: LookupOutcome) -> LookupRecord {
        LookupRecord {
            lookup_id: 7,
            target: [0xAB; TARGET_BYTES],
            purpose,
            outcome,
            hops: 3,
            messages: 9,
            responded: 8,
            started_ms: 61_000,
            completed_ms: 62_500,
        }
    }

    #[test]
    fn latency_and_minute() {
        let r = record(TracePurpose::Locate, LookupOutcome::Converged);
        assert_eq!(r.latency_ms(), 1_500);
        assert_eq!(r.completed_minute(), 1);
    }

    #[test]
    fn success_classification() {
        assert!(LookupOutcome::Converged.is_success());
        assert!(LookupOutcome::ValueFound.is_success());
        assert!(!LookupOutcome::Partial.is_success());
        assert!(!LookupOutcome::Failed.is_success());
        assert!(!LookupOutcome::ValueMissing.is_success());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TracePurpose::Retrieve.label(), "retrieve");
        assert_eq!(TracePurpose::Repair.label(), "repair");
        assert_eq!(TracePurpose::RetrieveDisjoint.label(), "retrieve-disjoint");
        assert_eq!(LookupOutcome::ValueMissing.label(), "value-missing");
        assert_eq!(DefenseAction::DiversityReject.label(), "diversity-reject");
    }

    #[test]
    fn defense_events_flow_through_sinks() {
        let mut vec_sink = VecSink::default();
        vec_sink.on_defense(DefenseAction::Probe);
        vec_sink.on_defense(DefenseAction::Eviction);
        assert_eq!(
            vec_sink.defense,
            vec![DefenseAction::Probe, DefenseAction::Eviction]
        );
        // The default impl is a no-op: NoopSink accepts them too.
        let mut noop = NoopSink;
        noop.on_defense(DefenseAction::Repair);
        // And the Rc<RefCell<_>> blanket forwards them.
        use std::cell::RefCell;
        use std::rc::Rc;
        let shared = Rc::new(RefCell::new(VecSink::default()));
        let mut handle: Box<dyn TelemetrySink> = Box::new(Rc::clone(&shared));
        handle.on_defense(DefenseAction::DiversityReplace);
        drop(handle);
        assert_eq!(
            shared.borrow().defense,
            vec![DefenseAction::DiversityReplace]
        );
    }

    #[test]
    fn shared_rc_refcell_sink_delegates() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let shared = Rc::new(RefCell::new(VecSink::default()));
        let mut handle: Box<dyn TelemetrySink> = Box::new(Rc::clone(&shared));
        handle.on_lookup(&record(TracePurpose::Locate, LookupOutcome::Converged));
        drop(handle);
        assert_eq!(shared.borrow().records.len(), 1);
    }

    #[test]
    fn fanout_delivers_to_every_sink_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let a = Rc::new(RefCell::new(VecSink::default()));
        let b = Rc::new(RefCell::new(VecSink::default()));
        let mut fanout = FanoutSink::new(vec![Box::new(Rc::clone(&a)), Box::new(Rc::clone(&b))]);
        fanout.on_lookup(&record(TracePurpose::Retrieve, LookupOutcome::ValueFound));
        fanout.on_defense(DefenseAction::Probe);
        drop(fanout);
        for sink in [&a, &b] {
            assert_eq!(sink.borrow().records.len(), 1);
            assert_eq!(sink.borrow().defense, vec![DefenseAction::Probe]);
        }
    }

    #[test]
    fn sinks_receive_records() {
        let mut noop = NoopSink;
        noop.on_lookup(&record(TracePurpose::Refresh, LookupOutcome::Partial));
        let mut vec_sink = VecSink::default();
        vec_sink.on_lookup(&record(TracePurpose::Locate, LookupOutcome::Failed));
        vec_sink.on_lookup(&record(TracePurpose::Retrieve, LookupOutcome::ValueFound));
        assert_eq!(vec_sink.records.len(), 2);
        assert_eq!(vec_sink.records[1].outcome, LookupOutcome::ValueFound);
    }
}
