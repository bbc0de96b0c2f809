//! Bounded structured event journal with a per-minute determinism
//! fingerprint.
//!
//! Two supposedly-identical runs that diverge somewhere in a 90-minute
//! grid are miserable to debug from final CSVs: the divergence is visible
//! only after it has propagated through every downstream metric. The
//! journal solves this the way deterministic-replay debuggers do — record
//! the *event sequence* itself, cheaply, and fingerprint it incrementally:
//!
//! * **Events.** Every session-engine-visible occurrence — joins, churn
//!   departures, compromises, defense actions, terminating lookups,
//!   scheduled harness actions — is one [`JournalEvent`].
//! * **Hash chain.** Each recorded event is folded into a running
//!   [FNV-1a] 64-bit chain over a fixed, seed-independent byte encoding
//!   (the *format* never depends on the seed; the *values* do — that is
//!   the point). [`Journal::seal_minute`] checkpoints `(minute, events
//!   so far, chain)` as a [`MinuteSeal`]; the seals become
//!   `audit-chain.csv`, and diffing two runs' seal sequences names the
//!   first divergent (cell, minute) exactly — `repro audit` is that diff.
//! * **Bounded ring, accounted truncation.** The journal keeps at most
//!   `capacity` raw events (a debugging tail, not an unbounded log).
//!   Overflow drops the *oldest* event **after** it was folded into the
//!   chain and counted, and increments [`Journal::dropped_events`] — the
//!   fingerprint and the per-kind counts cover every event ever
//!   recorded; only the raw tail is truncated, and never silently.
//!
//! The journal implements [`TelemetrySink`], so installing
//! `Rc<RefCell<Journal>>` (via the blanket sink impl) captures lookup
//! terminations and defense actions with no extra adapter.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/
//!
//! # Example
//!
//! ```
//! use kad_telemetry::journal::{Journal, JournalEvent};
//!
//! let mut a = Journal::new();
//! let mut b = Journal::new();
//! for j in [&mut a, &mut b] {
//!     j.record(JournalEvent::Join { minute: 0, node: 7 });
//!     j.seal_minute(0);
//! }
//! assert_eq!(a.seals(), b.seals(), "same events, same chain");
//! b.record(JournalEvent::Churn { minute: 1, node: 7 });
//! b.seal_minute(1);
//! a.seal_minute(1);
//! assert_ne!(a.seals()[1], b.seals()[1], "divergence shows in minute 1");
//! ```

use crate::trace::{DefenseAction, LookupOutcome, LookupRecord, TelemetrySink, TracePurpose};
use std::collections::{BTreeMap, VecDeque};

/// Default raw-event ring capacity (the chain and counts are unaffected
/// by capacity — see module docs).
pub const DEFAULT_CAPACITY: usize = 4096;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One recorded occurrence. Every variant encodes to a fixed byte layout
/// (tag byte + little-endian fields) for the hash chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalEvent {
    /// A node joined the overlay (harness join schedule).
    Join {
        /// Minute of the session clock.
        minute: u64,
        /// The joining node's address index.
        node: u32,
    },
    /// A node departed silently (churn).
    Churn {
        /// Minute of the session clock.
        minute: u64,
        /// The departing node's address index.
        node: u32,
    },
    /// The attacker scheduled a compromise of a victim.
    Compromise {
        /// Minute of the session clock.
        minute: u64,
        /// The victim's address index.
        node: u32,
    },
    /// A defense policy acted (probe, eviction, repair, …).
    Defense {
        /// The action taken.
        action: DefenseAction,
    },
    /// A lookup terminated (the service-level event stream).
    Lookup {
        /// Why the lookup ran.
        purpose: TracePurpose,
        /// How it ended.
        outcome: LookupOutcome,
        /// Hop depth reached.
        hops: u32,
        /// Simulated completion instant (milliseconds).
        completed_ms: u64,
    },
    /// A harness action was applied inside the minute loop.
    Action {
        /// Minute of the session clock.
        minute: u64,
        /// Simulated instant the action applied at (milliseconds).
        at_ms: u64,
        /// Static action-kind label (`"lookup"`, `"store"`, …).
        kind: &'static str,
    },
}

impl JournalEvent {
    /// Static label naming the variant (the per-kind count key and the
    /// `metrics.prom` label value).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::Join { .. } => "join",
            JournalEvent::Churn { .. } => "churn",
            JournalEvent::Compromise { .. } => "compromise",
            JournalEvent::Defense { .. } => "defense",
            JournalEvent::Lookup { .. } => "lookup",
            JournalEvent::Action { .. } => "action",
        }
    }

    /// Folds the event's fixed byte encoding into an FNV-1a chain value.
    fn fold_into(&self, chain: u64) -> u64 {
        // Fixed layout: tag byte, then little-endian fields in order.
        let mut bytes: Vec<u8> = Vec::with_capacity(24);
        match *self {
            JournalEvent::Join { minute, node } => {
                bytes.push(1);
                bytes.extend_from_slice(&minute.to_le_bytes());
                bytes.extend_from_slice(&node.to_le_bytes());
            }
            JournalEvent::Churn { minute, node } => {
                bytes.push(2);
                bytes.extend_from_slice(&minute.to_le_bytes());
                bytes.extend_from_slice(&node.to_le_bytes());
            }
            JournalEvent::Compromise { minute, node } => {
                bytes.push(3);
                bytes.extend_from_slice(&minute.to_le_bytes());
                bytes.extend_from_slice(&node.to_le_bytes());
            }
            JournalEvent::Defense { action } => {
                bytes.push(4);
                bytes.push(action as u8);
            }
            JournalEvent::Lookup {
                purpose,
                outcome,
                hops,
                completed_ms,
            } => {
                bytes.push(5);
                bytes.push(purpose as u8);
                bytes.push(outcome as u8);
                bytes.extend_from_slice(&hops.to_le_bytes());
                bytes.extend_from_slice(&completed_ms.to_le_bytes());
            }
            JournalEvent::Action {
                minute,
                at_ms,
                kind,
            } => {
                bytes.push(6);
                bytes.extend_from_slice(&minute.to_le_bytes());
                bytes.extend_from_slice(&at_ms.to_le_bytes());
                bytes.extend_from_slice(kind.as_bytes());
            }
        }
        bytes.iter().fold(chain, |acc, &b| {
            (acc ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        })
    }
}

/// One per-minute checkpoint of the chain: the `audit-chain.csv` row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinuteSeal {
    /// The sealed minute.
    pub minute: u64,
    /// Events recorded since the journal was created (cumulative).
    pub events: u64,
    /// Chain value after the last event of this minute.
    pub chain: u64,
}

/// The bounded journal (see module docs).
#[derive(Clone, Debug)]
pub struct Journal {
    capacity: usize,
    ring: VecDeque<JournalEvent>,
    recorded_events: u64,
    dropped_events: u64,
    counts: BTreeMap<&'static str, u64>,
    chain: u64,
    seals: Vec<MinuteSeal>,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl Journal {
    /// Creates a journal with the [`DEFAULT_CAPACITY`] raw-event ring.
    pub fn new() -> Self {
        Journal::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a journal keeping at most `capacity` raw events.
    pub fn with_capacity(capacity: usize) -> Self {
        Journal {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            recorded_events: 0,
            dropped_events: 0,
            counts: BTreeMap::new(),
            chain: FNV_OFFSET,
            seals: Vec::new(),
        }
    }

    /// Records one event: folds it into the chain, counts it per kind,
    /// then appends it to the ring (dropping — and accounting — the
    /// oldest raw event on overflow).
    pub fn record(&mut self, event: JournalEvent) {
        self.chain = event.fold_into(self.chain);
        self.recorded_events += 1;
        *self.counts.entry(event.kind()).or_insert(0) += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped_events += 1;
        }
        self.ring.push_back(event);
    }

    /// Checkpoints the chain at the end of `minute`.
    pub fn seal_minute(&mut self, minute: u64) {
        self.seals.push(MinuteSeal {
            minute,
            events: self.recorded_events,
            chain: self.chain,
        });
    }

    /// The per-minute checkpoints, in seal order.
    pub fn seals(&self) -> &[MinuteSeal] {
        &self.seals
    }

    /// Current chain value (also the value the next seal would record).
    pub fn chain(&self) -> u64 {
        self.chain
    }

    /// Events recorded since creation (never decreases on truncation).
    pub fn recorded_events(&self) -> u64 {
        self.recorded_events
    }

    /// Raw events evicted from the ring. `recorded - dropped` events are
    /// still inspectable through [`Journal::events`].
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Per-kind event counts in kind order (covers dropped events too).
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// The retained raw-event tail, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &JournalEvent> + '_ {
        self.ring.iter()
    }
}

impl TelemetrySink for Journal {
    fn on_lookup(&mut self, record: &LookupRecord) {
        self.record(JournalEvent::Lookup {
            purpose: record.purpose,
            outcome: record.outcome,
            hops: record.hops,
            completed_ms: record.completed_ms,
        });
    }

    fn on_defense(&mut self, action: DefenseAction) {
        self.record(JournalEvent::Defense { action });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Join { minute: 0, node: 1 },
            JournalEvent::Join { minute: 0, node: 2 },
            JournalEvent::Action {
                minute: 1,
                at_ms: 61_000,
                kind: "lookup",
            },
            JournalEvent::Lookup {
                purpose: TracePurpose::Locate,
                outcome: LookupOutcome::Converged,
                hops: 3,
                completed_ms: 61_850,
            },
            JournalEvent::Churn { minute: 2, node: 1 },
            JournalEvent::Compromise { minute: 2, node: 2 },
            JournalEvent::Defense {
                action: DefenseAction::Eviction,
            },
        ]
    }

    #[test]
    fn identical_event_sequences_chain_identically() {
        let mut a = Journal::new();
        let mut b = Journal::new();
        for event in sample_events() {
            a.record(event.clone());
            b.record(event);
        }
        a.seal_minute(0);
        b.seal_minute(0);
        assert_eq!(a.chain(), b.chain());
        assert_eq!(a.seals(), b.seals());
    }

    #[test]
    fn any_divergence_changes_the_chain() {
        let events = sample_events();
        let chain_of = |events: &[JournalEvent]| {
            let mut j = Journal::new();
            for e in events {
                j.record(e.clone());
            }
            j.chain()
        };
        let baseline = chain_of(&events);
        // Drop one event, swap two, or mutate one field: all distinct.
        let mut dropped = events.clone();
        dropped.remove(3);
        assert_ne!(chain_of(&dropped), baseline);
        let mut swapped = events.clone();
        swapped.swap(0, 1);
        assert_ne!(chain_of(&swapped), baseline);
        let mut mutated = events.clone();
        mutated[4] = JournalEvent::Churn { minute: 2, node: 3 };
        assert_ne!(chain_of(&mutated), baseline);
    }

    #[test]
    fn seals_checkpoint_cumulative_counts() {
        let mut j = Journal::new();
        j.record(JournalEvent::Join { minute: 0, node: 0 });
        j.seal_minute(0);
        j.record(JournalEvent::Churn { minute: 1, node: 0 });
        j.record(JournalEvent::Compromise { minute: 1, node: 1 });
        j.seal_minute(1);
        let seals = j.seals();
        assert_eq!(seals.len(), 2);
        assert_eq!((seals[0].minute, seals[0].events), (0, 1));
        assert_eq!((seals[1].minute, seals[1].events), (1, 3));
        assert_ne!(seals[0].chain, seals[1].chain);
    }

    #[test]
    fn truncation_is_accounted_and_chain_covers_dropped_events() {
        let mut big = Journal::new();
        let mut small = Journal::with_capacity(2);
        for minute in 0..10u64 {
            let event = JournalEvent::Join {
                minute,
                node: minute as u32,
            };
            big.record(event.clone());
            small.record(event);
        }
        assert_eq!(small.recorded_events(), 10);
        assert_eq!(small.dropped_events(), 8, "overflow surfaced, not silent");
        assert_eq!(small.events().count(), 2, "only the tail retained");
        assert_eq!(
            small.events().next(),
            Some(&JournalEvent::Join { minute: 8, node: 8 }),
            "oldest events were the ones dropped"
        );
        assert_eq!(
            small.chain(),
            big.chain(),
            "the fingerprint covers every event ever recorded"
        );
        assert_eq!(small.counts()["join"], 10, "counts cover drops too");
        assert_eq!(big.dropped_events(), 0);
    }

    #[test]
    fn sink_impl_records_lookups_and_defense_actions() {
        let mut j = Journal::new();
        j.on_lookup(&LookupRecord {
            lookup_id: 9,
            target: [0; 20],
            purpose: TracePurpose::Retrieve,
            outcome: LookupOutcome::ValueFound,
            hops: 2,
            messages: 6,
            responded: 4,
            started_ms: 100,
            completed_ms: 450,
        });
        j.on_defense(DefenseAction::Probe);
        assert_eq!(j.recorded_events(), 2);
        let counts: Vec<(&str, u64)> = j.counts().iter().map(|(&k, &n)| (k, n)).collect();
        assert_eq!(counts, [("defense", 1), ("lookup", 1)], "kind order");
        let kinds: Vec<&'static str> = j.events().map(JournalEvent::kind).collect();
        assert_eq!(kinds, ["lookup", "defense"]);
    }
}
