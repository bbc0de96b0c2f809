//! Event identifiers and queue entries.

use crate::time::SimTime;

/// Opaque handle identifying a scheduled event, used for cancellation.
///
/// Ids are unique per [`crate::scheduler::EventQueue`] for its entire
/// lifetime (a `u64` sequence number never reused). The handle also
/// carries the payload's generational slab key so cancellation is a
/// single slab remove — the generation check makes stale handles (events
/// already fired or cancelled) miss cleanly, with no cancelled-id set to
/// hash into on the delivery path. Identity, ordering and hashing are by
/// sequence number alone.
#[derive(Clone, Copy, Debug)]
pub struct EventId {
    pub(crate) seq: u64,
    pub(crate) key: u64,
}

impl PartialEq for EventId {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for EventId {}

impl PartialOrd for EventId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.seq.cmp(&other.seq)
    }
}

impl std::hash::Hash for EventId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.seq.hash(state);
    }
}

/// Internal heap entry: ordered by time, then by insertion sequence so that
/// simultaneous events fire in the order they were scheduled. This total
/// order is what makes simulations deterministic.
///
/// The payload itself lives in the queue's slab (the id carries its key),
/// so heap sift operations move 24-byte entries regardless of how large the
/// event type is — the difference between shuffling pointers and shuffling
/// whole RPC messages on every push and pop.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub at: SimTime,
    pub id: EventId,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.id).cmp(&(other.at, other.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(seq: u64) -> EventId {
        EventId { seq, key: 0 }
    }

    #[test]
    fn entries_order_by_time_then_sequence() {
        let a = Entry {
            at: SimTime::from_millis(5),
            id: id(2),
        };
        let b = Entry {
            at: SimTime::from_millis(5),
            id: id(1),
        };
        let c = Entry {
            at: SimTime::from_millis(1),
            id: id(9),
        };
        assert!(c < b);
        assert!(b < a);
    }

    #[test]
    fn event_id_identity_ignores_the_slab_key() {
        let a = EventId { seq: 7, key: 1 };
        let b = EventId { seq: 7, key: 2 };
        let c = EventId { seq: 8, key: 1 };
        assert_eq!(a, b);
        assert!(a < c);
    }
}
