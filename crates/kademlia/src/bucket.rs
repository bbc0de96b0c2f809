//! A single k-bucket, as a view into its routing table.
//!
//! Buckets hold at most `k` contacts, ordered least-recently-seen first.
//! When a bucket is full, new contacts are **dropped** rather than evicting
//! a live entry — the behaviour the paper leans on when explaining why
//! large `α` hurts small-`k` networks ("those places are not available for
//! joining nodes"). Eviction happens only through the staleness limit `s`:
//! after `s` *consecutive* failed communications a contact is removed.
//!
//! The storage lives in [`crate::routing::RoutingTable`]'s packed arena —
//! one allocation set per table, not one per bucket — and all mutation
//! goes through the table. [`KBucket`] is the borrowed, read-only view of
//! one bucket's slice that [`crate::routing::RoutingTable::bucket`] hands
//! to defense policies and diagnostics. The `Vec`-per-bucket
//! implementation the arena replaced survives only as the test-only
//! `reference` model the table is differentially tested against.

use crate::config::MAX_STALENESS_LIMIT;
use crate::contact::Contact;
use crate::id::NodeId;
use dessim::time::SimTime;

/// A bucket entry: a contact plus liveness bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketEntry {
    /// The stored contact.
    pub contact: Contact,
    /// Consecutive failed communication attempts.
    pub failures: u32,
    /// Last time any communication with this contact succeeded (or when it
    /// was inserted).
    pub last_seen: SimTime,
}

/// The cold half of a routing-table entry: liveness bookkeeping that only
/// refreshes, failures and probe scans touch — kept apart from the
/// contacts so closest-contact reads and membership scans never load it.
///
/// One word: [`BucketEntry::last_seen`] in milliseconds above
/// [`BucketEntry::failures`] in the low byte. Both ranges are checked
/// where the values enter — `last_seen` below 2^56 ms (about 2.3 million
/// years) here, the failure count through the staleness limit, which
/// [`crate::config::KademliaConfigBuilder::build`] caps at
/// [`MAX_STALENESS_LIMIT`] — so the packing never truncates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Liveness(u64);

impl Liveness {
    /// A contact just seen at `now`, with no failures.
    ///
    /// # Panics
    ///
    /// Panics if `now` is 2^56 ms or later.
    pub(crate) fn seen(now: SimTime) -> Self {
        let ms = now.as_millis();
        assert!(ms < 1 << 56, "last_seen {ms} ms exceeds the 56-bit field");
        Liveness(ms << 8)
    }

    /// See [`BucketEntry::last_seen`].
    pub(crate) fn last_seen(self) -> SimTime {
        SimTime::from_millis(self.0 >> 8)
    }

    /// See [`BucketEntry::failures`].
    pub(crate) fn failures(self) -> u32 {
        (self.0 & 0xff) as u32
    }

    /// Counts one more consecutive failure and returns the new count. The
    /// caller evicts at the staleness limit (at most
    /// [`MAX_STALENESS_LIMIT`]), so the count never wraps.
    pub(crate) fn fail(&mut self) -> u32 {
        debug_assert!(self.failures() < MAX_STALENESS_LIMIT);
        self.0 += 1;
        self.failures()
    }
}

/// Outcome of offering a contact to a bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The contact was appended as a fresh entry.
    Inserted,
    /// The contact was already present; its liveness was refreshed.
    Refreshed,
    /// The bucket is full; the contact was dropped.
    Full,
}

/// A read-only view of one k-bucket: at most `k` contacts,
/// least-recently-seen first.
#[derive(Clone, Copy, Debug)]
pub struct KBucket<'a> {
    contacts: &'a [Contact],
    liveness: &'a [Liveness],
    k: usize,
}

impl<'a> KBucket<'a> {
    /// A view over one bucket's parallel slices of the table arena.
    pub(crate) fn new(contacts: &'a [Contact], liveness: &'a [Liveness], k: usize) -> Self {
        debug_assert_eq!(contacts.len(), liveness.len());
        KBucket {
            contacts,
            liveness,
            k,
        }
    }

    /// Number of stored contacts.
    pub fn len(&self) -> usize {
        self.contacts.len()
    }

    /// Whether the bucket holds no contacts.
    pub fn is_empty(&self) -> bool {
        self.contacts.is_empty()
    }

    /// Whether the bucket is at capacity.
    pub fn is_full(&self) -> bool {
        self.contacts.len() >= self.k
    }

    /// Whether a contact with this id is stored.
    pub fn contains(&self, id: &NodeId) -> bool {
        self.contacts.iter().any(|c| c.id == *id)
    }

    /// Iterates entries, least-recently-seen first.
    pub fn iter(&self) -> impl Iterator<Item = BucketEntry> + 'a {
        entries(self.contacts, self.liveness)
    }

    /// Iterates just the contacts.
    pub fn contacts(&self) -> impl Iterator<Item = &'a Contact> {
        self.contacts.iter()
    }
}

/// Zips the arena's parallel slices back into [`BucketEntry`] values.
pub(crate) fn entries<'a>(
    contacts: &'a [Contact],
    liveness: &'a [Liveness],
) -> impl Iterator<Item = BucketEntry> + 'a {
    contacts.iter().zip(liveness).map(|(c, l)| BucketEntry {
        contact: *c,
        failures: l.failures(),
        last_seen: l.last_seen(),
    })
}

/// The owning `Vec<BucketEntry>` bucket the packed arena replaced, kept as
/// the executable specification of bucket semantics: the unit tests below
/// pin it, and `routing`'s differential proptest holds the arena to it.
#[cfg(test)]
pub(crate) mod reference {
    use super::{BucketEntry, InsertOutcome};
    use crate::contact::Contact;
    use crate::id::NodeId;
    use dessim::time::SimTime;

    /// A k-bucket: at most `k` contacts, least-recently-seen first.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct KBucket {
        entries: Vec<BucketEntry>,
        k: usize,
    }

    impl KBucket {
        /// Creates an empty bucket with capacity `k`.
        pub fn new(k: usize) -> Self {
            KBucket {
                entries: Vec::new(),
                k,
            }
        }

        /// Number of stored contacts.
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// Whether the bucket holds no contacts.
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Whether the bucket is at capacity.
        pub fn is_full(&self) -> bool {
            self.entries.len() >= self.k
        }

        /// Whether a contact with this id is stored.
        pub fn contains(&self, id: &NodeId) -> bool {
            self.position(id).is_some()
        }

        fn position(&self, id: &NodeId) -> Option<usize> {
            self.entries.iter().position(|e| e.contact.id == *id)
        }

        /// Offers a contact observed through *successful* communication.
        ///
        /// Present → moved to the most-recently-seen end with failures reset.
        /// Absent and space available → appended. Absent and full → dropped
        /// ([`InsertOutcome::Full`]).
        pub fn offer(&mut self, contact: Contact, now: SimTime) -> InsertOutcome {
            match self.position(&contact.id) {
                Some(pos) => {
                    let mut entry = self.entries.remove(pos);
                    entry.failures = 0;
                    entry.last_seen = now;
                    entry.contact = contact;
                    self.entries.push(entry);
                    InsertOutcome::Refreshed
                }
                None if self.entries.len() < self.k => {
                    self.entries.push(BucketEntry {
                        contact,
                        failures: 0,
                        last_seen: now,
                    });
                    InsertOutcome::Inserted
                }
                None => InsertOutcome::Full,
            }
        }

        /// Records a successful communication with `id` (if stored).
        pub fn record_success(&mut self, id: &NodeId, now: SimTime) {
            if let Some(pos) = self.position(id) {
                let mut entry = self.entries.remove(pos);
                entry.failures = 0;
                entry.last_seen = now;
                self.entries.push(entry);
            }
        }

        /// Records a failed communication with `id`. Once the failure count
        /// reaches `staleness_limit` the contact is evicted; returns `true` in
        /// that case.
        pub fn record_failure(&mut self, id: &NodeId, staleness_limit: u32) -> bool {
            if let Some(pos) = self.position(id) {
                self.entries[pos].failures += 1;
                if self.entries[pos].failures >= staleness_limit {
                    self.entries.remove(pos);
                    return true;
                }
            }
            false
        }

        /// Removes a contact outright, returning `true` if it was present.
        pub fn remove(&mut self, id: &NodeId) -> bool {
            match self.position(id) {
                Some(pos) => {
                    self.entries.remove(pos);
                    true
                }
                None => false,
            }
        }

        /// Iterates entries, least-recently-seen first.
        pub fn iter(&self) -> impl Iterator<Item = &BucketEntry> {
            self.entries.iter()
        }

        /// Iterates just the contacts.
        pub fn contacts(&self) -> impl Iterator<Item = &Contact> {
            self.entries.iter().map(|e| &e.contact)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::KBucket;
    use super::*;
    use crate::contact::NodeAddr;

    fn contact(v: u64) -> Contact {
        Contact::new(NodeId::from_u64(v, 32), NodeAddr(v as u32))
    }

    #[test]
    fn offer_inserts_until_full() {
        let mut b = KBucket::new(2);
        assert_eq!(b.offer(contact(1), SimTime::ZERO), InsertOutcome::Inserted);
        assert_eq!(b.offer(contact(2), SimTime::ZERO), InsertOutcome::Inserted);
        assert_eq!(b.offer(contact(3), SimTime::ZERO), InsertOutcome::Full);
        assert_eq!(b.len(), 2);
        assert!(b.is_full());
        assert!(!b.contains(&NodeId::from_u64(3, 32)));
    }

    #[test]
    fn offer_refreshes_existing() {
        let mut b = KBucket::new(2);
        b.offer(contact(1), SimTime::ZERO);
        b.offer(contact(2), SimTime::ZERO);
        // Re-offering 1 moves it to the most-recently-seen end.
        assert_eq!(
            b.offer(contact(1), SimTime::from_secs(5)),
            InsertOutcome::Refreshed
        );
        let order: Vec<u32> = b.contacts().map(|c| c.addr.0).collect();
        assert_eq!(order, vec![2, 1]);
        assert_eq!(
            b.iter().last().expect("entry").last_seen,
            SimTime::from_secs(5)
        );
    }

    #[test]
    fn staleness_limit_one_evicts_immediately() {
        let mut b = KBucket::new(4);
        b.offer(contact(1), SimTime::ZERO);
        assert!(b.record_failure(&NodeId::from_u64(1, 32), 1));
        assert!(b.is_empty());
    }

    #[test]
    fn staleness_limit_five_requires_five_consecutive_failures() {
        let mut b = KBucket::new(4);
        let id = NodeId::from_u64(1, 32);
        b.offer(contact(1), SimTime::ZERO);
        for _ in 0..4 {
            assert!(!b.record_failure(&id, 5));
        }
        // A success resets the counter — failures must be consecutive.
        b.record_success(&id, SimTime::from_secs(1));
        for _ in 0..4 {
            assert!(!b.record_failure(&id, 5));
        }
        assert!(b.record_failure(&id, 5));
        assert!(b.is_empty());
    }

    #[test]
    fn failure_on_absent_contact_is_noop() {
        let mut b = KBucket::new(2);
        assert!(!b.record_failure(&NodeId::from_u64(9, 32), 1));
    }

    #[test]
    fn eviction_frees_space_for_new_contacts() {
        let mut b = KBucket::new(1);
        b.offer(contact(1), SimTime::ZERO);
        assert_eq!(b.offer(contact(2), SimTime::ZERO), InsertOutcome::Full);
        b.record_failure(&NodeId::from_u64(1, 32), 1);
        assert_eq!(b.offer(contact(2), SimTime::ZERO), InsertOutcome::Inserted);
    }

    #[test]
    fn remove_works() {
        let mut b = KBucket::new(2);
        b.offer(contact(1), SimTime::ZERO);
        assert!(b.remove(&NodeId::from_u64(1, 32)));
        assert!(!b.remove(&NodeId::from_u64(1, 32)));
    }

    #[test]
    fn success_on_absent_contact_is_noop() {
        let mut b = KBucket::new(2);
        b.record_success(&NodeId::from_u64(1, 32), SimTime::ZERO);
        assert!(b.is_empty());
    }
}
