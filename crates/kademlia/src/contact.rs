//! Contacts: the `(identifier, network address)` pairs stored in routing
//! tables.

use crate::id::NodeId;
use std::fmt;

/// Simulated network address: a stable index into the simulation's node
/// table. Addresses are never reused, so a dead node's address stays dead —
/// exactly like the paper's model where a departed node silently stops
/// answering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeAddr(pub u32);

impl NodeAddr {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A routing-table contact: another node's identifier and address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Contact {
    /// The contact's Kademlia identifier.
    pub id: NodeId,
    /// Where messages to this contact are delivered.
    pub addr: NodeAddr,
}

impl Contact {
    /// Creates a contact.
    pub fn new(id: NodeId, addr: NodeAddr) -> Self {
        Contact { id, addr }
    }
}

impl fmt::Display for Contact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.id, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let c = Contact::new(NodeId::from_u64(0xff, 8), NodeAddr(3));
        assert_eq!(c.to_string(), "ff@#3");
        assert_eq!(NodeAddr(17).to_string(), "#17");
    }

    #[test]
    fn addr_index() {
        assert_eq!(NodeAddr(5).index(), 5);
    }
}
