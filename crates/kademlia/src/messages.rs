//! Wire messages: the Kademlia RPC set.
//!
//! Kademlia's communication is dominated by two-way request/response
//! exchanges (the assumption behind the paper's Table 1 loss model), so the
//! message type is exactly a request or a response, each carrying the
//! sender's contact so receivers can update their routing tables.

use crate::contact::Contact;
use crate::id::NodeId;

/// Correlates a response with its pending request.
pub type RpcId = u64;

/// Request payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// Liveness probe.
    Ping,
    /// "Give me your closest contacts to `target`" — the lookup workhorse.
    FindNode(NodeId),
    /// Store a data object (identified by its key) at the receiver; the
    /// dissemination procedure sends this to the `k` closest nodes.
    Store(NodeId),
    /// "Give me the object for `key`, or your closest contacts to it" —
    /// the retrieval workhorse (FIND_VALUE). Holders answer
    /// [`ResponseBody::Value`] with `found = true`; everyone else behaves
    /// exactly like [`RequestKind::FindNode`].
    FindValue(NodeId),
}

/// Response payloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseBody {
    /// Answer to [`RequestKind::Ping`].
    Pong,
    /// Answer to [`RequestKind::FindNode`]: the receiver's `k` closest
    /// contacts to the target.
    Nodes(Vec<Contact>),
    /// Answer to [`RequestKind::Store`].
    StoreOk,
    /// Answer to [`RequestKind::FindValue`].
    Value {
        /// Whether the responder holds (and is willing to serve) the key.
        found: bool,
        /// The responder's closest contacts to the key when it does not
        /// serve the value (empty on a hit).
        nodes: Vec<Contact>,
    },
}

/// A simulated datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// A request, awaiting a response within the RPC timeout.
    Request {
        /// Correlation id allocated by the sender.
        rpc_id: RpcId,
        /// The sender (receivers learn contacts from this field).
        from: Contact,
        /// What is being asked.
        kind: RequestKind,
    },
    /// A response to an earlier request.
    Response {
        /// Correlation id copied from the request.
        rpc_id: RpcId,
        /// The responder.
        from: Contact,
        /// The answer.
        body: ResponseBody,
    },
}

impl Message {
    /// The contact embedded in the message (sender).
    pub fn sender(&self) -> &Contact {
        match self {
            Message::Request { from, .. } | Message::Response { from, .. } => from,
        }
    }

    /// The correlation id.
    pub fn rpc_id(&self) -> RpcId {
        match self {
            Message::Request { rpc_id, .. } | Message::Response { rpc_id, .. } => *rpc_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::NodeAddr;

    #[test]
    fn accessors() {
        let c = Contact::new(NodeId::from_u64(1, 8), NodeAddr(0));
        let m = Message::Request {
            rpc_id: 42,
            from: c,
            kind: RequestKind::Ping,
        };
        assert_eq!(m.rpc_id(), 42);
        assert_eq!(m.sender(), &c);
        let r = Message::Response {
            rpc_id: 42,
            from: c,
            body: ResponseBody::Pong,
        };
        assert_eq!(r.rpc_id(), 42);
    }
}
