//! A simulation-grade implementation of the Kademlia overlay protocol.
//!
//! This crate rebuilds the protocol layer the paper runs inside PeerSim
//! (Section 4.1): XOR-metric identifiers, k-bucket routing tables, the
//! iterative α-parallel lookup procedure, dissemination (STORE to the `k`
//! closest nodes), periodic bucket refresh, the staleness limit `s`, and a
//! churn-capable node lifecycle — all driven by the deterministic
//! event kernel from [`dessim`].
//!
//! The four protocol parameters studied by the paper appear verbatim in
//! [`config::KademliaConfig`]:
//!
//! * `b` — identifier bit-length ([`config::KademliaConfig::bits`]),
//! * `k` — bucket size ([`config::KademliaConfig::k`]),
//! * `α` — request parallelism ([`config::KademliaConfig::alpha`]),
//! * `s` — staleness limit ([`config::KademliaConfig::staleness_limit`]).
//!
//! # Example
//!
//! Build a 32-node network, let it stabilize, and dump the connectivity
//! snapshot:
//!
//! ```
//! use dessim::time::SimTime;
//! use kademlia::config::KademliaConfig;
//! use kademlia::network::SimNetwork;
//!
//! let config = KademliaConfig::builder().k(8).build().expect("valid");
//! let mut net = SimNetwork::new(config, Default::default(), 42);
//! let mut prev = None;
//! for _ in 0..32 {
//!     let addr = net.spawn_node();
//!     net.join(addr, prev);
//!     prev = Some(addr);
//!     net.run_until(net.now() + dessim::time::SimDuration::from_secs(30));
//! }
//! net.run_until(SimTime::from_minutes(90));
//! let snap = net.snapshot();
//! assert_eq!(snap.node_count(), 32);
//! assert!(snap.edge_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod config;
pub mod contact;
pub mod defense;
pub mod id;
pub mod lookup;
pub mod messages;
pub mod network;
pub mod node;
pub mod probe;
pub mod routing;
pub mod snapshot;

pub use config::KademliaConfig;
pub use contact::{Contact, NodeAddr};
pub use id::{Distance, NodeId};
pub use network::SimNetwork;
pub use probe::DurabilityProbe;
pub use snapshot::RoutingSnapshot;
