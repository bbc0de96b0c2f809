//! Directed graphs and maximum-flow machinery for vertex-connectivity
//! analysis.
//!
//! This crate rebuilds, in pure Rust, the graph-algorithmic substrate used by
//! Heck et al. in *Evaluating Connection Resilience for the Overlay Network
//! Kademlia* (2017):
//!
//! * [`DiGraph`] — the *connectivity graph*: one vertex per overlay node, a
//!   directed edge `(v, w)` iff `w` appears in `v`'s routing table.
//! * [`even::EvenNetwork`] — Even's vertex-splitting transformation, which
//!   reduces vertex connectivity to maximum flow (Section 4.3 of the paper).
//! * [`vertex_flow`] — the production kernel: unit-capacity Dinic on the
//!   *implicit* Even network, straight over CSR rows of the graph (no
//!   transformed network is built). One flow gives `κ(v, w)`, the minimum
//!   vertex cut (the nodes an optimal attacker removes) and the Menger paths
//!   (the node-disjoint channels whose count *is* the resilience).
//! * [`maxflow`] — max-flow on the explicit network:
//!   [`maxflow::PushRelabel`] (a faithful re-implementation of the HIPR
//!   highest-label push-relabel code the authors used), the independent
//!   oracle and the `batched: false` route, with [`maxflow::EdmondsKarp`]
//!   as its test-only reference. Both support *early cutoff*, the key trick
//!   that makes minimum-connectivity search tractable.
//! * [`witness`] — independent checkers for the kernel's cuts and paths.
//! * [`scc`] — strong-connectivity pre-checks (a graph that is not strongly
//!   connected has vertex connectivity zero).
//! * [`generators`] — deterministic random-graph generators used by tests,
//!   property tests and benches.
//!
//! # Example
//!
//! The example graph from Figure 1 of the paper has maximum edge flow 3
//! from `a` to `i` but vertex connectivity 1: every path passes `e`.
//!
//! ```
//! use flowgraph::generators::paper_figure1;
//! use flowgraph::even::EvenNetwork;
//! use flowgraph::maxflow::PushRelabel;
//! use flowgraph::vertex_flow::VertexFlow;
//!
//! let g = paper_figure1();
//! let (a, e, i) = (0, 4, 8);
//! let mut kernel = VertexFlow::new(&g);
//! assert_eq!(kernel.connectivity(a, i, None), Some(1));
//! assert_eq!(kernel.min_cut(a, i), Some(vec![e]));
//! assert_eq!(kernel.paths(a, i).map(|p| p.len()), Some(1));
//! // The explicit split network with HIPR-style push-relabel is the oracle.
//! let mut even = EvenNetwork::from_graph(&g);
//! assert_eq!(even.vertex_connectivity(&PushRelabel::new(), a, i, None), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digraph;
pub mod even;
pub mod generators;
pub mod maxflow;
pub mod scc;
pub mod vertex_flow;
pub mod witness;

pub use digraph::DiGraph;
pub use even::EvenNetwork;
pub use maxflow::{EdmondsKarp, FlowNetwork, FlowWorkspace, MaxFlow, PushRelabel};
pub use vertex_flow::VertexFlow;
