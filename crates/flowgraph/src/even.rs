//! Even's vertex-splitting transformation (paper, Section 4.3).
//!
//! Vertex connectivity asks for the minimum number of *vertices* whose
//! removal disconnects `w` from `v`. Max-flow algorithms bound *edges*, so
//! Even's transformation splits every vertex `x` of the directed graph
//! `D(V, E)` into an incoming copy `x'` and an outgoing copy `x''` joined by
//! an internal arc `(x', x'')` of capacity 1:
//!
//! * every original edge `(u, x)` becomes an arc `(u'', x')`;
//! * the max flow from `v''` to `w'` in the transformed network `D'` equals
//!   the vertex connectivity `κ(v, w)` for **non-adjacent** `v, w`
//!   (Menger's theorem).
//!
//! The transformed network has `2n` vertices and `m + n` arcs, exactly as
//! stated in the paper, and every capacity is 1.
//!
//! No analysis preset builds it: [`crate::vertex_flow`] runs the same flow
//! on the implicit network and reads κ, minimum cuts and Menger paths off
//! it. This explicit network runs only push-relabel: the independent oracle
//! and the `batched: false` route.

use crate::digraph::DiGraph;
use crate::maxflow::{FlowNetwork, FlowWorkspace, MaxFlow};
use std::sync::Arc;

/// An Even-transformed flow network, remembering enough of the original
/// graph to refuse adjacent pairs.
///
/// # Example
///
/// ```
/// use flowgraph::{DiGraph, EvenNetwork};
/// use flowgraph::maxflow::PushRelabel;
///
/// // 0 -> 1 -> 2 and 0 -> 3 -> 2: two vertex-disjoint paths.
/// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (0, 3), (3, 2)]);
/// let mut even = EvenNetwork::from_graph(&g);
/// let solver = PushRelabel::new();
/// assert_eq!(even.vertex_connectivity(&solver, 0, 2, None), Some(2));
/// // Adjacent pairs have no defined vertex connectivity.
/// assert_eq!(even.vertex_connectivity(&solver, 0, 1, None), None);
/// ```
/// Cloning an `EvenNetwork` — e.g. to hand each sweep worker its own
/// mutable residual state — shares the original graph behind an [`Arc`]
/// and only duplicates the flow network itself.
#[derive(Clone, Debug)]
pub struct EvenNetwork {
    net: FlowNetwork,
    graph: Arc<DiGraph>,
}

impl EvenNetwork {
    /// Builds the transformation (the paper's construction).
    pub fn from_graph(graph: &DiGraph) -> Self {
        let n = graph.node_count();
        let mut net = FlowNetwork::new(2 * n);
        // Internal arcs x' -> x'' with capacity 1 (vertex capacity).
        for x in 0..n as u32 {
            net.add_arc(Self::in_vertex(x), Self::out_vertex(x), 1);
        }
        for (u, x) in graph.edges() {
            net.add_arc(Self::out_vertex(u), Self::in_vertex(x), 1);
        }
        EvenNetwork {
            net,
            graph: Arc::new(graph.clone()),
        }
    }

    /// Incoming copy `x'` of original vertex `x`.
    #[inline]
    pub fn in_vertex(x: u32) -> u32 {
        2 * x
    }

    /// Outgoing copy `x''` of original vertex `x`.
    #[inline]
    pub fn out_vertex(x: u32) -> u32 {
        2 * x + 1
    }

    /// Number of vertices in the *original* graph.
    pub fn original_node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The underlying flow network (`2n` vertices, `m + n` arcs).
    pub fn network(&self) -> &FlowNetwork {
        &self.net
    }

    /// Restores residual capacities so another pair can be computed.
    pub fn reset(&mut self) {
        self.net.reset();
    }

    /// Computes `κ(v, w)` — the vertex connectivity from `v` to `w` — with
    /// the given solver.
    ///
    /// Returns `None` when `v == w` or when the edge `(v, w)` exists: the
    /// minimum vertex cut (and hence `κ`) is undefined for adjacent pairs
    /// and the paper excludes them from the minimum (Equation 1).
    ///
    /// The network is reset before the computation, so calls are
    /// independent. If `cutoff` is `Some(c)` the returned value may be any
    /// certified lower bound `>= c` (see [`MaxFlow::max_flow`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` or `w` is out of range.
    pub fn vertex_connectivity<S: MaxFlow + ?Sized>(
        &mut self,
        solver: &S,
        v: u32,
        w: u32,
        cutoff: Option<u64>,
    ) -> Option<u64> {
        let mut workspace = FlowWorkspace::new();
        self.vertex_connectivity_with(solver, v, w, cutoff, &mut workspace)
    }

    /// [`EvenNetwork::vertex_connectivity`] with caller-owned scratch: the
    /// network is retargeted to the new `(v, w)` pair in place (its journal
    /// undoes only the arcs the previous run touched) and the solver runs
    /// against `workspace`, so sweeping many pairs allocates nothing.
    pub fn vertex_connectivity_with<S: MaxFlow + ?Sized>(
        &mut self,
        solver: &S,
        v: u32,
        w: u32,
        cutoff: Option<u64>,
        workspace: &mut FlowWorkspace,
    ) -> Option<u64> {
        assert!(
            (v as usize) < self.graph.node_count() && (w as usize) < self.graph.node_count(),
            "vertex out of range"
        );
        if v == w || self.graph.has_edge(v, w) {
            return None;
        }
        self.net.reset();
        Some(solver.max_flow_with(
            &mut self.net,
            Self::out_vertex(v),
            Self::in_vertex(w),
            cutoff,
            workspace,
        ))
    }
}

/// Builds a plain unit-capacity flow network from a directed graph
/// (capacity 1 per edge, no vertex splitting).
///
/// Max flow in this network is the *edge* connectivity between the chosen
/// pair — the quantity Figure 1(a) of the paper contrasts with the vertex
/// connectivity of the transformed graph.
pub fn unit_flow_network(graph: &DiGraph) -> FlowNetwork {
    let mut net = FlowNetwork::new(graph.node_count());
    for (u, v) in graph.edges() {
        net.add_arc(u, v, 1);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::paper_figure1;
    use crate::maxflow::{EdmondsKarp, PushRelabel};

    #[test]
    fn figure1_edge_flow_is_3() {
        // Paper, Figure 1(a): maximum flow from a to i in the original
        // connectivity graph is 3.
        let g = paper_figure1();
        let mut net = unit_flow_network(&g);
        assert_eq!(PushRelabel::new().max_flow(&mut net, 0, 8, None), 3);
    }

    #[test]
    fn figure1_vertex_connectivity_is_1() {
        // Paper, Figure 1(b): in the transformed graph the max flow from a''
        // to i' equals the vertex connectivity of 1 (cut vertex e).
        let g = paper_figure1();
        for solver in [&EdmondsKarp::new() as &dyn MaxFlow, &PushRelabel::new()] {
            let mut even = EvenNetwork::from_graph(&g);
            assert_eq!(
                even.vertex_connectivity(solver, 0, 8, None),
                Some(1),
                "solver {}",
                solver.name()
            );
        }
    }

    #[test]
    fn transformed_sizes_match_paper() {
        // "The resulting graph D' has 2n vertices and m + n edges."
        let g = paper_figure1();
        let even = EvenNetwork::from_graph(&g);
        assert_eq!(even.network().node_count(), 2 * g.node_count());
        assert_eq!(even.network().arc_count(), g.edge_count() + g.node_count());
    }

    #[test]
    fn adjacent_pairs_are_undefined() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let mut even = EvenNetwork::from_graph(&g);
        let solver = PushRelabel::new();
        assert_eq!(even.vertex_connectivity(&solver, 0, 1, None), None);
        assert_eq!(even.vertex_connectivity(&solver, 0, 0, None), None);
        // 2 -> 0 does not exist, so that direction is defined.
        assert!(even.vertex_connectivity(&solver, 2, 0, None).is_some());
    }

    #[test]
    fn connectivity_bounded_by_degrees() {
        let g = paper_figure1();
        let mut even = EvenNetwork::from_graph(&g);
        for v in 0..9u32 {
            for w in 0..9u32 {
                if let Some(k) = even.vertex_connectivity(&PushRelabel::new(), v, w, None) {
                    assert!(k <= g.out_degree(v) as u64, "κ({v},{w}) > dout");
                    assert!(k <= g.in_degree(w) as u64, "κ({v},{w}) > din");
                }
            }
        }
    }
}
