//! Simple directed graphs without self-loops or parallel edges.
//!
//! [`DiGraph`] is the in-memory representation of a *connectivity graph*
//! (paper, Section 4.2): vertices are overlay nodes, and a directed edge
//! `(v, w)` states that `w` occurs in `v`'s routing table. The paper assumes
//! the graph has neither self-loops nor parallel edges; [`DiGraph::add_edge`]
//! enforces both invariants by silently ignoring duplicates and rejecting
//! loops.

use std::collections::HashSet;
use std::fmt;

/// A directed graph over vertices `0..n` with deduplicated edges and no
/// self-loops.
///
/// Out-neighbor lists are kept sorted so that [`DiGraph::has_edge`] is a
/// binary search and iteration order is deterministic.
///
/// # Example
///
/// ```
/// use flowgraph::DiGraph;
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// g.add_edge(0, 1); // duplicate: ignored
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(1, 0));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DiGraph {
    n: usize,
    /// Sorted out-neighbor lists.
    adj: Vec<Vec<u32>>,
    /// In-degrees, maintained incrementally.
    in_deg: Vec<u32>,
    m: usize,
}

impl DiGraph {
    /// Creates an empty graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            n,
            adj: vec![Vec::new(); n],
            in_deg: vec![0; n],
            m: 0,
        }
    }

    /// Builds a graph from an edge iterator.
    ///
    /// Self-loops and duplicate edges are dropped, mirroring the paper's
    /// assumption that the connectivity graph "has neither self-loops nor
    /// parallel edges".
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut g = DiGraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of (deduplicated) directed edges.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Inserts the directed edge `(u, v)`.
    ///
    /// Returns `true` if the edge was new. Self-loops are rejected
    /// (returning `false`) because they never contribute to connectivity.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `v >= n`.
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        assert!((u as usize) < self.n, "vertex {u} out of range");
        assert!((v as usize) < self.n, "vertex {v} out of range");
        if u == v {
            return false;
        }
        let list = &mut self.adj[u as usize];
        match list.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                list.insert(pos, v);
                self.in_deg[v as usize] += 1;
                self.m += 1;
                true
            }
        }
    }

    /// Removes the directed edge `(u, v)`, returning `true` if it existed.
    pub fn remove_edge(&mut self, u: u32, v: u32) -> bool {
        if (u as usize) >= self.n || (v as usize) >= self.n {
            return false;
        }
        let list = &mut self.adj[u as usize];
        match list.binary_search(&v) {
            Ok(pos) => {
                list.remove(pos);
                self.in_deg[v as usize] -= 1;
                self.m -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Tests whether the directed edge `(u, v)` is present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        (u as usize) < self.n && self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Sorted out-neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn out_neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: u32) -> usize {
        self.in_deg[v as usize] as usize
    }

    /// Iterator over all edges in `(tail, head)` order, ascending by tail.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as u32, v)))
    }

    /// Minimum out-degree over all vertices (0 for the empty graph).
    pub fn min_out_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Minimum in-degree over all vertices (0 for the empty graph).
    pub fn min_in_degree(&self) -> usize {
        self.in_deg.iter().map(|&d| d as usize).min().unwrap_or(0)
    }

    /// `min(min_out_degree, min_in_degree)` — a cheap upper bound for the
    /// vertex connectivity of the whole graph.
    pub fn min_degree(&self) -> usize {
        self.min_out_degree().min(self.min_in_degree())
    }

    /// Whether every ordered pair of distinct vertices is an edge.
    ///
    /// For a complete graph the vertex connectivity is defined as `n - 1`
    /// (paper, Section 4.4), so flow computations are skipped entirely.
    pub fn is_complete(&self) -> bool {
        self.n >= 1 && self.m == self.n * (self.n - 1)
    }

    /// Returns the reverse graph (every edge flipped).
    pub fn reverse(&self) -> DiGraph {
        let mut g = DiGraph::new(self.n);
        for (u, v) in self.edges() {
            g.add_edge(v, u);
        }
        g
    }

    /// Fraction of edges whose reverse edge also exists, in `[0, 1]`.
    ///
    /// The paper observes that Kademlia connectivity graphs "come very close
    /// to being undirected"; this is the quantitative version of that claim
    /// and it justifies the smallest-out-degree sampling strategy.
    ///
    /// Returns `1.0` for the empty graph (vacuously symmetric).
    pub fn reciprocity(&self) -> f64 {
        if self.m == 0 {
            return 1.0;
        }
        let mut reciprocated = 0usize;
        for (u, v) in self.edges() {
            if self.has_edge(v, u) {
                reciprocated += 1;
            }
        }
        reciprocated as f64 / self.m as f64
    }

    /// Vertices sorted by ascending out-degree (ties broken by vertex id, so
    /// the order is deterministic).
    ///
    /// This is the ordering used by the paper's `c`-sampling: the `c·n`
    /// vertices of smallest out-degree are used as flow sources.
    pub fn vertices_by_out_degree(&self) -> Vec<u32> {
        let mut vs: Vec<u32> = (0..self.n as u32).collect();
        vs.sort_by_key(|&v| (self.adj[v as usize].len(), v));
        vs
    }

    /// Returns the subgraph induced by deleting `removed` vertices.
    ///
    /// Vertices are re-indexed densely; the returned vector maps new index →
    /// old index. Used by attack simulations (remove up to `a` compromised
    /// nodes and re-examine connectivity).
    pub fn remove_vertices(&self, removed: &HashSet<u32>) -> (DiGraph, Vec<u32>) {
        let keep: Vec<u32> = (0..self.n as u32)
            .filter(|v| !removed.contains(v))
            .collect();
        let mut old_to_new = vec![u32::MAX; self.n];
        for (new, &old) in keep.iter().enumerate() {
            old_to_new[old as usize] = new as u32;
        }
        let mut g = DiGraph::new(keep.len());
        for (u, v) in self.edges() {
            let (nu, nv) = (old_to_new[u as usize], old_to_new[v as usize]);
            if nu != u32::MAX && nv != u32::MAX {
                g.add_edge(nu, nv);
            }
        }
        (g, keep)
    }

    /// Out-degree histogram: `hist[d]` is the number of vertices with
    /// out-degree `d`.
    pub fn out_degree_histogram(&self) -> Vec<usize> {
        let max = self.adj.iter().map(Vec::len).max().unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for vs in &self.adj {
            hist[vs.len()] += 1;
        }
        hist
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiGraph")
            .field("n", &self.n)
            .field("m", &self.m)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_empty() {
        let g = DiGraph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.min_degree(), 0);
    }

    #[test]
    fn add_edge_dedupes() {
        let mut g = DiGraph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = DiGraph::new(3);
        assert!(!g.add_edge(1, 1));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn direction_matters() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(1), 1);
        assert_eq!(g.out_degree(1), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn remove_edge_updates_counts() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.in_degree(1), 0);
    }

    #[test]
    fn complete_graph_detection() {
        let mut g = DiGraph::new(3);
        for u in 0..3 {
            for v in 0..3 {
                if u != v {
                    g.add_edge(u, v);
                }
            }
        }
        assert!(g.is_complete());
        g.remove_edge(0, 1);
        assert!(!g.is_complete());
    }

    #[test]
    fn reverse_flips_edges() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let r = g.reverse();
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(2, 1));
        assert_eq!(r.edge_count(), 2);
    }

    #[test]
    fn reciprocity_bounds() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 0), (1, 2)]);
        let rec = g.reciprocity();
        assert!((rec - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(DiGraph::new(4).reciprocity(), 1.0);
    }

    #[test]
    fn vertices_by_out_degree_is_sorted_and_deterministic() {
        let g = DiGraph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
        let order = g.vertices_by_out_degree();
        assert_eq!(order, vec![3, 1, 2, 0]);
    }

    #[test]
    fn remove_vertices_reindexes() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let removed: HashSet<u32> = [1].into_iter().collect();
        let (sub, map) = g.remove_vertices(&removed);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(map, vec![0, 2, 3]);
        // Edges (2,3) and (3,0) survive under new indices (1,2) and (2,0).
        assert!(sub.has_edge(1, 2));
        assert!(sub.has_edge(2, 0));
        assert_eq!(sub.edge_count(), 2);
    }

    #[test]
    fn out_degree_histogram_counts() {
        let g = DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.out_degree_histogram(), vec![2, 1, 1]);
    }

    #[test]
    fn edges_iterate_in_order() {
        let g = DiGraph::from_edges(3, [(2, 0), (0, 2), (0, 1)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (2, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 2);
    }
}
