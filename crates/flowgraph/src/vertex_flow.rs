//! Unit-vertex flow kernel: `κ(v, w)` straight on the connectivity graph.
//!
//! Every capacity of Even's network ([`crate::even`]) is 1, so a flow on it
//! is a set of internally vertex-disjoint `v → w` paths and the whole
//! residual network can be read off two `n`-long arrays instead of being
//! stored: for a vertex `x` that carries the unit of some path, `pred[x]`
//! is the vertex the unit enters from and `succ[x]` the one it leaves to.
//! With `x'` the in-copy and `x''` the out-copy of `x`:
//!
//! * `x'` has exactly **one** residual out-arc — the internal arc
//!   `x' → x''` while `x` is idle, the reversed edge arc `x' → pred[x]''`
//!   once it carries a unit;
//! * `x''` has its out-neighbour row minus `succ[x]` (edge arcs without
//!   flow), plus the reversed internal arc `x'' → x'` while `x` carries a
//!   unit.
//!
//! [`VertexFlow`] runs Dinic phases on that implicit network over a CSR
//! copy of the graph's out- and in-neighbour rows:
//!
//! 1. **Sink-rooted BFS.** Labelling walks residual arcs backwards from
//!    the sink `w'`, so each label is a copy's residual distance *to* the
//!    sink, and returns the moment the source `v''` is labelled. Every copy
//!    nearer the sink is labelled by then, which is all the blocking flow
//!    reads; on overlay graphs (sink two or three hops away) that is a few
//!    rows, not the whole network. The residual in-arcs come off the
//!    in-rows: `x''` has one, from `x'` while `x` is idle and from
//!    `succ[x]'` otherwise; `x'` has one from `z''` for every in-neighbour
//!    `z ≠ pred[x]`, plus one from `x''` while `x` carries a unit; the sink
//!    has one from `z''` for every in-neighbour with `succ[z] ≠ w`.
//! 2. **Unit blocking flow.** The DFS from `v''` steps only along arcs one
//!    nearer the sink, so every copy it reaches lies on a shortest residual
//!    `v'' → w'` path and it never wanders into the part of the network
//!    that cannot reach the sink. Each interior vertex of an augmenting path
//!    has a single residual in- or out-arc and the path saturates it, so
//!    the vertex leaves the level graph and the DFS restarts at the source.
//!
//! The loop ends when `min(cutoff, outdeg(v), indeg(w))` units are routed
//! (the degree bound is the capacity of the cuts around `v''` and `w'`, so
//! a flow meeting it is maximal) or a BFS fails to reach the sink. State is
//! restored in `O(vertices touched)` before returning, so calls are
//! independent and a clone is always a clean evaluator.
//!
//! # Witnesses
//!
//! Menger's theorem says the maximum flow also carries both certificates of
//! `κ(v, w)`, and the kernel reads them off `pred`/`succ` before restoring:
//!
//! * [`VertexFlow::paths`]: each out-neighbour `y` of `v` with
//!   `pred[y] == v` starts one path, which follows `succ` to `w`.
//! * [`VertexFlow::min_cut`]: a walk of the residual network from `v''`
//!   that treats edge arcs as uncapacitated. Forward edge arcs are always
//!   open, an in-copy leaves by its one residual arc (above), and an
//!   out-copy reaches its own in-copy while it carries a unit. The cut is
//!   every `x` whose `x'` is reached and whose `x''` is not. With edge arcs
//!   unbounded, every minimum cut crosses internal arcs only, and the set
//!   the walk reaches is the source side of the minimum cut closest to `v`,
//!   which is the same for every maximum flow.
//!
//! The explicit [`crate::EvenNetwork`] + [`crate::maxflow`] route stays as
//! the independent oracle; the two are property-tested equal pair by pair,
//! and the witnesses are checked by [`crate::witness`].

use crate::digraph::DiGraph;
use std::sync::Arc;

/// "No vertex" in `pred`/`succ`, "not labelled" in `level`.
const NONE: u32 = u32::MAX;

/// In-copy `x'` of vertex `x` (same numbering as [`crate::EvenNetwork`]).
#[inline]
fn in_copy(x: u32) -> u32 {
    2 * x
}

/// Out-copy `x''` of vertex `x`.
#[inline]
fn out_copy(x: u32) -> u32 {
    2 * x + 1
}

/// The one residual arc out of in-copy `a = x'`: the internal arc to `x''`
/// while `x` is idle, the reversed edge arc to `pred[x]''` once it carries a
/// unit.
#[inline]
fn sole_exit(pred: &[u32], a: u32) -> u32 {
    match pred[(a >> 1) as usize] {
        NONE => a | 1,
        u => out_copy(u),
    }
}

/// Out- and in-neighbour rows in compressed sparse row form, both sorted
/// ascending within a row.
#[derive(Debug)]
struct Csr {
    out_off: Vec<usize>,
    out_adj: Vec<u32>,
    in_off: Vec<usize>,
    in_adj: Vec<u32>,
}

impl Csr {
    fn new(g: &DiGraph) -> Self {
        let n = g.node_count();
        let mut out_off = Vec::with_capacity(n + 1);
        let mut out_adj = Vec::with_capacity(g.edge_count());
        let mut in_off = vec![0usize; n + 1];
        out_off.push(0);
        for x in 0..n as u32 {
            out_adj.extend_from_slice(g.out_neighbors(x));
            out_off.push(out_adj.len());
            in_off[x as usize + 1] = in_off[x as usize] + g.in_degree(x);
        }
        // Tails ascend, so every in-row comes out sorted.
        let mut fill = in_off.clone();
        let mut in_adj = vec![0u32; out_adj.len()];
        for (x, y) in g.edges() {
            in_adj[fill[y as usize]] = x;
            fill[y as usize] += 1;
        }
        Csr {
            out_off,
            out_adj,
            in_off,
            in_adj,
        }
    }

    #[inline]
    fn out_row(&self, x: u32) -> &[u32] {
        &self.out_adj[self.out_off[x as usize]..self.out_off[x as usize + 1]]
    }

    #[inline]
    fn in_row(&self, x: u32) -> &[u32] {
        &self.in_adj[self.in_off[x as usize]..self.in_off[x as usize + 1]]
    }
}

/// Reusable `κ(v, w)` evaluator for one graph.
///
/// Cloning shares the CSR rows behind an [`Arc`] and duplicates only the
/// `O(n)` scratch arrays — how a parallel sweep hands each worker its own
/// evaluator.
///
/// # Example
///
/// ```
/// use flowgraph::generators::paper_figure1;
/// use flowgraph::vertex_flow::VertexFlow;
///
/// // Figure 1 of the paper: three edge-disjoint a → i paths, but all of
/// // them pass through e.
/// let mut kernel = VertexFlow::new(&paper_figure1());
/// assert_eq!(kernel.connectivity(0, 8, None), Some(1));
/// // Adjacent pairs have no defined vertex connectivity.
/// assert_eq!(kernel.connectivity(0, 1, None), None);
/// ```
#[derive(Clone, Debug)]
pub struct VertexFlow {
    csr: Arc<Csr>,
    /// `pred[x]`: where the unit through `x` enters from (`NONE`: idle).
    /// Never set for the source; set for every out-neighbour of the source
    /// that an edge `(v, x)` feeds.
    pred: Vec<u32>,
    /// `succ[x]`: where the unit through `x` leaves to. Never set for the
    /// source or the sink.
    succ: Vec<u32>,
    /// Vertices whose `pred`/`succ` were written (duplicates allowed).
    touched: Vec<u32>,
    /// Residual distance to the sink in the current phase, indexed by copy
    /// id; the DFS clears entries as copies die.
    level: Vec<u32>,
    /// Current-arc pointer into the out-row, per vertex (out-copies only).
    cur: Vec<usize>,
    /// BFS queue; doubles as the list of labelled copies to unlabel.
    queue: Vec<u32>,
    /// The DFS's partial path, as copy ids starting at the source.
    path: Vec<u32>,
}

impl VertexFlow {
    /// Builds the kernel for `g`: one `O(n + m)` pass to lay out the rows.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more than `u32::MAX / 2` vertices (copy ids must
    /// fit a `u32`).
    pub fn new(g: &DiGraph) -> Self {
        let n = g.node_count();
        assert!(
            n <= (u32::MAX / 2) as usize,
            "graph too large for u32 copy ids"
        );
        VertexFlow {
            csr: Arc::new(Csr::new(g)),
            pred: vec![NONE; n],
            succ: vec![NONE; n],
            touched: Vec::new(),
            level: vec![NONE; 2 * n],
            cur: vec![0; n],
            queue: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Number of vertices of the graph this kernel was built for.
    pub fn node_count(&self) -> usize {
        self.pred.len()
    }

    /// `κ(v, w)`: the number of internally vertex-disjoint `v → w` paths,
    /// or `None` when `v == w` or `(v, w)` is an edge.
    ///
    /// With `cutoff = Some(c)` the search stops after `c` paths, so the
    /// result is `min(c, κ(v, w))` — a certified lower bound that is `>= c`
    /// whenever `κ(v, w)` is. Without a cutoff the value is exact.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `w` is out of range.
    pub fn connectivity(&mut self, v: u32, w: u32, cutoff: Option<u64>) -> Option<u64> {
        let flow = self.route(v, w, cutoff)?;
        self.restore();
        Some(flow)
    }

    /// A minimum `v`-`w` vertex cut: the vertices an attacker must remove to
    /// sever every `v → w` path, ascending, `κ(v, w)` of them. `None` when
    /// `v == w` or `(v, w)` is an edge.
    ///
    /// It is the cut closest to `v`, which is the same for every maximum
    /// flow, so the answer depends on the graph and the pair only.
    ///
    /// # Example
    ///
    /// ```
    /// use flowgraph::generators::paper_figure1;
    /// use flowgraph::vertex_flow::VertexFlow;
    ///
    /// let mut kernel = VertexFlow::new(&paper_figure1());
    /// // Vertex e is the articulation point between a and i.
    /// assert_eq!(kernel.min_cut(0, 8), Some(vec![4]));
    /// assert_eq!(kernel.min_cut(0, 1), None);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `v` or `w` is out of range.
    pub fn min_cut(&mut self, v: u32, w: u32) -> Option<Vec<u32>> {
        self.route(v, w, None)?;
        let VertexFlow {
            csr,
            pred,
            succ,
            level,
            queue,
            ..
        } = self;
        // Residual walk from v'' with edge arcs uncapacitated, as if the
        // split network gave edges infinite capacity: then every minimum
        // cut crosses internal arcs only.
        let mut reach = |b: u32, queue: &mut Vec<u32>| {
            if level[b as usize] == NONE {
                level[b as usize] = 0;
                queue.push(b);
            }
        };
        queue.clear();
        reach(out_copy(v), queue);
        let mut head = 0;
        while let Some(&a) = queue.get(head) {
            head += 1;
            if a & 1 == 0 {
                reach(sole_exit(pred, a), queue);
                continue;
            }
            let x = a >> 1;
            for &y in csr.out_row(x) {
                reach(in_copy(y), queue);
            }
            if succ[x as usize] != NONE {
                reach(a & !1, queue);
            }
        }
        let mut cut: Vec<u32> = queue
            .iter()
            .filter(|&&a| a & 1 == 0 && level[(a | 1) as usize] == NONE)
            .map(|&a| a >> 1)
            .collect();
        cut.sort_unstable();
        for &a in queue.iter() {
            level[a as usize] = NONE;
        }
        self.restore();
        Some(cut)
    }

    /// A maximum set of internally vertex-disjoint `v → w` paths (Menger's
    /// witnesses), `κ(v, w)` of them, each listed from `v` to `w` and
    /// ordered by first hop. `None` when `v == w` or `(v, w)` is an edge.
    ///
    /// # Example
    ///
    /// ```
    /// use flowgraph::DiGraph;
    /// use flowgraph::vertex_flow::VertexFlow;
    ///
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
    /// let paths = VertexFlow::new(&g).paths(0, 3).expect("non-adjacent");
    /// assert_eq!(paths, vec![vec![0, 1, 3], vec![0, 2, 3]]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `v` or `w` is out of range.
    pub fn paths(&mut self, v: u32, w: u32) -> Option<Vec<Vec<u32>>> {
        self.route(v, w, None)?;
        let paths = self
            .csr
            .out_row(v)
            .iter()
            .filter(|&&y| self.pred[y as usize] == v)
            .map(|&y| {
                let (mut path, mut x) = (vec![v, y], y);
                while x != w {
                    x = self.succ[x as usize];
                    path.push(x);
                }
                path
            })
            .collect();
        self.restore();
        Some(paths)
    }

    /// Routes a maximum flow (at most `cutoff` units) from `v''` to `w'` and
    /// leaves it in `pred`/`succ` for the caller to read; [`Self::restore`]
    /// must follow. `None` for equal or adjacent pairs, with nothing routed.
    fn route(&mut self, v: u32, w: u32, cutoff: Option<u64>) -> Option<u64> {
        let n = self.node_count();
        assert!((v as usize) < n && (w as usize) < n, "vertex out of range");
        if v == w || self.csr.out_row(v).binary_search(&w).is_ok() {
            return None;
        }
        // Every path leaves v over its own edge and enters w over its own.
        let bound = self.csr.out_row(v).len().min(self.csr.in_row(w).len()) as u64;
        let stop = cutoff.map_or(bound, |c| c.min(bound));
        let mut flow = 0;
        while flow < stop {
            let reached = self.label_from_sink(v, w);
            if reached {
                flow += self.blocking_flow(v, w, stop - flow);
            }
            for &a in &self.queue {
                self.level[a as usize] = NONE;
            }
            if !reached {
                break;
            }
        }
        Some(flow)
    }

    /// Clears the flow [`Self::route`] left behind, in `O(vertices touched)`.
    fn restore(&mut self) {
        for &x in &self.touched {
            self.pred[x as usize] = NONE;
            self.succ[x as usize] = NONE;
        }
        self.touched.clear();
    }

    /// BFS over residual arcs walked backwards from `w'`, labelling each
    /// copy with its residual distance to the sink; returns as soon as `v''`
    /// is labelled (`true`) or every copy that reaches the sink is
    /// (`false`). Resets `cur` of each labelled out-copy and leaves every
    /// labelled copy in `queue`.
    fn label_from_sink(&mut self, v: u32, w: u32) -> bool {
        let VertexFlow {
            csr,
            pred,
            succ,
            level,
            cur,
            queue,
            ..
        } = self;
        let mut label_out = |z: u32, at: u32, level: &mut [u32], queue: &mut Vec<u32>| {
            let b = out_copy(z);
            if level[b as usize] == NONE {
                level[b as usize] = at;
                cur[z as usize] = 0;
                queue.push(b);
            }
        };
        let t = in_copy(w);
        queue.clear();
        level[t as usize] = 0;
        queue.push(t);
        // Into the sink: edges (z, w) without flow, i.e. succ[z] != w. The
        // source is not among them — the pair is non-adjacent.
        for &z in csr.in_row(w) {
            if succ[z as usize] != w {
                label_out(z, 1, level, queue);
            }
        }
        let mut head = 1;
        while let Some(&b) = queue.get(head) {
            head += 1;
            let next = level[b as usize] + 1;
            let x = b >> 1;
            if b & 1 == 1 {
                // One residual in-arc: from x' while idle, else the reverse
                // of the edge its unit leaves over.
                let a = match succ[x as usize] {
                    NONE => b & !1,
                    y => in_copy(y),
                };
                if level[a as usize] == NONE {
                    level[a as usize] = next;
                    queue.push(a);
                }
                continue;
            }
            // Edge arcs from every in-neighbour but the one feeding x's
            // unit (for the source: pred[x] == v iff edge (v, x) is used),
            // and the reversed internal arc while x carries a unit.
            let feeder = pred[x as usize];
            for &z in csr.in_row(x) {
                if z != feeder {
                    label_out(z, next, level, queue);
                    if z == v {
                        return true;
                    }
                }
            }
            if feeder != NONE {
                label_out(x, next, level, queue);
            }
        }
        false
    }

    /// Routes up to `budget` units along arcs that step one nearer the sink
    /// and returns how many it routed (at least one after a successful BFS).
    fn blocking_flow(&mut self, v: u32, w: u32, budget: u64) -> u64 {
        let VertexFlow {
            csr,
            pred,
            succ,
            touched,
            level,
            cur,
            path,
            ..
        } = self;
        let (s, t) = (out_copy(v), in_copy(w));
        let mut sent = 0;
        path.clear();
        path.push(s);
        while let Some(&a) = path.last() {
            if a == t {
                for arc in path.windows(2) {
                    let (x, y) = (arc[0] >> 1, arc[1] >> 1);
                    if arc[0] & 1 == 0 {
                        // Out of an in-copy (internal arc, or a reversed
                        // edge): the edge arcs on either side record it.
                        continue;
                    }
                    if x == y {
                        // Reversed internal arc: x is rerouted around.
                        pred[x as usize] = NONE;
                        succ[x as usize] = NONE;
                        continue;
                    }
                    if x != v {
                        succ[x as usize] = y;
                        touched.push(x);
                    }
                    if y != w {
                        pred[y as usize] = x;
                        touched.push(y);
                    }
                }
                // The path saturated the single residual in- or out-arc of
                // each interior copy: none can carry a second path this
                // phase.
                for &b in &path[1..path.len() - 1] {
                    level[b as usize] = NONE;
                }
                sent += 1;
                if sent == budget {
                    break;
                }
                path.truncate(1);
                continue;
            }
            let x = a >> 1;
            // `a` is not the sink, so it sits at distance 1 or more.
            let next = level[a as usize] - 1;
            let step = if a & 1 == 0 {
                let b = sole_exit(pred, a);
                (level[b as usize] == next).then_some(b)
            } else {
                // Edges out of the source onto labelled copies are residual:
                // y' with pred[y] == v leaves only to the source, and the BFS
                // stops before expanding it. Elsewhere the used edge is
                // succ[x].
                let row = csr.out_row(x);
                let used = succ[x as usize];
                let at = &mut cur[x as usize];
                while *at < row.len()
                    && (level[in_copy(row[*at]) as usize] != next || row[*at] == used)
                {
                    *at += 1;
                }
                match row.get(*at) {
                    Some(&y) => Some(in_copy(y)),
                    None => (used != NONE && level[(a & !1) as usize] == next).then_some(a & !1),
                }
            };
            match step {
                Some(b) => path.push(b),
                None => {
                    // Dead end: drop it from the level graph; the parent's
                    // scan skips it from now on.
                    level[a as usize] = NONE;
                    path.pop();
                }
            }
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{bidirected_cycle, complete, cycle, gnp, paper_figure1};
    use crate::witness::{cut_disconnects, validate_disjoint_paths};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn assert_clean(kernel: &VertexFlow) {
        assert!(kernel.pred.iter().all(|&p| p == NONE));
        assert!(kernel.succ.iter().all(|&s| s == NONE));
        assert!(kernel.level.iter().all(|&l| l == NONE));
        assert!(kernel.touched.is_empty());
    }

    #[test]
    fn csr_rows_mirror_the_graph() {
        let g = paper_figure1();
        let csr = Csr::new(&g);
        let reverse = g.reverse();
        for x in 0..g.node_count() as u32 {
            assert_eq!(csr.out_row(x), g.out_neighbors(x));
            assert_eq!(csr.in_row(x), reverse.out_neighbors(x));
        }
    }

    #[test]
    fn known_values() {
        let mut ring = VertexFlow::new(&bidirected_cycle(9));
        assert_eq!(ring.connectivity(0, 4, None), Some(2));
        let mut one_way = VertexFlow::new(&cycle(6));
        assert_eq!(one_way.connectivity(0, 3, None), Some(1));
        let mut full = VertexFlow::new(&complete(5));
        assert_eq!(full.connectivity(0, 3, None), None);
        assert_eq!(full.connectivity(2, 2, None), None);
    }

    #[test]
    fn rerouting_needs_a_second_phase() {
        // The shortest path 0→1→4→6 blocks both longer ones; the second
        // phase must push back through 1 → 4 to reach the value 2.
        let g = DiGraph::from_edges(
            7,
            [
                (0, 1),
                (1, 4),
                (4, 6),
                (0, 2),
                (2, 3),
                (3, 4),
                (1, 5),
                (5, 6),
            ],
        );
        let mut kernel = VertexFlow::new(&g);
        assert_eq!(kernel.connectivity(0, 6, None), Some(2));
        assert_clean(&kernel);
    }

    #[test]
    fn unreachable_and_degree_zero_pairs_are_zero() {
        // Vertex i (8) of Figure 1 has no out-edges; vertex a (0) no
        // in-edges.
        let mut kernel = VertexFlow::new(&paper_figure1());
        assert_eq!(kernel.connectivity(8, 0, None), Some(0));
        assert_eq!(kernel.connectivity(8, 0, Some(3)), Some(0));
        assert_eq!(kernel.connectivity(4, 0, None), Some(0));
        assert_clean(&kernel);
    }

    #[test]
    fn cutoff_stops_at_the_requested_count() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = gnp(30, 0.4, &mut rng);
        let mut kernel = VertexFlow::new(&g);
        for v in 0..30u32 {
            for w in 0..30u32 {
                let Some(exact) = kernel.connectivity(v, w, None) else {
                    continue;
                };
                for c in [0u64, 1, 3, 100] {
                    assert_eq!(kernel.connectivity(v, w, Some(c)), Some(exact.min(c)));
                }
            }
        }
        assert_clean(&kernel);
    }

    #[test]
    fn figure1_cut_is_vertex_e() {
        let g = paper_figure1();
        let mut kernel = VertexFlow::new(&g);
        let cut = kernel.min_cut(0, 8).expect("non-adjacent pair");
        assert_eq!(cut, vec![4]);
        assert!(cut_disconnects(&g, 0, 8, &cut));
        assert_clean(&kernel);
    }

    #[test]
    fn adjacent_pair_has_no_cut() {
        let mut kernel = VertexFlow::new(&DiGraph::from_edges(2, [(0, 1)]));
        assert!(kernel.min_cut(0, 1).is_none());
        assert!(kernel.min_cut(0, 0).is_none());
    }

    #[test]
    fn complete_graph_pairs_are_all_adjacent() {
        let mut kernel = VertexFlow::new(&complete(4));
        for v in 0..4 {
            for w in 0..4 {
                assert!(kernel.min_cut(v, w).is_none());
                assert!(kernel.paths(v, w).is_none());
            }
        }
    }

    #[test]
    fn two_disjoint_paths_cut_has_two_vertices() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        let cut = VertexFlow::new(&g).min_cut(0, 3).expect("non-adjacent");
        assert_eq!(cut, vec![1, 2]);
        assert!(cut_disconnects(&g, 0, 3, &cut));
    }

    #[test]
    fn disconnected_pair_has_empty_cut() {
        let g = DiGraph::from_edges(3, [(1, 0)]);
        let mut kernel = VertexFlow::new(&g);
        assert_eq!(kernel.min_cut(0, 2), Some(vec![]));
        assert!(cut_disconnects(&g, 0, 2, &[]));
        assert_clean(&kernel);
    }

    #[test]
    fn no_paths_when_disconnected() {
        let g = DiGraph::from_edges(3, [(1, 0)]);
        let mut kernel = VertexFlow::new(&g);
        assert_eq!(kernel.paths(0, 2), Some(vec![]));
        assert_clean(&kernel);
    }

    #[test]
    fn cut_is_the_one_closest_to_the_source() {
        // Two lanes 0 → 1 → 3 → 5 and 0 → 2 → 4 → 5: {1, 2}, {1, 4},
        // {3, 2} and {3, 4} are all minimum cuts, and {1, 2} is the one
        // nearest 0.
        let lanes = DiGraph::from_edges(6, [(0, 1), (1, 3), (3, 5), (0, 2), (2, 4), (4, 5)]);
        assert_eq!(VertexFlow::new(&lanes).min_cut(0, 5), Some(vec![1, 2]));
        let chain = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(VertexFlow::new(&chain).min_cut(0, 3), Some(vec![1]));
    }

    #[test]
    fn figure1_single_path_through_e() {
        let g = paper_figure1();
        let mut kernel = VertexFlow::new(&g);
        let paths = kernel.paths(0, 8).expect("non-adjacent");
        assert_eq!(paths.len(), 1);
        assert!(paths[0].contains(&4), "every a->i path passes e");
        validate_disjoint_paths(&g, 0, 8, &paths).expect("valid");
        assert_clean(&kernel);
    }

    #[test]
    fn diamond_two_paths() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        let paths = VertexFlow::new(&g).paths(0, 3).expect("non-adjacent");
        assert_eq!(paths, vec![vec![0, 1, 3], vec![0, 2, 3]]);
        validate_disjoint_paths(&g, 0, 3, &paths).expect("valid");
    }

    #[test]
    fn adjacent_pair_returns_none() {
        let mut kernel = VertexFlow::new(&DiGraph::from_edges(2, [(0, 1)]));
        assert!(kernel.paths(0, 1).is_none());
        assert!(kernel.paths(1, 1).is_none());
    }

    #[test]
    fn longer_graph_three_paths() {
        // Three internally disjoint paths of different lengths.
        let g = DiGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 7),
                (0, 2),
                (2, 3),
                (3, 7),
                (0, 4),
                (4, 5),
                (5, 6),
                (6, 7),
            ],
        );
        let paths = VertexFlow::new(&g).paths(0, 7).expect("non-adjacent");
        assert_eq!(paths.len(), 3);
        validate_disjoint_paths(&g, 0, 7, &paths).expect("valid");
    }

    #[test]
    fn rerouted_flow_reads_back_as_paths() {
        // The second phase reroutes around 1 → 4 (see above); the paths and
        // the cut must come from the final flow, not the first phase.
        let g = DiGraph::from_edges(
            7,
            [
                (0, 1),
                (1, 4),
                (4, 6),
                (0, 2),
                (2, 3),
                (3, 4),
                (1, 5),
                (5, 6),
            ],
        );
        let mut kernel = VertexFlow::new(&g);
        let paths = kernel.paths(0, 6).expect("non-adjacent");
        assert_eq!(paths, vec![vec![0, 1, 5, 6], vec![0, 2, 3, 4, 6]]);
        validate_disjoint_paths(&g, 0, 6, &paths).expect("valid");
        assert_eq!(kernel.min_cut(0, 6), Some(vec![1, 2]));
        assert_clean(&kernel);
    }

    /// FNV-1a over the little-endian bytes of `words`, continuing `hash`.
    fn fnv1a(mut hash: u64, words: impl IntoIterator<Item = u32>) -> u64 {
        for word in words {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// Folds `paths` and `min_cut` of every ordered pair of `g`, in pair
    /// order, into one FNV-1a digest. Each path and cut is prefixed by
    /// its length; equal and adjacent pairs fold a `u32::MAX` marker.
    fn witness_digest(g: &DiGraph) -> u64 {
        let n = g.node_count() as u32;
        let mut kernel = VertexFlow::new(g);
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for v in 0..n {
            for w in 0..n {
                let (Some(paths), Some(cut)) = (kernel.paths(v, w), kernel.min_cut(v, w)) else {
                    hash = fnv1a(hash, [u32::MAX]);
                    continue;
                };
                hash = fnv1a(hash, [paths.len() as u32]);
                for path in &paths {
                    hash = fnv1a(hash, [path.len() as u32]);
                    hash = fnv1a(hash, path.iter().copied());
                }
                hash = fnv1a(hash, [cut.len() as u32]);
                hash = fnv1a(hash, cut);
            }
        }
        assert_clean(&kernel);
        hash
    }

    #[test]
    fn witnesses_are_pinned_pair_by_pair() {
        // Which maximum flow the kernel routes decides which Menger paths
        // come back; these digests pin that choice on a sparse graph and
        // on a dense one shaped like the n = 75 defense overlays.
        let sparse = gnp(40, 0.3, &mut SmallRng::seed_from_u64(40));
        let dense = gnp(60, 0.7, &mut SmallRng::seed_from_u64(60));
        assert_eq!(witness_digest(&sparse), 0xe589_d0b1_f315_77f0);
        assert_eq!(witness_digest(&dense), 0x230c_feb7_c33f_6243);
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn out_of_range_vertex_panics() {
        VertexFlow::new(&cycle(4)).connectivity(0, 4, None);
    }
}
