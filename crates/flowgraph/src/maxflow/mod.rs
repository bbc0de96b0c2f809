//! Maximum-flow solvers over residual flow networks.
//!
//! The paper computes vertex connectivity by running a max-flow solver (the
//! C program HIPR) on Even-transformed connectivity graphs. This module
//! provides that solver and one reference implementation:
//!
//! * [`PushRelabel`] — the *hi-level* (highest-label) push-relabel variant
//!   with gap and global-relabeling heuristics; a faithful Rust
//!   re-implementation of HIPR (Cherkassky & Goldberg 1995). It is the
//!   independent oracle every κ path is tested against, and the route
//!   `batched: false` sweeps take.
//! * [`EdmondsKarp`] — BFS augmenting paths; test-only, the reference
//!   push-relabel is checked against on general capacities, and the solver
//!   that leaves a genuine flow (push-relabel's first stage leaves only a
//!   preflow) for the conservation and min-cut checks.
//!
//! Neither is what production code runs: on the all-unit networks of
//! Even's transform, [`crate::vertex_flow`] runs Dinic without materialising
//! a [`FlowNetwork`] at all, and reads κ, minimum cuts and Menger paths off
//! that one flow.
//!
//! Both solvers implement [`MaxFlow`] and support an optional **cutoff**:
//! the solver may stop as soon as it can prove the flow value is at least
//! the cutoff. When scanning thousands of vertex pairs for the *minimum*
//! connectivity, pairs that cannot lower the current minimum are abandoned
//! almost immediately.
//!
//! # Workspaces
//!
//! A `κ(D)` measurement is `n(n−1)` max-flow runs over the *same* network,
//! so per-run allocation dominates once the flows themselves are cheap.
//! Two mechanisms remove it:
//!
//! * [`FlowWorkspace`] owns every scratch buffer a solver needs (labels,
//!   BFS queues, excess arrays, label buckets). Passing one through
//!   [`MaxFlow::max_flow_with`] makes repeated runs allocation-free; the
//!   plain [`MaxFlow::max_flow`] entry point allocates a fresh workspace
//!   per call for one-shot convenience.
//! * [`FlowNetwork`] journals the arcs each run actually pushes flow over,
//!   so [`FlowNetwork::reset`] restores residual capacities in `O(touched)`
//!   instead of `O(m)` — on sparse connectivity graphs with small cuts the
//!   touched set is a tiny fraction of the arcs.

mod edmonds_karp;
mod push_relabel;

pub use edmonds_karp::EdmondsKarp;
pub use push_relabel::PushRelabel;

use std::collections::VecDeque;

/// A flow network in residual-arc representation.
///
/// Arcs are stored in pairs: arc `i` and arc `i ^ 1` are mutual reverses, so
/// pushing flow over `i` adds residual capacity to `i ^ 1`. This is the
/// standard representation used by HIPR and virtually every max-flow code.
///
/// Every [`push`](FlowNetwork::push) journals the touched arc pair, which
/// makes [`reset`](FlowNetwork::reset) proportional to the flow actually
/// routed rather than to the network size — the key to cheap per-pair reuse
/// in connectivity sweeps.
///
/// # Example
///
/// ```
/// use flowgraph::maxflow::{FlowNetwork, MaxFlow, PushRelabel};
///
/// // Two disjoint paths 0 -> 1 -> 3 and 0 -> 2 -> 3.
/// let mut net = FlowNetwork::new(4);
/// net.add_arc(0, 1, 1);
/// net.add_arc(1, 3, 1);
/// net.add_arc(0, 2, 1);
/// net.add_arc(2, 3, 1);
/// let flow = PushRelabel::new().max_flow(&mut net, 0, 3, None);
/// assert_eq!(flow, 2);
/// ```
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    n: usize,
    head: Vec<u32>,
    cap: Vec<u64>,
    orig_cap: Vec<u64>,
    adj: Vec<Vec<u32>>,
    /// Even-numbered ids of arc pairs pushed over since the last reset.
    /// May contain duplicates; restoring is idempotent.
    touched: Vec<u32>,
}

impl PartialEq for FlowNetwork {
    fn eq(&self, other: &Self) -> bool {
        // The touched journal is bookkeeping, not network state: two
        // networks with equal capacities are equal regardless of how the
        // flow that produced those capacities was routed.
        self.n == other.n
            && self.head == other.head
            && self.cap == other.cap
            && self.orig_cap == other.orig_cap
            && self.adj == other.adj
    }
}

impl Eq for FlowNetwork {}

impl FlowNetwork {
    /// Creates an empty network with `n` vertices.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            n,
            head: Vec::new(),
            cap: Vec::new(),
            orig_cap: Vec::new(),
            adj: vec![Vec::new(); n],
            touched: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of *forward* arcs (half the stored residual arcs).
    pub fn arc_count(&self) -> usize {
        self.head.len() / 2
    }

    /// Adds a directed arc `u -> v` with capacity `cap` and returns its arc
    /// id. The paired reverse arc (capacity 0) is created automatically.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_arc(&mut self, u: u32, v: u32, cap: u64) -> u32 {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "arc endpoint out of range"
        );
        let id = self.head.len() as u32;
        self.head.push(v);
        self.cap.push(cap);
        self.orig_cap.push(cap);
        self.adj[u as usize].push(id);
        self.head.push(u);
        self.cap.push(0);
        self.orig_cap.push(0);
        self.adj[v as usize].push(id + 1);
        id
    }

    /// Head (target vertex) of arc `i`.
    #[inline]
    pub fn arc_head(&self, i: u32) -> u32 {
        self.head[i as usize]
    }

    /// Current residual capacity of arc `i`.
    #[inline]
    pub fn residual(&self, i: u32) -> u64 {
        self.cap[i as usize]
    }

    /// Flow currently assigned to *forward* arc `i` (0 for reverse arcs with
    /// no original capacity).
    #[inline]
    pub fn flow(&self, i: u32) -> u64 {
        self.orig_cap[i as usize].saturating_sub(self.cap[i as usize])
    }

    /// Arc ids leaving `v` (both forward arcs and reverse stubs).
    #[inline]
    pub fn arcs_from(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Pushes `amount` units over arc `i` (and un-pushes over its pair).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `amount` exceeds the residual capacity.
    #[inline]
    pub fn push(&mut self, i: u32, amount: u64) {
        debug_assert!(self.cap[i as usize] >= amount, "push exceeds residual");
        self.cap[i as usize] -= amount;
        self.cap[(i ^ 1) as usize] += amount;
        self.touched.push(i & !1);
    }

    /// Restores all residual capacities to their original values so the
    /// network can be reused for another (source, sink) pair.
    ///
    /// Costs `O(touched arcs)` — proportional to the flow the last runs
    /// actually routed — falling back to a full `O(m)` copy only when most
    /// of the network was touched.
    pub fn reset(&mut self) {
        if self.touched.len() >= self.cap.len() / 2 {
            self.cap.copy_from_slice(&self.orig_cap);
        } else {
            for &arc in &self.touched {
                let arc = arc as usize;
                self.cap[arc] = self.orig_cap[arc];
                self.cap[arc + 1] = self.orig_cap[arc + 1];
            }
        }
        self.touched.clear();
    }

    /// Number of journal entries since the last reset (test/bench hook for
    /// asserting the `O(touched)` reset path is taken).
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Net flow out of `v` (outgoing minus incoming flow on forward arcs).
    /// Zero for all vertices except source (positive) and sink (negative)
    /// once a valid flow has been computed.
    pub fn net_out_flow(&self, v: u32) -> i128 {
        let mut total: i128 = 0;
        for &a in &self.adj[v as usize] {
            if self.orig_cap[a as usize] > 0 {
                total += self.flow(a) as i128;
            } else {
                // Reverse stub: flow on the paired forward arc enters v.
                total -= self.flow(a ^ 1) as i128;
            }
        }
        total
    }

    /// Checks the flow-conservation invariant for every vertex except `s`
    /// and `t`. Used by tests and debug assertions.
    pub fn conservation_holds(&self, s: u32, t: u32) -> bool {
        (0..self.n as u32)
            .filter(|&v| v != s && v != t)
            .all(|v| self.net_out_flow(v) == 0)
    }

    /// Vertices reachable from `s` in the residual graph. After a max-flow
    /// computation this is the source side of a minimum cut.
    pub fn residual_reachable(&self, s: u32) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        let mut queue = std::collections::VecDeque::new();
        seen[s as usize] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &a in &self.adj[u as usize] {
                if self.cap[a as usize] > 0 {
                    let v = self.head[a as usize];
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        seen
    }
}

/// Reusable scratch buffers for max-flow computations.
///
/// One workspace serves any number of sequential [`MaxFlow::max_flow_with`]
/// calls over networks of any size (buffers grow to the largest network
/// seen and are then reused). A workspace is cheap to create empty and is
/// *not* shared across threads: give each worker its own.
///
/// # Example
///
/// ```
/// use flowgraph::maxflow::{FlowNetwork, FlowWorkspace, MaxFlow, PushRelabel};
///
/// let mut net = FlowNetwork::new(3);
/// net.add_arc(0, 1, 2);
/// net.add_arc(1, 2, 1);
/// let mut ws = FlowWorkspace::new();
/// let solver = PushRelabel::new();
/// // Many runs, zero allocation after the first:
/// for _ in 0..10 {
///     net.reset();
///     assert_eq!(solver.max_flow_with(&mut net, 0, 2, None, &mut ws), 1);
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct FlowWorkspace {
    /// Vertex labels: push-relabel distance labels, Edmonds–Karp
    /// predecessor arcs.
    pub(crate) label: Vec<u32>,
    /// Current-arc pointers.
    pub(crate) cur: Vec<usize>,
    /// BFS queue.
    pub(crate) queue: VecDeque<u32>,
    /// Push-relabel per-vertex excess.
    pub(crate) excess: Vec<u64>,
    /// Push-relabel active-vertex buckets by label (lazy deletion).
    pub(crate) buckets: Vec<Vec<u32>>,
    /// Push-relabel label occupancy counts.
    pub(crate) label_count: Vec<u32>,
}

impl FlowWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        FlowWorkspace::default()
    }

    /// Creates a workspace pre-sized for `net`: push-relabel's buffers
    /// (labels, current arcs, excess, label buckets) are allocated up
    /// front rather than on the first run.
    pub fn for_network(net: &FlowNetwork) -> Self {
        let mut ws = FlowWorkspace::new();
        ws.ensure_push_relabel(net.node_count());
        ws
    }

    /// Grows the label/cur buffers (used by every solver) to `n` vertices.
    pub(crate) fn ensure_basic(&mut self, n: usize) {
        if self.label.len() < n {
            self.label.resize(n, u32::MAX);
            self.cur.resize(n, 0);
        }
    }

    /// Grows the push-relabel-specific buffers for `n` vertices.
    pub(crate) fn ensure_push_relabel(&mut self, n: usize) {
        self.ensure_basic(n);
        if self.excess.len() < n {
            self.excess.resize(n, 0);
        }
        if self.buckets.len() < 2 * n + 1 {
            self.buckets.resize_with(2 * n + 1, Vec::new);
            self.label_count.resize(2 * n + 1, 0);
        }
    }
}

/// A maximum-flow algorithm.
///
/// Implementations mutate the residual capacities of the given network; call
/// [`FlowNetwork::reset`] to reuse the network for another pair.
pub trait MaxFlow {
    /// Computes the maximum `s -> t` flow value using caller-owned scratch
    /// buffers, so repeated calls perform no allocation.
    ///
    /// If `cutoff` is `Some(c)`, the solver may stop as soon as the achieved
    /// flow is `>= c`; the returned value is then a certified lower bound
    /// that is `>= c` (it need not equal the true maximum). With
    /// `cutoff = None` the exact maximum is returned.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either vertex is out of range.
    fn max_flow_with(
        &self,
        net: &mut FlowNetwork,
        s: u32,
        t: u32,
        cutoff: Option<u64>,
        workspace: &mut FlowWorkspace,
    ) -> u64;

    /// One-shot convenience: like [`MaxFlow::max_flow_with`] with a fresh
    /// workspace allocated for this call.
    fn max_flow(&self, net: &mut FlowNetwork, s: u32, t: u32, cutoff: Option<u64>) -> u64 {
        let mut workspace = FlowWorkspace::new();
        self.max_flow_with(net, s, t, cutoff, &mut workspace)
    }

    /// Human-readable solver name for reports and benches.
    fn name(&self) -> &'static str;
}

pub(crate) fn check_endpoints(net: &FlowNetwork, s: u32, t: u32) {
    assert!(
        (s as usize) < net.node_count() && (t as usize) < net.node_count(),
        "source/sink out of range"
    );
    assert_ne!(s, t, "source and sink must differ");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic CLRS example network with max flow 23.
    pub(crate) fn clrs_network() -> FlowNetwork {
        let mut net = FlowNetwork::new(6);
        net.add_arc(0, 1, 16);
        net.add_arc(0, 2, 13);
        net.add_arc(1, 2, 10);
        net.add_arc(2, 1, 4);
        net.add_arc(1, 3, 12);
        net.add_arc(3, 2, 9);
        net.add_arc(2, 4, 14);
        net.add_arc(4, 3, 7);
        net.add_arc(3, 5, 20);
        net.add_arc(4, 5, 4);
        net
    }

    fn solvers() -> Vec<Box<dyn MaxFlow>> {
        vec![Box::new(EdmondsKarp::new()), Box::new(PushRelabel::new())]
    }

    #[test]
    fn clrs_example_all_solvers() {
        for solver in solvers() {
            let mut net = clrs_network();
            let flow = solver.max_flow(&mut net, 0, 5, None);
            assert_eq!(flow, 23, "solver {}", solver.name());
        }
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        for solver in solvers() {
            let mut net = FlowNetwork::new(3);
            net.add_arc(0, 1, 5);
            assert_eq!(
                solver.max_flow(&mut net, 0, 2, None),
                0,
                "{}",
                solver.name()
            );
        }
    }

    #[test]
    fn single_arc() {
        for solver in solvers() {
            let mut net = FlowNetwork::new(2);
            net.add_arc(0, 1, 7);
            assert_eq!(
                solver.max_flow(&mut net, 0, 1, None),
                7,
                "{}",
                solver.name()
            );
        }
    }

    #[test]
    fn parallel_arcs_add_up() {
        for solver in solvers() {
            let mut net = FlowNetwork::new(2);
            net.add_arc(0, 1, 3);
            net.add_arc(0, 1, 4);
            assert_eq!(
                solver.max_flow(&mut net, 0, 1, None),
                7,
                "{}",
                solver.name()
            );
        }
    }

    #[test]
    fn cutoff_stops_early_but_is_sound() {
        for solver in solvers() {
            let mut net = clrs_network();
            let flow = solver.max_flow(&mut net, 0, 5, Some(5));
            assert!(flow >= 5, "solver {} returned {}", solver.name(), flow);
            assert!(flow <= 23, "solver {} returned {}", solver.name(), flow);
        }
    }

    #[test]
    fn cutoff_above_max_returns_exact() {
        for solver in solvers() {
            let mut net = clrs_network();
            let flow = solver.max_flow(&mut net, 0, 5, Some(1000));
            assert_eq!(flow, 23, "solver {}", solver.name());
        }
    }

    #[test]
    fn reset_allows_reuse() {
        for solver in solvers() {
            let mut net = clrs_network();
            let a = solver.max_flow(&mut net, 0, 5, None);
            net.reset();
            let b = solver.max_flow(&mut net, 0, 5, None);
            assert_eq!(a, b, "solver {}", solver.name());
        }
    }

    #[test]
    fn journaled_reset_restores_exactly() {
        // After reset, the network must be indistinguishable from a fresh
        // build, regardless of which solver ran or how much flow it pushed.
        let fresh = clrs_network();
        for solver in solvers() {
            let mut net = clrs_network();
            solver.max_flow(&mut net, 0, 5, None);
            net.reset();
            assert_eq!(net, fresh, "solver {}", solver.name());
            assert_eq!(net.touched_len(), 0);
        }
    }

    #[test]
    fn journal_tracks_pushes() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_arc(0, 1, 5);
        net.add_arc(1, 2, 5);
        assert_eq!(net.touched_len(), 0);
        net.push(a, 3);
        assert_eq!(net.touched_len(), 1);
        net.reset();
        assert_eq!(net.touched_len(), 0);
        assert_eq!(net.residual(a), 5);
    }

    #[test]
    fn workspace_reuse_matches_fresh() {
        // One workspace across many runs and network sizes must match
        // fresh-workspace results bit for bit.
        let mut ws = FlowWorkspace::new();
        for solver in solvers() {
            for n in [2usize, 6, 4] {
                let mut net = if n == 6 {
                    clrs_network()
                } else {
                    let mut net = FlowNetwork::new(n);
                    for v in 0..n as u32 - 1 {
                        net.add_arc(v, v + 1, 3);
                    }
                    net
                };
                let t = n as u32 - 1;
                let fresh = solver.max_flow(&mut net, 0, t, None);
                net.reset();
                let reused = solver.max_flow_with(&mut net, 0, t, None, &mut ws);
                assert_eq!(fresh, reused, "solver {} n {}", solver.name(), n);
            }
        }
    }

    #[test]
    fn conservation_after_flow() {
        // Push-relabel stage 1 only guarantees a preflow inside the graph,
        // but Edmonds-Karp produces a genuine flow.
        let mut net = clrs_network();
        let flow = EdmondsKarp::new().max_flow(&mut net, 0, 5, None);
        assert!(net.conservation_holds(0, 5));
        assert_eq!(net.net_out_flow(0) as u64, flow);
        assert_eq!((-net.net_out_flow(5)) as u64, flow);
    }

    #[test]
    fn min_cut_matches_flow_value() {
        let mut net = clrs_network();
        let flow = EdmondsKarp::new().max_flow(&mut net, 0, 5, None);
        let reach = net.residual_reachable(0);
        assert!(reach[0] && !reach[5]);
        // Sum of original capacities crossing the cut equals the flow.
        let mut cut = 0u64;
        for u in 0..net.node_count() as u32 {
            if !reach[u as usize] {
                continue;
            }
            for &a in net.arcs_from(u) {
                let v = net.arc_head(a);
                if !reach[v as usize] && net.orig_cap[a as usize] > 0 {
                    cut += net.orig_cap[a as usize];
                }
            }
        }
        assert_eq!(cut, flow);
    }

    #[test]
    #[should_panic(expected = "source and sink must differ")]
    fn same_source_sink_panics() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 1);
        PushRelabel::new().max_flow(&mut net, 0, 0, None);
    }

    /// Source fans out to 50 middles, all feeding the sink: flow 50.
    fn wide_network() -> FlowNetwork {
        let mut net = FlowNetwork::new(52);
        for mid in 1..51 {
            net.add_arc(0, mid, 1);
            net.add_arc(mid, 51, 1);
        }
        net
    }

    #[test]
    fn diamond_with_cross_edge() {
        for solver in solvers() {
            let mut net = FlowNetwork::new(4);
            net.add_arc(0, 1, 2);
            net.add_arc(0, 2, 2);
            net.add_arc(1, 2, 1);
            net.add_arc(1, 3, 1);
            net.add_arc(2, 3, 3);
            assert_eq!(
                solver.max_flow(&mut net, 0, 3, None),
                4,
                "{}",
                solver.name()
            );
        }
    }

    #[test]
    fn long_chain() {
        let n = 100;
        for solver in solvers() {
            let mut net = FlowNetwork::new(n);
            for v in 0..n as u32 - 1 {
                net.add_arc(v, v + 1, 3);
            }
            let flow = solver.max_flow(&mut net, 0, n as u32 - 1, None);
            assert_eq!(flow, 3, "{}", solver.name());
        }
    }

    #[test]
    fn wide_unit_network() {
        for solver in solvers() {
            let flow = solver.max_flow(&mut wide_network(), 0, 51, None);
            assert_eq!(flow, 50, "{}", solver.name());
        }
    }

    #[test]
    fn cutoff_stops_after_enough_paths() {
        for solver in solvers() {
            let flow = solver.max_flow(&mut wide_network(), 0, 51, Some(7));
            assert!((7..=50).contains(&flow), "{}: {flow}", solver.name());
        }
    }

    #[test]
    fn repeated_phases_with_cancellation() {
        // Needs more than one shortest-path round to finish.
        for solver in solvers() {
            let mut net = FlowNetwork::new(6);
            net.add_arc(0, 1, 1);
            net.add_arc(0, 2, 1);
            net.add_arc(1, 3, 1);
            net.add_arc(2, 3, 1);
            net.add_arc(3, 4, 1);
            net.add_arc(3, 5, 1);
            net.add_arc(4, 5, 1);
            assert_eq!(
                solver.max_flow(&mut net, 0, 5, None),
                2,
                "{}",
                solver.name()
            );
        }
    }
}
