//! Highest-label push-relabel with gap and global-relabeling heuristics.
//!
//! This is a Rust re-implementation of **HIPR**, the "hi-level" variant of
//! the push-relabel method by Cherkassky & Goldberg (*On implementing
//! push-relabel method for the maximum flow problem*, IPCO 1995) that the
//! paper's authors modified and ran on their compute cluster. Like HIPR's
//! first stage, [`PushRelabel::max_flow`] computes a *maximum preflow*: the
//! excess accumulated at the sink equals the max-flow value, which is all
//! connectivity analysis needs. (The arc flows inside the network are a
//! preflow, not necessarily a flow — use [`super::EdmondsKarp`] when you
//! need a genuine flow, e.g. to check conservation.)
//!
//! Heuristics implemented, matching the original:
//!
//! * **Highest-label selection** — active vertices are kept in buckets by
//!   label; always discharge the highest one.
//! * **Gap heuristic** — if some label `0 < g < n` has no vertices, every
//!   vertex with label in `(g, n)` can never reach the sink again and is
//!   lifted straight to `n + 1`.
//! * **Global relabeling** — periodically recompute exact distance labels
//!   with a reverse BFS from the sink.
//!
//! All per-run state (labels, excess, buckets) lives in the caller's
//! [`FlowWorkspace`], so sweeping many pairs performs no allocation.

use super::{check_endpoints, FlowNetwork, FlowWorkspace, MaxFlow};
use std::collections::VecDeque;

/// How many relabel operations happen between global relabelings, as a
/// multiple of the vertex count. HIPR uses 0.5 on top of arc-scan counting;
/// counting relabels with factor 1 behaves comparably at our graph sizes.
const GLOBAL_RELABEL_FACTOR: usize = 1;

/// The HIPR-style highest-label push-relabel maximum-flow algorithm.
///
/// # Example
///
/// ```
/// use flowgraph::maxflow::{PushRelabel, FlowNetwork, MaxFlow};
///
/// let mut net = FlowNetwork::new(4);
/// net.add_arc(0, 1, 5);
/// net.add_arc(1, 2, 3);
/// net.add_arc(1, 3, 1);
/// net.add_arc(2, 3, 9);
/// assert_eq!(PushRelabel::new().max_flow(&mut net, 0, 3, None), 4);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PushRelabel {
    _priv: (),
}

/// Borrowed view of the workspace buffers push-relabel uses. All slices
/// are sized for the current network (`n` vertices, `2n + 1` labels).
struct State<'ws> {
    n: usize,
    d: &'ws mut [u32],
    excess: &'ws mut [u64],
    cur: &'ws mut [usize],
    /// Active-vertex buckets indexed by label (lazy deletion).
    buckets: &'ws mut [Vec<u32>],
    highest: usize,
    /// Number of vertices currently carrying each label `< 2n`.
    label_count: &'ws mut [u32],
    relabels_since_global: usize,
    queue: &'ws mut VecDeque<u32>,
}

impl<'ws> State<'ws> {
    fn new(n: usize, workspace: &'ws mut FlowWorkspace) -> Self {
        workspace.ensure_push_relabel(n);
        let FlowWorkspace {
            label,
            cur,
            queue,
            excess,
            buckets,
            label_count,
            ..
        } = workspace;
        let excess = &mut excess[..n];
        excess.fill(0);
        State {
            n,
            d: &mut label[..n],
            excess,
            cur: &mut cur[..n],
            buckets: &mut buckets[..2 * n + 1],
            highest: 0,
            label_count: &mut label_count[..2 * n + 1],
            relabels_since_global: 0,
            queue,
        }
    }

    #[inline]
    fn activate(&mut self, v: u32, s: u32, t: u32) {
        if v != s && v != t && self.excess[v as usize] > 0 && (self.d[v as usize] as usize) < self.n
        {
            let label = self.d[v as usize] as usize;
            self.buckets[label].push(v);
            if label > self.highest {
                self.highest = label;
            }
        }
    }

    /// Pops the highest-labelled genuinely active vertex, skipping stale
    /// bucket entries.
    fn pop_highest(&mut self) -> Option<u32> {
        loop {
            while self.highest > 0 && self.buckets[self.highest].is_empty() {
                self.highest -= 1;
            }
            let bucket = &mut self.buckets[self.highest];
            match bucket.pop() {
                Some(v) => {
                    if self.excess[v as usize] > 0
                        && self.d[v as usize] as usize == self.highest
                        && (self.d[v as usize] as usize) < self.n
                    {
                        return Some(v);
                    }
                    // Stale entry — drop it and keep looking.
                }
                None => return None,
            }
        }
    }

    /// Reverse BFS from the sink assigning exact distance labels. Vertices
    /// that cannot reach the sink get label `n`; the source keeps `n`.
    fn global_relabel(&mut self, net: &FlowNetwork, s: u32, t: u32) {
        let n = self.n;
        self.d.fill(n as u32);
        self.d[t as usize] = 0;
        self.queue.clear();
        self.queue.push_back(t);
        while let Some(v) = self.queue.pop_front() {
            for &a in net.arcs_from(v) {
                // Arc a is v -> u; its pair a^1 is u -> v. u can push to v
                // if the residual of u -> v is positive.
                if net.residual(a ^ 1) > 0 {
                    let u = net.arc_head(a);
                    if u != s && self.d[u as usize] == n as u32 {
                        self.d[u as usize] = self.d[v as usize] + 1;
                        self.queue.push_back(u);
                    }
                }
            }
        }
        self.d[s as usize] = n as u32;
        // Rebuild bookkeeping.
        self.label_count.fill(0);
        for v in 0..n {
            self.label_count[self.d[v] as usize] += 1;
        }
        for bucket in self.buckets.iter_mut() {
            bucket.clear();
        }
        self.highest = 0;
        self.cur.fill(0);
        for v in 0..n as u32 {
            self.activate(v, s, t);
        }
        self.relabels_since_global = 0;
    }

    /// Applies the gap heuristic after label `gap` became empty.
    fn apply_gap(&mut self, gap: usize) {
        let n = self.n;
        for v in 0..n {
            let dv = self.d[v] as usize;
            if dv > gap && dv < n {
                self.label_count[dv] -= 1;
                self.d[v] = n as u32 + 1;
                self.label_count[n + 1] += 1;
            }
        }
    }
}

impl PushRelabel {
    /// Creates a new solver.
    pub fn new() -> Self {
        PushRelabel { _priv: () }
    }
}

impl MaxFlow for PushRelabel {
    fn max_flow_with(
        &self,
        net: &mut FlowNetwork,
        s: u32,
        t: u32,
        cutoff: Option<u64>,
        workspace: &mut FlowWorkspace,
    ) -> u64 {
        check_endpoints(net, s, t);
        let n = net.node_count();
        let mut st = State::new(n, workspace);

        // Saturate all source arcs to form the initial preflow (by index,
        // so no arc list needs to be copied out of the network).
        for idx in 0..net.arcs_from(s).len() {
            let a = net.arcs_from(s)[idx];
            let c = net.residual(a);
            if c > 0 {
                let v = net.arc_head(a);
                net.push(a, c);
                // The source's (negative) excess is never consulted, so only
                // the receiving side is tracked.
                st.excess[v as usize] += c;
            }
        }
        st.global_relabel(net, s, t);

        let global_threshold = GLOBAL_RELABEL_FACTOR * n.max(1);

        while let Some(u) = st.pop_highest() {
            if let Some(c) = cutoff {
                if st.excess[t as usize] >= c {
                    return st.excess[t as usize];
                }
            }
            // Discharge u.
            'discharge: while st.excess[u as usize] > 0 {
                let arcs_len = net.arcs_from(u).len();
                while st.cur[u as usize] < arcs_len {
                    let a = net.arcs_from(u)[st.cur[u as usize]];
                    let v = net.arc_head(a);
                    if net.residual(a) > 0 && st.d[u as usize] == st.d[v as usize] + 1 {
                        let amount = st.excess[u as usize].min(net.residual(a));
                        net.push(a, amount);
                        st.excess[u as usize] -= amount;
                        let was_inactive = st.excess[v as usize] == 0;
                        st.excess[v as usize] += amount;
                        if was_inactive {
                            st.activate(v, s, t);
                        }
                        if st.excess[u as usize] == 0 {
                            break 'discharge;
                        }
                    } else {
                        st.cur[u as usize] += 1;
                    }
                }
                // Arc list exhausted: relabel.
                let d_old = st.d[u as usize] as usize;
                let mut min_d = u32::MAX;
                for &a in net.arcs_from(u) {
                    if net.residual(a) > 0 {
                        min_d = min_d.min(st.d[net.arc_head(a) as usize]);
                    }
                }
                let new_d = if min_d == u32::MAX {
                    2 * n as u32
                } else {
                    min_d + 1
                };
                st.label_count[d_old] -= 1;
                st.d[u as usize] = new_d;
                let capped = (new_d as usize).min(2 * n);
                st.label_count[capped] += 1;
                st.cur[u as usize] = 0;
                st.relabels_since_global += 1;

                if st.label_count[d_old] == 0 && d_old < n {
                    st.apply_gap(d_old);
                }
                if (st.d[u as usize] as usize) >= n {
                    // Out of stage-1 scope; its excess will flow back in
                    // stage 2, which connectivity analysis never needs.
                    break 'discharge;
                }
                if st.relabels_since_global >= global_threshold {
                    st.global_relabel(net, s, t);
                    if (st.d[u as usize] as usize) >= n {
                        break 'discharge;
                    }
                    continue;
                }
            }
            st.activate(u, s, t);
        }
        st.excess[t as usize]
    }

    fn name(&self) -> &'static str {
        "push-relabel-hi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_bottleneck() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 10);
        net.add_arc(1, 2, 4);
        assert_eq!(PushRelabel::new().max_flow(&mut net, 0, 2, None), 4);
    }

    #[test]
    fn needs_flow_cancellation() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1);
        net.add_arc(0, 2, 1);
        net.add_arc(1, 2, 1);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        assert_eq!(PushRelabel::new().max_flow(&mut net, 0, 3, None), 2);
    }

    #[test]
    fn large_chain_exercises_global_relabel() {
        let n = 500;
        let mut net = FlowNetwork::new(n);
        for v in 0..n as u32 - 1 {
            net.add_arc(v, v + 1, 2);
        }
        assert_eq!(
            PushRelabel::new().max_flow(&mut net, 0, n as u32 - 1, None),
            2
        );
    }

    #[test]
    fn grid_exercises_gap_heuristic() {
        // 5x5 grid, source top-left, sink bottom-right, unit capacities
        // rightward and downward. Max flow is 2 (the two arcs leaving the
        // source / entering the sink).
        let side = 5u32;
        let id = |r: u32, c: u32| r * side + c;
        let mut net = FlowNetwork::new((side * side) as usize);
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    net.add_arc(id(r, c), id(r, c + 1), 1);
                }
                if r + 1 < side {
                    net.add_arc(id(r, c), id(r + 1, c), 1);
                }
            }
        }
        assert_eq!(
            PushRelabel::new().max_flow(&mut net, 0, side * side - 1, None),
            2
        );
    }

    #[test]
    fn sink_unreachable() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3);
        net.add_arc(2, 3, 3);
        assert_eq!(PushRelabel::new().max_flow(&mut net, 0, 3, None), 0);
    }

    #[test]
    fn cutoff_uses_sink_excess() {
        let mut net = FlowNetwork::new(52);
        for mid in 1..51 {
            net.add_arc(0, mid, 1);
            net.add_arc(mid, 51, 1);
        }
        let flow = PushRelabel::new().max_flow(&mut net, 0, 51, Some(3));
        assert!(flow >= 3);
    }

    #[test]
    fn workspace_reuse_across_sizes() {
        // A workspace sized by a large run must still be correct for a
        // smaller network afterwards (stale labels/buckets beyond the
        // active slice must not leak in).
        let mut ws = FlowWorkspace::new();
        let mut large = FlowNetwork::new(300);
        for v in 0..299u32 {
            large.add_arc(v, v + 1, 2);
        }
        assert_eq!(
            PushRelabel::new().max_flow_with(&mut large, 0, 299, None, &mut ws),
            2
        );
        let mut small = FlowNetwork::new(4);
        small.add_arc(0, 1, 1);
        small.add_arc(0, 2, 1);
        small.add_arc(1, 3, 1);
        small.add_arc(2, 3, 1);
        assert_eq!(
            PushRelabel::new().max_flow_with(&mut small, 0, 3, None, &mut ws),
            2
        );
    }
}
