//! Dinic's algorithm: BFS level graph + blocking flow with current-arc
//! pointers.
//!
//! On the unit-capacity networks produced by Even's transform this is the
//! asymptotically right choice — `O(E · √V)` — and with the `cutoff`
//! parameter it degenerates into Even's classical "is `κ(v, w) ≥ k`?" test
//! that stops after `k` augmenting paths. It is the explicit-network
//! baseline of the default κ kernel ([`crate::vertex_flow`]), which runs
//! the same algorithm on the implicit network.
//!
//! Level-graph membership lives in a `u64`-word bitset rather than a
//! sentinel in the level array: a BFS clears `n/64` words instead of
//! rewriting `n` levels, and dead-end removal during the blocking flow is a
//! single bit clear.

use super::{
    bit_clear, bit_set, bit_test, check_endpoints, words_for, FlowNetwork, FlowWorkspace, MaxFlow,
};
use std::collections::VecDeque;

/// Dinic's maximum-flow algorithm.
///
/// # Example
///
/// ```
/// use flowgraph::maxflow::{Dinic, FlowNetwork, MaxFlow};
///
/// let mut net = FlowNetwork::new(4);
/// net.add_arc(0, 1, 1);
/// net.add_arc(0, 2, 1);
/// net.add_arc(1, 3, 1);
/// net.add_arc(2, 3, 1);
/// assert_eq!(Dinic::new().max_flow(&mut net, 0, 3, None), 2);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Dinic {
    _priv: (),
}

impl Dinic {
    /// Creates a new solver.
    pub fn new() -> Self {
        Dinic { _priv: () }
    }
}

/// BFS over the residual graph from `s`, filling `level` and the `visited`
/// bitset (levels are meaningful only where the visited bit is set).
///
/// Returns `true` the moment the sink `t` is labelled — every vertex of a
/// lower level is labelled by then, and those are the only ones a shortest
/// `s -> t` path can use — or `false` once the reachable set is exhausted
/// without it.
fn level_bfs(
    net: &FlowNetwork,
    s: u32,
    t: u32,
    level: &mut [u32],
    visited: &mut [u64],
    queue: &mut VecDeque<u32>,
) -> bool {
    let words = words_for(level.len());
    visited[..words].iter_mut().for_each(|w| *w = 0);
    queue.clear();
    level[s as usize] = 0;
    bit_set(visited, s);
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        for &a in net.arcs_from(u) {
            if net.residual(a) == 0 {
                continue;
            }
            let v = net.arc_head(a);
            if !bit_test(visited, v) {
                bit_set(visited, v);
                level[v as usize] = level[u as usize] + 1;
                if v == t {
                    return true;
                }
                queue.push_back(v);
            }
        }
    }
    false
}

/// Sends a blocking flow from `s` to `t` through the level graph described
/// by (`level`, `visited`), returning the flow sent. Stops early once
/// `budget` units have been sent (pass `u64::MAX` for no limit; the final
/// augmenting path may overshoot the budget, matching the cutoff contract).
///
/// `cur` must be zeroed for the vertices of `net` and `visited` holds the
/// level-graph membership bits, which the DFS consumes destructively
/// (dead-end vertices are cleared out of it).
#[allow(clippy::too_many_arguments)] // takes the workspace fields split apart
fn blocking_flow(
    net: &mut FlowNetwork,
    s: u32,
    t: u32,
    level: &[u32],
    visited: &mut [u64],
    cur: &mut [usize],
    path: &mut Vec<u32>,
    budget: u64,
) -> u64 {
    let mut sent: u64 = 0;
    path.clear();
    let mut u = s;
    // Iterative DFS sending one augmenting path at a time.
    loop {
        if u == t {
            // Found an augmenting path; push the bottleneck.
            let mut bottleneck = u64::MAX;
            for &a in path.iter() {
                bottleneck = bottleneck.min(net.residual(a));
            }
            for &a in path.iter() {
                net.push(a, bottleneck);
            }
            sent += bottleneck;
            if sent >= budget {
                return sent;
            }
            // Retreat to the first saturated arc on the path.
            let mut retreat_to = 0;
            for (i, &a) in path.iter().enumerate() {
                if net.residual(a) == 0 {
                    retreat_to = i;
                    break;
                }
            }
            path.truncate(retreat_to);
            u = if path.is_empty() {
                s
            } else {
                net.arc_head(*path.last().expect("non-empty path"))
            };
            continue;
        }
        // Advance over the current arc if admissible.
        let arcs = net.arcs_from(u);
        let mut advanced = false;
        while cur[u as usize] < arcs.len() {
            let a = arcs[cur[u as usize]];
            let v = net.arc_head(a);
            if net.residual(a) > 0
                && bit_test(visited, v)
                && level[v as usize] == level[u as usize] + 1
            {
                path.push(a);
                u = v;
                advanced = true;
                break;
            }
            cur[u as usize] += 1;
        }
        if advanced {
            continue;
        }
        // Dead end: remove u from the level graph and retreat.
        bit_clear(visited, u);
        match path.pop() {
            Some(a) => {
                u = net.arc_head(a ^ 1);
                // The arc we retreated over now points to a dead
                // vertex; skip past it.
                cur[u as usize] += 1;
            }
            None => return sent,
        }
    }
}

impl MaxFlow for Dinic {
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
        let mut flow: u64 = 0;
        workspace.ensure_basic(n);
        let FlowWorkspace {
            label,
            cur,
            queue,
            path,
            visited,
            ..
        } = workspace;
        let level = &mut label[..n];
        let cur = &mut cur[..n];

        loop {
            if let Some(c) = cutoff {
                if flow >= c {
                    return flow;
                }
            }
            if !level_bfs(net, s, t, level, visited, queue) {
                return flow;
            }
            cur.iter_mut().for_each(|c| *c = 0);
            let budget = cutoff.map_or(u64::MAX, |c| c - flow);
            flow += blocking_flow(net, s, t, level, visited, cur, path, budget);
        }
    }

    fn name(&self) -> &'static str {
        "dinic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_with_cross_edge() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 2);
        net.add_arc(0, 2, 2);
        net.add_arc(1, 2, 1);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 3);
        assert_eq!(Dinic::new().max_flow(&mut net, 0, 3, None), 4);
    }

    #[test]
    fn long_chain() {
        let n = 100;
        let mut net = FlowNetwork::new(n);
        for v in 0..n as u32 - 1 {
            net.add_arc(v, v + 1, 3);
        }
        assert_eq!(Dinic::new().max_flow(&mut net, 0, n as u32 - 1, None), 3);
    }

    #[test]
    fn wide_unit_network() {
        // Source fans out to 50 middles, all feeding the sink: flow 50.
        let mut net = FlowNetwork::new(52);
        for mid in 1..51 {
            net.add_arc(0, mid, 1);
            net.add_arc(mid, 51, 1);
        }
        assert_eq!(Dinic::new().max_flow(&mut net, 0, 51, None), 50);
    }

    #[test]
    fn cutoff_stops_after_enough_paths() {
        let mut net = FlowNetwork::new(52);
        for mid in 1..51 {
            net.add_arc(0, mid, 1);
            net.add_arc(mid, 51, 1);
        }
        let flow = Dinic::new().max_flow(&mut net, 0, 51, Some(7));
        assert!((7..=50).contains(&flow));
    }

    #[test]
    fn repeated_phases_with_cancellation() {
        // Requires at least two BFS phases to finish.
        let mut net = FlowNetwork::new(6);
        net.add_arc(0, 1, 1);
        net.add_arc(0, 2, 1);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        net.add_arc(3, 4, 1);
        net.add_arc(3, 5, 1);
        net.add_arc(4, 5, 1);
        assert_eq!(Dinic::new().max_flow(&mut net, 0, 5, None), 2);
    }
}
