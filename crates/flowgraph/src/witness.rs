//! Independent checkers for the Menger witnesses [`crate::vertex_flow`]
//! reads off a flow.
//!
//! Menger's theorem (paper, Section 4.3) gives two certificates for
//! `κ(v, w)`: a minimum vertex cut (the nodes an optimal attacker removes,
//! Equation 2) and as many internally vertex-disjoint `v → w` paths (the
//! redundant channels). [`crate::VertexFlow::min_cut`] and
//! [`crate::VertexFlow::paths`] produce them; the functions here check them
//! with plain graph searches and share no code with the flow kernel.

use crate::digraph::DiGraph;
use std::collections::{HashSet, VecDeque};

/// Verifies that removing `cut` from `graph` leaves no `v -> w` path.
/// Used by tests and attack simulations to validate cuts independently.
pub fn cut_disconnects(graph: &DiGraph, v: u32, w: u32, cut: &[u32]) -> bool {
    let removed: HashSet<u32> = cut.iter().copied().collect();
    if removed.contains(&v) || removed.contains(&w) {
        return true;
    }
    let mut seen = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    seen[v as usize] = true;
    queue.push_back(v);
    while let Some(u) = queue.pop_front() {
        for &x in graph.out_neighbors(u) {
            if removed.contains(&x) || seen[x as usize] {
                continue;
            }
            if x == w {
                return false;
            }
            seen[x as usize] = true;
            queue.push_back(x);
        }
    }
    true
}

/// Checks that a set of paths is internally vertex-disjoint and that each
/// path is a real `v -> w` walk in the graph. A bare `[v, w]` path has no
/// interior but uses the edge `(v, w)`, so at most one may appear. Returns
/// a human-readable error for diagnostics.
pub fn validate_disjoint_paths(
    graph: &DiGraph,
    v: u32,
    w: u32,
    paths: &[Vec<u32>],
) -> Result<(), String> {
    let mut interior_seen: HashSet<u32> = HashSet::new();
    let mut direct_seen = false;
    for (i, path) in paths.iter().enumerate() {
        if path.len() < 2 {
            return Err(format!("path {i} has fewer than two vertices"));
        }
        if path.first() != Some(&v) || path.last() != Some(&w) {
            return Err(format!("path {i} does not run from {v} to {w}"));
        }
        for pair in path.windows(2) {
            if !graph.has_edge(pair[0], pair[1]) {
                return Err(format!(
                    "path {i} uses missing edge ({}, {})",
                    pair[0], pair[1]
                ));
            }
        }
        if path.len() == 2 {
            if direct_seen {
                return Err(format!("path {i} reuses the edge ({v}, {w})"));
            }
            direct_seen = true;
        }
        for &x in &path[1..path.len() - 1] {
            if x == v || x == w {
                return Err(format!("path {i} revisits an endpoint"));
            }
            if !interior_seen.insert(x) {
                return Err(format!("vertex {x} shared between paths"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::paper_figure1;

    #[test]
    fn cut_disconnects_is_strict() {
        let g = paper_figure1();
        // Vertex e is the articulation point; removing another vertex does
        // not disconnect the pair.
        assert!(cut_disconnects(&g, 0, 8, &[4]));
        assert!(!cut_disconnects(&g, 0, 8, &[1]));
    }

    #[test]
    fn validator_rejects_shared_vertices() {
        let g = DiGraph::from_edges(5, [(0, 1), (1, 4), (0, 2), (2, 1)]);
        let bogus = vec![vec![0, 1, 4], vec![0, 2, 1, 4]];
        assert!(validate_disjoint_paths(&g, 0, 4, &bogus).is_err());
    }

    #[test]
    fn validator_rejects_fake_edges() {
        let g = DiGraph::from_edges(3, [(0, 1)]);
        let bogus = vec![vec![0, 2]];
        assert!(validate_disjoint_paths(&g, 0, 2, &bogus).is_err());
    }

    #[test]
    fn validator_rejects_paths_shorter_than_an_edge() {
        let g = DiGraph::from_edges(2, [(0, 1)]);
        assert!(validate_disjoint_paths(&g, 0, 0, &[vec![0]]).is_err());
        assert!(validate_disjoint_paths(&g, 0, 1, &[vec![]]).is_err());
    }

    #[test]
    fn validator_rejects_one_edge_as_two_paths() {
        let g = DiGraph::from_edges(2, [(0, 1)]);
        assert!(validate_disjoint_paths(&g, 0, 1, &[vec![0, 1]]).is_ok());
        assert!(validate_disjoint_paths(&g, 0, 1, &[vec![0, 1], vec![0, 1]]).is_err());
    }
}
