//! Property-based tests for the flow/connectivity machinery.
//!
//! The central property: the unit-vertex kernel, push-relabel and its
//! Edmonds–Karp reference are interchangeable, and the kernel's witnesses
//! obey Menger's theorem — the number of vertex-disjoint paths found equals
//! the oracle's flow value equals the size of a verified vertex cut, and
//! that cut is the one closest to the source.

use flowgraph::digraph::DiGraph;
use flowgraph::even::EvenNetwork;
use flowgraph::generators;
use flowgraph::maxflow::{EdmondsKarp, FlowNetwork, FlowWorkspace, MaxFlow, PushRelabel};
use flowgraph::scc::{is_strongly_connected, strongly_connected_components};
use flowgraph::vertex_flow::VertexFlow;
use flowgraph::witness::{cut_disconnects, validate_disjoint_paths};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Strategy: a random digraph with up to `n` vertices and arbitrary edges.
fn arb_digraph(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 4)
            .prop_map(move |edges| DiGraph::from_edges(n, edges))
    })
}

/// A seeded random vertex subset of `g` (each vertex with probability 1/3),
/// the shape of a victim set the attack code removes. At least two
/// vertices always survive, so the survivor graph still has pairs.
fn removed_subset(g: &DiGraph, seed: u64) -> HashSet<u32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..g.node_count() as u32)
        .filter(|_| rng.random_range(0..3u8) == 0)
        .take(g.node_count().saturating_sub(2))
        .collect()
}

/// Strategy: the graph families the κ kernel has to get right — arbitrary
/// sparse digraphs (sinks, unreachable targets, several SCCs), `gnp`, the
/// Kademlia-like `random_k_out_symmetric`, the paper's Figure 1, and a
/// survivor graph (`arb_digraph` minus a random vertex subset).
fn arb_kernel_graph() -> impl Strategy<Value = DiGraph> {
    kernel_graphs(25, 12)
}

/// [`arb_kernel_graph`]'s families with at most `max_n` vertices from the
/// generators (at least 6) and at most `max_sparse` in the sparse ones.
fn kernel_graphs(max_n: usize, max_sparse: usize) -> impl Strategy<Value = DiGraph> {
    let families = (0u8..5, 6..=max_n, any::<u64>(), arb_digraph(max_sparse));
    families.prop_map(|(family, n, seed, sparse)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        match family {
            0 => sparse,
            1 => generators::gnp(n, 0.05 + 0.5 * (seed % 101) as f64 / 100.0, &mut rng),
            2 => generators::random_k_out_symmetric(n, 2 + (seed % 4) as usize, &mut rng),
            3 => generators::paper_figure1(),
            _ => sparse.remove_vertices(&removed_subset(&sparse, seed)).0,
        }
    })
}

/// `g` plus isolated vertices up to `64·(⌈n/64⌉ + 2)`, so the kernel's
/// bit rows end in two or more all-zero words and hold ids beyond `g`'s
/// range. Isolated vertices lie on no path and keep every id of `g`, so
/// each pair of `g` keeps its κ, paths and cut.
fn padded_with_isolated_vertices(g: &DiGraph) -> DiGraph {
    DiGraph::from_edges(64 * (g.node_count().div_ceil(64) + 2), g.edges())
}

/// What `v` still reaches in `g` once `removed` is gone.
fn source_side(g: &DiGraph, v: u32, removed: &[u32]) -> Vec<bool> {
    let mut blocked = vec![false; g.node_count()];
    for &x in removed {
        blocked[x as usize] = true;
    }
    let mut side = vec![false; g.node_count()];
    let mut stack = vec![v];
    side[v as usize] = true;
    while let Some(u) = stack.pop() {
        for &x in g.out_neighbors(u) {
            if !blocked[x as usize] && !side[x as usize] {
                side[x as usize] = true;
                stack.push(x);
            }
        }
    }
    side
}

/// Every `k`-subset of `items`, in lexicographic order.
fn subsets(items: &[u32], k: usize) -> Vec<Vec<u32>> {
    if k == 0 {
        return vec![vec![]];
    }
    let mut all = Vec::new();
    for (i, &first) in items.iter().enumerate() {
        for mut rest in subsets(&items[i + 1..], k - 1) {
            rest.insert(0, first);
            all.push(rest);
        }
    }
    all
}

/// Strategy: a random flow network with capacities.
fn arb_network(max_n: usize) -> impl Strategy<Value = (FlowNetwork, u32, u32)> {
    (2..=max_n).prop_flat_map(|n| {
        let arcs = proptest::collection::vec((0..n as u32, 0..n as u32, 1u64..50), 1..n * 3);
        arcs.prop_map(move |arcs| {
            let mut net = FlowNetwork::new(n);
            for (u, v, c) in arcs {
                if u != v {
                    net.add_arc(u, v, c);
                }
            }
            (net, 0, n as u32 - 1)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Push-relabel computes the same max-flow value as its Edmonds–Karp
    /// reference on arbitrary networks.
    #[test]
    fn solvers_agree((net, s, t) in arb_network(12)) {
        let mut a = net.clone();
        let mut b = net;
        let fa = EdmondsKarp::new().max_flow(&mut a, s, t, None);
        let fb = PushRelabel::new().max_flow(&mut b, s, t, None);
        prop_assert_eq!(fa, fb);
    }

    /// Max flow equals the capacity across the residual-reachability cut.
    #[test]
    fn max_flow_equals_min_cut((net, s, t) in arb_network(12)) {
        let mut work = net.clone();
        let flow = EdmondsKarp::new().max_flow(&mut work, s, t, None);
        let reach = work.residual_reachable(s);
        prop_assert!(reach[s as usize]);
        // If the sink were still reachable there would be an augmenting
        // path — the flow would not be maximal.
        prop_assert!(!reach[t as usize]);
        let mut cut = 0u64;
        for u in 0..work.node_count() as u32 {
            if !reach[u as usize] { continue; }
            for &arc in work.arcs_from(u) {
                if arc % 2 == 0 && !reach[work.arc_head(arc) as usize] {
                    cut += work.residual(arc) + work.flow(arc);
                }
            }
        }
        prop_assert_eq!(cut, flow);
    }

    /// Cutoff runs return a certified lower bound, never exceeding the
    /// true maximum.
    #[test]
    fn cutoff_is_sound((net, s, t) in arb_network(10), cutoff in 0u64..20) {
        let mut exact_net = net.clone();
        let exact = EdmondsKarp::new().max_flow(&mut exact_net, s, t, None);
        for solver in [&EdmondsKarp::new() as &dyn MaxFlow, &PushRelabel::new()] {
            let mut work = net.clone();
            let bounded = solver.max_flow(&mut work, s, t, Some(cutoff));
            prop_assert!(bounded <= exact, "{}: {} > {}", solver.name(), bounded, exact);
            if exact >= cutoff {
                prop_assert!(bounded >= cutoff, "{}: {} < cutoff {}", solver.name(), bounded, cutoff);
            } else {
                prop_assert_eq!(bounded, exact, "below cutoff the value is exact");
            }
        }
    }

    /// κ(v,w) is bounded by out-degree of v and in-degree of w.
    #[test]
    fn kappa_degree_bounds(g in arb_digraph(10)) {
        let mut even = EvenNetwork::from_graph(&g);
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                if let Some(kappa) = even.vertex_connectivity(&PushRelabel::new(), v, w, None) {
                    prop_assert!(kappa <= g.out_degree(v) as u64);
                    prop_assert!(kappa <= g.in_degree(w) as u64);
                }
            }
        }
    }

    /// SCC decomposition agrees with pairwise positive connectivity: two
    /// vertices are in the same SCC iff flow both ways is positive.
    #[test]
    fn scc_matches_positive_flow(g in arb_digraph(8)) {
        let scc = strongly_connected_components(&g);
        let mut even = EvenNetwork::from_graph(&g);
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                if v == w { continue; }
                let mut positive = |a, b| {
                    even.vertex_connectivity(&PushRelabel::new(), a, b, None).expect("non-adjacent") > 0
                };
                let vw = g.has_edge(v, w) || positive(v, w);
                let wv = g.has_edge(w, v) || positive(w, v);
                let same = scc.component[v as usize] == scc.component[w as usize];
                prop_assert_eq!(same, vw && wv, "pair ({}, {})", v, w);
            }
        }
    }

    /// Generators produce what they promise.
    #[test]
    fn generator_invariants(n in 3usize..30, k in 1usize..5, seed in 0u64..1000) {
        prop_assume!(k < n);
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let g = generators::random_k_out(n, k, &mut rng);
        for v in 0..n as u32 {
            prop_assert_eq!(g.out_degree(v), k);
        }
        let sym = generators::random_k_out_symmetric(n, k, &mut rng);
        prop_assert_eq!(sym.reciprocity(), 1.0);
        let cyc = generators::bidirected_cycle(n);
        prop_assert!(is_strongly_connected(&cyc));
    }

    /// Push-relabel and Edmonds–Karp agree on random digraphs when they
    /// take turns on one shared, reused `FlowWorkspace`: neither leaves
    /// scratch state behind that the other reads.
    #[test]
    fn workspace_solvers_agree(g in arb_digraph(10)) {
        let mut workspace = FlowWorkspace::new();
        let mut pr_even = EvenNetwork::from_graph(&g);
        let mut ek_even = EvenNetwork::from_graph(&g);
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                let pr = pr_even.vertex_connectivity_with(&PushRelabel::new(), v, w, None, &mut workspace);
                let ek = ek_even.vertex_connectivity_with(&EdmondsKarp::new(), v, w, None, &mut workspace);
                prop_assert_eq!(pr, ek, "push-relabel vs edmonds-karp ({}, {})", v, w);
            }
        }
    }

    /// Workspace reuse across many pairs matches fresh-solver results: one
    /// network + one workspace swept over every pair must equal a brand-new
    /// network and workspace per pair.
    #[test]
    fn workspace_reuse_matches_fresh(g in arb_digraph(9)) {
        let mut reused_net = EvenNetwork::from_graph(&g);
        let mut reused_ws = FlowWorkspace::for_network(reused_net.network());
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                let reused =
                    reused_net.vertex_connectivity_with(&PushRelabel::new(), v, w, None, &mut reused_ws);
                let mut fresh_net = EvenNetwork::from_graph(&g);
                let mut fresh_ws = FlowWorkspace::new();
                let fresh =
                    fresh_net.vertex_connectivity_with(&PushRelabel::new(), v, w, None, &mut fresh_ws);
                prop_assert_eq!(reused, fresh, "pair ({}, {})", v, w);
            }
        }
    }

    /// The journaled O(touched) reset is exact: after any flow computation,
    /// reset restores the network to its freshly-built state.
    #[test]
    fn journaled_reset_is_exact((net, s, t) in arb_network(12)) {
        let mut work = net.clone();
        EdmondsKarp::new().max_flow(&mut work, s, t, None);
        work.reset();
        prop_assert_eq!(&work, &net);
        PushRelabel::new().max_flow(&mut work, s, t, None);
        work.reset();
        prop_assert_eq!(&work, &net);
    }

    /// The unit-vertex kernel equals push-relabel on the explicit network
    /// pair by pair, with and without a cutoff, and agrees with it on which
    /// pairs are undefined (adjacent or equal). Graphs reach 72 vertices
    /// (two-word bit rows), sparse and dense; each also runs padded with
    /// isolated vertices, so its bit rows end in empty words.
    #[test]
    fn kernel_matches_explicit_solvers(g in kernel_graphs(72, 12), cutoff in 1u64..6) {
        let mut kernels = [VertexFlow::new(&g), VertexFlow::new(&padded_with_isolated_vertices(&g))];
        let mut even = EvenNetwork::from_graph(&g);
        let mut ws = FlowWorkspace::new();
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                let pr = even.vertex_connectivity_with(&PushRelabel::new(), v, w, None, &mut ws);
                prop_assert_eq!(pr.is_none(), v == w || g.has_edge(v, w));
                for (kernel, padded) in kernels.iter_mut().zip([false, true]) {
                    let got = kernel.connectivity(v, w, None);
                    prop_assert_eq!(got, pr, "kernel (padded: {}) vs push-relabel ({}, {})", padded, v, w);
                    let bounded = kernel.connectivity(v, w, Some(cutoff));
                    prop_assert_eq!(bounded, pr.map(|k| k.min(cutoff)), "cutoff {} (padded: {}) ({}, {})", cutoff, padded, v, w);
                }
            }
        }
    }

    /// Menger's theorem end-to-end on the kernel's witnesses: the oracle's
    /// κ(v,w) == number of vertex-disjoint paths == size of a verified
    /// vertex cut.
    #[test]
    fn menger_chain(g in arb_kernel_graph()) {
        let mut kernel = VertexFlow::new(&g);
        // What `PairEvaluator::new(g, SolverKind::PushRelabel)` runs.
        let mut oracle = EvenNetwork::from_graph(&g);
        let mut ws = FlowWorkspace::new();
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                let kappa = oracle.vertex_connectivity_with(&PushRelabel::new(), v, w, None, &mut ws);
                let (paths, cut) = (kernel.paths(v, w), kernel.min_cut(v, w));
                let Some(kappa) = kappa else {
                    prop_assert!(paths.is_none() && cut.is_none(), "pair ({}, {})", v, w);
                    continue;
                };
                let (paths, cut) = (paths.expect("same adjacency"), cut.expect("same adjacency"));
                prop_assert_eq!(paths.len() as u64, kappa, "paths ({}, {})", v, w);
                prop_assert_eq!(cut.len() as u64, kappa, "cut ({}, {})", v, w);
                prop_assert!(validate_disjoint_paths(&g, v, w, &paths).is_ok(), "({}, {})", v, w);
                prop_assert!(cut_disconnects(&g, v, w, &cut), "({}, {})", v, w);
                prop_assert!(cut.windows(2).all(|c| c[0] < c[1]), "cut not ascending");
            }
        }
    }

    /// Brute-force oracle for the cut the attacker removes: among all
    /// κ-vertex sets that separate `v` from `w`, the kernel's cut leaves `v`
    /// the smallest side — contained in every other one's — so it is the
    /// unique source-closest minimum cut, whichever maximum flow found it.
    #[test]
    fn kernel_cut_is_the_source_closest_minimum_cut(g in kernel_graphs(9, 9)) {
        let n = g.node_count() as u32;
        let mut kernel = VertexFlow::new(&g);
        for v in 0..n {
            for w in 0..n {
                let Some(cut) = kernel.min_cut(v, w) else { continue };
                let closest = source_side(&g, v, &cut);
                let interior: Vec<u32> = (0..n).filter(|&x| x != v && x != w).collect();
                let mut minimum_cuts = 0;
                for other in subsets(&interior, cut.len()) {
                    if !cut_disconnects(&g, v, w, &other) {
                        continue;
                    }
                    minimum_cuts += 1;
                    let side = source_side(&g, v, &other);
                    prop_assert!(
                        (0..n as usize).all(|x| !closest[x] || side[x]),
                        "({}, {}): cut {:?} is not closer to the source than {:?}", v, w, cut, other
                    );
                }
                // The kernel's own cut is one of them, and none is smaller.
                prop_assert!(minimum_cuts >= 1, "({}, {}): {:?} does not separate", v, w, cut);
                if let Some(k) = cut.len().checked_sub(1) {
                    prop_assert!(
                        subsets(&interior, k).iter().all(|c| !cut_disconnects(&g, v, w, c)),
                        "({}, {}): a smaller cut than {:?} exists", v, w, cut
                    );
                }
            }
        }
    }

    /// Kernel cutoff contract: `min(c, κ) ≤ result ≤ κ`, and for `c ≥ 1` a
    /// returned 0 is always a true zero pair.
    #[test]
    fn kernel_cutoff_is_sound(g in arb_kernel_graph(), cutoff in 0u64..8) {
        let mut kernel = VertexFlow::new(&g);
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                let Some(exact) = kernel.connectivity(v, w, None) else {
                    prop_assert_eq!(kernel.connectivity(v, w, Some(cutoff)), None);
                    continue;
                };
                let bounded = kernel.connectivity(v, w, Some(cutoff)).expect("non-adjacent");
                prop_assert!(exact.min(cutoff) <= bounded && bounded <= exact);
                if cutoff >= 1 {
                    prop_assert_eq!(bounded == 0, exact == 0, "pair ({}, {})", v, w);
                }
            }
        }
    }

    /// One kernel swept over pairs in an arbitrary order, with and without
    /// cutoffs, answers like a fresh kernel per pair; a clone taken
    /// mid-sweep and the original then run independently of each other.
    /// The copy padded with isolated vertices is held to the same answers,
    /// fresh, reused and cloned.
    #[test]
    fn kernel_reuse_and_clones_match_fresh(
        g in kernel_graphs(72, 12),
        order in proptest::collection::vec((0u32..80, 0u32..80, 0u64..6), 1..60),
    ) {
        let n = g.node_count() as u32;
        let padded_graph = padded_with_isolated_vertices(&g);
        let mut reused = [VertexFlow::new(&g), VertexFlow::new(&padded_graph)];
        let mut cloned: Option<[VertexFlow; 2]> = None;
        for (i, (v, w, c)) in order.iter().map(|&(v, w, c)| (v % n, w % n, c)).enumerate() {
            // 0 stands for "no cutoff".
            let cutoff = (c > 0).then_some(c);
            let fresh = VertexFlow::new(&g).connectivity(v, w, cutoff);
            let fresh_padded = VertexFlow::new(&padded_graph).connectivity(v, w, cutoff);
            prop_assert_eq!(fresh_padded, fresh, "fresh padded ({}, {})", v, w);
            for (kernel, padded) in reused.iter_mut().zip([false, true]) {
                let got = kernel.connectivity(v, w, cutoff);
                prop_assert_eq!(got, fresh, "reused (padded: {}) ({}, {})", padded, v, w);
            }
            if i == order.len() / 2 {
                cloned = Some(reused.clone());
            }
            for (clone, padded) in cloned.iter_mut().flatten().zip([false, true]) {
                // Run the clone on a different pair first: shared state
                // would show up in the original's next answer.
                clone.connectivity(w, v, None);
                let got = clone.connectivity(v, w, cutoff);
                prop_assert_eq!(got, fresh, "clone (padded: {}) ({}, {})", padded, v, w);
            }
        }
    }

    /// `remove_vertices` keeps exactly the survivors, in order, and the
    /// induced edges between them: `keep` is strictly increasing and
    /// disjoint from the removed set, and `sub` has edge `(a, b)` iff `g`
    /// has `(keep[a], keep[b])`.
    #[test]
    fn remove_vertices_induces_the_survivor_subgraph(g in arb_digraph(12), seed in any::<u64>()) {
        let removed = removed_subset(&g, seed);
        let (sub, keep) = g.remove_vertices(&removed);
        prop_assert_eq!(sub.node_count(), keep.len());
        prop_assert_eq!(keep.len() + removed.len(), g.node_count());
        prop_assert!(keep.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(keep.iter().all(|v| !removed.contains(v)));
        for a in 0..keep.len() as u32 {
            for b in 0..keep.len() as u32 {
                prop_assert_eq!(
                    sub.has_edge(a, b),
                    g.has_edge(keep[a as usize], keep[b as usize]),
                    "({}, {})", a, b
                );
            }
        }
    }

    /// Graph mutation invariants: removing an edge never increases
    /// reachability; re-adding restores the graph exactly.
    #[test]
    fn edge_removal_roundtrip(g in arb_digraph(10)) {
        let edges: Vec<(u32, u32)> = g.edges().collect();
        prop_assume!(!edges.is_empty());
        let mut h = g.clone();
        let (u, v) = edges[edges.len() / 2];
        prop_assert!(h.remove_edge(u, v));
        prop_assert!(!h.has_edge(u, v));
        h.add_edge(u, v);
        prop_assert_eq!(h, g);
    }
}
