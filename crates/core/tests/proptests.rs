//! Property-based tests for the connectivity analysis layer.

use flowgraph::generators;
use flowgraph::scc::is_strongly_connected;
use flowgraph::DiGraph;
use kad_resilience::attack::{simulate_attack, AttackStrategy};
use kad_resilience::kappa::{exact_min, sampled_kappa, SampledKappaConfig};
use kad_resilience::pair::PairEvaluator;
use kad_resilience::{analyze_graph, AnalysisConfig, SolverKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn arb_digraph(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 5)
            .prop_map(move |edges| DiGraph::from_edges(n, edges))
    })
}

/// `blocks` dense blocks of `size` vertices, each strongly connected,
/// chained by one random edge from each block to the next; `close` links
/// the last block back to the first. A final vertex points at every other
/// one but is entered only by `sink_in` edges, drawn from the first block
/// when the chain is open. Open chains have several SCCs; closed ones are
/// strongly connected with planted one-edge links and a low-in-degree
/// vertex that no lowest-out-degree source sample picks.
fn structured_digraph(
    blocks: usize,
    size: usize,
    close: bool,
    sink_in: usize,
    seed: u64,
) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = blocks * size + 1;
    let mut g = DiGraph::new(n);
    let size32 = size as u32;
    for b in 0..blocks as u32 {
        let base = b * size32;
        for i in 0..size32 {
            let j = (i + 1) % size32;
            g.add_edge(base + i, base + j);
            g.add_edge(base + j, base + i);
            for k in 0..size32 {
                if k != i && rng.random_bool(0.5) {
                    g.add_edge(base + i, base + k);
                }
            }
        }
        if b + 1 < blocks as u32 || close {
            let next = (b + 1) % blocks as u32 * size32;
            g.add_edge(
                base + rng.random_range(0..size32),
                next + rng.random_range(0..size32),
            );
        }
    }
    let sink = (n - 1) as u32;
    for v in 0..sink {
        g.add_edge(sink, v);
    }
    let feeders = if close { sink } else { size32 };
    for _ in 0..sink_in {
        g.add_edge(rng.random_range(0..feeders), sink);
    }
    g
}

/// The definition of Equation 1, independently of the sweep: the minimum
/// push-relabel `κ(v, w)` over every ordered non-adjacent pair; `n − 1`
/// (or 0 for `n ≤ 1`) when there is none.
fn brute_force_kappa(g: &DiGraph) -> u64 {
    let n = g.node_count() as u32;
    let mut oracle = PairEvaluator::new(g, SolverKind::PushRelabel);
    (0..n)
        .flat_map(|v| (0..n).map(move |w| (v, w)))
        .filter_map(|(v, w)| oracle.connectivity(v, w, None))
        .min()
        .unwrap_or(u64::from(n.saturating_sub(1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `exact_min` against an independent oracle, on arbitrary sparse
    /// digraphs and on [`structured_digraph`]s: the brute-force pair
    /// minimum, which is 0 when the graph is not strongly connected and
    /// `n − 1` when it is complete.
    #[test]
    fn exact_min_matches_brute_force_pairs(
        sparse in arb_digraph(12),
        blocks in 2usize..4,
        size in 3usize..6,
        shape in 0u8..4,
        seed in any::<u64>(),
    ) {
        let sink_in = 1 + usize::from(shape >> 1);
        let structured = structured_digraph(blocks, size, shape & 1 == 1, sink_in, seed);
        for g in [sparse, structured] {
            let kappa = exact_min(&g);
            prop_assert_eq!(kappa, brute_force_kappa(&g));
            if g.is_complete() {
                prop_assert_eq!(kappa, g.node_count() as u64 - 1);
            } else if !is_strongly_connected(&g) {
                prop_assert_eq!(kappa, 0);
            }
        }
    }

    /// The exact sweep's minimum, mean, pair and zero-pair counts equal the
    /// same `n(n−1)` pairs evaluated one by one with every solver.
    #[test]
    fn solver_equivalence(g in arb_digraph(12)) {
        let reference = analyze_graph(&g, &AnalysisConfig::exact());
        let n = g.node_count() as u32;
        for solver in SolverKind::ALL {
            let mut eval = PairEvaluator::new(&g, solver);
            let flows: Vec<u64> = (0..n)
                .flat_map(|v| (0..n).map(move |w| (v, w)))
                .filter_map(|(v, w)| eval.connectivity(v, w, None))
                .collect();
            prop_assert_eq!(reference.pairs_evaluated, flows.len(), "{}", solver);
            if flows.is_empty() {
                continue; // complete: no pair to flow between
            }
            prop_assert_eq!(
                Some(reference.min_connectivity),
                flows.iter().copied().min(),
                "{}",
                solver
            );
            prop_assert_eq!(
                reference.zero_pairs,
                flows.iter().filter(|&&f| f == 0).count(),
                "{}",
                solver
            );
            let mean = flows.iter().sum::<u64>() as f64 / flows.len() as f64;
            prop_assert_eq!(reference.avg_connectivity, Some(mean), "{}", solver);
        }
    }

    /// Sampling can only raise the observed minimum; the exact sweep is
    /// deterministic.
    #[test]
    fn sampling_bounds(g in arb_digraph(14)) {
        let exact = analyze_graph(&g, &AnalysisConfig::exact());
        let sampled = analyze_graph(
            &g,
            &AnalysisConfig { min_sources: 2, ..AnalysisConfig::default() },
        );
        prop_assert!(sampled.min_connectivity >= exact.min_connectivity);
        let full_again = analyze_graph(&g, &AnalysisConfig::exact());
        prop_assert_eq!(exact, full_again, "exact sweep is deterministic");
    }

    /// The unit-vertex kernel sweeps to the same aggregates as the
    /// push-relabel oracle on the explicit Even network (both exact; only
    /// the engine differs).
    #[test]
    fn batched_sweep_matches_per_pair(g in arb_digraph(12)) {
        let batched = analyze_graph(&g, &AnalysisConfig::exact());
        let per_pair = analyze_graph(
            &g,
            &AnalysisConfig { batched: false, ..AnalysisConfig::exact() },
        );
        prop_assert_eq!(batched, per_pair);
    }

    /// `analyze_graph` on the unit-vertex kernel and on the explicit Even
    /// network agree field for field, for each of the three presets, on
    /// every graph family the kernel is tested on.
    #[test]
    fn reports_survive_disabling_the_kernel(
        family in 0u8..4,
        n in 6usize..40,
        seed in any::<u64>(),
        sparse in arb_digraph(14),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = match family {
            0 => sparse,
            1 => generators::gnp(n, 0.05 + 0.5 * (seed % 101) as f64 / 100.0, &mut rng),
            2 => generators::random_k_out_symmetric(n, 2 + (seed % 4) as usize, &mut rng),
            _ => generators::paper_figure1(),
        };
        for preset in [
            AnalysisConfig::exact(),
            AnalysisConfig::paper_sampled(),
            AnalysisConfig::min_only(),
        ] {
            let kernel = analyze_graph(&g, &preset);
            let explicit = analyze_graph(&g, &AnalysisConfig { batched: false, ..preset });
            prop_assert_eq!(kernel, explicit, "{:?}", preset);
        }
    }

    /// Cutoff pruning preserves the exact minimum and the zero-pair count.
    #[test]
    fn cutoff_preserves_minimum(g in arb_digraph(12)) {
        let full = analyze_graph(&g, &AnalysisConfig::exact());
        let pruned = analyze_graph(
            &g,
            &AnalysisConfig { use_cutoff: true, ..AnalysisConfig::exact() },
        );
        prop_assert_eq!(full.min_connectivity, pruned.min_connectivity);
        prop_assert_eq!(full.zero_pairs, pruned.zero_pairs);
        prop_assert_eq!(exact_min(&g), full.min_connectivity);
    }

    /// Equation 2 as a theorem: removing any fewer-than-κ vertices leaves
    /// the graph strongly connected.
    #[test]
    fn equation2_theorem(g in arb_digraph(10), seed in any::<u64>()) {
        // Densify with a bidirected ring so κ >= 2 is common (sparse random
        // digraphs are almost always 0- or 1-connected).
        let mut g = g;
        let n = g.node_count() as u32;
        for v in 0..n {
            g.add_edge(v, (v + 1) % n);
            g.add_edge((v + 1) % n, v);
        }
        let kappa = exact_min(&g);
        if kappa < 2 {
            return Ok(()); // nothing to remove within budget
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..8 {
            let outcome = simulate_attack(
                &g,
                (kappa - 1) as usize,
                AttackStrategy::Random,
                &mut rng,
            )
            .expect("budget κ−1 < n");
            prop_assert!(outcome.survivors_connected, "κ={} attack disconnected", kappa);
        }
    }

    /// Reports are internally consistent.
    #[test]
    fn report_consistency(g in arb_digraph(12)) {
        let report = analyze_graph(&g, &AnalysisConfig::exact());
        prop_assert_eq!(report.node_count, g.node_count());
        prop_assert_eq!(report.edge_count, g.edge_count());
        let avg = report.avg_connectivity.expect("exact analysis keeps the mean");
        prop_assert!(report.min_connectivity as f64 <= avg + 1e-9
            || report.pairs_evaluated == 0);
        prop_assert_eq!(report.strongly_connected, report.disconnected_nodes == 0);
        if !report.strongly_connected {
            prop_assert_eq!(report.min_connectivity, 0);
        }
        prop_assert!(report.reciprocity >= 0.0 && report.reciprocity <= 1.0);
        prop_assert_eq!(report.resilience(), report.min_connectivity.saturating_sub(1));
    }

    /// On symmetric k-out graphs (Kademlia-like), the paper's default
    /// sampling finds the exact minimum.
    #[test]
    fn paper_sampling_exact_on_kademlia_like(seed in any::<u64>(), n in 20usize..60) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::random_k_out_symmetric(n, 4, &mut rng);
        let exact = analyze_graph(&g, &AnalysisConfig::exact());
        let sampled = analyze_graph(&g, &AnalysisConfig::default());
        prop_assert_eq!(sampled.min_connectivity, exact.min_connectivity);
    }

    /// Densification never lowers exact connectivity.
    #[test]
    fn densification_monotone(g in arb_digraph(10), extra in proptest::collection::vec((0u32..10, 0u32..10), 0..20)) {
        let before = exact_min(&g);
        let mut h = g.clone();
        let n = h.node_count() as u32;
        for (u, v) in extra {
            if u < n && v < n && u != v {
                h.add_edge(u, v);
            }
        }
        let after = exact_min(&h);
        prop_assert!(after >= before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small pair populations take the estimator's exhaustive path: the
    /// estimate IS the exact mean (identical integer sum and count, so the
    /// floats match bit-for-bit) and the interval collapses to a point on
    /// it.
    #[test]
    fn estimator_exhaustive_path_matches_exact_sweep(g in arb_digraph(14)) {
        let est = sampled_kappa(&g, &SampledKappaConfig::default());
        prop_assert!(est.exact, "14*13 pairs always fit the default budget");
        let exact = analyze_graph(&g, &AnalysisConfig::exact());
        let mean = exact.avg_connectivity.expect("exact sweep defines the mean");
        prop_assert_eq!(est.kappa_est, mean);
        prop_assert_eq!(est.ci_lo, est.ci_hi);
        prop_assert!(est.brackets(mean));
        prop_assert_eq!(est.min_sampled, exact.min_connectivity);
        prop_assert_eq!(est.strongly_connected, exact.strongly_connected);
        prop_assert_eq!(est.pairs_sampled, exact.pairs_evaluated);
    }

    /// With a budget genuinely below the pair population, the stratified
    /// CI brackets the exact mean — on the graph family the estimator is
    /// built for: symmetric k-out graphs, the synthetic analogue of
    /// Kademlia connectivity graphs (well-concentrated flows; a nominal
    /// normal CI on arbitrary zero-inflated digraphs would be fiction).
    /// Confidence is 99.9% and the proptest seed is deterministic, so this
    /// encodes fixed validation cells, not a flaky coin flip.
    #[test]
    fn estimator_ci_brackets_exact_under_sampling(
        n in 30usize..56,
        k in 3usize..7,
        seed in 0u64..1024,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::random_k_out_symmetric(n, k, &mut rng);
        let config = SampledKappaConfig {
            target_pairs: 150,
            confidence: 0.999,
            seed: seed ^ 0xbeef,
            ..SampledKappaConfig::default()
        };
        let est = sampled_kappa(&g, &config);
        prop_assert!(!est.exact, "population n(n-1-k) far exceeds 150");
        let exact = analyze_graph(&g, &AnalysisConfig::exact());
        let mean = exact.avg_connectivity.expect("exact sweep defines the mean");
        prop_assert!(est.ci_lo <= est.ci_hi);
        prop_assert!(
            est.brackets(mean),
            "CI [{}, {}] misses exact mean {}",
            est.ci_lo, est.ci_hi, mean
        );
        if est.strongly_connected {
            prop_assert!(est.min_sampled >= exact.min_connectivity);
        } else {
            prop_assert_eq!(est.min_sampled, 0);
        }
    }
}

/// The ROADMAP's large-graph validation: at n=1000 the exact minimum
/// respects the degree bound, the kernel and the explicit network agree on
/// it, and the live estimator's `min_sampled` bounds it from above — the
/// direction the published bound claims.
#[test]
fn exact_minimum_and_estimator_bound_at_n1000() {
    let mut rng = SmallRng::seed_from_u64(1000);
    let g = generators::random_k_out_symmetric(1000, 20, &mut rng);
    let exact = analyze_graph(&g, &AnalysisConfig::min_only());
    assert!(exact.strongly_connected);
    assert!(exact.min_connectivity <= g.min_degree() as u64);
    let explicit = analyze_graph(
        &g,
        &AnalysisConfig {
            batched: false,
            ..AnalysisConfig::min_only()
        },
    );
    assert_eq!(exact, explicit);
    let estimate = sampled_kappa(
        &g,
        &SampledKappaConfig {
            target_pairs: 256,
            ..SampledKappaConfig::default()
        },
    );
    assert!(!estimate.exact, "256 pairs are a sample at n=1000");
    assert!(
        estimate.min_sampled >= exact.min_connectivity,
        "sampled minimum {} below the exact κ_min {}",
        estimate.min_sampled,
        exact.min_connectivity
    );
}
