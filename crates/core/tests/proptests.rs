//! Property-based tests for the connectivity analysis layer.

use flowgraph::generators;
use flowgraph::DiGraph;
use kad_resilience::attack::{simulate_attack, AttackStrategy};
use kad_resilience::estimator::{sampled_kappa, SampledKappaConfig};
use kad_resilience::graph::{exact_connectivity, has_connectivity_at_least};
use kad_resilience::sampled::sampled_connectivity;
use kad_resilience::{analyze_graph, AnalysisConfig, SolverKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_digraph(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 5)
            .prop_map(move |edges| DiGraph::from_edges(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sampling can only raise the observed minimum; c = 1.0 equals the
    /// exact sweep.
    #[test]
    fn sampling_bounds(g in arb_digraph(14)) {
        let exact = sampled_connectivity(&g, &AnalysisConfig::exact());
        let sampled = sampled_connectivity(
            &g,
            &AnalysisConfig { min_sources: 2, ..AnalysisConfig::default() },
        );
        prop_assert!(sampled.min >= exact.min);
        let full_again = sampled_connectivity(&g, &AnalysisConfig::exact());
        prop_assert_eq!(exact, full_again, "exact sweep is deterministic");
    }

    /// All solvers agree on sampled sweeps.
    #[test]
    fn solver_equivalence(g in arb_digraph(12)) {
        let base = AnalysisConfig::exact();
        let reference = sampled_connectivity(&g, &base);
        for solver in SolverKind::ALL {
            let result = sampled_connectivity(&g, &AnalysisConfig { solver, ..base });
            prop_assert_eq!(result.min, reference.min, "{}", solver);
            let avg = result.avg.expect("exact sweep defines the mean");
            let ref_avg = reference.avg.expect("exact sweep defines the mean");
            prop_assert!((avg - ref_avg).abs() < 1e-9, "{}", solver);
        }
    }

    /// The batched shared-source engine sweeps to the same aggregates as
    /// the per-pair baseline (both exact; only the work schedule differs).
    #[test]
    fn batched_sweep_matches_per_pair(g in arb_digraph(12)) {
        let batched = sampled_connectivity(&g, &AnalysisConfig::exact());
        let per_pair = sampled_connectivity(
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

    /// Cutoff pruning preserves the exact minimum.
    #[test]
    fn cutoff_preserves_minimum(g in arb_digraph(12)) {
        let full = sampled_connectivity(&g, &AnalysisConfig::exact());
        let pruned = sampled_connectivity(
            &g,
            &AnalysisConfig { use_cutoff: true, ..AnalysisConfig::exact() },
        );
        prop_assert_eq!(full.min, pruned.min);
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
        let kappa = exact_connectivity(&g, &AnalysisConfig::default());
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

    /// The threshold decision procedure brackets the exact value.
    #[test]
    fn decision_procedure_brackets(g in arb_digraph(10)) {
        let config = AnalysisConfig::default();
        let kappa = exact_connectivity(&g, &config);
        prop_assert!(has_connectivity_at_least(&g, kappa, &config));
        prop_assert!(!has_connectivity_at_least(&g, kappa + 1, &config));
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
        let exact = sampled_connectivity(&g, &AnalysisConfig::exact());
        let sampled = sampled_connectivity(&g, &AnalysisConfig::default());
        prop_assert_eq!(sampled.min, exact.min);
    }

    /// Densification never lowers exact connectivity.
    #[test]
    fn densification_monotone(g in arb_digraph(10), extra in proptest::collection::vec((0u32..10, 0u32..10), 0..20)) {
        let before = exact_connectivity(&g, &AnalysisConfig::default());
        let mut h = g.clone();
        let n = h.node_count() as u32;
        for (u, v) in extra {
            if u < n && v < n && u != v {
                h.add_edge(u, v);
            }
        }
        let after = exact_connectivity(&h, &AnalysisConfig::default());
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
        let exact = sampled_connectivity(&g, &AnalysisConfig::exact());
        let mean = exact.avg.expect("exact sweep defines the mean");
        prop_assert_eq!(est.kappa_est, mean);
        prop_assert_eq!(est.ci_lo, est.ci_hi);
        prop_assert!(est.brackets(mean));
        if est.strongly_connected {
            prop_assert!(est.min_sampled >= exact.min);
        } else {
            prop_assert_eq!(est.min_sampled, 0);
            prop_assert_eq!(exact.min, 0, "SCC pre-check agrees with sweep");
        }
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
        let exact = sampled_connectivity(&g, &AnalysisConfig::exact());
        let mean = exact.avg.expect("exact sweep defines the mean");
        prop_assert!(est.ci_lo <= est.ci_hi);
        prop_assert!(
            est.brackets(mean),
            "CI [{}, {}] misses exact mean {}",
            est.ci_lo, est.ci_hi, mean
        );
        if est.strongly_connected {
            prop_assert!(est.min_sampled >= exact.min);
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
