//! The paper's sampled connectivity measurement (Section 5.2).
//!
//! A full `κ(D)` computation needs `n(n−1)` max flows. Exploiting the
//! near-undirectedness of Kademlia connectivity graphs, the paper instead
//! computes flows only *from* the `c·n` vertices of smallest out-degree
//! *to* all `n−1` other vertices: the out-degree of a source bounds its
//! outgoing flow, and because every vertex still appears as a target, the
//! limiting in-degrees are considered too. `c = 0.02` recovered the true
//! minimum on all 20 fully-analysed validation graphs.
//!
//! [`sampled_connectivity`] reproduces exactly that scheme; the average of
//! the computed flows is the paper's "Avg" curve and their minimum its
//! "Min" curve.

use crate::pair::PairEvaluator;
use crate::AnalysisConfig;
use flowgraph::DiGraph;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Result of a sampled (or full) pairwise-connectivity sweep.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SampledConnectivity {
    /// Minimum flow value over all evaluated pairs (`n−1` for complete
    /// graphs, 0 for graphs with fewer than 2 vertices).
    pub min: u64,
    /// Mean flow value over all evaluated pairs, or `None` when the sweep
    /// ran with cutoff pruning (see [`AnalysisConfig::use_cutoff`]): pruned
    /// per-pair values are lower bounds, so their mean certifies nothing —
    /// recording it as a number was silently misleading.
    pub avg: Option<f64>,
    /// Number of (non-adjacent) pairs whose flow was computed.
    pub pairs_evaluated: usize,
    /// Number of source vertices used.
    pub sources_used: usize,
    /// Number of evaluated pairs with flow 0.
    pub zero_pairs: usize,
}

impl SampledConnectivity {
    fn trivial(min: u64, avg: f64) -> Self {
        SampledConnectivity {
            min,
            // Trivial results are exact by construction, so the average is
            // always known.
            avg: Some(avg),
            pairs_evaluated: 0,
            sources_used: 0,
            zero_pairs: 0,
        }
    }
}

/// Runs the paper's sampled sweep: sources are the `c·n` vertices of
/// smallest out-degree (at least [`AnalysisConfig::min_sources`]), targets
/// are all other vertices, adjacent pairs are skipped.
///
/// # Example
///
/// ```
/// use flowgraph::generators::bidirected_cycle;
/// use kad_resilience::sampled::sampled_connectivity;
/// use kad_resilience::AnalysisConfig;
///
/// let g = bidirected_cycle(12);
/// let result = sampled_connectivity(&g, &AnalysisConfig::exact());
/// assert_eq!(result.min, 2);
/// // Every pair has exactly 2 disjoint paths; full flows make avg exact.
/// assert_eq!(result.avg, Some(2.0));
/// ```
pub fn sampled_connectivity(g: &DiGraph, config: &AnalysisConfig) -> SampledConnectivity {
    let n = g.node_count();
    if n <= 1 {
        return SampledConnectivity::trivial(0, 0.0);
    }
    if g.is_complete() {
        let k = (n - 1) as u64;
        return SampledConnectivity::trivial(k, k as f64);
    }
    let sources: Vec<u32> = g
        .vertices_by_out_degree()
        .into_iter()
        .take(config.source_count(n))
        .collect();
    connectivity_from_sources(g, &sources, config)
}

/// Like [`sampled_connectivity`] but with an explicit source set — the
/// primitive used by the sampling-validation experiment, which compares
/// different source selections against the full analysis.
pub fn connectivity_from_sources(
    g: &DiGraph,
    sources: &[u32],
    config: &AnalysisConfig,
) -> SampledConnectivity {
    let n = g.node_count();
    if n <= 1 || sources.is_empty() {
        return SampledConnectivity::trivial(0, 0.0);
    }

    let global_min = AtomicU64::new(u64::MAX);
    let use_cutoff = config.use_cutoff;
    // One prototype evaluator; workers clone it, sharing the graph rows
    // behind an `Arc` and duplicating only their scratch (on the explicit
    // route: the residual network + workspace). Each worker then sweeps its
    // sources with zero per-pair allocation.
    let prototype = PairEvaluator::for_config(g, config);

    let sweep_source = |eval: &mut PairEvaluator, v: u32| -> (u64, u128, usize, usize) {
        // One span per source, not per pair: a pair flow is tens of
        // microseconds, the same order as opening and closing a span.
        let _span = kad_telemetry::span::span("source-sweep");
        let mut local_min = u64::MAX;
        let mut sum: u128 = 0;
        let mut count = 0usize;
        let mut zeros = 0usize;
        for w in 0..n as u32 {
            let cutoff = if use_cutoff {
                let current = global_min.load(Ordering::Relaxed);
                if current == u64::MAX {
                    None
                } else {
                    // Never cut off below 1: a cutoff of 0 would make every
                    // solver return 0 immediately once some pair is
                    // unreachable, corrupting the zero-pair count (and a
                    // flow of "at least 0" prunes nothing anyway). With the
                    // clamp, a returned 0 is always a genuine zero pair, so
                    // `zero_pairs` stays exact under cutoff pruning — only
                    // `avg` degrades.
                    Some(current.max(1))
                }
            } else {
                None
            };
            let Some(flow) = eval.connectivity(v, w, cutoff) else {
                continue; // adjacent or v == w
            };
            sum += flow as u128;
            count += 1;
            if flow == 0 {
                zeros += 1;
            }
            if flow < local_min {
                local_min = flow;
                global_min.fetch_min(flow, Ordering::Relaxed);
            }
        }
        (local_min, sum, count, zeros)
    };

    let partials: Vec<(u64, u128, usize, usize)> = if config.parallel {
        sources
            .par_iter()
            .map_init(|| prototype.clone(), |eval, &v| sweep_source(eval, v))
            .collect()
    } else {
        let mut eval = prototype.clone();
        sources
            .iter()
            .map(|&v| sweep_source(&mut eval, v))
            .collect()
    };

    let mut min = u64::MAX;
    let mut sum: u128 = 0;
    let mut pairs = 0usize;
    let mut zeros = 0usize;
    for (local_min, local_sum, local_count, local_zeros) in partials {
        min = min.min(local_min);
        sum += local_sum;
        pairs += local_count;
        zeros += local_zeros;
    }
    if pairs == 0 {
        // All evaluated pairs were adjacent (possible for tiny dense
        // graphs): fall back to the complete-graph convention.
        return SampledConnectivity::trivial((n - 1) as u64, (n - 1) as f64);
    }
    SampledConnectivity {
        min,
        // Under cutoff pruning the per-pair values are lower bounds, not
        // flows; no meaningful mean exists.
        avg: (!use_cutoff).then(|| sum as f64 / pairs as f64),
        pairs_evaluated: pairs,
        sources_used: sources.len(),
        zero_pairs: zeros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverKind;
    use flowgraph::generators::{
        bidirected_cycle, complete, cycle, gnp, paper_figure1, random_k_out_symmetric,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn empty_and_singleton() {
        let config = AnalysisConfig::default();
        assert_eq!(sampled_connectivity(&DiGraph::new(0), &config).min, 0);
        assert_eq!(sampled_connectivity(&DiGraph::new(1), &config).min, 0);
    }

    #[test]
    fn complete_graph_shortcut() {
        let config = AnalysisConfig::default();
        let r = sampled_connectivity(&complete(7), &config);
        assert_eq!(r.min, 6);
        assert_eq!(r.avg, Some(6.0));
        assert_eq!(r.pairs_evaluated, 0);
    }

    #[test]
    fn directed_cycle_has_connectivity_one() {
        let r = sampled_connectivity(&cycle(9), &AnalysisConfig::exact());
        assert_eq!(r.min, 1);
        assert_eq!(r.avg, Some(1.0));
        // 9 vertices, each with 1 out-edge: 9*8 ordered pairs minus 9 edges.
        assert_eq!(r.pairs_evaluated, 63);
    }

    #[test]
    fn figure1_graph_min_is_zero() {
        // Vertex i (index 8) has no outgoing edges, so flows from it are 0;
        // the exact sweep must find them.
        let r = sampled_connectivity(&paper_figure1(), &AnalysisConfig::exact());
        assert_eq!(r.min, 0);
        assert!(r.zero_pairs > 0);
    }

    #[test]
    fn smallest_out_degree_sources_find_figure1_minimum() {
        // Sampling with even a single smallest-out-degree source finds the
        // zero: vertex i has out-degree 0.
        let config = AnalysisConfig {
            sample_fraction: 0.02,
            min_sources: 1,
            ..AnalysisConfig::default()
        };
        let r = sampled_connectivity(&paper_figure1(), &config);
        assert_eq!(r.sources_used, 1);
        assert_eq!(r.min, 0);
    }

    #[test]
    fn sampled_min_upper_bounds_exact_min() {
        // Evaluating fewer pairs can only raise the observed minimum.
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10 {
            let g = gnp(24, 0.2, &mut rng);
            let exact = sampled_connectivity(&g, &AnalysisConfig::exact());
            let sampled = sampled_connectivity(
                &g,
                &AnalysisConfig {
                    min_sources: 3,
                    ..AnalysisConfig::default()
                },
            );
            assert!(sampled.min >= exact.min);
        }
    }

    #[test]
    fn paper_sampling_matches_exact_on_kademlia_like_graphs() {
        // The c-sampling validation of Section 5.2, miniaturized: symmetric
        // k-out graphs are the closest synthetic analogue of Kademlia
        // connectivity graphs.
        let mut rng = SmallRng::seed_from_u64(21);
        for trial in 0..5 {
            let g = random_k_out_symmetric(60, 4, &mut rng);
            let exact = sampled_connectivity(&g, &AnalysisConfig::exact());
            let sampled = sampled_connectivity(&g, &AnalysisConfig::default());
            assert_eq!(sampled.min, exact.min, "trial {trial}");
        }
    }

    #[test]
    fn cutoff_mode_preserves_minimum() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = gnp(20, 0.25, &mut rng);
            let full = sampled_connectivity(&g, &AnalysisConfig::exact());
            let cut = sampled_connectivity(
                &g,
                &AnalysisConfig {
                    sample_fraction: 1.0,
                    use_cutoff: true,
                    ..AnalysisConfig::default()
                },
            );
            assert_eq!(full.min, cut.min);
            assert!(full.avg.is_some(), "full flows record an average");
            assert!(cut.avg.is_none(), "pruned sweeps must not fake one");
        }
    }

    #[test]
    fn cutoff_mode_preserves_zero_pairs() {
        // Graphs with unreachable pairs drive the running minimum to 0;
        // the cutoff must clamp at 1 so only genuine zero-flow pairs are
        // counted (an unclamped cutoff of 0 would mark *every* remaining
        // pair as zero).
        let cutoff_config = AnalysisConfig {
            use_cutoff: true,
            ..AnalysisConfig::exact()
        };
        let exact = sampled_connectivity(&paper_figure1(), &AnalysisConfig::exact());
        let pruned = sampled_connectivity(&paper_figure1(), &cutoff_config);
        assert!(exact.zero_pairs > 0);
        assert_eq!(exact.zero_pairs, pruned.zero_pairs);
        assert_eq!(exact.pairs_evaluated, pruned.pairs_evaluated);
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..5 {
            // Sparse digraphs: plenty of unreachable ordered pairs.
            let g = gnp(16, 0.08, &mut rng);
            let exact = sampled_connectivity(&g, &AnalysisConfig::exact());
            let pruned = sampled_connectivity(&g, &cutoff_config);
            assert_eq!(exact.zero_pairs, pruned.zero_pairs);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = gnp(30, 0.2, &mut rng);
        let par = sampled_connectivity(
            &g,
            &AnalysisConfig {
                parallel: true,
                ..AnalysisConfig::exact()
            },
        );
        let ser = sampled_connectivity(
            &g,
            &AnalysisConfig {
                parallel: false,
                ..AnalysisConfig::exact()
            },
        );
        assert_eq!(par, ser);
    }

    #[test]
    fn solvers_agree_on_sampled_sweeps() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = gnp(18, 0.3, &mut rng);
        let mut results = Vec::new();
        for (solver, batched) in [
            (SolverKind::Dinic, true),
            (SolverKind::PushRelabel, true),
            (SolverKind::Dinic, false),
        ] {
            let config = AnalysisConfig {
                solver,
                batched,
                ..AnalysisConfig::exact()
            };
            results.push(sampled_connectivity(&g, &config));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn bidirected_cycle_avg_and_min() {
        let r = sampled_connectivity(&bidirected_cycle(10), &AnalysisConfig::exact());
        assert_eq!(r.min, 2);
        let avg = r.avg.expect("full flows, avg defined");
        assert!((avg - 2.0).abs() < 1e-12);
        assert_eq!(r.zero_pairs, 0);
    }

    #[test]
    fn explicit_sources_subset() {
        let g = cycle(6);
        let r = connectivity_from_sources(&g, &[0], &AnalysisConfig::default());
        assert_eq!(r.sources_used, 1);
        assert_eq!(r.pairs_evaluated, 4); // 5 targets minus 1 adjacent
        assert_eq!(r.min, 1);
    }
}
