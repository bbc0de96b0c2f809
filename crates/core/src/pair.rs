//! Pairwise vertex connectivity `κ(v, w)`.

use crate::AnalysisConfig;
use flowgraph::even::EvenNetwork;
use flowgraph::maxflow::{FlowWorkspace, PushRelabel};
use flowgraph::vertex_flow::VertexFlow;
use flowgraph::DiGraph;
use std::fmt;

/// Which exact max-flow route a [`PairEvaluator`] runs. Both return the
/// same `κ(v, w)` on every pair (property-tested); `Copy`, so per-worker
/// evaluators stay trivially `Clone`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Unit-capacity Dinic on the implicit Even network: the
    /// [`VertexFlow`] kernel every analysis preset runs (default).
    #[default]
    Dinic,
    /// HIPR-style highest-label push-relabel — the paper's solver — on the
    /// explicit [`EvenNetwork`]: the independent oracle and the
    /// `batched: false` route.
    PushRelabel,
}

impl SolverKind {
    /// Both solver kinds, for cross-checking tests.
    pub const ALL: [SolverKind; 2] = [SolverKind::Dinic, SolverKind::PushRelabel];
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SolverKind::Dinic => "dinic",
            SolverKind::PushRelabel => "push-relabel-hi",
        })
    }
}

/// Computes `κ(v, w)` for a single pair: the number of node-disjoint
/// `v -> w` paths, equivalently the size of a minimum `v`-`w` vertex cut.
///
/// Returns `None` when `v == w` or `(v, w)` is an edge (vertex connectivity
/// is undefined for adjacent pairs; the paper excludes them from Equation
/// 1's minimum).
///
/// This convenience function rebuilds the evaluator per call; use
/// [`PairEvaluator`] to amortize the construction over many pairs.
///
/// # Example
///
/// ```
/// use flowgraph::generators::paper_figure1;
/// use kad_resilience::pair::pair_connectivity;
/// use kad_resilience::SolverKind;
///
/// let g = paper_figure1();
/// assert_eq!(pair_connectivity(&g, 0, 8, SolverKind::Dinic), Some(1));
/// ```
pub fn pair_connectivity(g: &DiGraph, v: u32, w: u32, solver: SolverKind) -> Option<u64> {
    PairEvaluator::new(g, solver).connectivity(v, w, None)
}

/// What an evaluator runs its pair flows on.
#[derive(Clone)]
enum Engine {
    /// The unit-vertex kernel on the graph's CSR rows — no Even network.
    Kernel(VertexFlow),
    /// Push-relabel on the materialised Even network.
    Explicit {
        even: EvenNetwork,
        workspace: FlowWorkspace,
    },
}

/// Reusable evaluator: built once per graph, then many pairs with zero
/// per-pair allocation.
///
/// [`SolverKind::Dinic`] evaluators run [`VertexFlow`], the unit-capacity
/// Dinic kernel that works on the *implicit* Even network;
/// [`SolverKind::PushRelabel`] evaluators — which `batched: false` selects —
/// build the explicit [`EvenNetwork`] and run push-relabel on it. The two
/// routes return identical values (property-tested), so the explicit one
/// serves as the independent oracle.
///
/// Cloning is cheap and exact: the kernel's rows (or the explicit route's
/// graph) are shared behind an `Arc`, only the per-worker scratch — or the
/// residual network — is duplicated. Clones are how the parallel sweep
/// hands each rayon worker its own evaluator.
#[derive(Clone)]
pub struct PairEvaluator {
    engine: Engine,
}

impl PairEvaluator {
    /// Builds the evaluator for a graph: the unit-vertex kernel for Dinic,
    /// push-relabel on the explicit Even network otherwise.
    pub fn new(g: &DiGraph, solver: SolverKind) -> Self {
        let engine = match solver {
            SolverKind::Dinic => Engine::Kernel(VertexFlow::new(g)),
            SolverKind::PushRelabel => {
                let even = EvenNetwork::from_graph(g);
                let workspace = FlowWorkspace::for_network(even.network());
                Engine::Explicit { even, workspace }
            }
        };
        PairEvaluator { engine }
    }

    /// Builds the evaluator an analysis configuration asks for: the kernel,
    /// or the push-relabel oracle when `config.batched` is off.
    pub fn for_config(g: &DiGraph, config: &AnalysisConfig) -> Self {
        let solver = if config.batched {
            SolverKind::Dinic
        } else {
            SolverKind::PushRelabel
        };
        Self::new(g, solver)
    }

    /// The solver this evaluator runs.
    pub fn solver(&self) -> SolverKind {
        match self.engine {
            Engine::Kernel(_) => SolverKind::Dinic,
            Engine::Explicit { .. } => SolverKind::PushRelabel,
        }
    }

    /// `κ(v, w)`, or `None` for adjacent/equal pairs. With a cutoff the
    /// result may be any certified lower bound `>= cutoff`.
    pub fn connectivity(&mut self, v: u32, w: u32, cutoff: Option<u64>) -> Option<u64> {
        match &mut self.engine {
            Engine::Kernel(kernel) => kernel.connectivity(v, w, cutoff),
            Engine::Explicit { even, workspace } => {
                even.vertex_connectivity_with(&PushRelabel::new(), v, w, cutoff, workspace)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::generators::{bidirected_cycle, complete, paper_figure1};

    #[test]
    fn figure1_pair() {
        let g = paper_figure1();
        for kind in SolverKind::ALL {
            assert_eq!(pair_connectivity(&g, 0, 8, kind), Some(1), "{kind}");
        }
    }

    #[test]
    fn adjacent_pairs_undefined() {
        let g = paper_figure1();
        assert_eq!(pair_connectivity(&g, 0, 1, SolverKind::Dinic), None);
        assert_eq!(pair_connectivity(&g, 3, 3, SolverKind::Dinic), None);
    }

    #[test]
    fn complete_graph_all_adjacent() {
        let g = complete(5);
        for v in 0..5 {
            for w in 0..5 {
                assert_eq!(pair_connectivity(&g, v, w, SolverKind::Dinic), None);
            }
        }
    }

    #[test]
    fn evaluator_reuse_matches_one_shot() {
        let g = bidirected_cycle(10);
        let mut eval = PairEvaluator::new(&g, SolverKind::Dinic);
        for v in 0..10u32 {
            for w in 0..10u32 {
                assert_eq!(
                    eval.connectivity(v, w, None),
                    pair_connectivity(&g, v, w, SolverKind::Dinic),
                    "pair ({v},{w})"
                );
            }
        }
    }

    #[test]
    fn cutoff_certifies_lower_bound() {
        let g = bidirected_cycle(12);
        let mut eval = PairEvaluator::new(&g, SolverKind::Dinic);
        let bounded = eval.connectivity(0, 6, Some(1)).expect("non-adjacent");
        assert!(bounded >= 1);
        let exact = eval.connectivity(0, 6, None).expect("non-adjacent");
        assert_eq!(exact, 2);
    }

    /// The kernel is the route every preset takes; only an explicit opt-out
    /// or the push-relabel oracle builds the Even network.
    #[test]
    fn for_config_picks_the_kernel_unless_opted_out() {
        let g = bidirected_cycle(6);
        let engine = |config: AnalysisConfig| PairEvaluator::for_config(&g, &config).engine;
        for (name, config) in [
            ("default", AnalysisConfig::default()),
            ("exact", AnalysisConfig::exact()),
            ("paper_sampled", AnalysisConfig::paper_sampled()),
            ("min_only", AnalysisConfig::min_only()),
        ] {
            assert!(
                matches!(engine(config), Engine::Kernel(_)),
                "{name} must run the kernel"
            );
        }
        let per_pair = AnalysisConfig {
            batched: false,
            ..AnalysisConfig::default()
        };
        assert!(matches!(engine(per_pair), Engine::Explicit { .. }));
        let oracle = PairEvaluator::for_config(&g, &per_pair);
        assert_eq!(oracle.solver(), SolverKind::PushRelabel);
        let push_relabel = PairEvaluator::new(&g, SolverKind::PushRelabel).engine;
        assert!(matches!(push_relabel, Engine::Explicit { .. }));
    }

    #[test]
    fn clone_preserves_solver() {
        let g = bidirected_cycle(6);
        let eval = PairEvaluator::new(&g, SolverKind::PushRelabel);
        let mut cloned = eval.clone();
        assert_eq!(cloned.solver(), SolverKind::PushRelabel);
        assert_eq!(cloned.connectivity(0, 3, None), Some(2));
    }

    #[test]
    fn clone_mid_sweep_is_independent() {
        // Cloning after some pairs have run must not leak residual state:
        // the clone and the original agree with a fresh evaluator on every
        // remaining pair.
        let g = bidirected_cycle(8);
        let mut eval = PairEvaluator::new(&g, SolverKind::Dinic);
        for w in 2..6u32 {
            eval.connectivity(0, w, None);
        }
        let mut cloned = eval.clone();
        let mut fresh = PairEvaluator::new(&g, SolverKind::Dinic);
        for v in 0..8u32 {
            for w in 0..8u32 {
                let expected = fresh.connectivity(v, w, None);
                assert_eq!(eval.connectivity(v, w, None), expected, "orig ({v},{w})");
                assert_eq!(cloned.connectivity(v, w, None), expected, "clone ({v},{w})");
            }
        }
    }

    #[test]
    fn display_matches_solver_names() {
        assert_eq!(SolverKind::Dinic.to_string(), "dinic");
        assert_eq!(SolverKind::PushRelabel.to_string(), "push-relabel-hi");
    }

    #[test]
    fn default_is_dinic() {
        assert_eq!(SolverKind::default(), SolverKind::Dinic);
    }

    #[test]
    fn kinds_are_trivially_copyable() {
        let kind = SolverKind::PushRelabel;
        let copy = kind;
        assert_eq!(kind, copy);
    }
}
