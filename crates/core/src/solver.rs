//! Max-flow solver selection.
//!
//! [`SolverKind`] is the enum-dispatched [`flowgraph::maxflow::Solver`]:
//! `Copy`, statically dispatched in the per-pair inner loop,
//! and runnable against a caller-owned [`flowgraph::maxflow::FlowWorkspace`]
//! via [`flowgraph::maxflow::MaxFlow::max_flow_with`]. It replaced the old
//! `Box<dyn MaxFlow>` factory (and with it the name-string `Clone`
//! reconstruction the evaluator needed).

pub use flowgraph::maxflow::Solver as SolverKind;

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::maxflow::MaxFlow;

    #[test]
    fn display_matches_solver_names() {
        for kind in SolverKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
        }
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
