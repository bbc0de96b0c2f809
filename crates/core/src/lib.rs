//! Vertex-connectivity and resilience analysis of Kademlia networks — the
//! primary contribution of *Evaluating Connection Resilience for the
//! Overlay Network Kademlia* (Heck, Kieselmann, Wacker, 2017).
//!
//! Given a routing-table snapshot of a running overlay (or any directed
//! graph), this crate computes:
//!
//! * `κ(v, w)` for vertex pairs ([`pair`]) via Even's transformation and a
//!   max-flow solver (by default the unit-vertex kernel, which runs Dinic
//!   on the transformed network without building it),
//! * every graph-level κ ([`kappa`]) from one source sweep and one
//!   trivial-graph rule: the connectivity report of the paper's full
//!   analysis or its `c = 0.02` sample ([`analyze_graph`]), the exact
//!   `κ(D)` ([`kappa::exact_min`]) and the stratified estimate of the mean
//!   for large overlays ([`sampled_kappa`]),
//! * the resilience arithmetic of Equation 2 ([`resilience`],
//!   [`ConnectivityReport::resilience`]), and one-shot attack simulations
//!   that empirically validate it ([`attack`]), plus the min-cut scout the
//!   live campaign grid's attacker uses ([`attack::probe_smallest_cut`]).
//!
//! The per-pair flow computations parallelize with rayon — the stand-in for
//! the 24-node Opteron cluster the authors used.
//!
//! # Example
//!
//! ```
//! use flowgraph::generators::bidirected_cycle;
//! use kad_resilience::kappa::exact_min;
//!
//! // A bidirected ring: every non-adjacent pair is joined by exactly two
//! // vertex-disjoint paths (clockwise and counter-clockwise).
//! let kappa = exact_min(&bidirected_cycle(8));
//! assert_eq!(kappa, 2);
//! // An attacker must compromise 2 nodes to cut the ring: resilience r=1.
//! assert_eq!(kad_resilience::resilience::resilience_from_connectivity(kappa), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod kappa;
pub mod pair;
pub mod report;
pub mod resilience;

pub use kappa::{
    analyze_graph, analyze_snapshot, sampled_kappa, snapshot_to_digraph, KappaEstimate,
    SampledKappaConfig,
};
pub use pair::SolverKind;
pub use report::ConnectivityReport;

/// How [`analyze_graph`] measures the connectivity of a graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalysisConfig {
    /// Fraction `c` of vertices (smallest out-degree first) used as flow
    /// sources; `1.0` reproduces the full `n(n−1)` analysis. The paper
    /// found `c = 0.02` sufficient on every graph it validated.
    pub sample_fraction: f64,
    /// Always evaluate at least this many source vertices, so tiny graphs
    /// are analysed exactly. (`0.02 · 250 = 5` sources is the paper's small
    /// network; for 50-node test graphs a bare `c·n = 1` would be far too
    /// coarse.)
    pub min_sources: usize,
    /// Use the current running minimum as a max-flow cutoff (clamped to at
    /// least 1). Roughly an order of magnitude faster, but the per-pair
    /// values become lower bounds, so the *average* connectivity is no
    /// longer meaningful — the minimum and the zero-pair count stay exact.
    /// The paper computed full flows (no cutoff); kadbench's
    /// `flowgraph.cutoff_flow_us_p50` against `flowgraph.full_flow_us_p50`
    /// quantifies the trade-off.
    pub use_cutoff: bool,
    /// Run the pair flows on the unit-vertex kernel
    /// (`flowgraph::vertex_flow::VertexFlow`): unit-capacity Dinic on the
    /// implicit Even network, straight over the graph's CSR rows, with one
    /// sink-rooted BFS per phase (it labels residual distances to the sink
    /// and stops at the source) and a `min(outdeg, indeg)` early exit. Values are exact either way — this
    /// is purely a speed lever, enabled by default. `false` runs the
    /// push-relabel oracle on the explicit Even network instead: the
    /// measurement baseline and an independent check.
    pub batched: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            sample_fraction: 0.02,
            min_sources: 8,
            use_cutoff: false,
            batched: true,
        }
    }
}

impl AnalysisConfig {
    /// A configuration that evaluates every source (the full `n(n−1)` pair
    /// analysis of Section 4.4).
    pub fn exact() -> Self {
        AnalysisConfig {
            sample_fraction: 1.0,
            ..AnalysisConfig::default()
        }
    }

    /// The paper's production setting: `c = 0.02`, full flow values.
    pub fn paper_sampled() -> Self {
        AnalysisConfig::default()
    }

    /// Fast minimum-only configuration: the paper's c = 0.02 sources
    /// (§5.2) with cutoff pruning enabled.
    ///
    /// The minimum it reports is over the `max(⌈0.02·n⌉, 8)`
    /// lowest-out-degree sources only, so it is an *upper bound* on κ(D),
    /// the unsafe direction for Equation 2: on the bench-scale
    /// Simulation G snapshots (`sim_gh(Bench, false, 10, 3)`, seed 2) it
    /// reads 18 where κ(D) = 11. Use [`AnalysisConfig::exact`] when the
    /// value must be exact.
    pub fn min_only() -> Self {
        AnalysisConfig {
            use_cutoff: true,
            ..AnalysisConfig::default()
        }
    }

    /// Number of source vertices to evaluate for an `n`-vertex graph: at
    /// least one, at most `n`.
    pub fn source_count(&self, n: usize) -> usize {
        let by_fraction = (self.sample_fraction * n as f64).ceil() as usize;
        by_fraction.max(self.min_sources).max(1).min(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_count_respects_floor_and_cap() {
        let config = AnalysisConfig::default();
        assert_eq!(config.source_count(4), 4); // capped at n
        assert_eq!(config.source_count(100), 8); // floor of 8
        assert_eq!(config.source_count(1000), 20); // 2%
    }

    #[test]
    fn exact_config_uses_all_sources() {
        let config = AnalysisConfig::exact();
        assert_eq!(config.source_count(123), 123);
    }

    #[test]
    fn min_only_enables_cutoff() {
        assert!(AnalysisConfig::min_only().use_cutoff);
        assert!(!AnalysisConfig::paper_sampled().use_cutoff);
    }

    #[test]
    fn batched_engine_is_the_default() {
        assert!(AnalysisConfig::default().batched);
        assert!(AnalysisConfig::exact().batched);
        assert!(AnalysisConfig::min_only().batched);
    }
}
