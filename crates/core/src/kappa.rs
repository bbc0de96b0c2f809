//! Vertex connectivity `κ(D)`: every κ value this crate publishes (paper,
//! Equation 1 and Sections 4.4 and 5.2).
//!
//! All of them come from one source sweep and one trivial-graph rule:
//!
//! * [`analyze_graph`] sweeps flows from the
//!   [`AnalysisConfig::source_count`] vertices of smallest out-degree to
//!   every other vertex and returns the [`ConnectivityReport`] every grid
//!   reads. [`AnalysisConfig::exact`] is the paper's full `n(n−1)` analysis
//!   of Section 4.4; [`AnalysisConfig::paper_sampled`] is its Section 5.2
//!   sample. Exploiting the near-undirectedness of Kademlia connectivity
//!   graphs, the paper computes flows only *from* the `c·n` vertices of
//!   smallest out-degree, whose out-degrees bound their outgoing flow;
//!   every vertex still appears as a target, so the limiting in-degrees
//!   are considered too. `c = 0.02` recovered the true minimum on all 20
//!   graphs the authors validated it on; the `sampling` experiment repeats
//!   that check.
//! * [`exact_min`] is `κ(D)` itself: the sweep over all sources, with the
//!   running minimum as the flow cutoff.
//! * [`sampled_kappa`] estimates the *mean* pairwise connectivity on a
//!   fixed pair budget for overlays too large to sweep; a pair population
//!   that fits the budget is the exhaustive sweep.
//!
//! The trivial-graph rule: a graph with at most one vertex has `κ = 0`, a
//! complete graph `κ = n − 1` (it has no non-adjacent pair to flow between),
//! and a graph that is not strongly connected `κ = 0` whatever its sampled
//! flows say.
//!
//! # Example
//!
//! ```
//! use flowgraph::generators::bidirected_cycle;
//! use kad_resilience::kappa::{analyze_graph, exact_min};
//! use kad_resilience::AnalysisConfig;
//!
//! // κ = 2, so one compromised node can never partition the ring.
//! let g = bidirected_cycle(8);
//! assert_eq!(exact_min(&g), 2);
//! assert_eq!(analyze_graph(&g, &AnalysisConfig::default()).resilience(), 1);
//! ```

use crate::pair::PairEvaluator;
use crate::report::ConnectivityReport;
use crate::{AnalysisConfig, SolverKind};
use flowgraph::scc::{is_strongly_connected, strongly_connected_components};
use flowgraph::DiGraph;
use kademlia::snapshot::RoutingSnapshot;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Converts a routing snapshot into its connectivity graph: one vertex per
/// alive node, a directed edge `(v, w)` iff `w` is in `v`'s routing table.
pub fn snapshot_to_digraph(snapshot: &RoutingSnapshot) -> DiGraph {
    DiGraph::from_edges(snapshot.node_count(), snapshot.edges().iter().copied())
}

/// [`analyze_graph`] on a snapshot's connectivity graph.
pub fn analyze_snapshot(snapshot: &RoutingSnapshot, config: &AnalysisConfig) -> ConnectivityReport {
    analyze_graph(&snapshot_to_digraph(snapshot), config)
}

/// `κ(D)`, exactly: [`analyze_graph`] over all sources with the cutoff on.
///
/// # Example
///
/// ```
/// use flowgraph::generators::{complete, cycle};
/// use kad_resilience::kappa::exact_min;
///
/// assert_eq!(exact_min(&complete(6)), 5);
/// assert_eq!(exact_min(&cycle(6)), 1);
/// ```
pub fn exact_min(g: &DiGraph) -> u64 {
    let config = AnalysisConfig {
        use_cutoff: true,
        ..AnalysisConfig::exact()
    };
    analyze_graph(g, &config).min_connectivity
}

/// Measures a connectivity graph: the source sweep `config` asks for, under
/// the trivial-graph rule of the [module docs](self).
///
/// The strong-connectivity pre-check sets the minimum to 0 even when the
/// sampled sources miss the culprit: stronger than the paper's heuristic,
/// never weaker. The average, pair and zero-pair counts are the sweep's.
///
/// # Example
///
/// ```
/// use flowgraph::generators::bidirected_cycle;
/// use kad_resilience::kappa::analyze_graph;
/// use kad_resilience::AnalysisConfig;
///
/// let report = analyze_graph(&bidirected_cycle(12), &AnalysisConfig::exact());
/// assert_eq!(report.min_connectivity, 2);
/// // Every pair has exactly 2 disjoint paths; full flows make avg exact.
/// assert_eq!(report.avg_connectivity, Some(2.0));
/// ```
pub fn analyze_graph(g: &DiGraph, config: &AnalysisConfig) -> ConnectivityReport {
    let n = g.node_count();
    let scc = strongly_connected_components(g);
    let strongly_connected = n <= 1 || scc.count == 1;
    let sweep = if n <= 1 {
        Sweep::pairless(0)
    } else if g.is_complete() {
        Sweep::pairless(n as u64 - 1)
    } else {
        let sources: Vec<u32> = g
            .vertices_by_out_degree()
            .into_iter()
            .take(config.source_count(n))
            .collect();
        sweep(g, &sources, config)
    };
    ConnectivityReport {
        node_count: n,
        edge_count: g.edge_count(),
        min_connectivity: if strongly_connected { sweep.min } else { 0 },
        avg_connectivity: sweep.avg,
        strongly_connected,
        disconnected_nodes: if strongly_connected {
            0
        } else {
            scc.outside_largest().len()
        },
        reciprocity: g.reciprocity(),
        pairs_evaluated: sweep.pairs,
        sources_used: sweep.sources,
        zero_pairs: sweep.zeros,
    }
}

/// What a source sweep found.
struct Sweep {
    /// Smallest flow over the evaluated pairs.
    min: u64,
    /// Mean flow, or `None` under cutoff pruning (see
    /// [`AnalysisConfig::use_cutoff`]): pruned per-pair values are lower
    /// bounds, so their mean certifies nothing.
    avg: Option<f64>,
    /// Non-adjacent pairs whose flow was computed.
    pairs: usize,
    /// Source vertices swept.
    sources: usize,
    /// Evaluated pairs with flow 0.
    zeros: usize,
}

impl Sweep {
    /// A graph without non-adjacent pairs: `κ` by definition, and exact.
    fn pairless(kappa: u64) -> Self {
        Sweep {
            min: kappa,
            avg: Some(kappa as f64),
            pairs: 0,
            sources: 0,
            zeros: 0,
        }
    }
}

/// Flows from every vertex of `sources` to every non-adjacent target, on
/// rayon workers. `g` must have a non-adjacent pair from the first source,
/// which holds for the smallest-out-degree vertex of a non-complete graph.
fn sweep(g: &DiGraph, sources: &[u32], config: &AnalysisConfig) -> Sweep {
    // One span for the whole sweep, on the calling thread: rayon workers
    // have no span collector, so a span opened on one would be lost.
    let _span = kad_telemetry::span::span("kappa-sweep");
    let n = g.node_count();
    let global_min = AtomicU64::new(u64::MAX);
    let use_cutoff = config.use_cutoff;
    // One prototype evaluator; workers clone it, sharing the graph rows
    // behind an `Arc` and duplicating only their scratch (on the explicit
    // route: the residual network + workspace). Each worker then sweeps its
    // sources with zero per-pair allocation.
    let prototype = PairEvaluator::for_config(g, config);

    let sweep_source = |eval: &mut PairEvaluator, v: u32| -> (u64, u128, usize, usize) {
        let mut local_min = u64::MAX;
        let mut sum: u128 = 0;
        let mut count = 0usize;
        let mut zeros = 0usize;
        for w in 0..n as u32 {
            // Never cut off below 1: a cutoff of 0 would make every solver
            // return 0 immediately once some pair is unreachable, corrupting
            // the zero-pair count (and a flow of "at least 0" prunes nothing
            // anyway). With the clamp, a returned 0 is always a genuine zero
            // pair, so `zeros` stays exact under cutoff pruning — only `avg`
            // degrades.
            let cutoff = if use_cutoff {
                let current = global_min.load(Ordering::Relaxed);
                (current != u64::MAX).then(|| current.max(1))
            } else {
                None
            };
            let Some(flow) = eval.connectivity(v, w, cutoff) else {
                continue; // adjacent or v == w
            };
            sum += u128::from(flow);
            count += 1;
            zeros += usize::from(flow == 0);
            if flow < local_min {
                local_min = flow;
                global_min.fetch_min(flow, Ordering::Relaxed);
            }
        }
        (local_min, sum, count, zeros)
    };

    let partials: Vec<(u64, u128, usize, usize)> = sources
        .par_iter()
        .map_init(|| prototype.clone(), |eval, &v| sweep_source(eval, v))
        .collect();
    let (mut min, mut sum, mut pairs, mut zeros) = (u64::MAX, 0u128, 0usize, 0usize);
    for (local_min, local_sum, local_count, local_zeros) in partials {
        min = min.min(local_min);
        sum += local_sum;
        pairs += local_count;
        zeros += local_zeros;
    }
    debug_assert!(pairs > 0, "the first source has a non-adjacent target");
    Sweep {
        min,
        avg: (!use_cutoff).then(|| sum as f64 / pairs as f64),
        pairs,
        sources: sources.len(),
        zeros,
    }
}

/// Configuration for [`sampled_kappa`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampledKappaConfig {
    /// Total pair budget. The estimator evaluates at most
    /// `target_pairs + 2·strata` flows, independent of `n` — the property
    /// that makes live per-minute estimation affordable at 1k–10k nodes.
    /// The slack is the floor of two pairs per stratum, which a budget
    /// smaller than that floor cannot pay for.
    pub target_pairs: usize,
    /// Number of out-degree quantile strata. Clamped to the vertex count.
    pub strata: usize,
    /// Two-sided confidence level of the interval, e.g. `0.95`.
    pub confidence: f64,
    /// Seed for the pair draw. Estimation is fully deterministic given
    /// `(graph, config)`.
    pub seed: u64,
}

impl Default for SampledKappaConfig {
    fn default() -> Self {
        SampledKappaConfig {
            target_pairs: 2_000,
            strata: 4,
            confidence: 0.95,
            seed: 0x5eed_cafe,
        }
    }
}

/// Result of a stratified sampled-κ estimation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KappaEstimate {
    /// Stratified estimate of the mean pairwise vertex connectivity.
    pub kappa_est: f64,
    /// Lower edge of the confidence interval (clamped at 0).
    pub ci_lo: f64,
    /// Upper edge of the confidence interval.
    pub ci_hi: f64,
    /// Confidence level the interval was built for.
    pub confidence: f64,
    /// Smallest connectivity among the evaluated pairs — an upper bound on
    /// the true `κ_min`. Exactly 0 (and exact) whenever the graph is not
    /// strongly connected.
    pub min_sampled: u64,
    /// Whether the strong-connectivity pre-check passed.
    pub strongly_connected: bool,
    /// Pairs whose flow was actually computed.
    pub pairs_sampled: usize,
    /// Non-empty strata used.
    pub strata_used: usize,
    /// `true` when every non-adjacent ordered pair was evaluated, making
    /// `kappa_est` the exact mean and the interval a point.
    pub exact: bool,
}

impl KappaEstimate {
    /// Whether `value` lies inside the confidence interval.
    pub fn brackets(&self, value: f64) -> bool {
        self.ci_lo <= value && value <= self.ci_hi
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation, absolute
/// error below 1.15e-9 — far inside what a sampling CI can resolve).
/// Implemented locally because the offline build environment carries no
/// statistics crate.
fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// Per-stratum accumulator: Welford over sampled flows.
#[derive(Clone, Copy, Default)]
struct StratumStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl StratumStats {
    fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Unbiased sample variance (0 below two samples).
    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }
}

/// One out-degree stratum: a contiguous run of the out-degree-sorted vertex
/// order, with per-vertex non-adjacent-target counts for weighted source
/// draws.
struct Stratum {
    /// Vertices in this stratum.
    vertices: Vec<u32>,
    /// Cumulative non-adjacent-pair counts over `vertices` (for weighted
    /// source selection); `cum.last()` is the stratum's pair population.
    cum: Vec<u64>,
}

impl Stratum {
    fn population(&self) -> u64 {
        self.cum.last().copied().unwrap_or(0)
    }

    /// Draws a source vertex with probability proportional to its number
    /// of non-adjacent targets.
    fn draw_source(&self, rng: &mut SmallRng) -> u32 {
        let ticket = rng.random_range(0..self.population());
        let idx = self.cum.partition_point(|&c| c <= ticket);
        self.vertices[idx]
    }
}

/// Estimates the mean pairwise vertex connectivity of `g` by stratified
/// pair sampling.
///
/// The paper's c-sampling still evaluates `c·n · (n−1)` pairs — quadratic
/// in `n`, which makes a per-minute κ feed unaffordable beyond a few
/// hundred nodes. This estimator draws a **fixed pair budget** of
/// non-adjacent ordered pairs instead, stratified by source out-degree
/// quantile: a source's out-degree caps every flow leaving it (the
/// observation behind the paper's smallest-out-degree sources), so the
/// strata separate the low-flow tail from the bulk and shrink the variance
/// well below simple random sampling at equal budget. It reports the
/// stratified mean (the paper's "Avg" curves) with a confidence interval.
///
/// The minimum cannot be bracketed by a mean-style CI, so it is reported
/// separately as [`KappaEstimate::min_sampled`]: an upper bound on the
/// true `κ_min`, exact whenever the strong-connectivity pre-check already
/// pins `κ_min = 0`.
///
/// When the pair population fits the budget, the estimate is
/// [`analyze_graph`]'s exhaustive sweep: every non-adjacent pair once, the
/// interval a point and [`KappaEstimate::exact`] set.
///
/// # Example
///
/// ```
/// use flowgraph::generators::bidirected_cycle;
/// use kad_resilience::kappa::{sampled_kappa, SampledKappaConfig};
///
/// let g = bidirected_cycle(16);
/// let est = sampled_kappa(&g, &SampledKappaConfig::default());
/// // 16 · 13 non-adjacent pairs fit the default budget: exact answer.
/// assert!(est.exact);
/// assert_eq!(est.kappa_est, 2.0);
/// assert!(est.brackets(2.0));
/// ```
pub fn sampled_kappa(g: &DiGraph, config: &SampledKappaConfig) -> KappaEstimate {
    let n = g.node_count();
    let confidence = config.confidence;
    // Per-vertex non-adjacent target counts. `DiGraph` stores simple edges,
    // so vertex v has exactly `n - 1 - out_degree(v)` non-adjacent targets.
    let targets = |v: u32| (n - 1 - g.out_degree(v)) as u64;
    let order = g.vertices_by_out_degree();
    let population: u64 = order.iter().map(|&v| targets(v)).sum();
    if population <= config.target_pairs as u64 {
        let report = analyze_graph(g, &AnalysisConfig::exact());
        let mean = report.avg_connectivity.expect("full flows keep the mean");
        return KappaEstimate {
            kappa_est: mean,
            ci_lo: mean,
            ci_hi: mean,
            confidence,
            min_sampled: report.min_connectivity,
            strongly_connected: report.strongly_connected,
            pairs_sampled: report.pairs_evaluated,
            strata_used: usize::from(report.pairs_evaluated > 0),
            exact: true,
        };
    }

    // Out-degree quantile strata: contiguous runs of the sorted order with
    // (near-)equal vertex counts, empty ones dropped.
    let strata_count = config.strata.clamp(1, n);
    let mut strata: Vec<Stratum> = Vec::with_capacity(strata_count);
    let chunk = n.div_ceil(strata_count);
    for vs in order.chunks(chunk) {
        let mut cum = Vec::with_capacity(vs.len());
        let mut acc = 0u64;
        for &v in vs {
            acc += targets(v);
            cum.push(acc);
        }
        if acc > 0 {
            strata.push(Stratum {
                vertices: vs.to_vec(),
                cum,
            });
        }
    }

    // Proportional allocation by largest remainder (so the allocations sum
    // to the full budget), then a floor of 2 per stratum (variance needs
    // two samples) — the floor can push the total slightly above the
    // budget for extremely skewed strata, never below.
    let budget = config.target_pairs as u64;
    let mut alloc: Vec<u64> = strata
        .iter()
        .map(|s| (budget * s.population()) / population)
        .collect();
    let assigned: u64 = alloc.iter().sum();
    let mut by_remainder: Vec<usize> = (0..strata.len()).collect();
    by_remainder.sort_by_key(|&i| {
        let rem = (budget * strata[i].population()) % population;
        (std::cmp::Reverse(rem), i)
    });
    for &i in by_remainder.iter().take((budget - assigned) as usize) {
        alloc[i] += 1;
    }
    for a in &mut alloc {
        *a = (*a).max(2);
    }

    let mut eval = PairEvaluator::new(g, SolverKind::Dinic);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut min_flow = u64::MAX;
    let mut sampled = 0usize;
    let mut stats: Vec<StratumStats> = vec![StratumStats::default(); strata.len()];
    for (stratum, (&n_h, stat)) in strata.iter().zip(alloc.iter().zip(stats.iter_mut())) {
        for _ in 0..n_h {
            let v = stratum.draw_source(&mut rng);
            // Rejection-sample a non-adjacent target. Expected tries are
            // n / (non-adjacent targets of v) — small for the sparse
            // graphs overlays produce, and termination is guaranteed
            // because v has at least one non-adjacent target (weighted
            // draw never selects a source with zero).
            let flow = loop {
                let w = rng.random_range(0..n as u32);
                if w == v {
                    continue;
                }
                if let Some(flow) = eval.connectivity(v, w, None) {
                    break flow;
                }
            };
            stat.record(flow as f64);
            min_flow = min_flow.min(flow);
            sampled += 1;
        }
    }

    // Stratified mean and variance: est = Σ W_h·x̄_h with
    // Var(est) = Σ W_h²·(1 − n_h/N_h)·s_h²/n_h (finite-population
    // correction included — strata the budget nearly exhausts contribute
    // nearly nothing).
    let mut est = 0.0;
    let mut var = 0.0;
    for (stratum, stat) in strata.iter().zip(&stats) {
        let w_h = stratum.population() as f64 / population as f64;
        let n_h = stat.count as f64;
        let fpc = (1.0 - n_h / stratum.population() as f64).max(0.0);
        est += w_h * stat.mean;
        var += w_h * w_h * fpc * stat.variance() / n_h;
    }
    let z = normal_quantile(0.5 + confidence / 2.0);
    let half = z * var.sqrt();
    let strongly_connected = is_strongly_connected(g);
    KappaEstimate {
        kappa_est: est,
        ci_lo: (est - half).max(0.0),
        ci_hi: est + half,
        confidence,
        min_sampled: if strongly_connected { min_flow } else { 0 },
        strongly_connected,
        pairs_sampled: sampled,
        strata_used: strata.len(),
        exact: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dessim::latency::LatencyModel;
    use dessim::time::{SimDuration, SimTime};
    use dessim::transport::Transport;
    use flowgraph::generators::{
        bidirected_cycle, complete, cycle, gnp, paper_figure1, random_k_out_symmetric, star,
    };
    use kademlia::config::KademliaConfig;
    use kademlia::network::SimNetwork;

    fn exact_mean(g: &DiGraph) -> f64 {
        analyze_graph(g, &AnalysisConfig::exact())
            .avg_connectivity
            .expect("exact sweep defines the mean")
    }

    /// Two disjoint bidirected triangles: not strongly connected.
    fn two_triangles() -> DiGraph {
        DiGraph::from_edges(
            6,
            [
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 0),
                (0, 2),
                (3, 4),
                (4, 3),
                (4, 5),
                (5, 4),
                (5, 3),
                (3, 5),
            ],
        )
    }

    /// Every entry point applies the same rule to the graphs that need no
    /// flow: n ≤ 1 → 0, complete → n − 1, not strongly connected → 0.
    #[test]
    fn trivial_graph_rule() {
        for (name, g, kappa, strongly) in [
            ("empty", DiGraph::new(0), 0, true),
            ("singleton", DiGraph::new(1), 0, true),
            ("K2", DiGraph::from_edges(2, [(0, 1), (1, 0)]), 1, true),
            ("K7", complete(7), 6, true),
            ("two triangles", two_triangles(), 0, false),
        ] {
            let pairless = g.node_count() <= 1 || g.is_complete();
            for config in [
                AnalysisConfig::exact(),
                AnalysisConfig::paper_sampled(),
                AnalysisConfig::min_only(),
            ] {
                let report = analyze_graph(&g, &config);
                assert_eq!(report.min_connectivity, kappa, "{name}");
                assert_eq!(report.strongly_connected, strongly, "{name}");
                if pairless {
                    assert_eq!(report.avg_connectivity, Some(kappa as f64), "{name}");
                    assert_eq!((report.pairs_evaluated, report.sources_used), (0, 0));
                }
            }
            assert_eq!(exact_min(&g), kappa, "{name}");
            let est = sampled_kappa(&g, &SampledKappaConfig::default());
            assert!(est.exact, "{name}: fits any default budget");
            assert_eq!(est.min_sampled, kappa, "{name}");
            assert_eq!(est.strongly_connected, strongly, "{name}");
            if pairless {
                assert_eq!(est.kappa_est, kappa as f64, "{name}");
                assert_eq!((est.pairs_sampled, est.strata_used), (0, 0), "{name}");
            } else {
                assert!(est.brackets(exact_mean(&g)), "{name}");
            }
        }
    }

    #[test]
    fn exact_min_of_known_graphs() {
        assert_eq!(exact_min(&complete(4)), 3);
        assert_eq!(exact_min(&cycle(7)), 1);
        assert_eq!(exact_min(&bidirected_cycle(7)), 2);
        assert_eq!(exact_min(&paper_figure1()), 0);
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(exact_min(&DiGraph::new(0)), 0);
        assert_eq!(exact_min(&DiGraph::new(1)), 0);
        // Two mutually-linked vertices form a complete graph on 2 vertices.
        let g = DiGraph::from_edges(2, [(0, 1), (1, 0)]);
        assert_eq!(exact_min(&g), 1);
    }

    #[test]
    fn disconnected_graph_is_zero() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]);
        assert_eq!(exact_min(&g), 0);
    }

    #[test]
    fn exact_min_bounded_by_min_degree() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10 {
            let g = gnp(16, 0.4, &mut rng);
            if !g.is_complete() {
                assert!(exact_min(&g) <= g.min_degree() as u64);
            }
        }
    }

    #[test]
    fn adding_edges_never_decreases_connectivity() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut g = gnp(12, 0.25, &mut rng);
        let before = exact_min(&g);
        // Densify.
        for u in 0..12u32 {
            for v in 0..12u32 {
                if u != v && (u + v) % 3 == 0 {
                    g.add_edge(u, v);
                }
            }
        }
        let after = exact_min(&g);
        assert!(after >= before, "{after} < {before}");
    }

    #[test]
    fn empty_and_singleton() {
        let config = AnalysisConfig::default();
        assert_eq!(analyze_graph(&DiGraph::new(0), &config).min_connectivity, 0);
        assert_eq!(analyze_graph(&DiGraph::new(1), &config).min_connectivity, 0);
    }

    #[test]
    fn complete_graph_shortcut() {
        let r = analyze_graph(&complete(7), &AnalysisConfig::default());
        assert_eq!(r.min_connectivity, 6);
        assert_eq!(r.avg_connectivity, Some(6.0));
        assert_eq!(r.pairs_evaluated, 0);
    }

    #[test]
    fn analyze_ring() {
        let report = analyze_graph(&bidirected_cycle(10), &AnalysisConfig::exact());
        assert_eq!(report.min_connectivity, 2);
        assert_eq!(report.resilience(), 1);
        assert!(report.strongly_connected);
        assert_eq!(report.reciprocity, 1.0);
        assert_eq!(report.disconnected_nodes, 0);
    }

    #[test]
    fn bidirected_cycle_avg_and_min() {
        let r = analyze_graph(&bidirected_cycle(10), &AnalysisConfig::exact());
        assert_eq!(r.min_connectivity, 2);
        let avg = r.avg_connectivity.expect("full flows, avg defined");
        assert!((avg - 2.0).abs() < 1e-12);
        assert_eq!(r.zero_pairs, 0);
    }

    #[test]
    fn figure1_graph_min_is_zero() {
        // Vertex i (index 8) has no outgoing edges, so flows from it are 0;
        // the exact sweep must find them.
        let r = analyze_graph(&paper_figure1(), &AnalysisConfig::exact());
        assert_eq!(r.min_connectivity, 0);
        assert!(r.zero_pairs > 0);
    }

    #[test]
    fn zero_pairs_surfaced_from_sweep() {
        // Figure 1's graph has a sink vertex (i, index 8) with no outgoing
        // edges: every flow computed from it is 0, and the report must
        // carry that count through from the sweep.
        let g = paper_figure1();
        let all: Vec<u32> = (0..g.node_count() as u32).collect();
        let report = analyze_graph(&g, &AnalysisConfig::exact());
        let direct = sweep(&g, &all, &AnalysisConfig::exact());
        assert!(report.zero_pairs > 0);
        assert_eq!(report.zero_pairs, direct.zeros);
        // A strongly connected ring has no zero pairs.
        let ring = analyze_graph(&bidirected_cycle(10), &AnalysisConfig::exact());
        assert_eq!(ring.zero_pairs, 0);
    }

    #[test]
    fn explicit_sources_subset() {
        let r = sweep(&cycle(6), &[0], &AnalysisConfig::default());
        assert_eq!(r.sources, 1);
        assert_eq!(r.pairs, 4); // 5 targets minus 1 adjacent
        assert_eq!(r.min, 1);
    }

    #[test]
    fn sampled_min_upper_bounds_exact_min() {
        // Evaluating fewer pairs can only raise the observed minimum.
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10 {
            let g = gnp(24, 0.2, &mut rng);
            let exact = analyze_graph(&g, &AnalysisConfig::exact());
            let sampled = analyze_graph(
                &g,
                &AnalysisConfig {
                    min_sources: 3,
                    ..AnalysisConfig::default()
                },
            );
            assert!(sampled.min_connectivity >= exact.min_connectivity);
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
            let exact = analyze_graph(&g, &AnalysisConfig::exact());
            let sampled = analyze_graph(&g, &AnalysisConfig::default());
            assert_eq!(
                sampled.min_connectivity, exact.min_connectivity,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn sweep_span_does_not_depend_on_the_thread_budget() {
        let g = gnp(30, 0.2, &mut SmallRng::seed_from_u64(5));
        let span_calls = |budget: usize| {
            rayon::with_thread_budget(budget, || {
                kad_telemetry::span::install();
                analyze_graph(&g, &AnalysisConfig::exact());
                let profile = kad_telemetry::span::take().expect("installed above");
                profile
                    .iter()
                    .map(|(path, stats)| (path.to_owned(), stats.calls))
                    .collect::<Vec<_>>()
            })
        };
        let serial = span_calls(1);
        assert_eq!(serial, [("kappa-sweep".to_owned(), 1)]);
        assert_eq!(span_calls(2), serial);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = gnp(30, 0.2, &mut rng);
        let par = analyze_graph(&g, &AnalysisConfig::exact());
        let ser = rayon::with_thread_budget(1, || analyze_graph(&g, &AnalysisConfig::exact()));
        assert_eq!(par, ser);
    }

    #[test]
    fn solvers_agree_on_sampled_sweeps() {
        // A sampled sweep on the kernel, the same sweep on the push-relabel
        // oracle (`batched: false`), and the oracle pair by pair from the
        // same sources.
        let mut rng = SmallRng::seed_from_u64(17);
        let g = gnp(18, 0.3, &mut rng);
        let config = AnalysisConfig {
            min_sources: 4,
            ..AnalysisConfig::default()
        };
        let kernel = analyze_graph(&g, &config);
        let explicit = analyze_graph(
            &g,
            &AnalysisConfig {
                batched: false,
                ..config
            },
        );
        assert_eq!(kernel, explicit);
        let mut oracle = PairEvaluator::new(&g, SolverKind::PushRelabel);
        let flows: Vec<u64> = g
            .vertices_by_out_degree()
            .into_iter()
            .take(config.source_count(18))
            .flat_map(|v| (0..18).map(move |w| (v, w)))
            .filter_map(|(v, w)| oracle.connectivity(v, w, None))
            .collect();
        assert_eq!(kernel.sources_used, 4);
        assert_eq!(kernel.pairs_evaluated, flows.len());
        assert_eq!(kernel.zero_pairs, flows.iter().filter(|&&f| f == 0).count());
        let mean = flows.iter().sum::<u64>() as f64 / flows.len() as f64;
        assert_eq!(kernel.avg_connectivity, Some(mean));
        if kernel.strongly_connected {
            assert_eq!(Some(kernel.min_connectivity), flows.iter().copied().min());
        }
    }

    #[test]
    fn directed_cycle_has_connectivity_one() {
        let r = analyze_graph(&cycle(9), &AnalysisConfig::exact());
        assert_eq!(r.min_connectivity, 1);
        assert_eq!(r.avg_connectivity, Some(1.0));
        // 9 vertices, each with 1 out-edge: 9*8 ordered pairs minus 9 edges.
        assert_eq!(r.pairs_evaluated, 63);
    }

    #[test]
    fn scc_precheck_forces_zero() {
        // Figure 1's graph is a DAG-ish funnel: not strongly connected.
        let report = analyze_graph(&paper_figure1(), &AnalysisConfig::default());
        assert_eq!(report.min_connectivity, 0);
        assert!(!report.strongly_connected);
        assert!(report.disconnected_nodes > 0);
        // A bidirected 4-ring (out-degree 2) feeding a K5 that never links
        // back: the one lowest-out-degree source reaches every vertex, so
        // the sample sees no zero pair, yet κ = 0.
        let mut g = DiGraph::new(9);
        for v in 0..4 {
            g.add_edge(v, (v + 1) % 4);
            g.add_edge((v + 1) % 4, v);
        }
        for v in 4..9 {
            for w in 4..9 {
                if v != w {
                    g.add_edge(v, w);
                }
            }
        }
        g.add_edge(0, 4);
        let one_source = AnalysisConfig {
            min_sources: 1,
            ..AnalysisConfig::default()
        };
        let report = analyze_graph(&g, &one_source);
        assert_eq!((report.sources_used, report.zero_pairs), (1, 0));
        assert_eq!(report.min_connectivity, 0);
        assert_eq!(report.disconnected_nodes, 4);
    }

    #[test]
    fn smallest_out_degree_sources_find_figure1_minimum() {
        // Sampling with even a single smallest-out-degree source finds the
        // zero: vertex i (index 8) has out-degree 0, so every flow from it
        // is 0.
        let config = AnalysisConfig {
            sample_fraction: 0.02,
            min_sources: 1,
            ..AnalysisConfig::default()
        };
        let r = analyze_graph(&paper_figure1(), &config);
        assert_eq!(r.sources_used, 1);
        assert_eq!(r.pairs_evaluated, 8);
        assert_eq!(r.zero_pairs, 8);
    }

    #[test]
    fn cutoff_mode_preserves_minimum() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = gnp(20, 0.25, &mut rng);
            let full = analyze_graph(&g, &AnalysisConfig::exact());
            let cut = analyze_graph(
                &g,
                &AnalysisConfig {
                    use_cutoff: true,
                    ..AnalysisConfig::exact()
                },
            );
            assert_eq!(full.min_connectivity, cut.min_connectivity);
            assert!(
                full.avg_connectivity.is_some(),
                "full flows record an average"
            );
            assert!(
                cut.avg_connectivity.is_none(),
                "pruned sweeps must not fake one"
            );
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
        let exact = analyze_graph(&paper_figure1(), &AnalysisConfig::exact());
        let pruned = analyze_graph(&paper_figure1(), &cutoff_config);
        assert!(exact.zero_pairs > 0);
        assert_eq!(exact.zero_pairs, pruned.zero_pairs);
        assert_eq!(exact.pairs_evaluated, pruned.pairs_evaluated);
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..5 {
            // Sparse digraphs: plenty of unreachable ordered pairs.
            let g = gnp(16, 0.08, &mut rng);
            let exact = analyze_graph(&g, &AnalysisConfig::exact());
            let pruned = analyze_graph(&g, &cutoff_config);
            assert_eq!(exact.zero_pairs, pruned.zero_pairs);
        }
    }

    #[test]
    fn end_to_end_simulated_network() {
        let config = KademliaConfig::builder()
            .bits(32)
            .k(8)
            .staleness_limit(1)
            .build()
            .expect("valid");
        let transport = Transport::lossless(LatencyModel::Constant(SimDuration::from_millis(20)));
        let mut net = SimNetwork::new(config, transport, 7);
        let mut prev = None;
        for _ in 0..24 {
            let addr = net.spawn_node();
            net.join(addr, prev);
            prev = Some(addr);
            net.run_until(net.now() + SimDuration::from_secs(20));
        }
        net.run_until(SimTime::from_minutes(120));
        let snapshot = net.snapshot();
        let report = analyze_snapshot(&snapshot, &AnalysisConfig::exact());
        assert_eq!(report.node_count, 24);
        assert!(
            report.min_connectivity > 0,
            "a stabilized lossless network should be connected: {report}"
        );
        // With k=8 and only 24 nodes the graph is dense; connectivity
        // should be near k (paper: "the connectivity is roughly k").
        assert!(
            report.min_connectivity >= 4,
            "κ_min = {} too low",
            report.min_connectivity
        );
        assert!(report.reciprocity > 0.8, "tables should be near-symmetric");
    }

    #[test]
    fn snapshot_graph_shapes_match() {
        let config = KademliaConfig::builder()
            .bits(32)
            .k(4)
            .build()
            .expect("valid");
        let mut net = SimNetwork::new(config, Transport::default(), 3);
        let a = net.spawn_node();
        net.join(a, None);
        let b = net.spawn_node();
        net.join(b, Some(a));
        net.run_until(SimTime::from_secs(30));
        let snap = net.snapshot();
        let g = snapshot_to_digraph(&snap);
        assert_eq!(g.node_count(), snap.node_count());
        assert_eq!(g.edge_count(), snap.edge_count());
    }

    #[test]
    fn normal_quantile_matches_known_values() {
        // Classic two-sided z values.
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
        assert!((normal_quantile(0.995) - 2.575_829).abs() < 1e-5);
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.025) + 1.959_964).abs() < 1e-5);
        // Tail branch.
        assert!((normal_quantile(0.001) + 3.090_232).abs() < 1e-5);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let config = SampledKappaConfig::default();
        let e = sampled_kappa(&DiGraph::new(0), &config);
        assert_eq!((e.kappa_est, e.min_sampled, e.exact), (0.0, 0, true));
        let s = sampled_kappa(&DiGraph::new(1), &config);
        assert_eq!((s.kappa_est, s.min_sampled, s.exact), (0.0, 0, true));
    }

    #[test]
    fn complete_graph_is_trivially_exact() {
        let est = sampled_kappa(&complete(9), &SampledKappaConfig::default());
        assert!(est.exact);
        assert_eq!(est.kappa_est, 8.0);
        assert_eq!(est.min_sampled, 8);
        assert_eq!(est.pairs_sampled, 0);
    }

    #[test]
    fn disconnected_graph_reports_zero_min() {
        // Not strongly connected, so κ_min is exactly 0 regardless of
        // sampling.
        let g = two_triangles();
        let est = sampled_kappa(&g, &SampledKappaConfig::default());
        assert!(!est.strongly_connected);
        assert_eq!(est.min_sampled, 0);
        assert!(est.exact, "30 pairs fit any default budget");
        assert!(est.brackets(exact_mean(&g)));
    }

    #[test]
    fn star_graph_degenerate_case() {
        // A bidirected star: every leaf pair's connectivity is 1 (through
        // the hub); hub↔leaf pairs are adjacent and skipped.
        let g = star(8);
        let est = sampled_kappa(&g, &SampledKappaConfig::default());
        assert!(est.exact);
        assert_eq!(est.kappa_est, 1.0);
        assert_eq!(est.min_sampled, 1);
        assert!(est.strongly_connected);
    }

    #[test]
    fn directed_cycle_exact_at_small_n() {
        let g = cycle(10);
        let est = sampled_kappa(&g, &SampledKappaConfig::default());
        assert!(est.exact);
        assert_eq!(est.kappa_est, 1.0);
        assert_eq!(est.min_sampled, 1);
        assert_eq!(est.ci_lo, est.ci_hi);
        assert_eq!((est.pairs_sampled, est.strata_used), (80, 1));
    }

    #[test]
    fn small_population_matches_exact_sweep_exactly() {
        let mut rng = SmallRng::seed_from_u64(41);
        for _ in 0..8 {
            let g = gnp(18, 0.25, &mut rng);
            let est = sampled_kappa(&g, &SampledKappaConfig::default());
            assert!(est.exact, "18·17 pairs fit the default budget");
            let mean = exact_mean(&g);
            assert!((est.kappa_est - mean).abs() < 1e-9);
            assert!(est.brackets(mean));
        }
    }

    #[test]
    fn sampling_brackets_exact_on_kademlia_like_graphs() {
        // Force genuine sampling with a small budget on symmetric k-out
        // graphs (the closest synthetic analogue of Kademlia connectivity
        // graphs) and check the CI brackets the exact mean. Seeds are
        // fixed; at 99% nominal confidence all cells passing is the
        // expected outcome, not luck.
        let mut rng = SmallRng::seed_from_u64(77);
        for trial in 0..6 {
            let g = random_k_out_symmetric(48, 5, &mut rng);
            let config = SampledKappaConfig {
                target_pairs: 400,
                confidence: 0.99,
                seed: 1000 + trial,
                ..SampledKappaConfig::default()
            };
            let est = sampled_kappa(&g, &config);
            assert!(!est.exact, "budget 400 < 48·42ish pairs");
            assert!(est.pairs_sampled >= 400);
            let mean = exact_mean(&g);
            assert!(
                est.brackets(mean),
                "trial {trial}: CI [{}, {}] misses exact mean {mean}",
                est.ci_lo,
                est.ci_hi
            );
        }
    }

    #[test]
    fn estimation_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = random_k_out_symmetric(40, 4, &mut rng);
        let config = SampledKappaConfig {
            target_pairs: 300,
            ..SampledKappaConfig::default()
        };
        let a = sampled_kappa(&g, &config);
        let b = sampled_kappa(&g, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn min_sampled_upper_bounds_true_min() {
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..6 {
            let g = gnp(30, 0.3, &mut rng);
            let est = sampled_kappa(
                &g,
                &SampledKappaConfig {
                    target_pairs: 200,
                    ..SampledKappaConfig::default()
                },
            );
            assert!(est.min_sampled >= exact_min(&g));
        }
    }

    #[test]
    fn budget_caps_work_at_scale() {
        // The whole point: pairs evaluated stays near the budget even as
        // the population explodes.
        let mut rng = SmallRng::seed_from_u64(3);
        let g = random_k_out_symmetric(300, 8, &mut rng);
        let config = SampledKappaConfig {
            target_pairs: 500,
            ..SampledKappaConfig::default()
        };
        let est = sampled_kappa(&g, &config);
        assert!(!est.exact);
        assert!(est.pairs_sampled >= 500);
        assert!(
            est.pairs_sampled < 520,
            "floor-of-2 slack only: {}",
            est.pairs_sampled
        );
        assert!(est.strata_used >= 2);
    }

    #[test]
    fn pair_budget_bound_includes_the_stratum_floor() {
        // Each stratum draws at least two pairs, so a tiny budget is
        // overshot by up to `2·strata`; a large one is met exactly.
        let mut rng = SmallRng::seed_from_u64(3);
        let g = random_k_out_symmetric(200, 6, &mut rng);
        for target_pairs in [1, 3, 5, 256] {
            let config = SampledKappaConfig {
                target_pairs,
                ..SampledKappaConfig::default()
            };
            let est = sampled_kappa(&g, &config);
            assert!(!est.exact);
            assert!(
                est.pairs_sampled <= target_pairs + 2 * config.strata,
                "budget {target_pairs}: {} pairs",
                est.pairs_sampled
            );
            if target_pairs == 256 {
                assert_eq!(est.pairs_sampled, 256);
            }
        }
        let tiny = SampledKappaConfig {
            target_pairs: 1,
            ..SampledKappaConfig::default()
        };
        assert_eq!(sampled_kappa(&g, &tiny).pairs_sampled, 8, "2 per stratum");
    }
}
