//! `kappa-min-1k` and `kappa-paper-250`: the κ engine alone, on the
//! connectivity graph of a pinned-cell overlay; the simulator only builds
//! the input.
//!
//! * `kappa-min-1k` — one `analyze_graph(min_only())` on the n=1000 graph,
//!   exactly what `LiveKappaActor` calls below its sampling threshold: the
//!   cutoff path of the batched Dinic engine.
//! * `kappa-paper-250` — the paper's §4.4 computation at its small size:
//!   `analyze_graph(exact())` over all pairs with full flows, then five
//!   `analyze_graph(paper_sampled())` (c = 0.02, what every figure snapshot
//!   pays). No cutoff anywhere, so a cutoff-only trick gains nothing here.

use crate::harness::{Check, Measured, RunArgs};
use crate::machine;
use crate::probes;
use crate::sim;
use crate::spec::{self, Workload};
use crate::stats::{self, Fnv};
use crate::trace::{Tracer, TIMED};
use flowgraph::even::EvenNetwork;
use flowgraph::scc::strongly_connected_components;
use flowgraph::DiGraph;
use kad_resilience::pair::PairEvaluator;
use kad_resilience::{
    analyze_graph, sampled_kappa, snapshot_to_digraph, AnalysisConfig, ConnectivityReport,
    SampledKappaConfig, SolverKind,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Pairs the independent oracle re-computes: half from the
/// lowest-out-degree source (where the minimum lives), half anywhere.
const ORACLE_PAIRS: usize = 200;

/// Draws `count` distinct-endpoint, non-adjacent ordered pairs, the first
/// half sourced at the vertex of smallest out-degree.
fn draw_pairs(g: &DiGraph, rng: &mut SmallRng, count: usize) -> Vec<(u32, u32)> {
    let n = g.node_count() as u32;
    let weakest = g.vertices_by_out_degree()[0];
    let mut pairs = Vec::with_capacity(count);
    // Bounded: a near-complete graph may not have `count` such pairs.
    for attempt in 0..count * 50 {
        if pairs.len() == count {
            break;
        }
        let v = if pairs.len() < count / 2 && attempt < count * 25 {
            weakest
        } else {
            rng.random_range(0..n)
        };
        let w = rng.random_range(0..n);
        if v != w && !g.has_edge(v, w) {
            pairs.push((v, w));
        }
    }
    pairs
}

fn fold_report(h: &mut Fnv, report: &ConnectivityReport) {
    h.u64(report.node_count as u64);
    h.u64(report.edge_count as u64);
    h.u64(report.min_connectivity);
    h.u64(report.avg_connectivity.map_or(u64::MAX, f64::to_bits));
    h.u64(u64::from(report.strongly_connected));
    h.u64(report.disconnected_nodes as u64);
    h.u64(report.pairs_evaluated as u64);
    h.u64(report.sources_used as u64);
    h.u64(report.zero_pairs as u64);
}

/// Per-pair flow times through one evaluator, in microseconds.
fn time_pairs(eval: &mut PairEvaluator, pairs: &[(u32, u32)], cutoff: Option<u64>) -> Vec<f64> {
    pairs
        .iter()
        .map(|&(v, w)| {
            let start = Instant::now();
            black_box(eval.connectivity(v, w, cutoff));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Runs `kappa-min-1k` or `kappa-paper-250`.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Measured {
    let sizes = spec::sizes(args.workload, args.quick);
    let paper = args.workload == Workload::KappaPaper250;
    let mut m = Measured {
        lengths: vec![("nodes", sizes.nodes as u64)],
        ..Measured::default()
    };

    // Set-up: simulate the overlay to minute 80, snapshot it, build the
    // connectivity graph, pre-draw the oracle's pairs.
    let mut built = None;
    let mut graph_build_ms = Vec::new();
    for _ in 0..sizes.setup_reps {
        let start = Instant::now();
        let net = sim::build_overlay(sizes.nodes, args.seed);
        let snapshot = net.snapshot();
        let graph_start = Instant::now();
        let g = snapshot_to_digraph(&snapshot);
        graph_build_ms.push(graph_start.elapsed().as_secs_f64() * 1e3);
        let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x0c1e);
        let pairs = draw_pairs(&g, &mut rng, ORACLE_PAIRS);
        m.setup_s.push(start.elapsed().as_secs_f64());
        built = Some((g, pairs));
    }
    let (g, pairs) = built.expect("at least one set-up");

    // Timed phase.
    let mut reports: Vec<(ConnectivityReport, f64)> = Vec::new();
    let timed = tracer.open(TIMED);
    let timed_start = Instant::now();
    if paper {
        reports.push(tracer.span("kad_resilience.analyze_graph.exact", || {
            analyze_graph(&g, &AnalysisConfig::exact())
        }));
        for _ in 0..5 {
            reports.push(
                tracer.span("kad_resilience.analyze_graph.paper_sampled", || {
                    analyze_graph(&g, &AnalysisConfig::paper_sampled())
                }),
            );
        }
    } else {
        reports.push(tracer.span("kad_resilience.analyze_graph.min_only", || {
            analyze_graph(&g, &AnalysisConfig::min_only())
        }));
    }
    m.wall_s = timed_start.elapsed().as_secs_f64();
    tracer.close(timed);
    m.peak_rss_mb = machine::peak_rss_mb();

    let pair_flows: usize = reports.iter().map(|(r, _)| r.pairs_evaluated).sum();
    m.work_items = pair_flows as f64;
    m.unit_ms = reports
        .iter()
        .map(|(r, secs)| secs * 1e3 / r.pairs_evaluated.max(1) as f64)
        .collect();
    let main = reports[0].0.clone();
    let kappa_min = main.min_connectivity;

    let mut h = Fnv::default();
    for (report, _) in &reports {
        fold_report(&mut h, report);
    }
    m.digest = h.finish();
    m.counts = vec![
        ("nodes", main.node_count as u64),
        ("edges", main.edge_count as u64),
        ("kappa_min", kappa_min),
        ("pair_flows", pair_flows as u64),
        ("sources_used", main.sources_used as u64),
        ("zero_pairs", main.zero_pairs as u64),
    ];

    // Checks. κ ≤ min degree on a non-complete graph; every analysis of
    // the same graph agrees on the minimum; an independent solver never
    // finds a pair below it.
    m.checks.push(Check::new(
        "kappa_within_degree_bound",
        kappa_min <= g.min_degree() as u64 && main.strongly_connected,
        format!(
            "kappa_min {kappa_min}, min in/out-degree {}, strongly connected {}",
            g.min_degree(),
            main.strongly_connected
        ),
    ));
    let mut oracle = PairEvaluator::new(&g, SolverKind::PushRelabel);
    let mut oracle_us = Vec::with_capacity(pairs.len());
    let mut below = 0u64;
    for &(v, w) in &pairs {
        let start = Instant::now();
        let flow = oracle.connectivity(v, w, None);
        oracle_us.push(start.elapsed().as_secs_f64() * 1e6);
        below += u64::from(flow.is_some_and(|f| f < kappa_min));
    }
    m.checks.push(Check::new(
        "oracle_never_below_kappa_min",
        below == 0 && !pairs.is_empty(),
        format!(
            "{} push-relabel pairs, {below} below kappa_min {kappa_min}",
            pairs.len()
        ),
    ));
    if paper {
        let sampled = &reports[1].0;
        let repeats_agree = reports[1..].iter().all(|(r, _)| r == sampled);
        let per_pair = analyze_graph(
            &g,
            &AnalysisConfig {
                batched: false,
                ..AnalysisConfig::paper_sampled()
            },
        );
        m.checks.push(Check::new(
            "per_pair_engine_reproduces_sampled_report",
            &per_pair == sampled && repeats_agree,
            format!(
                "batched kappa_min {} avg {:?}; per-pair kappa_min {} avg {:?}",
                sampled.min_connectivity,
                sampled.avg_connectivity,
                per_pair.min_connectivity,
                per_pair.avg_connectivity
            ),
        ));
        m.checks.push(Check::new(
            "sampling_recovers_exact_minimum",
            sampled.min_connectivity == kappa_min,
            format!(
                "exact {kappa_min}, c=0.02 sample {}",
                sampled.min_connectivity
            ),
        ));
    }
    m.attempted = pair_flows as u64 + pairs.len() as u64;
    m.failed = below;
    m.check_pins(args, Some(kappa_min));

    if args.trace {
        let (_, main_secs) = reports[0];
        m.layer(
            "kad_resilience.graph_build_ms",
            stats::median(&graph_build_ms),
        );
        m.layer(
            "kad_resilience.sweep_ms_per_source",
            main_secs * 1e3 / main.sources_used.max(1) as f64,
        );
        m.layer("kad_resilience.pairs_evaluated", pair_flows as f64);
        if paper {
            let sampled_ms: Vec<f64> = reports[1..].iter().map(|(_, s)| s * 1e3).collect();
            m.layer(
                "kad_resilience.paper_sampled_ms",
                stats::median(&sampled_ms),
            );
        }
        let live = SampledKappaConfig {
            target_pairs: 256,
            ..SampledKappaConfig::default()
        };
        m.layer(
            "kad_resilience.estimator256_ms",
            probes::median_ms_of_three(|| {
                black_box(sampled_kappa(&g, &live));
            }),
        );
        m.layer(
            "flowgraph.even_transform_ms",
            probes::median_ms_of_three(|| {
                black_box(EvenNetwork::from_graph(&g).original_node_count());
            }),
        );
        m.layer(
            "flowgraph.scc_ms",
            probes::median_ms_of_three(|| {
                black_box(strongly_connected_components(&g).count);
            }),
        );
        let mut dinic = PairEvaluator::new(&g, SolverKind::Dinic);
        let full_us = time_pairs(&mut dinic, &pairs, None);
        let cutoff_us = time_pairs(&mut dinic, &pairs, Some(kappa_min.max(1)));
        m.layer("flowgraph.full_flow_us_p50", stats::median(&full_us));
        m.layer(
            "flowgraph.full_flow_us_p95",
            stats::percentile(&full_us, 0.95),
        );
        m.layer("flowgraph.cutoff_flow_us_p50", stats::median(&cutoff_us));
        m.layer("flowgraph.oracle_flow_us_p50", stats::median(&oracle_us));
    }
    m
}
