//! Max-flow solver ablation on Even-transformed Kademlia snapshots.
//!
//! The paper used HIPR (push-relabel); this bench quantifies why the
//! harness defaults to Dinic on unit-capacity vertex-connectivity
//! networks, what the early-cutoff optimization buys, and what the
//! caller-owned [`FlowWorkspace`] saves over allocating solver scratch per
//! flow computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowgraph::even::EvenNetwork;
use flowgraph::maxflow::{Dinic, FlowWorkspace, MaxFlow, PushRelabel, Solver};
use kad_bench::support::overlay_graph;
use std::hint::black_box;

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("even_pair_flow");
    group.sample_size(20);
    for &(n, k) in &[(60usize, 8usize), (150, 20)] {
        let g = overlay_graph(n, k, 7);
        // A non-adjacent pair with both endpoints present.
        let (mut v, mut w) = (0u32, 1u32);
        'outer: for a in 0..g.node_count() as u32 {
            for b in (0..g.node_count() as u32).rev() {
                if a != b && !g.has_edge(a, b) {
                    v = a;
                    w = b;
                    break 'outer;
                }
            }
        }
        let solvers: [(&str, &dyn MaxFlow); 2] = [
            ("dinic", &Dinic::new()),
            ("push-relabel", &PushRelabel::new()),
        ];
        for (name, solver) in solvers {
            // Fresh-workspace baseline: scratch allocated per computation
            // (the pre-refactor behaviour of `max_flow`).
            group.bench_with_input(
                BenchmarkId::new(name, format!("n{n}-k{k}")),
                &g,
                |bencher, g| {
                    let mut even = EvenNetwork::from_graph(g);
                    bencher.iter(|| black_box(even.vertex_connectivity(solver, v, w, None)));
                },
            );
            // Reused workspace: zero allocation per computation.
            group.bench_with_input(
                BenchmarkId::new(format!("{name}-workspace"), format!("n{n}-k{k}")),
                &g,
                |bencher, g| {
                    let mut even = EvenNetwork::from_graph(g);
                    let mut workspace = FlowWorkspace::for_network(even.network());
                    bencher.iter(|| {
                        black_box(even.vertex_connectivity_with(solver, v, w, None, &mut workspace))
                    });
                },
            );
        }
        // Enum dispatch sanity: `Solver` must cost the same as the direct
        // struct (static dispatch, no boxing).
        group.bench_with_input(
            BenchmarkId::new("dinic-enum", format!("n{n}-k{k}")),
            &g,
            |bencher, g| {
                let mut even = EvenNetwork::from_graph(g);
                let mut workspace = FlowWorkspace::for_network(even.network());
                let solver = Solver::Dinic;
                bencher.iter(|| {
                    black_box(even.vertex_connectivity_with(&solver, v, w, None, &mut workspace))
                });
            },
        );
        // Cutoff ablation: stop at flow >= k/2 (what the min-sweep does
        // once a small minimum is known).
        group.bench_with_input(
            BenchmarkId::new("dinic-cutoff", format!("n{n}-k{k}")),
            &g,
            |bencher, g| {
                let mut even = EvenNetwork::from_graph(g);
                let mut workspace = FlowWorkspace::for_network(even.network());
                bencher.iter(|| {
                    black_box(even.vertex_connectivity_with(
                        &Dinic::new(),
                        v,
                        w,
                        Some((k / 2) as u64),
                        &mut workspace,
                    ))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
