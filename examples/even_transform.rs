//! Figure 1 of the paper, replayed: Even's vertex-splitting transformation
//! turns vertex connectivity into max flow.
//!
//! The 9-vertex example graph has maximum *edge* flow 3 from `a` to `i`,
//! but vertex connectivity 1 — all three edge-disjoint paths squeeze
//! through vertex `e`. The transformed graph exposes that bottleneck to any
//! max-flow solver.
//!
//! ```text
//! cargo run --release --example even_transform
//! ```

use kademlia_resilience::flowgraph::even::{unit_flow_network, EvenNetwork};
use kademlia_resilience::flowgraph::generators::paper_figure1;
use kademlia_resilience::flowgraph::maxflow::{MaxFlow, PushRelabel};
use kademlia_resilience::flowgraph::vertex_flow::VertexFlow;

fn main() {
    let g = paper_figure1();
    let names = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];
    let (a, i) = (0u32, 8u32);

    println!(
        "Figure 1 example graph: {} vertices, {} edges",
        g.node_count(),
        g.edge_count()
    );
    for (u, v) in g.edges() {
        print!("{}→{} ", names[u as usize], names[v as usize]);
    }
    println!("\n");

    // (a) the original graph: maximum flow (edge connectivity) is 3.
    let mut unit = unit_flow_network(&g);
    let edge_flow = PushRelabel::new().max_flow(&mut unit, a, i, None);
    println!("max flow a→i in the original graph D:      {edge_flow}");

    // (b) the transformed graph: max flow equals vertex connectivity = 1.
    // Both flows run the HIPR-style push-relabel the authors ran.
    let mut even = EvenNetwork::from_graph(&g);
    let kappa = even
        .vertex_connectivity(&PushRelabel::new(), a, i, None)
        .expect("a and i are non-adjacent");
    println!("max flow a''→i' in the transformed D':     {kappa}");
    println!(
        "transformed sizes: {} vertices, {} arcs (paper: 2n and m+n)",
        even.network().node_count(),
        even.network().arc_count()
    );

    // The kernel runs the same flow on the implicit split network and reads
    // both Menger witnesses off it. Which vertex is the bottleneck?
    let mut kernel = VertexFlow::new(&g);
    assert_eq!(kernel.connectivity(a, i, None), Some(kappa));
    let cut = kernel.min_cut(a, i).expect("non-adjacent");
    let cut_names: Vec<&str> = cut.iter().map(|&v| names[v as usize]).collect();
    println!("minimum vertex cut: {{{}}}", cut_names.join(", "));

    // And the Menger witness: the single vertex-disjoint path.
    let paths = kernel.paths(a, i).expect("non-adjacent");
    for path in &paths {
        let p: Vec<&str> = path.iter().map(|&v| names[v as usize]).collect();
        println!("node-disjoint path: {}", p.join(" → "));
    }
    assert_eq!((cut.len(), paths.len()), (1, 1), "Figure 1: κ(a, i) = 1");
}
