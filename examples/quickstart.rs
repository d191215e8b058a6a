//! Quickstart: color a random graph with both of the paper's
//! protocols through the unified runner API and print what they cost.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bichrome_graph::gen;
use bichrome_graph::partition::Partitioner;
use bichrome_runner::{registry, Campaign, GraphSpec, Instance};

fn main() {
    // An input graph: n = 300, m ≈ 1200, Δ capped at 12 — think of it
    // as a communication network whose links are logged at two sites.
    let g = gen::gnm_max_degree(300, 1200, 12, 7);
    println!("input: {g}");

    // The adversary splits the edges between Alice and Bob.
    let partition = Partitioner::Random(42).split(&g);
    println!(
        "partition: Alice holds {} edges, Bob {}",
        partition.alice().num_edges(),
        partition.bob().num_edges()
    );
    let inst = Instance::new("quickstart", partition, 1);

    // Every protocol hangs off the same registry; running one is
    // uniform regardless of which theorem it implements.
    let reg = registry();
    for key in [
        "vertex/theorem1",
        "edge/theorem2",
        "edge/theorem3-zero-comm",
    ] {
        let proto = reg.get(key).expect("registered");
        let out = proto.run(&inst);
        assert!(out.verdict.is_valid(), "{key} must validate");
        println!(
            "{key:<24}: {:>7} bits ({:.1} bits/vertex), {:>3} rounds, {} colors ≤ {:?}",
            out.stats.total_bits(),
            out.stats.total_bits() as f64 / inst.n() as f64,
            out.stats.rounds,
            out.artifact.colors_used(),
            out.palette_budget,
        );
    }

    // Repeated, seed-parallel trials are a one-cell campaign; the
    // report aggregates mean/stddev/percentiles and encodes to JSON.
    let report = Campaign::new()
        .protocol_keys(["vertex/theorem1"])
        .graphs([GraphSpec::GnmMaxDegree {
            n: 300,
            m: 1200,
            dmax: 12,
        }])
        .seeds(0..8)
        .run();
    assert!(report.all_valid(), "vertex/theorem1 must validate");
    println!(
        "\n8 seeded trials of vertex/theorem1:\n{}",
        report.render_table()
    );
    println!("JSON head: {}…", &report.to_json()[..72]);
}
