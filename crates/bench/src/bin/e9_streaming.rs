//! **E9** — the W-streaming picture of §6.4 / Corollary 1.2: prints
//! the space-vs-colors table and the two-party-simulation table whose
//! communication equals `passes × state` — the quantity Theorem 5
//! lower-bounds by `Ω(n)` — and asserts that every streamed and
//! simulated coloring validates.
//!
//! Driven by two campaigns: space via
//! `Campaign::new().protocols([WStreamingSpaceProbe::greedy(), ::chunked()]).graphs(gnm-specs).seeds([7])`
//! and the §6.4 reduction via
//! `Campaign::new().protocol_keys(["streaming/greedy-w"]).graphs(gnm-specs).partitioners([random(1)]).seeds([0])`.

use bichrome_bench::Table;
use bichrome_graph::partition::Partitioner;
use bichrome_runner::probes::WStreamingSpaceProbe;
use bichrome_runner::{Campaign, GraphSpec, Protocol};
use std::sync::Arc;

/// The (n, Δ) sweep of the historical table, as graph specs with
/// `m = nΔ/3`.
fn specs(points: &[(usize, usize)]) -> Vec<GraphSpec> {
    points
        .iter()
        .map(|&(n, delta)| GraphSpec::GnmMaxDegree {
            n,
            m: n * delta / 3,
            dmax: delta,
        })
        .collect()
}

fn main() {
    println!("E9: W-streaming edge coloring (§6.4, Corollary 1.2)\n");

    println!("Streaming algorithms: space vs colors");
    let space = Campaign::new()
        .protocols([
            Arc::new(WStreamingSpaceProbe::greedy()) as Arc<dyn Protocol>,
            Arc::new(WStreamingSpaceProbe::chunked()) as Arc<dyn Protocol>,
        ])
        .graphs(specs(&[(256, 16), (512, 32), (1024, 64)]))
        .seeds([7])
        .run();
    assert!(space.all_valid(), "streamed colorings must validate");
    let mut t = Table::new(&["graph", "algorithm", "colors", "state bits", "bits/n"]);
    for cell in &space.cells {
        let s = cell.summary();
        t.row(&[
            &cell.spec.to_string(),
            &cell.protocol,
            &format!("{:.0}", s.colors.mean),
            &format!("{:.0}", s.metric("state_bits").mean),
            &format!("{:.1}", s.metric("state_bits_per_vertex").mean),
        ]);
    }
    t.print();

    println!("\nTwo-party simulation (the §6.4 reduction): bits = passes × state");
    let sim = Campaign::new()
        .protocol_keys(["streaming/greedy-w"])
        .graphs(specs(&[(256, 16), (512, 32)]))
        .partitioners([Partitioner::Random(1)])
        .seeds([0])
        .run();
    assert!(sim.all_valid(), "weaker outputs must validate");
    let mut t = Table::new(&[
        "graph",
        "algorithm",
        "sim bits",
        "rounds",
        "valid weaker output",
    ]);
    for cell in &sim.cells {
        let s = cell.summary();
        t.row(&[
            &cell.spec.to_string(),
            "greedy (2Δ−1)",
            &format!("{:.0}", s.total_bits.mean),
            &format!("{:.0}", s.rounds.mean),
            if s.valid == s.trials { "yes" } else { "NO" },
        ]);
    }
    t.print();
    println!(
        "\nClaim check: a (2Δ−1)-coloring streaming algorithm's state is Θ(n) \
         bits and its two-party simulation transmits exactly that per pass; \
         Theorem 5's Ω(n) bound on the weaker problem therefore forces Ω(n) \
         streaming space (Corollary 1.2). The chunked algorithm dodges the \
         bound only by spending ω(Δ) colors."
    );
}
