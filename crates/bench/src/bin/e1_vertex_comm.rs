//! **E1** — Theorem 1's communication cost: `O(n)` expected bits.
//!
//! Sweeps `n` at several fixed maximum degrees and reports total bits,
//! bits per vertex (which must stay flat as `n` grows — that is the
//! `O(n)` claim), and rounds. The Flin–Mittal baseline's bits are
//! shown alongside: both are `Θ(n)`, the difference is rounds (E2).
//!
//! The whole table is one `bichrome-runner` campaign: both protocols
//! × near-regular graphs at each Δ × each `n` × three seeds, so the
//! two protocols run on identical instances.

use bichrome_bench::Table;
use bichrome_runner::{Campaign, GraphSpec, Summary};

const DELTAS: [usize; 3] = [8, 16, 32];
const SIZES: [usize; 4] = [256, 512, 1024, 2048];

fn main() {
    println!("E1: (Δ+1)-vertex coloring — communication (Theorem 1)\n");
    let report = Campaign::new()
        .protocol_keys(["vertex/theorem1", "baseline/flin-mittal"])
        .graphs(DELTAS.map(|d| GraphSpec::NearRegular { n: SIZES[0], d }))
        .sizes(SIZES)
        .seeds(0..3)
        .run();
    assert!(
        report.all_valid(),
        "Theorem 1 and Flin–Mittal must validate:\n{}",
        report.render_table()
    );
    let summary = |key: &str, spec: GraphSpec| -> &Summary {
        report
            .cells
            .iter()
            .find(|c| c.protocol == key && c.spec == spec)
            .expect("every (protocol, graph) pair is a grid cell")
            .summary()
    };
    let mut table = Table::new(&[
        "Δ",
        "n",
        "ours bits",
        "ours bits/n",
        "FM bits",
        "FM bits/n",
        "ours rounds",
    ]);
    for d in DELTAS {
        for n in SIZES {
            let spec = GraphSpec::NearRegular { n, d };
            let ours = summary("vertex/theorem1", spec);
            let fm = summary("baseline/flin-mittal", spec);
            table.row(&[
                &d.to_string(),
                &n.to_string(),
                &format!("{:.0}", ours.total_bits.mean),
                &format!("{:.1}", ours.bits_per_vertex.mean),
                &format!("{:.0}", fm.total_bits.mean),
                &format!("{:.1}", fm.bits_per_vertex.mean),
                &format!("{:.0}", ours.rounds.mean),
            ]);
        }
    }
    table.print();
    println!(
        "\nClaim check: 'ours bits/n' stays bounded as n grows at fixed Δ \
         (expected O(n) bits, Theorem 1), matching Flin–Mittal's bit scale."
    );
}
