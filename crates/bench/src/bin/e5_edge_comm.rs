//! **E5** — Theorem 2: deterministic `(2Δ−1)`-edge coloring in `O(n)`
//! bits and `O(1)` rounds, across `n` and `Δ` sweeps and the whole
//! partitioner family (taking the worst case over partitioners, as a
//! stand-in for the adversary).
//!
//! Each point is one `bichrome-runner` campaign with the partitioner
//! family on its adversary axis; the worst case is the max aggregate
//! of the protocol's pivot over every partitioner.

use bichrome_bench::Table;
use bichrome_graph::partition::Partitioner;
use bichrome_runner::{Campaign, GraphSpec, GroupBy};

fn main() {
    println!("E5: (2Δ−1)-edge coloring — communication & rounds (Theorem 2)\n");
    let mut t = Table::new(&[
        "Δ",
        "n",
        "m",
        "worst bits",
        "bits/n",
        "rounds",
        "trivial m·2logn",
    ]);
    for &delta in &[10usize, 16, 32] {
        for &n in &[256usize, 512, 1024, 2048] {
            let report = Campaign::new()
                .protocol_keys(["edge/theorem2"])
                .graphs([GraphSpec::GnmMaxDegree {
                    n,
                    m: n * delta / 3,
                    dmax: delta,
                }])
                .partitioners(Partitioner::family(7))
                .seeds([0])
                .run();
            assert!(
                report.all_valid(),
                "Theorem 2 must validate on every partition:\n{}",
                report.render_table()
            );
            let (_, worst) = report
                .group_by(GroupBy::Protocol)
                .pop()
                .expect("one protocol");
            // One seed: every partitioner splits the same graph.
            let m = report.cells[0].report.trials[0].m;
            t.row(&[
                &delta.to_string(),
                &n.to_string(),
                &m.to_string(),
                &format!("{:.0}", worst.total_bits.max),
                &format!("{:.1}", worst.total_bits.max / n as f64),
                &format!("{:.0}", worst.rounds.max),
                &((m * 2 * (n as f64).log2().ceil() as usize) as u64).to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "\nClaim check: bits/n stays bounded as n and Δ grow (Theorem 2's \
         O(n), independent of m), rounds are a constant 3, and the cost sits \
         far below the trivial send-the-graph bound."
    );
}
