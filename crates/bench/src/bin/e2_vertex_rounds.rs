//! **E2** — Theorem 1's round complexity versus the baselines: ours is
//! `O(log log n · log Δ)`, Flin–Mittal is `Θ(n)`, and the
//! deterministic greedy+binary-search is `Θ(n log Δ)`.
//!
//! Two sweeps: rounds vs `n` at fixed Δ (the headline), and rounds vs
//! `Δ` at fixed `n`. Each point is one three-protocol
//! `bichrome-runner` campaign, so all three run on identical
//! instances.

use bichrome_bench::Table;
use bichrome_runner::{Campaign, GraphSpec};

/// Mean rounds of ours, Flin–Mittal and greedy+binary-search on
/// near-regular graphs over `reps` seeds.
fn rounds_for(n: usize, d: usize, reps: u64) -> (f64, f64, f64) {
    let report = Campaign::new()
        .protocol_keys([
            "vertex/theorem1",
            "baseline/flin-mittal",
            "baseline/greedy-binary-search",
        ])
        .graphs([GraphSpec::NearRegular { n, d }])
        .seeds(0..reps)
        .run();
    assert!(report.all_valid(), "{}", report.render_table());
    // One graph and the default partitioner: one cell per protocol,
    // in axis order.
    let mean = |i: usize| report.cells[i].summary().rounds.mean;
    (mean(0), mean(1), mean(2))
}

fn main() {
    println!("E2: (Δ+1)-vertex coloring — rounds (Theorem 1 vs baselines)\n");
    println!("Sweep 1: rounds vs n at Δ = 16");
    let mut t = Table::new(&["n", "ours", "flin-mittal", "greedy-binsearch", "FM/ours"]);
    for &n in &[128usize, 256, 512, 1024, 2048] {
        let (ours, fm, gbs) = rounds_for(n, 16, 2);
        t.row(&[
            &n.to_string(),
            &format!("{ours:.0}"),
            &format!("{fm:.0}"),
            &format!("{gbs:.0}"),
            &format!("{:.1}x", fm / ours),
        ]);
    }
    t.print();

    println!("\nSweep 2: rounds vs Δ at n = 512");
    let mut t = Table::new(&["Δ", "ours", "flin-mittal", "greedy-binsearch"]);
    for &delta in &[4usize, 8, 16, 32, 64] {
        let (ours, fm, gbs) = rounds_for(512, delta, 2);
        t.row(&[
            &delta.to_string(),
            &format!("{ours:.0}"),
            &format!("{fm:.0}"),
            &format!("{gbs:.0}"),
        ]);
    }
    t.print();
    println!(
        "\nClaim check: baseline rounds grow linearly with n while ours grow \
         only with log log n · log Δ — the FM/ours ratio widens with n."
    );
}
