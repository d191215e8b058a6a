//! **A1 (ablation)** — prints the iteration-budget table: why
//! `O(log log n)` Random-Color-Trial iterations before switching to
//! D1LC (the design choice behind Theorem 1) — leftover-set size,
//! total bits, and rounds of the full protocol across the budget
//! sweep — and asserts that the coloring is valid under every budget.
//!
//! Driven by the one-line campaign
//! `Campaign::new().protocol_labeled("iters=N", VertexTheorem1 { config }).graphs([near-regular(n=1024,d=16)]).seeds(0..3)` —
//! the budget sweep is a *labeled protocol axis* (same registry key,
//! different tuning), and the leftover `|Z|` arrives as the
//! `rct_remaining` metric the registry protocol now reports.
//!
//! Too few iterations leave a large `Z` for the (more expensive per
//! vertex) D1LC stage; too many buy nothing once `Z` is tiny but pay
//! worst-case rounds. The paper's budget sits at the knee.

use bichrome_bench::Table;
use bichrome_core::rct::{paper_iterations, RctConfig};
use bichrome_runner::registry::VertexTheorem1;
use bichrome_runner::{Campaign, GraphSpec, Protocol};
use std::sync::Arc;

fn main() {
    println!("A1: ablation — RCT iteration budget vs protocol cost\n");
    let n = 1024usize;
    let delta = 16usize;
    println!(
        "n = {n}, Δ = {delta}, paper budget = {} iterations\n",
        paper_iterations(n)
    );

    let budgets = [0usize, 1, 2, 4, 8, 16, 32, 64];
    let mut campaign = Campaign::new()
        .graphs([GraphSpec::NearRegular { n, d: delta }])
        .seeds(0..3);
    for &iters in &budgets {
        let config = RctConfig {
            iterations: Some(iters),
            early_exit: true,
        };
        campaign = campaign.protocol_labeled(
            format!("iters={iters}"),
            Arc::new(VertexTheorem1 { config }) as Arc<dyn Protocol>,
        );
    }
    let report = campaign.run();
    assert!(report.all_valid(), "valid under every budget");

    let mut t = Table::new(&[
        "iterations",
        "leftover |Z|",
        "total bits",
        "bits/n",
        "rounds",
    ]);
    for (cell, &iters) in report.cells.iter().zip(&budgets) {
        let s = cell.summary();
        t.row(&[
            &iters.to_string(),
            &format!("{:.0}", s.metric("rct_remaining").mean),
            &format!("{:.0}", s.total_bits.mean),
            &format!("{:.1}", s.bits_per_vertex.mean),
            &format!("{:.0}", s.rounds.mean),
        ]);
    }
    t.print();
    println!(
        "\nReading: with 0 iterations everything lands in D1LC (pure palette \
         sparsification — correct but with a log⁴n bit overhead); a few \
         iterations collapse |Z| geometrically; beyond the knee extra \
         iterations only add rounds. The paper's O(log log n) budget drives \
         |Z| below n/log⁴n so the D1LC stage costs o(n) bits."
    );
}
