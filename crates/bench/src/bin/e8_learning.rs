//! **E8** — the learning reduction (§2.3): prints the recovery
//! table — Bob reconstructs Alice's n-bit
//! string from any `(Δ+1)`-coloring of the C4-gadget graph, so
//! protocols must pay Ω(n) bits.
//!
//! Driven by the one-line campaign
//! `Campaign::new().protocols(ns.map(LearningProbe::new)).graphs([empty(n=1)]).seeds(0..3)`;
//! the probe's verdict *is* the recovery check, so `all_valid()`
//! asserts recovery always succeeds.

use bichrome_bench::Table;
use bichrome_runner::probes::{unit_graph, LearningProbe};
use bichrome_runner::{Campaign, Protocol};
use std::sync::Arc;

fn main() {
    println!("E8: learning-problem reduction for (Δ+1)-vertex coloring (§2.3)\n");
    let sizes = [8usize, 16, 32, 64, 128, 256];

    let report = Campaign::new()
        .protocols(
            sizes
                .iter()
                .map(|&n| Arc::new(LearningProbe::new(n)) as Arc<dyn Protocol>),
        )
        .graphs([unit_graph()])
        .seeds(0..3)
        .run();
    assert!(report.all_valid(), "recovery must always succeed");

    let mut t = Table::new(&[
        "string bits n",
        "gadget vertices",
        "recovered ok",
        "protocol bits",
        "bits per learned bit",
    ]);
    for (cell, &n) in report.cells.iter().zip(&sizes) {
        let s = cell.summary();
        t.row(&[
            &n.to_string(),
            &format!("{:.0}", s.metric("gadget_vertices").mean),
            if s.valid == s.trials { "yes" } else { "NO" },
            &format!("{:.0}", s.total_bits.mean),
            &format!("{:.1}", s.metric("bits_per_learned_bit").mean),
        ]);
    }
    t.print();
    println!(
        "\nClaim check: recovery always succeeds — a correct protocol \
         necessarily transfers Alice's n bits to Bob, so its communication \
         is Ω(n) (Flin–Mittal's lower bound, reproduced constructively). \
         The measured bits grow linearly in n, matching Theorem 1's O(n) \
         upper bound from above."
    );
}
