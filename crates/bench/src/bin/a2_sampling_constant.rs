//! **A2 (ablation)** — prints the sampling-constant table:
//! Algorithm 3's constant (the `150` in `p = min(1, 150·m/k̃²)`),
//! swept against slack-int cost, asserting that every constant still
//! finds a free element.
//!
//! Driven by one campaign per slack:
//! `Campaign::new().protocols(cs.map(|c| SlackIntProbe::with_constant(m, k, c))).graphs([empty(n=1)]).seeds(0..25)` —
//! the constant sweep is the protocol axis.
//!
//! A small constant makes samples too thin, so the deficit certificate
//! `|S∩X| + |S∩Y| < |S|` keeps failing and the guess loop burns
//! rounds; a huge constant inflates the sample and the binary search
//! inside it. The paper's 150 guarantees a constant per-guess success
//! probability (Markov on the sampled occupancy); the sweep shows the
//! measured trade-off around it.

use bichrome_bench::Table;
use bichrome_runner::probes::{unit_graph, SlackIntProbe};
use bichrome_runner::{Campaign, Protocol};
use std::sync::Arc;

fn main() {
    println!("A2: ablation — Algorithm 3's sampling constant\n");
    let m = 4096usize;
    let constants = [2.0f64, 10.0, 50.0, 150.0, 600.0, 2400.0];
    for &k in &[64usize, 4] {
        println!("universe m = {m}, slack k = {k}:");
        let report = Campaign::new()
            .protocols(
                constants
                    .iter()
                    .map(|&c| Arc::new(SlackIntProbe::with_constant(m, k, c)) as Arc<dyn Protocol>),
            )
            .graphs([unit_graph()])
            .seeds(0..25)
            .run();
        assert!(report.all_valid(), "must find a free element");
        let mut t = Table::new(&["constant C", "bits mean", "rounds mean"]);
        for (cell, &c) in report.cells.iter().zip(&constants) {
            let s = cell.summary();
            t.row(&[
                &format!("{c}"),
                &format!("{:.1}", s.total_bits.mean),
                &format!("{:.1}", s.rounds.mean),
            ]);
        }
        t.print();
        println!();
    }
    println!(
        "Reading: tiny constants save bits per probe but repeat probes \
         (rounds climb); very large constants certify immediately but pay a \
         larger in-sample binary search. The paper's C = 150 sits in the \
         flat region — any constant ≥ ~50 gives the same asymptotics, which \
         is why the analysis only needs 'sufficiently large'."
    );
}
