//! **E4** — the `k-Slack-Int` cost curve (Lemma A.2 / Lemma 3.1):
//! prints the cost-vs-slack table — expected bits `O(log²((m+1)/k))`
//! and rounds `O(log((m+1)/k))` over a slack sweep at fixed universe
//! size.
//!
//! Driven by the one-line campaign
//! `Campaign::new().protocols(ks.map(SlackIntProbe::new)).graphs([empty(n=1)]).seeds(0..25)` —
//! the slack sweep is the protocol axis; the probe's verdict checks
//! every found element really is free.

use bichrome_bench::Table;
use bichrome_runner::probes::{unit_graph, SlackIntProbe};
use bichrome_runner::{Campaign, Protocol};
use std::sync::Arc;

fn main() {
    println!("E4: k-Slack-Int — cost vs slack (Lemma A.2)\n");
    let m = 1024usize;
    let slacks = [1023usize, 512, 256, 64, 16, 4, 1];

    let report = Campaign::new()
        .protocols(
            slacks
                .iter()
                .map(|&k| Arc::new(SlackIntProbe::new(m, k)) as Arc<dyn Protocol>),
        )
        .graphs([unit_graph()])
        .seeds(0..25)
        .run();
    assert!(
        report.all_valid(),
        "every found element must be outside both sets"
    );

    let mut t = Table::new(&[
        "k (slack)",
        "log²((m+1)/k)",
        "bits mean",
        "bits sd",
        "rounds mean",
    ]);
    for (cell, &k) in report.cells.iter().zip(&slacks) {
        let s = cell.summary();
        t.row(&[
            &k.to_string(),
            &format!("{:.1}", s.metric("predicted_bits_scale").mean),
            &format!("{:.1}", s.total_bits.mean),
            &format!("{:.1}", s.total_bits.stddev),
            &format!("{:.1}", s.rounds.mean),
        ]);
    }
    t.print();
    println!(
        "\nClaim check: measured bits track the log²((m+1)/k) column up to a \
         constant factor — tight instances (k = 1) cost polylog(m), loose \
         ones (k ≈ m) cost O(1)."
    );
}
