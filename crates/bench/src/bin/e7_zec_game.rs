//! **E7** — the lower-bound games of Section 6: prints the game
//! tables — Lemma 6.2's strategy bound, Lemma 6.4's
//! parallel-repetition decay, Lemma 6.1's transcript-guessing decay,
//! and the ZEC-NEW bound of §6.4.
//!
//! Driven by three campaigns over game probes — e.g.
//! `Campaign::new().protocols(ZecGameProbe::suite(200_000)).graphs([empty(n=1)]).seeds([11])` —
//! whose verdicts *are* the lemma bounds: a strategy beating
//! `11024/11025` would fail validation.

use bichrome_bench::Table;
use bichrome_lb::zec::ZEC_WIN_BOUND;
use bichrome_lb::zec_new::{HUB_POOL, ZEC_NEW_WIN_BOUND};
use bichrome_runner::probes::{
    unit_graph, BestResponseProbe, GuessingProbe, RepetitionProbe, ZecGameProbe, ZecNewProbe,
};
use bichrome_runner::{Campaign, Protocol};
use std::sync::Arc;

fn main() {
    println!("E7: zero-communication edge-coloring games (Section 6)\n");

    println!("Strategy win rates (Lemma 6.2 bound: 11024/11025 ≈ {ZEC_WIN_BOUND:.6}):");
    let mut protos = ZecGameProbe::suite(200_000);
    // The strongest deterministic play we can find: multi-start
    // best-response dynamics (exact per-input optimization).
    protos.push(Arc::new(BestResponseProbe::new(12, 10)) as Arc<dyn Protocol>);
    let strategies = Campaign::new()
        .protocols(protos)
        .graphs([unit_graph()])
        .seeds([11])
        .run();
    let mut t = Table::new(&["strategy", "evaluation", "win rate", "≤ bound?"]);
    for cell in &strategies.cells {
        let s = cell.summary();
        let eval = if s.metric("exact").mean == 1.0 {
            "exact 441 inputs"
        } else {
            "monte-carlo 2e5"
        };
        t.row(&[
            &cell.protocol,
            eval,
            &format!("{:.4}", s.metric("win_rate").mean),
            if s.valid == s.trials { "yes" } else { "NO" },
        ]);
    }
    t.print();
    assert!(
        strategies.all_valid(),
        "every strategy must respect Lemma 6.2"
    );

    println!("\nParallel repetition (Lemma 6.4): win-all of n instances");
    let repetition = Campaign::new()
        .protocols(
            [1usize, 2, 4, 8, 16, 32]
                .iter()
                .map(|&n| Arc::new(RepetitionProbe::new(n, 50_000)) as Arc<dyn Protocol>),
        )
        .graphs([unit_graph()])
        .seeds([3])
        .run();
    let mut t = Table::new(&["n instances", "win-all (empirical)", "v^n (prediction)"]);
    for cell in &repetition.cells {
        let s = cell.summary();
        t.row(&[
            &cell.protocol,
            &format!("{:.5}", s.metric("win_all").mean),
            &format!("{:.5}", s.metric("predicted").mean),
        ]);
    }
    t.print();

    println!("\nTranscript guessing (Lemma 6.1): success of a zero-communication");
    println!("simulation of a c-bit protocol");
    let guessing = Campaign::new()
        .protocols(
            [1u32, 2, 4, 6, 8]
                .iter()
                .map(|&c| Arc::new(GuessingProbe::new(c, 400_000)) as Arc<dyn Protocol>),
        )
        .graphs([unit_graph()])
        .seeds([5])
        .run();
    let mut t = Table::new(&["c bits", "success (empirical)", "4^-c (prediction)"]);
    for cell in &guessing.cells {
        let s = cell.summary();
        t.row(&[
            &cell.protocol,
            &format!("{:.6}", s.metric("success").mean),
            &format!("{:.6}", s.metric("predicted").mean),
        ]);
    }
    t.print();

    println!("\nZEC-NEW (§6.4, bound 33074/33075 ≈ {ZEC_NEW_WIN_BOUND:.6}), hub pool {HUB_POOL}:");
    let zec_new = Campaign::new()
        .protocols([Arc::new(ZecNewProbe::new(100_000)) as Arc<dyn Protocol>])
        .graphs([unit_graph()])
        .seeds([7])
        .run();
    assert!(zec_new.all_valid(), "ZEC-NEW must respect its bound");
    println!(
        "  shifted-labeling strategy: win rate {:.4} (guessing arm negligible)",
        zec_new.cells[0].summary().metric("win_rate").mean
    );

    println!(
        "\nClaim check: every strategy sits below the Lemma 6.2 bound, the \
         win-all rate decays like v^n = 2^-Ω(n), and transcript guessing \
         decays like 2^-Θ(c) — combining them yields Theorem 4's Ω(n)."
    );
}
