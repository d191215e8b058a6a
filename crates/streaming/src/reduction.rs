//! The §6.4 reduction, executable: two parties jointly simulate a
//! W-streaming algorithm by streaming Alice's edges first, shipping
//! the algorithm's state across (`state` bits), then streaming Bob's
//! edges — one state transfer per pass.
//!
//! The simulation solves the **weaker**-(2Δ−1) problem: whichever
//! party is driving the stream when a color is emitted reports it.
//! Consequently an `s`-space, `r`-pass W-streaming algorithm yields an
//! `O(r·s)`-bit weaker-two-party protocol; since Theorem 5 proves
//! `Ω(n)` bits are necessary, every constant-pass `(2Δ−1)`-edge
//! W-streaming algorithm needs `Ω(n)` bits of space — Corollary 1.2.

use crate::model::WStreamingAlgorithm;
use crate::weaker::WeakerOutput;
use bichrome_comm::session::run_two_party_ctx;
use bichrome_comm::wire::{BitWriter, Message};
use bichrome_comm::{CommStats, Side};
use bichrome_graph::coloring::{ColorId, EdgeColoring};
use bichrome_graph::partition::EdgePartition;
use bichrome_graph::Edge;

/// Result of the streaming simulation.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Both parties' reported colors (weaker output discipline).
    pub output: WeakerOutput,
    /// Bits and rounds of the two-party simulation — `≈ passes ×
    /// state-size`, the quantity Corollary 1.2 lower-bounds.
    pub stats: CommStats,
}

/// Simulates the W-streaming algorithm produced by `make_alg` (called
/// once per party) on the stream "Alice's edges then Bob's edges".
///
/// Within each pass, Alice runs the algorithm over her edges,
/// exports its state and ships it (metered); Bob imports, continues
/// over his edges, and — if more passes remain — ships the state back.
pub fn simulate_streaming_two_party<A>(
    partition: &EdgePartition,
    make_alg: impl Fn() -> A + Send + Sync,
    seed: u64,
) -> SimulationOutcome
where
    A: WStreamingAlgorithm,
{
    let alice_edges = partition.alice().edges().to_vec();
    let bob_edges = partition.bob().edges().to_vec();
    let whole = partition.whole();
    let make_ref = &make_alg;

    let party = |side: Side| {
        let my_edges = if side == Side::Alice {
            alice_edges.clone()
        } else {
            bob_edges.clone()
        };
        move |ctx: bichrome_comm::session::PartyCtx| {
            let mut alg = make_ref();
            // A party may report any edge of the whole graph.
            let mut reported = EdgeColoring::dense_for(whole);
            let mut report = |outputs: Vec<(Edge, ColorId)>| {
                for (e, c) in outputs {
                    reported.set(e, c);
                }
            };
            let passes = alg.passes();
            for pass in 0..passes {
                match side {
                    Side::Alice => {
                        // Alice streams first. On later passes she first
                        // receives the state Bob finished the previous
                        // pass with.
                        if pass > 0 {
                            let state = ctx.endpoint.recv();
                            alg.import_state(&bits_to_bytes(&state));
                        }
                        alg.begin_pass(pass);
                        for &e in &my_edges {
                            report(alg.process_edge(e));
                        }
                        ctx.endpoint.send(bytes_to_bits(&alg.export_state()));
                    }
                    Side::Bob => {
                        if pass > 0 {
                            ctx.endpoint.send(bytes_to_bits(&alg.export_state()));
                        }
                        let state = ctx.endpoint.recv();
                        if pass == 0 {
                            alg.begin_pass(pass);
                        }
                        alg.import_state(&bits_to_bytes(&state));
                        for &e in &my_edges {
                            report(alg.process_edge(e));
                        }
                        report(alg.end_pass());
                    }
                }
            }
            reported
        }
    };

    let (alice, bob, stats) = run_two_party_ctx(seed, party(Side::Alice), party(Side::Bob));
    SimulationOutcome {
        output: WeakerOutput { alice, bob },
        stats,
    }
}

fn bytes_to_bits(bytes: &[u8]) -> Message {
    let mut w = BitWriter::new();
    for &b in bytes {
        w.write_uint(b as u64, 8);
    }
    w.finish()
}

fn bits_to_bytes(msg: &Message) -> Vec<u8> {
    let mut r = msg.reader();
    let mut out = Vec::with_capacity(msg.len_bits() / 8);
    while r.remaining() >= 8 {
        out.push(r.read_uint(8) as u8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{ChunkedWStreaming, GreedyWStreaming};
    use crate::weaker::validate_weaker_output;
    use bichrome_graph::coloring::validate_edge_coloring;
    use bichrome_graph::gen;
    use bichrome_graph::partition::Partitioner;

    #[test]
    fn greedy_simulation_solves_weaker_problem() {
        for seed in 0..3 {
            let g = gen::gnm_max_degree(40, 120, 7, seed);
            let delta = g.max_degree().max(1);
            for part in Partitioner::family(seed) {
                let p = part.split(&g);
                let out = simulate_streaming_two_party(&p, || GreedyWStreaming::new(40, delta), 0);
                validate_weaker_output(&g, &out.output, 2 * delta - 1)
                    .unwrap_or_else(|e| panic!("{part}: {e}"));
            }
        }
    }

    #[test]
    fn simulation_cost_equals_state_size() {
        let g = gen::gnm_max_degree(50, 150, 8, 2);
        let delta = g.max_degree();
        let p = Partitioner::Random(1).split(&g);
        let out = simulate_streaming_two_party(&p, || GreedyWStreaming::new(50, delta), 0);
        // One pass → exactly one state transfer (byte-rounded).
        let state_bits = (50 * (2 * delta - 1)) as u64;
        let expected = state_bits.div_ceil(8) * 8;
        assert_eq!(out.stats.total_bits(), expected);
        assert_eq!(out.stats.rounds, 1);
    }

    #[test]
    fn chunked_simulation_is_cheaper_but_more_colorful() {
        // Δ large relative to log n so the Õ(n√Δ) buffer undercuts the
        // n·(2Δ−1) greedy masks at the transfer point.
        let g = gen::gnm_max_degree(64, 900, 32, 5);
        let delta = g.max_degree();
        let p = Partitioner::Alternating.split(&g);
        let greedy = simulate_streaming_two_party(&p, || GreedyWStreaming::new(64, delta), 0);
        let chunked = simulate_streaming_two_party(
            &p,
            || ChunkedWStreaming::with_sqrt_delta_capacity(64, delta),
            0,
        );
        let gc = greedy.output.combined().expect("consistent");
        let cc = chunked.output.combined().expect("consistent");
        assert!(validate_edge_coloring(&g, &gc).is_ok());
        assert!(validate_edge_coloring(&g, &cc).is_ok());
        // Note: the chunked state *at the transfer point* may exceed the
        // greedy mask for extreme parameters; for this shape it is far
        // smaller, mirroring the space comparison.
        assert!(chunked.stats.total_bits() < greedy.stats.total_bits());
        assert!(cc.num_distinct_colors() >= gc.num_distinct_colors());
    }

    #[test]
    fn one_sided_partitions_still_work() {
        let g = gen::gnm_max_degree(30, 90, 6, 7);
        let delta = g.max_degree();
        for part in [Partitioner::AllToAlice, Partitioner::AllToBob] {
            let p = part.split(&g);
            let out = simulate_streaming_two_party(&p, || GreedyWStreaming::new(30, delta), 0);
            validate_weaker_output(&g, &out.output, 2 * delta - 1)
                .unwrap_or_else(|e| panic!("{part}: {e}"));
        }
    }
}
