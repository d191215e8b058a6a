//! Lemma 5.1 — the constant-Δ `(2Δ−1)`-edge-coloring protocol:
//! `O(n)` bits, one round.
//!
//! Alice greedily colors her edges with the `2Δ−1` colors, then both
//! parties exchange (in the same round) the per-vertex bitmask of
//! colors used — `(2Δ−1)·n` bits, which is `O(n)` for constant Δ. Bob
//! then greedily colors his edges avoiding Alice's colors at shared
//! vertices; an edge is adjacent to at most `2Δ−2` others, so a color
//! always remains.
//!
//! To keep the exchange to a *single* simultaneous round, Bob's mask
//! is simply all-zeros (he colors second and needs to send nothing);
//! the paper's one-round structure is preserved with Alice→Bob payload
//! only.

use crate::input::PartyInput;
use bichrome_comm::session::PartyCtx;
use bichrome_comm::wire::{BitWriter, Message};
use bichrome_comm::Side;
use bichrome_graph::coloring::{ColorId, EdgeColoring};
use bichrome_graph::greedy::greedy_edge_coloring_with;

/// One party's script for Lemma 5.1. Requires `1 ≤ Δ ≤ 7` (the
/// dispatcher guarantees it); works for any constant Δ.
pub fn bounded_delta_party(input: &PartyInput, ctx: &PartyCtx) -> EdgeColoring {
    ctx.endpoint.meter().set_phase("edge-bounded");
    let delta = input.delta;
    let n = input.num_vertices();
    let colors = (2 * delta).saturating_sub(1).max(1);

    let g = &input.graph;
    if delta == 1 {
        // A single color suffices: edges are pairwise non-adjacent.
        // Truly zero communication — but both parties must still agree
        // the protocol is over, which costs nothing in our model.
        let mut c = EdgeColoring::dense_for(g);
        for i in 0..g.num_edges() {
            c.set_id(bichrome_graph::EdgeId(i as u32), ColorId(0));
        }
        return c;
    }

    match input.side {
        Side::Alice => {
            let mine =
                greedy_edge_coloring_with(g, EdgeColoring::dense_for(g), g.edges().iter().copied());
            debug_assert!(mine.max_color().is_none_or(|c| c.index() < colors));
            let mut w = BitWriter::new();
            let mut mask = vec![false; colors];
            for v in g.vertices() {
                mask.fill(false);
                for (_, id) in g.incident_edges(v) {
                    if let Some(c) = mine.get_id(id) {
                        mask[c.index()] = true;
                    }
                }
                w.write_bools(&mask);
            }
            ctx.endpoint.send(w.finish());
            mine
        }
        Side::Bob => {
            let incoming = ctx.endpoint.exchange(Message::empty());
            let mut r = incoming.reader();
            // Seed a virtual partial coloring at shared vertices:
            // represent Alice's usage as phantom colors the greedy pass
            // must avoid, in one flat n × (2Δ−1) mask array.
            let mut used = vec![false; n * colors];
            for slot in used.iter_mut() {
                *slot = r.read_bit();
            }
            let mut coloring = EdgeColoring::dense_for(g);
            let mut blocked = vec![false; colors];
            for (i, &e) in g.edges().iter().enumerate() {
                let (u, v) = e.endpoints();
                blocked.copy_from_slice(&used[u.index() * colors..(u.index() + 1) * colors]);
                for (k, b) in used[v.index() * colors..(v.index() + 1) * colors]
                    .iter()
                    .enumerate()
                {
                    blocked[k] |= b;
                }
                for (_, id) in g.incident_edges(u).chain(g.incident_edges(v)) {
                    if let Some(c) = coloring.get_id(id) {
                        blocked[c.index()] = true;
                    }
                }
                let c = (0..colors)
                    .find(|&c| !blocked[c])
                    .expect("an edge is adjacent to at most 2Δ−2 colored edges");
                coloring.set_id(bichrome_graph::EdgeId(i as u32), ColorId(c as u32));
            }
            coloring
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::edge::tests::theorem2_merged;
    use bichrome_graph::coloring::validate_edge_coloring_with_palette;
    use bichrome_graph::gen;
    use bichrome_graph::partition::Partitioner;

    #[test]
    fn bounded_protocol_small_deltas() {
        for delta in 1..=7usize {
            let g = gen::gnm_max_degree(30, 30 * delta / 2, delta, delta as u64);
            for part in Partitioner::family(5) {
                let p = part.split(&g);
                let (merged, _) = theorem2_merged(&p, 0);
                let budget = (2 * g.max_degree()).saturating_sub(1).max(1);
                assert!(
                    validate_edge_coloring_with_palette(&g, &merged, budget).is_ok(),
                    "Δ={delta} {part}: invalid coloring"
                );
            }
        }
    }

    #[test]
    fn bounded_protocol_is_one_round_linear_bits() {
        let g = gen::gnm_max_degree(50, 100, 5, 1);
        let p = Partitioner::Random(2).split(&g);
        let (_, stats) = theorem2_merged(&p, 0);
        assert_eq!(stats.rounds, 1, "Lemma 5.1 is a one-round protocol");
        // (2Δ−1)·n = 9·50 bits from Alice, nothing from Bob.
        assert_eq!(stats.bits_alice_to_bob, 9 * 50);
        assert_eq!(stats.bits_bob_to_alice, 0);
    }

    #[test]
    fn matching_needs_no_bits() {
        let mut b = bichrome_graph::GraphBuilder::new(8);
        for i in 0..4u32 {
            b.add_edge(
                bichrome_graph::VertexId(2 * i),
                bichrome_graph::VertexId(2 * i + 1),
            );
        }
        let g = b.build();
        let p = Partitioner::Alternating.split(&g);
        let (merged, stats) = theorem2_merged(&p, 0);
        assert_eq!(stats.total_bits(), 0);
        assert!(validate_edge_coloring_with_palette(&g, &merged, 1).is_ok());
    }
}
