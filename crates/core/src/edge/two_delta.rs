//! **Theorem 3**: `(2Δ)`-edge coloring with zero communication.
//!
//! Both parties split the `2Δ` colors in half (Alice gets
//! `0..Δ`, Bob `Δ..2Δ`). Each party defers every edge whose endpoints
//! both currently have degree Δ in its remaining subgraph — those
//! endpoints have full global degree inside this party, so the *other*
//! party has no edges there, and the deferred edges form a matching
//! colorable with a single color from the other party's palette. The
//! remaining subgraph has its maximum-degree vertices independent, so
//! Fournier's theorem (Proposition 3.5) colors it with the party's own
//! Δ colors.
//!
//! The remaining subgraph is never built: the masked engines color the
//! party graph's non-deferred edges in place, in its own edge-id
//! space, and the deferred edges are written into the same dense
//! coloring by id. [`run_parties`](crate::run_parties) runs the script
//! for both parties like any other protocol, over a session that
//! carries no frame, so its metered statistics are the claim: zero
//! bits, zero rounds.

use crate::input::PartyInput;
use bichrome_comm::Side;
use bichrome_graph::coloring::{ColorId, EdgeColoring};
use bichrome_graph::edge_color::{fournier_where, misra_gries_where, remap_colors};
use bichrome_graph::EdgeId;

/// One party's (communication-free) script for Theorem 3. It takes
/// no session context: pass it to
/// [`run_parties`](crate::run_parties) as `|input, _|
/// two_delta_party(input)`.
pub fn two_delta_party(input: &PartyInput) -> EdgeColoring {
    let delta = input.delta;
    let g = input.graph;
    if delta == 0 || g.num_edges() == 0 {
        return EdgeColoring::dense_for(g);
    }
    let my_palette: Vec<ColorId> = match input.side {
        Side::Alice => (0..delta as u32).map(ColorId).collect(),
        Side::Bob => (delta as u32..2 * delta as u32).map(ColorId).collect(),
    };
    let other_first = match input.side {
        Side::Alice => ColorId(delta as u32),
        Side::Bob => ColorId(0),
    };

    // Defer edges joining two currently-degree-Δ vertices. Degrees only
    // decrease, so one pass over the initially-qualifying edges with a
    // recheck suffices. The deferred set is a dense bitmap over the
    // party graph's edge ids — no hashing.
    let mut deg: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    let mut deferred = vec![false; g.num_edges()];
    let mut stack: Vec<EdgeId> = g
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| deg[e.u().index()] == delta && deg[e.v().index()] == delta)
        .map(|(i, _)| EdgeId(i as u32))
        .collect();
    while let Some(id) = stack.pop() {
        let e = g.edge(id);
        if deg[e.u().index()] == delta && deg[e.v().index()] == delta {
            deferred[id.index()] = true;
            deg[e.u().index()] -= 1;
            deg[e.v().index()] -= 1;
        }
    }

    let d = deg.iter().copied().max().unwrap_or(0);
    let kept = |id: EdgeId| !deferred[id.index()];
    let raw = if d == delta {
        fournier_where(g, kept).expect("deferral leaves the degree-Δ vertices independent")
    } else {
        // Max degree dropped below Δ: Vizing's Δ'+1 ≤ Δ colors.
        misra_gries_where(g, kept)
    };
    let mut coloring = remap_colors(&raw, &my_palette);

    // Deferred edges form a matching between vertices that have no
    // edges on the other side: one color of the other party's palette
    // colors them all.
    debug_assert!(
        bichrome_graph::matching::is_matching(
            &deferred
                .iter()
                .enumerate()
                .filter(|(_, &d)| d)
                .map(|(i, _)| g.edge(EdgeId(i as u32)))
                .collect::<Vec<_>>(),
        ),
        "deferred edges must form a matching"
    );
    for (i, &is_deferred) in deferred.iter().enumerate() {
        if is_deferred {
            coloring.set_id(EdgeId(i as u32), other_first);
        }
    }
    coloring
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_parties;
    use bichrome_comm::CommStats;
    use bichrome_graph::coloring::validate_edge_coloring_with_palette;
    use bichrome_graph::gen;
    use bichrome_graph::partition::{EdgePartition, Partitioner};

    /// Theorem 3 on `p` through a session: both parties' colorings and
    /// the metered statistics.
    fn solve(p: &EdgePartition) -> (EdgeColoring, EdgeColoring, CommStats) {
        run_parties(p, 0, |input, _| two_delta_party(input))
    }

    fn check(g: &bichrome_graph::Graph, part: Partitioner) {
        let p = part.split(g);
        let (a, b, _) = solve(&p);
        let mut merged = EdgeColoring::dense_for(g);
        merged
            .merge(&a)
            .expect("each party colors only its own edges");
        merged.merge(&b).expect("disjoint edges");
        let budget = (2 * g.max_degree()).max(1);
        assert!(
            validate_edge_coloring_with_palette(g, &merged, budget).is_ok(),
            "invalid 2Δ coloring on {g} under {part}"
        );
    }

    #[test]
    fn two_delta_on_random_graphs() {
        for seed in 0..8 {
            let g = gen::gnm_max_degree(40, 100, 7, seed);
            for part in Partitioner::family(seed) {
                check(&g, part);
            }
        }
    }

    #[test]
    fn two_delta_on_structured_graphs() {
        for g in [gen::cycle(11), gen::complete(8), gen::star(9), gen::path(6)] {
            check(&g, Partitioner::Alternating);
            check(&g, Partitioner::AllToAlice);
        }
    }

    #[test]
    fn two_delta_on_perfect_matching() {
        // Δ = 1: every edge is deferred and takes the other palette's
        // single color.
        let mut b = bichrome_graph::GraphBuilder::new(6);
        for i in 0..3 {
            b.add_edge(
                bichrome_graph::VertexId(2 * i),
                bichrome_graph::VertexId(2 * i + 1),
            );
        }
        let g = b.build();
        check(&g, Partitioner::Alternating);
    }

    #[test]
    fn two_delta_costs_zero_bits() {
        // The script never touches its channel, and the session's
        // meter says so.
        let g = gen::gnm_max_degree(30, 80, 6, 3);
        let p = Partitioner::Random(1).split(&g);
        let (a, b, stats) = solve(&p);
        assert_eq!(a.len() + b.len(), g.num_edges());
        assert_eq!(stats.total_bits(), 0);
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn two_delta_empty() {
        let g = gen::empty(4);
        let p = Partitioner::AllToBob.split(&g);
        let (a, b, _) = solve(&p);
        assert!(a.is_empty() && b.is_empty());
    }
}
