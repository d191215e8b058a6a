//! Per-party protocol inputs, and [`run_parties`], which runs one
//! script for both parties.

use bichrome_comm::session::{run_two_party_ctx, PartyCtx};
use bichrome_comm::{CommStats, Side};
use bichrome_graph::partition::EdgePartition;
use bichrome_graph::Graph;

/// What one party knows at the start of a protocol (§3.1): its side,
/// its own edge set (as a subgraph on the full vertex set), and the
/// public parameters `n` and `Δ` of the *whole* graph. The subgraph is
/// borrowed from the partition, so building an input copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct PartyInput<'a> {
    /// Which party this is.
    pub side: Side,
    /// This party's subgraph `G_P = (V, E_P)`.
    pub graph: &'a Graph,
    /// Maximum degree Δ of the whole graph (a given of the model).
    pub delta: usize,
}

impl<'a> PartyInput<'a> {
    /// Alice's input, borrowed from a partition.
    pub fn alice(p: &'a EdgePartition) -> Self {
        PartyInput {
            side: Side::Alice,
            graph: p.alice(),
            delta: p.max_degree(),
        }
    }

    /// Bob's input, borrowed from a partition.
    pub fn bob(p: &'a EdgePartition) -> Self {
        PartyInput {
            side: Side::Bob,
            graph: p.bob(),
            delta: p.max_degree(),
        }
    }

    /// Number of vertices `n` (public).
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }
}

/// Runs one protocol script for both parties (§3.1): Alice and Bob
/// each call `party` on their own edge set of `partition`, over one
/// session with public coins drawn from `seed`. Returns Alice's
/// output, Bob's output and the session's communication statistics.
///
/// The session uses the calling thread's ambient transport and fault
/// plan (see [`run_two_party_ctx`]), so a
/// campaign's wire settings apply to every protocol driven here.
///
/// # Panics
///
/// Propagates a panic from either party.
pub fn run_parties<R: Send>(
    partition: &EdgePartition,
    seed: u64,
    party: impl Fn(&PartyInput, &PartyCtx) -> R + Sync,
) -> (R, R, CommStats) {
    let (alice, bob) = (PartyInput::alice(partition), PartyInput::bob(partition));
    let party = &party;
    run_two_party_ctx(
        seed,
        move |ctx| party(&alice, &ctx),
        move |ctx| party(&bob, &ctx),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bichrome_graph::{gen, partition::Partitioner};

    #[test]
    fn inputs_carry_global_delta() {
        let g = gen::star(10); // Δ = 9
        let p = Partitioner::Alternating.split(&g);
        let a = PartyInput::alice(&p);
        let b = PartyInput::bob(&p);
        assert_eq!(a.delta, 9);
        assert_eq!(b.delta, 9);
        assert_eq!(a.num_vertices(), 10);
        assert!(
            a.graph.max_degree() < 9,
            "alice holds only part of the star"
        );
        assert_eq!(a.side, Side::Alice);
        assert_eq!(b.side, Side::Bob);
    }
}
