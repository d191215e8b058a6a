//! Two-party edge-coloring protocols (§5 and Theorem 3).
//!
//! * [`theorem2_party`] — **Theorem 2**: deterministic
//!   `(2Δ−1)`-edge coloring with `O(n)` bits and `O(1)` rounds,
//!   dispatching between Lemma 5.1's constant-Δ protocol
//!   ([`bounded`]) and Algorithm 2 ([`algorithm2`]).
//! * [`two_delta::solve_two_delta`] — **Theorem 3**: `(2Δ)`-edge
//!   coloring with *zero* communication.
//!
//! Unlike the vertex problem, each party outputs colors only for its
//! own edges; [`EdgeColoring::merge`] recombines the two outputs of
//! [`run_parties`](crate::run_parties) for validation.

pub mod algorithm2;
pub mod bounded;
pub mod two_delta;

use bichrome_graph::coloring::{ColorId, EdgeColoring};

use crate::input::PartyInput;

/// Global color-palette layout for the `(2Δ−1)` protocol: Alice's
/// `Δ−1` colors, Bob's `Δ−1` colors, and one special color.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaletteLayout {
    /// Maximum degree Δ of the whole graph.
    pub delta: usize,
}

impl PaletteLayout {
    /// Layout for the given Δ.
    pub fn new(delta: usize) -> Self {
        PaletteLayout { delta }
    }

    /// Alice's palette: colors `0 .. Δ−1`.
    pub fn alice_palette(&self) -> Vec<ColorId> {
        (0..self.delta.saturating_sub(1) as u32)
            .map(ColorId)
            .collect()
    }

    /// Bob's palette: colors `Δ−1 .. 2Δ−2`.
    pub fn bob_palette(&self) -> Vec<ColorId> {
        let lo = self.delta.saturating_sub(1) as u32;
        (lo..2 * lo).map(ColorId).collect()
    }

    /// The special color `2Δ−2` (the last of the `2Δ−1`).
    pub fn special(&self) -> ColorId {
        ColorId((2 * self.delta - 2) as u32)
    }

    /// Palette of the given side.
    pub fn own_palette(&self, side: bichrome_comm::Side) -> Vec<ColorId> {
        match side {
            bichrome_comm::Side::Alice => self.alice_palette(),
            bichrome_comm::Side::Bob => self.bob_palette(),
        }
    }

    /// Palette of the opposite side.
    pub fn other_palette(&self, side: bichrome_comm::Side) -> Vec<ColorId> {
        self.own_palette(side.other())
    }
}

/// One party's script for **Theorem 2**, with the canonical dispatch:
/// `Δ = 0` needs nothing; `Δ ≤ 7` uses the one-round constant-Δ
/// protocol of Lemma 5.1; `Δ ≥ 8` runs Algorithm 2. (`Δ` is the whole
/// graph's maximum degree, carried in [`PartyInput::delta`].)
///
/// The `bichrome-runner` registry's `edge/theorem2` and every test
/// run this one function through [`run_parties`](crate::run_parties),
/// so the dispatch cannot diverge.
pub fn theorem2_party(input: &PartyInput, ctx: &bichrome_comm::session::PartyCtx) -> EdgeColoring {
    match input.delta {
        0 => EdgeColoring::new(),
        1..=7 => bounded::bounded_delta_party(input, ctx),
        _ => algorithm2::algorithm2_party(input, ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_parties;
    use bichrome_comm::{CommStats, Side};
    use bichrome_graph::coloring::validate_edge_coloring_with_palette;
    use bichrome_graph::gen;
    use bichrome_graph::partition::{EdgePartition, Partitioner};

    /// Theorem 2 on `p`: both parties' colorings merged, and the
    /// session's statistics.
    pub(crate) fn theorem2_merged(p: &EdgePartition, seed: u64) -> (EdgeColoring, CommStats) {
        let (mut all, bob, stats) = run_parties(p, seed, theorem2_party);
        all.merge(&bob).expect("parties color disjoint edge sets");
        (all, stats)
    }

    #[test]
    fn palette_layout_partitions_colors() {
        let layout = PaletteLayout::new(10);
        let a = layout.alice_palette();
        let b = layout.bob_palette();
        assert_eq!(a.len(), 9);
        assert_eq!(b.len(), 9);
        assert_eq!(layout.special(), ColorId(18));
        // Disjoint and jointly covering 0..19.
        let mut all: Vec<u32> = a
            .iter()
            .chain(b.iter())
            .map(|c| c.0)
            .chain([layout.special().0])
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..19).collect::<Vec<_>>());
        assert_eq!(layout.own_palette(Side::Alice), a);
        assert_eq!(layout.other_palette(Side::Alice), b);
    }

    #[test]
    fn theorem2_dispatcher_covers_all_deltas() {
        // Small Δ routes through Lemma 5.1; larger through Algorithm 2.
        for (g, label) in [
            (gen::empty(6), "empty"),
            (gen::path(8), "path"),
            (gen::cycle(9), "cycle"),
            (gen::gnm_max_degree(40, 90, 6, 1), "Δ=6"),
            (gen::gnm_max_degree(60, 280, 12, 2), "Δ=12"),
        ] {
            let p = Partitioner::Random(3).split(&g);
            let (merged, _) = theorem2_merged(&p, 1);
            let budget = (2 * g.max_degree()).saturating_sub(1).max(1);
            assert!(
                validate_edge_coloring_with_palette(&g, &merged, budget).is_ok(),
                "invalid (2Δ−1) coloring on {label}"
            );
        }
    }

    #[test]
    fn each_party_colors_exactly_its_edges() {
        let g = gen::gnm_max_degree(50, 150, 10, 7);
        let p = Partitioner::Alternating.split(&g);
        let (alice, bob, _) = run_parties(&p, 0, theorem2_party);
        assert_eq!(alice.len(), p.alice().num_edges());
        assert_eq!(bob.len(), p.bob().num_edges());
        for &e in p.alice().edges() {
            assert!(alice.get(e).is_some(), "Alice must output {e}");
        }
        for &e in p.bob().edges() {
            assert!(bob.get(e).is_some(), "Bob must output {e}");
        }
    }
}
