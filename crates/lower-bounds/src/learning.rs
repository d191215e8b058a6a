//! The learning-problem reduction (§2.3) behind Flin–Mittal's `Ω(n)`
//! lower bound for `(Δ+1)`-vertex coloring.
//!
//! Alice holds a string `x ∈ {0,1}^n`; for each bit a 4-vertex gadget
//! `a_i, b_i, c_i, d_i` carries edges `{a,b}, {c,d}` plus the
//! x-dependent diagonal pairs, forming a `C_4` — so `Δ = 2` and
//! `Δ+1 = 3`. All edges belong to Alice. After *any*
//! `(Δ+1)`-vertex-coloring protocol, both parties know a proper
//! 3-coloring of a graph whose two candidate edge sets per gadget
//! union to `K_4`: a 3-coloring can be proper for only one of them, so
//! Bob reads off every `x_i` — he has *learned* `n` bits, which must
//! have cost `Ω(n)` communication.

use bichrome_core::rct::RctConfig;
use bichrome_core::run_parties;
use bichrome_core::vertex::vertex_coloring_party;
use bichrome_graph::coloring::VertexColoring;
use bichrome_graph::partition::Partitioner;
use bichrome_graph::{gen, VertexId};

/// Builds the gadget graph for `bits` (all edges will be Alice's).
///
/// Re-exported convenience over [`gen::c4_gadget_union`].
pub fn gadget_graph(bits: &[bool]) -> bichrome_graph::Graph {
    gen::c4_gadget_union(bits)
}

/// Bob's decoder: recovers the bit of gadget `i` from any proper
/// 3-coloring of the gadget graph.
///
/// The `x_i = 0` gadget is the cycle `a−b−d−c−a` (diagonals `{a,d}`,
/// `{b,c}` absent) and the `x_i = 1` gadget is `a−b−c−d−a`. A proper
/// coloring of one is improper for the other (their union is `K_4`,
/// which needs 4 colors), so checking which candidate edge set is
/// conflict-free identifies the bit.
///
/// # Panics
///
/// Panics if the coloring is proper for neither candidate (i.e. it was
/// not a proper coloring of the gadget graph at all).
pub fn recover_bit(coloring: &VertexColoring, gadget: usize) -> bool {
    let base = 4 * gadget as u32;
    let col = |off: u32| {
        coloring
            .get(VertexId(base + off))
            .expect("gadget vertices are colored")
    };
    let (a, b, c, d) = (col(0), col(1), col(2), col(3));
    // Common edges {a,b}, {c,d} must be proper either way.
    assert_ne!(a, b, "input coloring improper on a common edge");
    assert_ne!(c, d, "input coloring improper on a common edge");
    let zero_ok = a != c && b != d; // edges {a,c}, {b,d}
    let one_ok = a != d && b != c; // edges {a,d}, {b,c}
    match (zero_ok, one_ok) {
        (true, false) => false,
        (false, true) => true,
        (true, true) => unreachable!("3-coloring cannot be proper for K4's union"),
        (false, false) => panic!("coloring proper for neither gadget orientation"),
    }
}

/// Recovers the whole string.
pub fn recover_bits(coloring: &VertexColoring, n_bits: usize) -> Vec<bool> {
    (0..n_bits).map(|i| recover_bit(coloring, i)).collect()
}

/// Runs the full reduction end-to-end against the actual Theorem 1
/// protocol: builds the gadget graph, gives Alice all edges, runs the
/// protocol, and decodes Bob's view. Returns the recovered string and
/// the bits of communication spent.
pub fn run_learning_reduction(bits: &[bool], seed: u64) -> (Vec<bool>, u64) {
    let g = gadget_graph(bits);
    let partition = Partitioner::AllToAlice.split(&g);
    let ((ca, ra), (cb, rb), stats) = run_parties(&partition, seed, |input, ctx| {
        vertex_coloring_party(input, ctx, &RctConfig::default())
    });
    assert!(
        ca == cb && ra == rb,
        "both parties must end in the same public state"
    );
    // Bob holds no edges, yet his own output reveals x.
    (recover_bits(&cb, bits.len()), stats.total_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bichrome_graph::coloring::validate_vertex_coloring_with_palette;
    use bichrome_graph::greedy::greedy_vertex_coloring;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_bool(0.5)).collect()
    }

    #[test]
    fn recovery_from_greedy_coloring() {
        for seed in 0..10 {
            let bits = random_bits(12, seed);
            let g = gadget_graph(&bits);
            let c = greedy_vertex_coloring(&g);
            validate_vertex_coloring_with_palette(&g, &c, 3).expect("Δ=2 → 3 colors");
            assert_eq!(recover_bits(&c, bits.len()), bits);
        }
    }

    #[test]
    fn recovery_from_the_real_protocol() {
        let bits = random_bits(8, 3);
        let (recovered, comm_bits) = run_learning_reduction(&bits, 5);
        assert_eq!(recovered, bits, "Bob must learn Alice's string exactly");
        assert!(comm_bits > 0, "learning n bits costs communication");
    }

    #[test]
    fn recovery_works_for_extreme_strings() {
        for bits in [vec![false; 6], vec![true; 6]] {
            let (recovered, _) = run_learning_reduction(&bits, 1);
            assert_eq!(recovered, bits);
        }
    }

    #[test]
    fn single_gadget() {
        let (r0, _) = run_learning_reduction(&[false], 2);
        assert_eq!(r0, vec![false]);
        let (r1, _) = run_learning_reduction(&[true], 2);
        assert_eq!(r1, vec![true]);
    }

    #[test]
    #[should_panic(expected = "improper on a common edge")]
    fn decoder_rejects_broken_colorings() {
        use bichrome_graph::coloring::ColorId;
        let mut c = VertexColoring::new(4);
        for v in 0..4 {
            c.set(VertexId(v), ColorId(0));
        }
        let _ = recover_bit(&c, 0);
    }
}
