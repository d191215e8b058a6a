//! The `(Δ+1)`-vertex-coloring protocol of **Theorem 1** (§4.4):
//! `Random-Color-Trial` followed by the D1LC protocol on the leftover
//! vertices.
//!
//! Expected communication `O(n)` bits; worst-case rounds
//! `O(log log n · log Δ)`. Both parties output the full coloring.

use crate::d1lc::{solve_d1lc, D1lcInput};
use crate::input::PartyInput;
use crate::rct::{run_random_color_trial, RctConfig, RctReport};
use bichrome_comm::session::PartyCtx;
use bichrome_graph::coloring::{ColorId, VertexColoring};

/// One party's protocol script for Theorem 1.
///
/// Both parties run this; they finish with identical colorings.
pub fn vertex_coloring_party(
    input: &PartyInput,
    ctx: &PartyCtx,
    config: &RctConfig,
) -> (VertexColoring, RctReport) {
    let palette = input.delta + 1;
    // Step 1: Random-Color-Trial.
    let mut coloring = VertexColoring::new(input.num_vertices());
    let report = run_random_color_trial(input, ctx, &mut coloring, config);

    // Step 2: formulate the leftover D1LC instance on Z.
    let z = coloring.uncolored_vertices();
    let psi: Vec<Vec<ColorId>> = z
        .iter()
        .map(|&v| {
            let mut occupied: Vec<ColorId> = input
                .graph
                .neighbors(v)
                .iter()
                .filter_map(|&u| coloring.get(u))
                .collect();
            occupied.sort_unstable();
            occupied.dedup();
            (0..palette as u32)
                .map(ColorId)
                .filter(|c| occupied.binary_search(c).is_err())
                .collect()
        })
        .collect();
    let d1lc_input = D1lcInput {
        side: input.side,
        graph: input.graph.clone(),
        z,
        psi,
        palette,
    };

    // Step 3: solve D1LC and merge.
    let leftover = solve_d1lc(&d1lc_input, ctx);
    for v in input.graph.vertices() {
        if let Some(c) = leftover.get(v) {
            let previous = coloring.set(v, c);
            debug_assert!(previous.is_none(), "D1LC only touches uncolored vertices");
        }
    }
    (coloring, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_parties;
    use bichrome_comm::CommStats;
    use bichrome_graph::coloring::validate_vertex_coloring_with_palette;
    use bichrome_graph::gen;
    use bichrome_graph::partition::{EdgePartition, Partitioner};

    /// Theorem 1 on `p`: the coloring both parties output, and the
    /// session's statistics.
    fn solve(p: &EdgePartition, seed: u64) -> (VertexColoring, CommStats) {
        let ((ca, ra), (cb, rb), stats) = run_parties(p, seed, |input, ctx| {
            vertex_coloring_party(input, ctx, &RctConfig::default())
        });
        assert_eq!(ca, cb, "both parties must output the same coloring");
        assert_eq!(ra, rb, "RCT reports are public state");
        (ca, stats)
    }

    #[test]
    fn theorem1_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::gnp(50, 0.12, seed);
            let p = Partitioner::Random(seed).split(&g);
            let (coloring, _) = solve(&p, seed);
            assert!(
                validate_vertex_coloring_with_palette(&g, &coloring, g.max_degree() + 1).is_ok(),
                "invalid coloring at seed {seed}"
            );
        }
    }

    #[test]
    fn theorem1_across_partitioners() {
        let g = gen::near_regular(60, 6, 3);
        for part in Partitioner::family(5) {
            let p = part.split(&g);
            let (coloring, _) = solve(&p, 9);
            assert!(
                validate_vertex_coloring_with_palette(&g, &coloring, 7).is_ok(),
                "invalid under partitioner {part}"
            );
        }
    }

    #[test]
    fn theorem1_on_structured_graphs() {
        for g in [
            gen::cycle(21),
            gen::star(17),
            gen::complete(9),
            gen::path(13),
        ] {
            let p = Partitioner::Alternating.split(&g);
            let (coloring, _) = solve(&p, 4);
            assert!(
                validate_vertex_coloring_with_palette(&g, &coloring, g.max_degree() + 1).is_ok(),
                "invalid coloring on {g}"
            );
        }
    }

    #[test]
    fn theorem1_handles_empty_and_tiny() {
        let g = gen::empty(7);
        let p = Partitioner::AllToBob.split(&g);
        let (coloring, _) = solve(&p, 0);
        assert!(coloring.is_complete());
        let g = gen::path(2);
        let p = Partitioner::AllToAlice.split(&g);
        let (coloring, _) = solve(&p, 0);
        assert!(validate_vertex_coloring_with_palette(&g, &coloring, 2).is_ok());
    }

    #[test]
    fn theorem1_deterministic_per_seed() {
        let g = gen::gnp(40, 0.2, 6);
        let p = Partitioner::Random(1).split(&g);
        let (c1, s1) = solve(&p, 33);
        let (c2, s2) = solve(&p, 33);
        assert_eq!(c1, c2);
        assert_eq!(s1.total_bits(), s2.total_bits());
    }

    #[test]
    fn theorem1_round_complexity_is_modest() {
        // O(log log n · log Δ) rounds — for n = 200, Δ ≈ 8 this is a few
        // hundred at the very most; assert a generous ceiling that the
        // O(n)-round baseline (n = 200 vertices sequentially) would
        // blow through.
        let g = gen::near_regular(200, 8, 1);
        let p = Partitioner::Random(2).split(&g);
        let (_, stats) = solve(&p, 5);
        assert!(
            stats.rounds < 2_000,
            "rounds {} out of line for n=200",
            stats.rounds
        );
    }
}
