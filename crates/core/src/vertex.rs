//! The `(Δ+1)`-vertex-coloring protocol of **Theorem 1** (§4.4):
//! `Random-Color-Trial` followed by the D1LC protocol on the leftover
//! vertices.
//!
//! Expected communication `O(n)` bits; worst-case rounds
//! `O(log log n · log Δ)`. Both parties output the full coloring.

use crate::d1lc::{solve_d1lc, D1lcInput};
use crate::input::PartyInput;
use crate::rct::{run_random_color_trial, RctConfig, RctReport};
use bichrome_comm::session::{run_two_party_ctx, PartyCtx};
use bichrome_comm::CommStats;
use bichrome_graph::coloring::{ColorId, VertexColoring};
use bichrome_graph::partition::EdgePartition;

/// Result of a full vertex-coloring protocol run.
#[derive(Debug, Clone)]
pub struct VertexOutcome {
    /// The complete `(Δ+1)`-coloring (identical on both sides).
    pub coloring: VertexColoring,
    /// Communication statistics of the session.
    pub stats: CommStats,
    /// `Random-Color-Trial` instrumentation.
    pub rct: RctReport,
}

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

/// Runs the full Theorem 1 protocol over a two-thread session.
///
/// # Panics
///
/// Panics if the two parties disagree on the output (a protocol bug,
/// checked defensively) or a party thread panics.
#[deprecated(
    since = "0.1.0",
    note = "use bichrome_runner: registry().get(\"vertex/theorem1\") and Protocol::run, \
            or Campaign for repeated trials"
)]
pub fn solve_vertex_coloring(
    partition: &EdgePartition,
    seed: u64,
    config: &RctConfig,
) -> VertexOutcome {
    let a = PartyInput::alice(partition);
    let b = PartyInput::bob(partition);
    let cfg_a = *config;
    let cfg_b = *config;
    let ((ca, ra), (cb, rb), stats) = run_two_party_ctx(
        seed,
        move |ctx| vertex_coloring_party(&a, &ctx, &cfg_a),
        move |ctx| vertex_coloring_party(&b, &ctx, &cfg_b),
    );
    assert_eq!(ca, cb, "both parties must output the same coloring");
    assert_eq!(ra, rb, "RCT reports are public state");
    VertexOutcome {
        coloring: ca,
        stats,
        rct: ra,
    }
}

#[cfg(test)]
mod tests {
    #![allow(deprecated)] // the shim stays covered until it is removed

    use super::*;
    use bichrome_graph::coloring::validate_vertex_coloring_with_palette;
    use bichrome_graph::gen;
    use bichrome_graph::partition::Partitioner;

    #[test]
    fn theorem1_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::gnp(50, 0.12, seed);
            let p = Partitioner::Random(seed).split(&g);
            let out = solve_vertex_coloring(&p, seed, &RctConfig::default());
            assert!(
                validate_vertex_coloring_with_palette(&g, &out.coloring, g.max_degree() + 1)
                    .is_ok(),
                "invalid coloring at seed {seed}"
            );
        }
    }

    #[test]
    fn theorem1_across_partitioners() {
        let g = gen::near_regular(60, 6, 3);
        for part in Partitioner::family(5) {
            let p = part.split(&g);
            let out = solve_vertex_coloring(&p, 9, &RctConfig::default());
            assert!(
                validate_vertex_coloring_with_palette(&g, &out.coloring, 7).is_ok(),
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
            let out = solve_vertex_coloring(&p, 4, &RctConfig::default());
            assert!(
                validate_vertex_coloring_with_palette(&g, &out.coloring, g.max_degree() + 1)
                    .is_ok(),
                "invalid coloring on {g}"
            );
        }
    }

    #[test]
    fn theorem1_handles_empty_and_tiny() {
        let g = gen::empty(7);
        let p = Partitioner::AllToBob.split(&g);
        let out = solve_vertex_coloring(&p, 0, &RctConfig::default());
        assert!(out.coloring.is_complete());
        let g = gen::path(2);
        let p = Partitioner::AllToAlice.split(&g);
        let out = solve_vertex_coloring(&p, 0, &RctConfig::default());
        assert!(validate_vertex_coloring_with_palette(&g, &out.coloring, 2).is_ok());
    }

    #[test]
    fn theorem1_deterministic_per_seed() {
        let g = gen::gnp(40, 0.2, 6);
        let p = Partitioner::Random(1).split(&g);
        let o1 = solve_vertex_coloring(&p, 33, &RctConfig::default());
        let o2 = solve_vertex_coloring(&p, 33, &RctConfig::default());
        assert_eq!(o1.coloring, o2.coloring);
        assert_eq!(o1.stats.total_bits(), o2.stats.total_bits());
    }

    #[test]
    fn theorem1_round_complexity_is_modest() {
        // O(log log n · log Δ) rounds — for n = 200, Δ ≈ 8 this is a few
        // hundred at the very most; assert a generous ceiling that the
        // O(n)-round baseline (n = 200 vertices sequentially) would
        // blow through.
        let g = gen::near_regular(200, 8, 1);
        let p = Partitioner::Random(2).split(&g);
        let out = solve_vertex_coloring(&p, 5, &RctConfig::default());
        assert!(
            out.stats.rounds < 2_000,
            "rounds {} out of line for n=200",
            out.stats.rounds
        );
    }
}
