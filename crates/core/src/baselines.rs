//! Baseline vertex-coloring protocols the paper compares against
//! (§1.1, §2.1).
//!
//! * [`flin_mittal`] — the Flin–Mittal protocol \[FM25\]: color
//!   vertices one at a time in a public random order, finding each
//!   vertex's color with one slack-int instance. `O(n)` bits expected
//!   but `O(n)` rounds — the round-inefficiency Theorem 1 removes.
//! * [`greedy_binary_search`] — the folklore deterministic protocol
//!   (§1): simulate greedy coloring, locating an available color by
//!   deterministic binary search. `O(n log² Δ)` bits, `O(n log Δ)`
//!   rounds.
//! * [`send_everything`] — the one-round protocol implicit in the
//!   trivial upper bound: exchange both edge sets (`O(m log n)` bits)
//!   and color locally.

use crate::color_sample::ColorSample;
use crate::input::PartyInput;
use crate::slack_int::{DetSlackInt, SetMembership};
use bichrome_comm::machine::drive_single;
use bichrome_comm::session::PartyCtx;
use bichrome_comm::wire::{width_for, BitWriter};
use bichrome_graph::coloring::{ColorId, VertexColoring};
use bichrome_graph::greedy::greedy_vertex_coloring;
use bichrome_graph::{Edge, GraphBuilder, VertexId};
use rand::seq::SliceRandom;

/// Stream tag for the Flin–Mittal random vertex order.
const FM_ORDER_TAG: u64 = 0xF3_0001;
/// Stream tag for Flin–Mittal per-vertex sampling.
const FM_SAMPLE_TAG: u64 = 0xF3_0002;

/// Which baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Flin–Mittal sequential random-order coloring.
    FlinMittal,
    /// Deterministic greedy + binary search.
    GreedyBinarySearch,
    /// One-round exchange of the entire input.
    SendEverything,
}

impl Baseline {
    /// One party's script for this baseline.
    pub fn party(self, input: &PartyInput, ctx: &PartyCtx) -> VertexColoring {
        match self {
            Baseline::FlinMittal => flin_mittal(input, ctx),
            Baseline::GreedyBinarySearch => greedy_binary_search(input, ctx),
            Baseline::SendEverything => send_everything(input, ctx),
        }
    }
}

impl std::fmt::Display for Baseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Baseline::FlinMittal => write!(f, "flin-mittal"),
            Baseline::GreedyBinarySearch => write!(f, "greedy-binary-search"),
            Baseline::SendEverything => write!(f, "send-everything"),
        }
    }
}

/// One party's script for the Flin–Mittal baseline \[FM25\].
pub fn flin_mittal(input: &PartyInput, ctx: &PartyCtx) -> VertexColoring {
    let _phase = ctx.endpoint.meter().phase_scope("flin-mittal");
    let n = input.num_vertices();
    let palette = input.delta + 1;
    let mut order: Vec<VertexId> = input.graph.vertices().collect();
    order.shuffle(&mut ctx.coin.stream(&[FM_ORDER_TAG]));
    let mut coloring = VertexColoring::new(n);
    for (idx, &v) in order.iter().enumerate() {
        let occupied: Vec<ColorId> = input
            .graph
            .neighbors(v)
            .iter()
            .filter_map(|&u| coloring.get(u))
            .collect();
        let mut machine = ColorSample::new(
            palette,
            dedup(occupied),
            &ctx.coin,
            &[FM_SAMPLE_TAG, idx as u64],
        );
        drive_single(&ctx.endpoint, &mut machine);
        coloring.set(v, machine.result().expect("driven to completion"));
    }
    coloring
}

/// One party's script for the deterministic greedy + binary-search
/// baseline.
pub fn greedy_binary_search(input: &PartyInput, ctx: &PartyCtx) -> VertexColoring {
    ctx.endpoint.meter().set_phase("greedy-binary-search");
    let n = input.num_vertices();
    let palette = input.delta + 1;
    let mut coloring = VertexColoring::new(n);
    for v in input.graph.vertices() {
        let occupied: Vec<ColorId> = input
            .graph
            .neighbors(v)
            .iter()
            .filter_map(|&u| coloring.get(u))
            .collect();
        let occupied = dedup(occupied);
        let membership = SetMembership::from_elements(palette, occupied.iter().map(|c| c.0 as u64));
        let mut machine = DetSlackInt::new(membership, (0..palette as u64).collect());
        drive_single(&ctx.endpoint, &mut machine);
        let c = machine
            .result()
            .expect("deficit holds: ≤ Δ occupied of Δ+1");
        coloring.set(v, ColorId(c as u32));
    }
    coloring
}

/// One party's script for the one-round send-everything baseline.
///
/// Both parties ship their edge lists simultaneously (one round),
/// reconstruct the whole graph, and run the same local greedy
/// coloring.
pub fn send_everything(input: &PartyInput, ctx: &PartyCtx) -> VertexColoring {
    ctx.endpoint.meter().set_phase("send-everything");
    let n = input.num_vertices();
    let vwidth = width_for(n.saturating_sub(1) as u64);
    let mut w = BitWriter::new();
    w.write_gamma(input.graph.num_edges() as u64);
    for e in input.graph.edges() {
        w.write_uint(e.u().0 as u64, vwidth);
        w.write_uint(e.v().0 as u64, vwidth);
    }
    let incoming = ctx.endpoint.exchange(w.finish());
    let mut r = incoming.reader();
    let peer_edges = r.read_gamma() as usize;
    let mut builder = GraphBuilder::new(n);
    for _ in 0..peer_edges {
        let u = VertexId(r.read_uint(vwidth) as u32);
        let v = VertexId(r.read_uint(vwidth) as u32);
        builder.push(Edge::new(u, v));
    }
    builder.extend(input.graph.edges().iter().copied());
    let whole = builder.build();
    greedy_vertex_coloring(&whole)
}

fn dedup(mut colors: Vec<ColorId>) -> Vec<ColorId> {
    colors.sort_unstable();
    colors.dedup();
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_parties;
    use bichrome_comm::CommStats;
    use bichrome_graph::coloring::validate_vertex_coloring_with_palette;
    use bichrome_graph::gen;
    use bichrome_graph::partition::{EdgePartition, Partitioner};

    /// Runs `baseline` on `p`: the coloring both parties output, and
    /// the session's statistics.
    fn solve(p: &EdgePartition, baseline: Baseline, seed: u64) -> (VertexColoring, CommStats) {
        let (ca, cb, stats) = run_parties(p, seed, |input, ctx| baseline.party(input, ctx));
        assert_eq!(ca, cb, "baseline parties must agree");
        (ca, stats)
    }

    #[test]
    fn all_baselines_color_correctly() {
        let g = gen::gnp(40, 0.15, 2);
        let p = Partitioner::Random(7).split(&g);
        for baseline in [
            Baseline::FlinMittal,
            Baseline::GreedyBinarySearch,
            Baseline::SendEverything,
        ] {
            let (c, _) = solve(&p, baseline, 11);
            assert!(
                validate_vertex_coloring_with_palette(&g, &c, g.max_degree() + 1).is_ok(),
                "{baseline} produced an invalid coloring"
            );
        }
    }

    #[test]
    fn send_everything_is_one_round() {
        let g = gen::gnp(30, 0.2, 3);
        let p = Partitioner::Alternating.split(&g);
        let (_, stats) = solve(&p, Baseline::SendEverything, 0);
        assert_eq!(stats.rounds, 1);
        assert!(stats.total_bits() > 0);
    }

    #[test]
    fn flin_mittal_rounds_scale_linearly() {
        // The point of Theorem 1: FM needs Ω(n) rounds. Compare n=30 vs
        // n=60 on a fixed-degree family: rounds should roughly double.
        let rounds = |n: usize| {
            let g = gen::near_regular(n, 6, 5);
            let p = Partitioner::Random(1).split(&g);
            let (_, stats) = solve(&p, Baseline::FlinMittal, 3);
            stats.rounds
        };
        let r30 = rounds(30);
        let r60 = rounds(60);
        assert!(
            r60 as f64 > 1.5 * r30 as f64,
            "FM rounds must grow ~linearly: {r30} vs {r60}"
        );
        assert!(r30 >= 30, "at least one round per vertex");
    }

    #[test]
    fn greedy_binary_search_is_deterministic() {
        let g = gen::gnp(25, 0.3, 9);
        let p = Partitioner::ParitySum.split(&g);
        let (c1, s1) = solve(&p, Baseline::GreedyBinarySearch, 1);
        let (c2, s2) = solve(&p, Baseline::GreedyBinarySearch, 999);
        // Different seeds: identical output and cost (no randomness).
        assert_eq!(c1, c2);
        assert_eq!(s1.total_bits(), s2.total_bits());
        assert_eq!(s1.rounds, s2.rounds);
    }

    #[test]
    fn baselines_handle_edge_cases() {
        for g in [gen::empty(5), gen::path(2), gen::star(6)] {
            for part in [Partitioner::AllToAlice, Partitioner::Alternating] {
                let p = part.split(&g);
                for baseline in [
                    Baseline::FlinMittal,
                    Baseline::GreedyBinarySearch,
                    Baseline::SendEverything,
                ] {
                    let (c, _) = solve(&p, baseline, 4);
                    assert!(
                        validate_vertex_coloring_with_palette(&g, &c, g.max_degree() + 1).is_ok()
                    );
                }
            }
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(Baseline::FlinMittal.to_string(), "flin-mittal");
        assert_eq!(
            Baseline::GreedyBinarySearch.to_string(),
            "greedy-binary-search"
        );
        assert_eq!(Baseline::SendEverything.to_string(), "send-everything");
    }
}
