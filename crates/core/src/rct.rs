//! `Random-Color-Trial` (Algorithm 1, §4.1–4.3).
//!
//! Each iteration, every still-uncolored ("active") vertex wakes with
//! probability 1/2 (public coin, costless); awake vertices sample a
//! uniformly random available color with one
//! [`ColorSample`](crate::color_sample::ColorSample) machine each
//! (batched through [`ColorSampleBatch`]), *all machines sharing each
//! round's message*; then one
//! confirmation round (one bit per side per awake vertex) commits every
//! vertex whose sampled color no neighbor picked simultaneously.
//!
//! The active list is built once and kept across iterations: after
//! each confirmation it drops the committed vertices in place and
//! keeps vertex order, so every wake coin, machine and message is the
//! one an O(n) rescan would give. The per-vertex proposal table is
//! likewise allocated once and cleared at the awake vertices after
//! each confirmation.
//!
//! Guarantees (Lemma 4.1): after `⌈1 + 4·log_{24/23} log n⌉`
//! iterations the expected number of uncolored vertices is
//! `O(n / log⁴ n)`; expected communication is `O(n)` bits; worst-case
//! rounds `O(log log n · log Δ)`.

use crate::input::PartyInput;
use crate::sample_batch::ColorSampleBatch;
use bichrome_comm::session::PartyCtx;
use bichrome_comm::wire::BitWriter;
use bichrome_graph::coloring::{ColorId, VertexColoring};
use bichrome_graph::VertexId;
use rand::Rng;

/// Stream tag for wake/idle coin flips.
const WAKE_TAG: u64 = 0x8C7_0001;
/// Stream tag namespace for per-vertex color sampling.
const TRIAL_TAG: u64 = 0x8C7_0002;

/// Tuning of `Random-Color-Trial`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RctConfig {
    /// Number of iterations; `None` uses the paper's
    /// `⌈1 + 4·log_{24/23} log₂ n⌉`.
    pub iterations: Option<usize>,
    /// Stop early (it is a public decision) once every vertex is
    /// colored. Disable to measure the paper's worst-case iteration
    /// count exactly.
    pub early_exit: bool,
}

impl Default for RctConfig {
    fn default() -> Self {
        RctConfig {
            iterations: None,
            early_exit: true,
        }
    }
}

/// The paper's iteration count `⌈1 + 4·log_{24/23}(log₂ n)⌉`
/// (Algorithm 1, line 2), at least 1.
pub fn paper_iterations(n: usize) -> usize {
    let loglog = (n.max(2) as f64).log2().max(1.0).ln();
    let base = (24.0f64 / 23.0).ln();
    (1.0 + 4.0 * loglog / base).ceil() as usize
}

/// Instrumentation from one `Random-Color-Trial` run; identical on
/// both sides.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RctReport {
    /// Number of active vertices at the *start* of each executed
    /// iteration (index 0 = first iteration, so `[0] == n` minus any
    /// isolated pre-coloring — here always `n`).
    pub active_per_iteration: Vec<usize>,
    /// Active vertices remaining after the last iteration.
    pub remaining: usize,
    /// Iterations actually executed (≤ configured when `early_exit`).
    pub iterations_run: usize,
}

/// Runs one party's side of `Random-Color-Trial`, extending `coloring`
/// (the public partial coloring, initially empty) in place.
///
/// Both parties must call this with the same `ctx.coin`, the same
/// `config`, and `coloring`s with identical contents; they finish with
/// identical colorings — the color of every committed vertex is public.
pub fn run_random_color_trial(
    input: &PartyInput,
    ctx: &PartyCtx,
    coloring: &mut VertexColoring,
    config: &RctConfig,
) -> RctReport {
    let n = input.num_vertices();
    let palette = input.delta + 1;
    let iterations = config.iterations.unwrap_or_else(|| paper_iterations(n));
    ctx.endpoint.meter().set_phase("rct");

    let mut report = RctReport::default();
    let mut active: Vec<VertexId> = (0..n as u32)
        .map(VertexId)
        .filter(|&v| !coloring.is_colored(v))
        .collect();
    let mut proposal_of: Vec<Option<ColorId>> = vec![None; n];
    for iter in 0..iterations {
        if active.is_empty() && config.early_exit {
            break;
        }
        report.active_per_iteration.push(active.len());
        report.iterations_run = iter + 1;

        // Public wake coin per active vertex: no communication.
        let awake: Vec<VertexId> = active
            .iter()
            .copied()
            .filter(|v| {
                ctx.coin
                    .stream(&[WAKE_TAG, iter as u64, v.0 as u64])
                    .gen_bool(0.5)
            })
            .collect();
        if awake.is_empty() {
            continue;
        }

        // One Color-Sample machine per awake vertex, batched through
        // the SoA engine (bit-identical to per-machine `ColorSample`s;
        // duplicate occupied colors set the same membership bit, so no
        // dedup pass is needed).
        let mut batch = ColorSampleBatch::build(palette, awake.len(), &ctx.coin, |i, spec| {
            let v = awake[i];
            spec.set_stream(&[TRIAL_TAG, iter as u64, v.0 as u64]);
            spec.extend_occupied(
                input
                    .graph
                    .neighbors(v)
                    .iter()
                    .filter_map(|&u| coloring.get(u)),
            );
        });
        batch.drive(&ctx.endpoint);
        let proposals: Vec<ColorId> = batch.results().collect();

        // Confirmation round: for each awake vertex, one bit saying "no
        // neighbor of mine picked the same color this iteration".
        for (i, &v) in awake.iter().enumerate() {
            proposal_of[v.index()] = Some(proposals[i]);
        }
        let mut w = BitWriter::new();
        let my_ok: Vec<bool> = awake
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let clash = input
                    .graph
                    .neighbors(v)
                    .iter()
                    .any(|&u| proposal_of[u.index()] == Some(proposals[i]));
                !clash
            })
            .collect();
        w.write_bools(&my_ok);
        let incoming = ctx.endpoint.exchange(w.finish());
        let peer_ok = incoming.reader().read_bools(awake.len());

        for (i, &v) in awake.iter().enumerate() {
            if my_ok[i] && peer_ok[i] {
                coloring.set(v, proposals[i]);
            }
            proposal_of[v.index()] = None;
        }
        active.retain(|&v| !coloring.is_colored(v));
    }
    report.remaining = active.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_parties;
    use bichrome_graph::coloring::validate_partial_vertex_coloring;
    use bichrome_graph::partition::Partitioner;
    use bichrome_graph::{gen, Graph};

    fn run_rct(
        g: &Graph,
        part: Partitioner,
        seed: u64,
        config: RctConfig,
    ) -> (VertexColoring, RctReport, bichrome_comm::CommStats) {
        let ((ca, ra), (cb, rb), stats) = run_parties(&part.split(g), seed, |input, ctx| {
            let mut coloring = VertexColoring::new(input.num_vertices());
            let rep = run_random_color_trial(input, ctx, &mut coloring, &config);
            (coloring, rep)
        });
        assert_eq!(ca, cb, "parties must agree on the partial coloring");
        assert_eq!(ra, rb, "reports are public state");
        (ca, ra, stats)
    }

    #[test]
    fn paper_iterations_grows_doubly_logarithmically() {
        assert!(paper_iterations(2) >= 1);
        let small = paper_iterations(1 << 8);
        let big = paper_iterations(1 << 16);
        assert!(big > small);
        // log log growth: doubling the exponent adds ~ 4·ln(2)/ln(24/23) ≈ 65.
        assert!(
            big - small < 100,
            "growth must be additive-ish: {small} -> {big}"
        );
    }

    #[test]
    fn rct_produces_valid_partial_coloring() {
        let g = gen::gnp(60, 0.1, 5);
        let (c, rep, _) = run_rct(&g, Partitioner::Random(3), 11, RctConfig::default());
        assert!(validate_partial_vertex_coloring(&g, &c).is_ok());
        assert!(c.max_color().is_none_or(|m| m.index() <= g.max_degree()));
        assert_eq!(rep.remaining, c.uncolored_vertices().len());
    }

    #[test]
    fn rct_colors_most_vertices() {
        let g = gen::gnp(120, 0.08, 2);
        let (c, rep, _) = run_rct(&g, Partitioner::Alternating, 7, RctConfig::default());
        // Lemma 4.1(i): expected leftover O(n / log⁴ n) — tiny here.
        assert!(
            rep.remaining <= g.num_vertices() / 4,
            "too many uncolored: {} of {}",
            rep.remaining,
            g.num_vertices()
        );
        assert!(c.num_colored() + rep.remaining == g.num_vertices());
    }

    #[test]
    fn rct_activity_decays() {
        let g = gen::near_regular(150, 10, 4);
        let (_, rep, _) = run_rct(&g, Partitioner::Random(1), 3, RctConfig::default());
        let first = rep.active_per_iteration[0];
        assert_eq!(first, 150);
        // Find activity five iterations in (if the run lasted): it must
        // have shrunk markedly (expected factor (23/24)^5, empirically
        // much faster).
        if let Some(&later) = rep.active_per_iteration.get(5) {
            assert!(later < first, "activity must decay: {first} -> {later}");
        }
    }

    #[test]
    fn rct_on_empty_graph_colors_everything_first_wake() {
        let g = gen::empty(20);
        let (c, rep, stats) = run_rct(&g, Partitioner::AllToAlice, 0, RctConfig::default());
        assert!(c.is_complete());
        assert_eq!(rep.remaining, 0);
        // No conflicts are possible; a handful of iterations of wake
        // coins suffice, with bits only for sampling/confirmation.
        // P(some vertex idle 16 times) ≈ 20/2^16 — negligible.
        assert!(rep.iterations_run <= 16);
        assert!(stats.rounds > 0);
    }

    #[test]
    fn rct_respects_fixed_iteration_budget() {
        let g = gen::cycle(30);
        let cfg = RctConfig {
            iterations: Some(2),
            early_exit: false,
        };
        let (_, rep, _) = run_rct(&g, Partitioner::Alternating, 5, cfg);
        assert_eq!(rep.iterations_run, 2);
        assert_eq!(rep.active_per_iteration.len(), 2);
    }

    #[test]
    fn rct_deterministic_given_seed() {
        let g = gen::gnp(40, 0.15, 8);
        let (c1, r1, s1) = run_rct(&g, Partitioner::Random(2), 21, RctConfig::default());
        let (c2, r2, s2) = run_rct(&g, Partitioner::Random(2), 21, RctConfig::default());
        assert_eq!(c1, c2);
        assert_eq!(r1, r2);
        assert_eq!(s1.total_bits(), s2.total_bits());
    }

    #[test]
    fn rct_linear_communication_in_practice() {
        // Lemma 4.1(ii): expected O(n) bits. Check bits/n stays modest
        // and does not explode with n on a fixed-degree family.
        let mut per_n = Vec::new();
        for &n in &[100usize, 200, 400] {
            let g = gen::near_regular(n, 8, 9);
            let (_, _, stats) = run_rct(&g, Partitioner::Random(4), 17, RctConfig::default());
            per_n.push(stats.total_bits() as f64 / n as f64);
        }
        // Constant-ish bits per vertex: the largest ratio should not be
        // more than ~2.5x the smallest.
        let min = per_n.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = per_n.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 2.5, "bits-per-vertex ratios {per_n:?} not flat");
    }
}
