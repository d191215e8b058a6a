//! The string-keyed protocol registry: every protocol the paper
//! defines (and every baseline it compares against), constructible by
//! name. Adding a scenario to the whole harness — benches, examples,
//! services — is one entry here.
//!
//! | key | paper reference | guarantee |
//! |-----|-----------------|-----------|
//! | `vertex/theorem1` | Theorem 1 | `(Δ+1)`-vertex, `O(n)` bits, `O(log log n · log Δ)` rounds |
//! | `edge/theorem2` | Theorem 2 | `(2Δ−1)`-edge, `O(n)` bits, `O(1)` rounds |
//! | `edge/theorem3-zero-comm` | Theorem 3 | `(2Δ)`-edge, zero communication |
//! | `edge/lemma5.1-bounded` | Lemma 5.1 | `(2Δ−1)`-edge for constant Δ, one round |
//! | `baseline/flin-mittal` | \[FM25\] | `(Δ+1)`-vertex, `O(n)` bits, `Ω(n)` rounds |
//! | `baseline/greedy-binary-search` | folklore | `(Δ+1)`-vertex, `O(n log² Δ)` bits |
//! | `baseline/send-everything` | trivial | `(Δ+1)`-vertex, `O(m log n)` bits, 1 round |
//! | `streaming/greedy-w` | §6.4 | weaker-(2Δ−1) via W-streaming simulation |
//! | `streaming/chunked-w` | §6.4 | proper edge coloring via chunked W-streaming |

use crate::instance::Instance;
use crate::protocol::{Outcome, Protocol};
use bichrome_comm::CommStats;
use bichrome_core::baselines::Baseline;
use bichrome_core::edge::{self, bounded, two_delta};
use bichrome_core::rct::RctConfig;
use bichrome_core::run_parties;
use bichrome_core::vertex::vertex_coloring_party;
use bichrome_graph::coloring::EdgeColoring;
use bichrome_streaming::algorithms::{ChunkedWStreaming, GreedyWStreaming};
use bichrome_streaming::reduction::simulate_streaming_two_party;
use std::sync::Arc;

/// **Theorem 1**: `(Δ+1)`-vertex coloring — `Random-Color-Trial`
/// followed by D1LC with palette sparsification.
#[derive(Debug, Clone, Default)]
pub struct VertexTheorem1 {
    /// `Random-Color-Trial` tuning.
    pub config: RctConfig,
}

impl Protocol for VertexTheorem1 {
    fn name(&self) -> &str {
        "vertex/theorem1"
    }

    fn describe(&self) -> &str {
        "Theorem 1: (Δ+1)-vertex coloring, O(n) expected bits, O(log log n · log Δ) rounds"
    }

    fn run(&self, inst: &Instance) -> Outcome {
        let (alice, bob, stats) = run_parties(&inst.partition, inst.seed, |input, ctx| {
            vertex_coloring_party(input, ctx, &self.config)
        });
        // The RCT report is public state too, so it must agree.
        let Some((coloring, rct)) = agreed(alice, bob) else {
            return Outcome::failed(
                "parties disagree on the vertex coloring or RCT report",
                stats,
            );
        };
        // RCT-stage instrumentation rides along as metrics so
        // iteration-budget ablations (a1) are plain campaigns.
        Outcome::vertex(inst.graph(), coloring, stats, inst.delta() + 1)
            .with_metric("rct_remaining", rct.remaining as f64)
            .with_metric("rct_iterations", rct.iterations_run as f64)
    }
}

/// **Theorem 2**: deterministic `(2Δ−1)`-edge coloring, dispatching
/// between Lemma 5.1 (`Δ ≤ 7`) and Algorithm 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeTheorem2;

impl Protocol for EdgeTheorem2 {
    fn name(&self) -> &str {
        "edge/theorem2"
    }

    fn describe(&self) -> &str {
        "Theorem 2: deterministic (2Δ−1)-edge coloring, O(n) bits, O(1) rounds"
    }

    fn run(&self, inst: &Instance) -> Outcome {
        let (alice, bob, stats) = run_parties(&inst.partition, inst.seed, edge::theorem2_party);
        let budget = (2 * inst.delta()).saturating_sub(1).max(1);
        merge_edge_outcome(inst, alice, bob, stats, budget)
    }
}

/// **Theorem 3**: `(2Δ)`-edge coloring with *zero* communication.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeTheorem3ZeroComm;

impl Protocol for EdgeTheorem3ZeroComm {
    fn name(&self) -> &str {
        "edge/theorem3-zero-comm"
    }

    fn describe(&self) -> &str {
        "Theorem 3: (2Δ)-edge coloring with zero communication"
    }

    fn run(&self, inst: &Instance) -> Outcome {
        let (alice, bob, stats) = run_parties(&inst.partition, inst.seed, |input, _| {
            two_delta::two_delta_party(input)
        });
        let budget = (2 * inst.delta()).max(1);
        merge_edge_outcome(inst, alice, bob, stats, budget)
    }
}

/// **Lemma 5.1**: the one-round constant-Δ `(2Δ−1)` protocol, exposed
/// directly (Theorem 2 dispatches to it when `Δ ≤ 7`).
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeLemma51Bounded;

impl Protocol for EdgeLemma51Bounded {
    fn name(&self) -> &str {
        "edge/lemma5.1-bounded"
    }

    fn describe(&self) -> &str {
        "Lemma 5.1: one-round (2Δ−1)-edge coloring, O(Δ·n) bits (O(n) for constant Δ)"
    }

    fn run(&self, inst: &Instance) -> Outcome {
        if inst.delta() == 0 {
            let p = &inst.partition;
            return merge_edge_outcome(
                inst,
                EdgeColoring::dense_for(p.alice()),
                EdgeColoring::dense_for(p.bob()),
                CommStats::default(),
                1,
            );
        }
        let (alice, bob, stats) =
            run_parties(&inst.partition, inst.seed, bounded::bounded_delta_party);
        merge_edge_outcome(
            inst,
            alice,
            bob,
            stats,
            (2 * inst.delta()).saturating_sub(1).max(1),
        )
    }
}

/// One of the paper's three comparison baselines, run through the
/// uniform interface.
#[derive(Debug, Clone, Copy)]
pub struct BaselineProtocol {
    which: Baseline,
    name: &'static str,
    describe: &'static str,
}

impl BaselineProtocol {
    /// The baseline protocol for `which`.
    pub fn new(which: Baseline) -> Self {
        let (name, describe) = match which {
            Baseline::FlinMittal => (
                "baseline/flin-mittal",
                "[FM25]: sequential random-order (Δ+1)-vertex coloring, O(n) bits, Ω(n) rounds",
            ),
            Baseline::GreedyBinarySearch => (
                "baseline/greedy-binary-search",
                "folklore: greedy + binary search, O(n log² Δ) bits, O(n log Δ) rounds",
            ),
            Baseline::SendEverything => (
                "baseline/send-everything",
                "trivial: exchange both edge sets in one round, O(m log n) bits",
            ),
        };
        BaselineProtocol {
            which,
            name,
            describe,
        }
    }
}

impl Protocol for BaselineProtocol {
    fn name(&self) -> &str {
        self.name
    }

    fn describe(&self) -> &str {
        self.describe
    }

    fn run(&self, inst: &Instance) -> Outcome {
        let (alice, bob, stats) = run_parties(&inst.partition, inst.seed, |input, ctx| {
            self.which.party(input, ctx)
        });
        let Some(coloring) = agreed(alice, bob) else {
            return Outcome::failed("baseline parties disagree", stats);
        };
        Outcome::vertex(inst.graph(), coloring, stats, inst.delta() + 1)
    }
}

/// The §6.4 streaming-to-two-party reduction over a W-streaming
/// algorithm.
#[derive(Debug, Clone, Copy)]
pub struct StreamingReduction {
    /// Which W-streaming algorithm drives the simulation.
    chunked: bool,
}

impl StreamingReduction {
    /// The reduction over the greedy `(2Δ−1)` W-streaming algorithm.
    pub fn greedy() -> Self {
        StreamingReduction { chunked: false }
    }

    /// The reduction over the chunked (√Δ̄-capacity) algorithm.
    pub fn chunked() -> Self {
        StreamingReduction { chunked: true }
    }
}

impl Protocol for StreamingReduction {
    fn name(&self) -> &str {
        if self.chunked {
            "streaming/chunked-w"
        } else {
            "streaming/greedy-w"
        }
    }

    fn describe(&self) -> &str {
        if self.chunked {
            "§6.4 reduction over chunked W-streaming: proper edge coloring, O(passes·state) bits"
        } else {
            "§6.4 reduction over greedy W-streaming: weaker-(2Δ−1) output, O(passes·state) bits"
        }
    }

    fn run(&self, inst: &Instance) -> Outcome {
        let n = inst.n();
        let delta = inst.delta().max(1);
        let (output, stats) = if self.chunked {
            let sim = simulate_streaming_two_party(
                &inst.partition,
                move || ChunkedWStreaming::with_sqrt_delta_capacity(n, delta),
                inst.seed,
            );
            (sim.output, sim.stats)
        } else {
            let sim = simulate_streaming_two_party(
                &inst.partition,
                move || GreedyWStreaming::new(n, delta),
                inst.seed,
            );
            (sim.output, sim.stats)
        };
        match output.combined() {
            Ok(merged) => {
                // Greedy W-streaming promises the (2Δ−1) palette; the
                // chunked algorithm only promises a proper coloring.
                let budget = if self.chunked {
                    None
                } else {
                    Some(2 * delta - 1)
                };
                Outcome::edge(inst.graph(), merged, stats, budget)
            }
            Err(e) => Outcome::failed(format!("conflicting color reports on {e}"), stats),
        }
    }
}

/// The output both parties reached, or `None` when they disagree: a
/// protocol bug that must fail the trial.
fn agreed<T: PartialEq>(alice: T, bob: T) -> Option<T> {
    (alice == bob).then_some(alice)
}

/// Judges an edge protocol's two outputs. Each party outputs colors
/// for its own edges only (§3.1), so a party's coloring that is not a
/// coloring of that party's own edge list fails the trial; the
/// partition's ownership bits then lay the two onto the whole graph,
/// where they are validated.
fn merge_edge_outcome(
    inst: &Instance,
    alice: EdgeColoring,
    bob: EdgeColoring,
    stats: CommStats,
    budget: usize,
) -> Outcome {
    match inst.partition.join(&alice, &bob) {
        Ok(merged) => Outcome::edge(inst.graph(), merged, stats, Some(budget)),
        Err(p) => Outcome::failed(
            format!("{p}'s coloring is not a coloring of {p}'s own edges"),
            stats,
        ),
    }
}

/// The string-keyed collection of every registered protocol.
#[derive(Clone)]
pub struct Registry {
    protocols: Vec<Arc<dyn Protocol>>,
}

impl Registry {
    /// Looks a protocol up by its registry key.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Protocol>> {
        self.protocols.iter().find(|p| p.name() == name).cloned()
    }

    /// All registry keys, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.protocols.iter().map(|p| p.name()).collect()
    }

    /// Iterates over the registered protocols.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Protocol>> {
        self.protocols.iter()
    }

    /// Number of registered protocols.
    pub fn len(&self) -> usize {
        self.protocols.len()
    }

    /// Whether the registry is empty (it never is).
    pub fn is_empty(&self) -> bool {
        self.protocols.is_empty()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("names", &self.names())
            .finish()
    }
}

/// Every protocol in the workspace, keyed by name. See the
/// [module docs](self) for the key ↔ paper-theorem map.
pub fn registry() -> Registry {
    Registry {
        protocols: vec![
            Arc::new(VertexTheorem1::default()),
            Arc::new(EdgeTheorem2),
            Arc::new(EdgeTheorem3ZeroComm),
            Arc::new(EdgeLemma51Bounded),
            Arc::new(BaselineProtocol::new(Baseline::FlinMittal)),
            Arc::new(BaselineProtocol::new(Baseline::GreedyBinarySearch)),
            Arc::new(BaselineProtocol::new(Baseline::SendEverything)),
            Arc::new(StreamingReduction::greedy()),
            Arc::new(StreamingReduction::chunked()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Verdict;
    use bichrome_graph::edge_color::misra_gries;
    use bichrome_graph::gen;
    use bichrome_graph::partition::Partitioner;

    #[test]
    fn an_edge_party_coloring_outside_its_own_edges_fails_the_trial() {
        let g = gen::cycle(8);
        let inst = Instance::new("c8", Partitioner::Alternating.split(&g), 0);
        let p = &inst.partition;
        // A proper coloring of the whole graph, handed in as Alice's
        // output: every color is right, but half of them are Bob's.
        let whole = misra_gries(p.whole());
        let only = |side: &bichrome_graph::Graph| {
            let mut c = EdgeColoring::dense_for(side);
            for &e in side.edges() {
                c.set(e, whole.get(e).expect("complete"));
            }
            c
        };
        let judged = |alice, bob| merge_edge_outcome(&inst, alice, bob, CommStats::default(), 3);
        assert!(judged(only(p.alice()), only(p.bob())).verdict.is_valid());
        let out = judged(whole.clone(), EdgeColoring::dense_for(p.bob()));
        assert_eq!(
            out.verdict,
            Verdict::Invalid("Alice's coloring is not a coloring of Alice's own edges".into())
        );
        let out = judged(only(p.alice()), only(p.whole()));
        assert!(!out.verdict.is_valid(), "Bob's output over the whole graph");
    }
}
