//! Edge partitions between the two parties.
//!
//! In the paper's model (§3.1) the edges of the input graph are
//! partitioned *adversarially* between Alice and Bob. A true adaptive
//! adversary is not computable, so experiments quantify over the
//! [`Partitioner`] family below, which includes the structured splits
//! used in the paper's lower-bound constructions (e.g. "Alice gets
//! everything").

use crate::graph::{Edge, Graph, VertexId};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::fmt;

/// Which party holds an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Party {
    /// The first party.
    Alice,
    /// The second party.
    Bob,
}

impl Party {
    /// The opposite party.
    #[inline]
    pub fn other(self) -> Party {
        match self {
            Party::Alice => Party::Bob,
            Party::Bob => Party::Alice,
        }
    }
}

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Party::Alice => write!(f, "Alice"),
            Party::Bob => write!(f, "Bob"),
        }
    }
}

/// A partition of a graph's edges into Alice's part `E_A` and Bob's
/// part `E_B`, each materialized as a subgraph on the full vertex set.
///
/// Both sides are cut from one [`EdgeId`](crate::EdgeId)-indexed
/// ownership mask over the whole graph's edge list, so
/// [`Partitioner::split`] hashes and searches nothing. Invariant:
/// `alice.union(&bob) == whole` and the two edge sets are disjoint.
#[derive(Debug, Clone)]
pub struct EdgePartition {
    whole: Graph,
    alice: Graph,
    bob: Graph,
}

impl EdgePartition {
    /// Assembles a partition from the whole graph and Alice's edge set.
    ///
    /// Edges of `whole` not in `alice_edges` go to Bob.
    ///
    /// # Panics
    ///
    /// Panics if `alice_edges` contains an edge not in `whole`.
    pub fn new(whole: Graph, alice_edges: &[Edge]) -> Self {
        let mut is_alice = vec![false; whole.num_edges()];
        for &e in alice_edges {
            let i = whole
                .edges()
                .binary_search(&e)
                .unwrap_or_else(|_| panic!("edge {e} assigned to Alice is not in the graph"));
            is_alice[i] = true;
        }
        EdgePartition::from_mask(whole, &is_alice)
    }

    /// Splits `whole` by an ownership mask: `is_alice[i]` says whether
    /// [`EdgeId`](crate::EdgeId)`(i)` goes to Alice.
    fn from_mask(whole: Graph, is_alice: &[bool]) -> Self {
        debug_assert_eq!(is_alice.len(), whole.num_edges());
        let alice = whole.edge_subgraph_where(|id, _| is_alice[id.index()]);
        let bob = whole.edge_subgraph_where(|id, _| !is_alice[id.index()]);
        EdgePartition { whole, alice, bob }
    }

    /// The full input graph `G`.
    pub fn whole(&self) -> &Graph {
        &self.whole
    }

    /// Alice's subgraph `G_A = (V, E_A)`.
    pub fn alice(&self) -> &Graph {
        &self.alice
    }

    /// Bob's subgraph `G_B = (V, E_B)`.
    pub fn bob(&self) -> &Graph {
        &self.bob
    }

    /// The subgraph of the given party.
    pub fn side(&self, p: Party) -> &Graph {
        match p {
            Party::Alice => &self.alice,
            Party::Bob => &self.bob,
        }
    }

    /// Which party holds edge `e`.
    ///
    /// Returns `None` if `e` is not an edge of the graph.
    pub fn owner(&self, e: Edge) -> Option<Party> {
        if self.alice.edges().binary_search(&e).is_ok() {
            Some(Party::Alice)
        } else if self.bob.edges().binary_search(&e).is_ok() {
            Some(Party::Bob)
        } else {
            None
        }
    }

    /// Number of vertices of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.whole.num_vertices()
    }

    /// Maximum degree Δ of the *whole* graph — the parameter both
    /// parties are given in the model.
    pub fn max_degree(&self) -> usize {
        self.whole.max_degree()
    }

    /// Degree of `v` in the whole graph.
    pub fn degree(&self, v: VertexId) -> usize {
        self.whole.degree(v)
    }
}

/// Strategies for splitting edges between the parties.
///
/// `Hash` lets the runner's instance cache key materialized
/// partitions by `(spec, graph seed, partitioner)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partitioner {
    /// Every edge goes to Alice (the split used in the paper's
    /// vertex-coloring lower bound, §2.3).
    AllToAlice,
    /// Every edge goes to Bob.
    AllToBob,
    /// Edge `i` (in sorted order) goes to Alice iff `i` is even.
    Alternating,
    /// Each edge goes to Alice independently with probability 1/2,
    /// derived from the given seed.
    Random(u64),
    /// Edge `{u, v}` goes to Alice iff `u + v` is even — a structured
    /// split that separates neighborhoods.
    ParitySum,
    /// Edges incident to low ids go to Alice: `{u,v}` (u<v) to Alice
    /// iff `u < n/2` — concentrates each vertex's edges on one side.
    LowHalf,
}

impl Partitioner {
    /// Applies the strategy to `g`.
    pub fn split(self, g: &Graph) -> EdgePartition {
        let n = g.num_vertices();
        let edges = g.edges().iter();
        let is_alice: Vec<bool> = match self {
            Partitioner::AllToAlice => vec![true; g.num_edges()],
            Partitioner::AllToBob => vec![false; g.num_edges()],
            Partitioner::Alternating => (0..g.num_edges()).map(|i| i % 2 == 0).collect(),
            Partitioner::Random(seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                edges.map(|_| rng.gen_bool(0.5)).collect()
            }
            Partitioner::ParitySum => edges.map(|e| (e.u().0 + e.v().0) % 2 == 0).collect(),
            Partitioner::LowHalf => edges.map(|e| e.u().index() < n / 2).collect(),
        };
        EdgePartition::from_mask(g.clone(), &is_alice)
    }

    /// The family of partitioners experiments sweep over, with `seed`
    /// feeding the randomized member.
    pub fn family(seed: u64) -> Vec<Partitioner> {
        vec![
            Partitioner::AllToAlice,
            Partitioner::AllToBob,
            Partitioner::Alternating,
            Partitioner::Random(seed),
            Partitioner::ParitySum,
            Partitioner::LowHalf,
        ]
    }
}

impl fmt::Display for Partitioner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Partitioner::AllToAlice => write!(f, "all-to-alice"),
            Partitioner::AllToBob => write!(f, "all-to-bob"),
            Partitioner::Alternating => write!(f, "alternating"),
            Partitioner::Random(s) => write!(f, "random({s})"),
            Partitioner::ParitySum => write!(f, "parity-sum"),
            Partitioner::LowHalf => write!(f, "low-half"),
        }
    }
}

/// Why a partitioner string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePartitionerError {
    /// Not one of the known strategy names.
    UnknownStrategy(String),
    /// `random(...)` whose seed is not a `u64`.
    BadSeed(String),
}

impl fmt::Display for ParsePartitionerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePartitionerError::UnknownStrategy(s) => {
                write!(
                    f,
                    "unknown partitioner {s:?} (expected all-to-alice, all-to-bob, \
                     alternating, random(<seed>), parity-sum, or low-half)"
                )
            }
            ParsePartitionerError::BadSeed(s) => {
                write!(f, "partitioner seed {s:?} is not an unsigned integer")
            }
        }
    }
}

impl std::error::Error for ParsePartitionerError {}

impl std::str::FromStr for Partitioner {
    type Err = ParsePartitionerError;

    /// Parses the round-trip [`Display`](fmt::Display) form, e.g.
    /// `"alternating"` or `"random(7)"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "all-to-alice" => Ok(Partitioner::AllToAlice),
            "all-to-bob" => Ok(Partitioner::AllToBob),
            "alternating" => Ok(Partitioner::Alternating),
            "parity-sum" => Ok(Partitioner::ParitySum),
            "low-half" => Ok(Partitioner::LowHalf),
            other => match other
                .strip_prefix("random(")
                .and_then(|rest| rest.strip_suffix(')'))
            {
                Some(seed) => seed
                    .trim()
                    .parse()
                    .map(Partitioner::Random)
                    .map_err(|_| ParsePartitionerError::BadSeed(seed.trim().to_string())),
                None => Err(ParsePartitionerError::UnknownStrategy(other.to_string())),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn check_partition_invariants(p: &EdgePartition) {
        let merged = p.alice().union(p.bob());
        assert_eq!(&merged, p.whole(), "alice ∪ bob must equal the whole graph");
        assert_eq!(
            p.alice().num_edges() + p.bob().num_edges(),
            p.whole().num_edges(),
            "partition must be disjoint"
        );
        for &e in p.whole().edges() {
            assert!(p.owner(e).is_some());
        }
    }

    #[test]
    fn all_partitioners_are_valid_partitions() {
        let g = gen::gnp(40, 0.2, 11);
        for part in Partitioner::family(7) {
            let p = part.split(&g);
            check_partition_invariants(&p);
        }
    }

    #[test]
    fn all_to_alice_gives_bob_nothing() {
        let g = gen::cycle(10);
        let p = Partitioner::AllToAlice.split(&g);
        assert_eq!(p.alice().num_edges(), 10);
        assert_eq!(p.bob().num_edges(), 0);
        assert_eq!(p.owner(g.edges()[0]), Some(Party::Alice));
    }

    #[test]
    fn alternating_splits_roughly_in_half() {
        let g = gen::complete(8); // 28 edges
        let p = Partitioner::Alternating.split(&g);
        assert_eq!(p.alice().num_edges(), 14);
        assert_eq!(p.bob().num_edges(), 14);
    }

    #[test]
    fn random_split_deterministic_per_seed() {
        let g = gen::gnp(30, 0.3, 2);
        let p1 = Partitioner::Random(5).split(&g);
        let p2 = Partitioner::Random(5).split(&g);
        assert_eq!(p1.alice().edges(), p2.alice().edges());
    }

    #[test]
    fn degrees_add_up_per_vertex() {
        let g = gen::gnp(25, 0.4, 3);
        let p = Partitioner::Random(9).split(&g);
        for v in g.vertices() {
            assert_eq!(
                p.alice().degree(v) + p.bob().degree(v),
                g.degree(v),
                "N(v) = N_A(v) ⊔ N_B(v)"
            );
        }
    }

    #[test]
    fn new_matches_split() {
        let g = gen::gnp(30, 0.3, 4);
        let alice: Vec<Edge> = g.edges().iter().copied().step_by(2).collect();
        let p = EdgePartition::new(g.clone(), &alice);
        assert_eq!(p.alice(), Partitioner::Alternating.split(&g).alice());
        check_partition_invariants(&p);
    }

    #[test]
    #[should_panic(expected = "not in the graph")]
    fn new_rejects_foreign_edges() {
        let g = gen::path(4);
        EdgePartition::new(g, &[Edge::new(VertexId(0), VertexId(9))]);
    }

    #[test]
    fn owner_of_non_edge_is_none() {
        let g = gen::path(4);
        let p = Partitioner::Alternating.split(&g);
        assert_eq!(p.owner(Edge::new(VertexId(0), VertexId(3))), None);
    }

    #[test]
    fn party_other_flips() {
        assert_eq!(Party::Alice.other(), Party::Bob);
        assert_eq!(Party::Bob.other(), Party::Alice);
    }

    #[test]
    fn partitioner_display_round_trips() {
        for part in Partitioner::family(123_456_789) {
            let text = part.to_string();
            let back: Partitioner = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, part, "{text} must round-trip");
        }
        assert_eq!(
            " random( 7 ) ".parse::<Partitioner>(),
            Ok(Partitioner::Random(7))
        );
    }

    #[test]
    fn partitioner_parsing_rejects_malformed_input() {
        assert_eq!(
            "frobnicate".parse::<Partitioner>(),
            Err(ParsePartitionerError::UnknownStrategy("frobnicate".into()))
        );
        assert_eq!(
            "random(-1)".parse::<Partitioner>(),
            Err(ParsePartitionerError::BadSeed("-1".into()))
        );
        assert_eq!(
            "random(7".parse::<Partitioner>(),
            Err(ParsePartitionerError::UnknownStrategy("random(7".into()))
        );
    }
}
