//! Edge partitions between the two parties.
//!
//! In the paper's model (§3.1) the edges of the input graph are
//! partitioned *adversarially* between Alice and Bob. A true adaptive
//! adversary is not computable, so experiments quantify over the
//! [`Partitioner`] family below, which includes the structured splits
//! used in the paper's lower-bound constructions (e.g. "Alice gets
//! everything").

use crate::coloring::EdgeColoring;
use crate::graph::{Edge, Graph, VertexId};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::fmt;
use std::sync::Arc;

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
/// The partition is the one record of who holds each edge. It shares
/// the whole graph behind an `Arc` (the instance cache's own graph,
/// never a copy) and keeps one ownership bitset over its
/// [`EdgeId`](crate::EdgeId)s: bit `i` is set iff Alice holds
/// `EdgeId(i)`, with a running count per 64-bit word. Both sides are
/// cut from the whole graph's CSR in one pass: a side's incidence
/// lists are its owner's subsequences of the whole graph's (already
/// sorted), and an edge's id in its side is its rank among its
/// owner's edges. The same bits answer
/// [`owner`](EdgePartition::owner) and lay the two parties' colorings
/// onto the whole graph ([`join`](EdgePartition::join)).
///
/// Invariant: `alice.union(&bob) == whole` and the two edge sets are
/// disjoint.
#[derive(Debug, Clone)]
pub struct EdgePartition {
    whole: Arc<Graph>,
    owned: Ownership,
    alice: Graph,
    bob: Graph,
}

impl EdgePartition {
    /// Assembles a partition from the whole graph and Alice's edge set.
    /// An `Arc<Graph>` is kept as it is, not copied.
    ///
    /// Edges of `whole` not in `alice_edges` go to Bob.
    ///
    /// # Panics
    ///
    /// Panics if `alice_edges` contains an edge not in `whole`.
    pub fn new(whole: impl Into<Arc<Graph>>, alice_edges: &[Edge]) -> Self {
        let whole = whole.into();
        let mut words = vec![0u64; whole.num_edges().div_ceil(64)];
        for &e in alice_edges {
            let i = whole
                .edges()
                .binary_search(&e)
                .unwrap_or_else(|_| panic!("edge {e} assigned to Alice is not in the graph"));
            words[i / 64] |= 1 << (i % 64);
        }
        EdgePartition::cut(whole, Ownership::from_words(words))
    }

    /// Cuts both sides of `whole` along `owned`.
    fn cut(whole: Arc<Graph>, owned: Ownership) -> Self {
        let [bob, alice] = whole.cut(&owned);
        EdgePartition {
            whole,
            owned,
            alice,
            bob,
        }
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

    /// Which party holds edge `e`: its bit in the ownership bitset.
    ///
    /// Returns `None` if `e` is not an edge of the graph.
    pub fn owner(&self, e: Edge) -> Option<Party> {
        if e.v().index() >= self.num_vertices() {
            return None;
        }
        let id = self.whole.edge_id(e.u(), e.v())?;
        Some(match self.owned.bit(id.index()) {
            1 => Party::Alice,
            _ => Party::Bob,
        })
    }

    /// Lays the parties' colorings onto the whole graph in one pass
    /// over its edge ids: each edge takes its owner's color at its
    /// rank. The result equals [`EdgeColoring::dense_for`]`(whole)`
    /// with both colorings [`merge`](EdgeColoring::merge)d in.
    ///
    /// # Errors
    ///
    /// Returns the party whose coloring is not a coloring of its own
    /// side's edge list (see [`EdgeColoring::is_indexed_for`]).
    pub fn join(&self, alice: &EdgeColoring, bob: &EdgeColoring) -> Result<EdgeColoring, Party> {
        for (party, coloring) in [(Party::Alice, alice), (Party::Bob, bob)] {
            if !coloring.is_indexed_for(self.side(party)) {
                return Err(party);
            }
        }
        let sides = [bob.slots(), alice.slots()];
        let mut at = [0usize; 2];
        let slots = (0..self.whole.num_edges())
            .map(|i| {
                let own = self.owned.bit(i);
                let c = sides[own][at[own]];
                at[own] += 1;
                c
            })
            .collect();
        Ok(EdgeColoring::from_slots(
            &self.whole,
            slots,
            alice.len() + bob.len(),
        ))
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

/// Which party holds each edge of a graph: bit `i` of `words` is set
/// iff Alice holds [`EdgeId`](crate::EdgeId)`(i)`, and
/// `alice_before[w]` counts Alice's edges in `words[..w]`, so an
/// edge's rank among its owner's edges is O(1). About 190 KB at
/// m = 10⁶.
#[derive(Debug, Clone)]
pub(crate) struct Ownership {
    words: Vec<u64>,
    alice_before: Vec<u32>,
}

impl Ownership {
    /// The ownership a bitset records; its bits past the last edge
    /// must be clear.
    fn from_words(words: Vec<u64>) -> Self {
        let mut count = 0u32;
        let alice_before = words
            .iter()
            .map(|w| {
                let before = count;
                count += w.count_ones();
                before
            })
            .collect();
        Ownership {
            words,
            alice_before,
        }
    }

    /// Alice holds `edges[i]` iff `is_alice(i, edges[i])`.
    fn from_fn(edges: &[Edge], mut is_alice: impl FnMut(usize, Edge) -> bool) -> Self {
        let mut words = vec![0u64; edges.len().div_ceil(64)];
        for (i, &e) in edges.iter().enumerate() {
            words[i / 64] |= u64::from(is_alice(i, e)) << (i % 64);
        }
        Ownership::from_words(words)
    }

    /// 1 if Alice holds edge `i`, 0 if Bob does.
    #[inline]
    pub(crate) fn bit(&self, i: usize) -> usize {
        ((self.words[i / 64] >> (i % 64)) & 1) as usize
    }

    /// [`bit`](Ownership::bit)`(i)`, and how many of the edges below
    /// `i` Alice holds: `i`'s rank among Alice's edges if she holds
    /// it, and `i` minus its rank among Bob's if he does.
    #[inline]
    pub(crate) fn locate(&self, i: usize) -> (usize, u32) {
        let word = self.words[i / 64];
        let below = (word & ((1u64 << (i % 64)) - 1)).count_ones();
        (
            ((word >> (i % 64)) & 1) as usize,
            self.alice_before[i / 64] + below,
        )
    }

    /// Number of edges Alice holds.
    pub(crate) fn alice_count(&self) -> usize {
        match (self.alice_before.last(), self.words.last()) {
            (Some(&before), Some(&word)) => (before + word.count_ones()) as usize,
            _ => 0,
        }
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
    /// Applies the strategy to a copy of `g`, which the partition
    /// keeps as its whole graph. [`split_shared`](Partitioner::split_shared)
    /// splits a shared graph without copying it.
    pub fn split(self, g: &Graph) -> EdgePartition {
        self.split_shared(Arc::new(g.clone()))
    }

    /// Applies the strategy to `g`, which the partition keeps as its
    /// whole graph: the strategy fills the ownership bitset, and both
    /// sides are cut from `g`'s CSR by rank (see [`EdgePartition`]).
    pub fn split_shared(self, g: Arc<Graph>) -> EdgePartition {
        let n = g.num_vertices();
        let edges = g.edges();
        let owned = match self {
            Partitioner::AllToAlice => Ownership::from_fn(edges, |_, _| true),
            Partitioner::AllToBob => Ownership::from_fn(edges, |_, _| false),
            Partitioner::Alternating => Ownership::from_fn(edges, |i, _| i % 2 == 0),
            Partitioner::Random(seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                Ownership::from_fn(edges, |_, _| rng.gen_bool(0.5))
            }
            Partitioner::ParitySum => {
                Ownership::from_fn(edges, |_, e| (e.u().0 + e.v().0) % 2 == 0)
            }
            Partitioner::LowHalf => Ownership::from_fn(edges, |_, e| e.u().index() < n / 2),
        };
        EdgePartition::cut(g, owned)
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

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::coloring::ColorId;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    /// The graph on `n` vertices whose edges `pairs` name, modulo `n`
    /// (self-loops skipped, duplicates merged).
    fn graph_of(n: usize, pairs: &[(u8, u8)]) -> Graph {
        let mut b = GraphBuilder::new(n);
        for &(a, c) in pairs.iter().filter(|_| n > 0) {
            let (a, c) = (a as usize % n, c as usize % n);
            if a != c {
                b.add_edge(VertexId(a as u32), VertexId(c as u32));
            }
        }
        b.build()
    }

    /// What each strategy assigns, edge by edge, as a `Vec<bool>`.
    fn reference_mask(part: Partitioner, g: &Graph) -> Vec<bool> {
        let n = g.num_vertices();
        let edges = g.edges().iter();
        match part {
            Partitioner::AllToAlice => vec![true; g.num_edges()],
            Partitioner::AllToBob => vec![false; g.num_edges()],
            Partitioner::Alternating => (0..g.num_edges()).map(|i| i % 2 == 0).collect(),
            Partitioner::Random(seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                edges.map(|_| rng.gen_bool(0.5)).collect()
            }
            Partitioner::ParitySum => edges.map(|e| (e.u().0 + e.v().0) % 2 == 0).collect(),
            Partitioner::LowHalf => edges.map(|e| e.u().index() < n / 2).collect(),
        }
    }

    /// `p` against scratch builds: each side equals a `GraphBuilder`
    /// build over the edges `is_alice` gives its owner, and `owner`
    /// reads the same split.
    fn assert_cut_by(p: &EdgePartition, is_alice: &[bool]) {
        let g = p.whole();
        for party in [Party::Alice, Party::Bob] {
            let mut b = GraphBuilder::new(g.num_vertices());
            for (&e, &a) in g.edges().iter().zip(is_alice) {
                if a == (party == Party::Alice) {
                    b.push(e);
                }
            }
            prop_assert_eq!(p.side(party), &b.build(), "{} of {}", party, g);
        }
        for (&e, &a) in g.edges().iter().zip(is_alice) {
            let want = if a { Party::Alice } else { Party::Bob };
            prop_assert_eq!(p.owner(e), Some(want));
        }
    }

    /// A random coloring of `side`: each edge colored from `0..5` with
    /// probability 2/3.
    fn random_coloring(side: &Graph, rng: &mut StdRng) -> EdgeColoring {
        let mut c = EdgeColoring::dense_for(side);
        for &e in side.edges() {
            if rng.gen_range(0..3u32) != 0 {
                c.set(e, ColorId(rng.gen_range(0..5)));
            }
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn both_sides_equal_scratch_builds(
            n in 0usize..40,
            pairs in proptest::collection::vec((0u8..255, 0u8..255), 0..300),
            seed in 0u64..1_000,
            density in 0u32..=4,
        ) {
            let g = graph_of(n, &pairs);
            for part in Partitioner::family(seed) {
                let p = part.split(&g);
                assert_cut_by(&p, &reference_mask(part, &g));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let is_alice: Vec<bool> = g
                .edges()
                .iter()
                .map(|_| rng.gen_range(0..4u32) < density)
                .collect();
            let alice: Vec<Edge> = g
                .edges()
                .iter()
                .zip(&is_alice)
                .filter(|&(_, &a)| a)
                .map(|(&e, _)| e)
                .collect();
            assert_cut_by(&EdgePartition::new(g, &alice), &is_alice);
        }

        #[test]
        fn join_equals_merging_both_sides(
            n in 0usize..40,
            pairs in proptest::collection::vec((0u8..255, 0u8..255), 0..300),
            seed in 0u64..1_000,
        ) {
            let g = graph_of(n, &pairs);
            let mut rng = StdRng::seed_from_u64(seed);
            for part in Partitioner::family(seed) {
                let p = part.split(&g);
                let alice = random_coloring(p.alice(), &mut rng);
                let bob = random_coloring(p.bob(), &mut rng);
                let mut merged = EdgeColoring::dense_for(p.whole());
                merged.merge(&alice).expect("Alice's edges are the graph's");
                merged.merge(&bob).expect("the sides are disjoint");
                let joined = p.join(&alice, &bob).expect("each side colors its own edges");
                prop_assert!(joined.is_indexed_for(p.whole()));
                prop_assert_eq!(joined.len(), merged.len());
                prop_assert_eq!(&joined, &merged);
                prop_assert_eq!(p.join(&bob, &bob).err(), Some(Party::Alice));
                prop_assert_eq!(p.join(&alice, &alice).err(), Some(Party::Bob));
            }
        }
    }
}
