//! Property-based tests over the whole protocol stack: random graphs,
//! random partitions, random seeds — every output must satisfy the
//! validators, and the classical substrates must satisfy their
//! theorems.

use bichrome_core::edge::two_delta::two_delta_party;
use bichrome_core::run_parties;
use bichrome_core::slack_int::run_slack_int_session;
use bichrome_graph::coloring::{validate_edge_coloring_with_palette, EdgeColoring};
use bichrome_graph::edge_color::{fournier, misra_gries};
use bichrome_graph::matching::{delta_perfect_matching, is_matching};
use bichrome_graph::partition::Partitioner;
use bichrome_graph::{gen, Edge, Graph, GraphBuilder, VertexId};
use bichrome_runner::{registry, Instance};
use proptest::prelude::*;

/// Strategy: a random simple graph with `n ∈ [2, 40]` and each
/// possible edge included with probability ~`density`.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40, 0u64..10_000).prop_map(|(n, seed)| {
        let p = 0.02 + (seed % 17) as f64 / 40.0;
        gen::gnp(n, p.min(0.5), seed)
    })
}

fn arb_partitioner() -> impl Strategy<Value = Partitioner> {
    prop_oneof![
        Just(Partitioner::AllToAlice),
        Just(Partitioner::AllToBob),
        Just(Partitioner::Alternating),
        Just(Partitioner::ParitySum),
        Just(Partitioner::LowHalf),
        (0u64..1000).prop_map(Partitioner::Random),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_theorem1_always_valid(g in arb_graph(), part in arb_partitioner(), seed in 0u64..1000) {
        let inst = Instance::new("prop", part.split(&g), seed);
        let out = registry().get("vertex/theorem1").expect("registered").run(&inst);
        prop_assert!(out.verdict.is_valid(), "{:?}", out.verdict);
    }

    #[test]
    fn prop_theorem2_always_valid(g in arb_graph(), part in arb_partitioner()) {
        let inst = Instance::new("prop", part.split(&g), 0);
        let out = registry().get("edge/theorem2").expect("registered").run(&inst);
        prop_assert!(out.verdict.is_valid(), "{:?}", out.verdict);
        prop_assert!(out.stats.rounds <= 3);
    }

    #[test]
    fn prop_theorem3_always_valid(g in arb_graph(), part in arb_partitioner()) {
        let p = part.split(&g);
        let (a, b, stats) = run_parties(&p, 0, |input, _| two_delta_party(input));
        // Theorem 3's zero communication, as the session meters it.
        prop_assert_eq!(stats.total_bits(), 0);
        prop_assert_eq!(stats.rounds, 0);
        let mut merged = EdgeColoring::dense_for(&g);
        prop_assert!(merged.merge(&a).is_ok());
        prop_assert!(merged.merge(&b).is_ok());
        let budget = (2 * g.max_degree()).max(1);
        prop_assert!(validate_edge_coloring_with_palette(&g, &merged, budget).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_misra_gries_uses_delta_plus_one(g in arb_graph()) {
        let c = misra_gries(&g);
        prop_assert!(validate_edge_coloring_with_palette(
            &g, &c, g.max_degree() + 1).is_ok());
    }

    #[test]
    fn prop_fournier_uses_delta((n, d, hubs, seed) in (20usize..60, 3usize..8, 2usize..6, 0u64..500)
        .prop_filter("feasible", |(n, d, hubs, _)| hubs * d <= (n - hubs) * (d - 1) && hubs + d <= *n)) {
        let g = gen::independent_max_degree(n, d, hubs, seed);
        let c = fournier(&g).expect("precondition holds by construction");
        prop_assert!(validate_edge_coloring_with_palette(&g, &c, g.max_degree()).is_ok());
    }

    #[test]
    fn prop_delta_matching_covers((n, d, hubs, seed) in (20usize..60, 3usize..8, 2usize..6, 0u64..500)
        .prop_filter("feasible", |(n, d, hubs, _)| hubs * d <= (n - hubs) * (d - 1) && hubs + d <= *n)) {
        let g = gen::independent_max_degree(n, d, hubs, seed);
        let m = delta_perfect_matching(&g).expect("Lemma 5.3");
        prop_assert!(is_matching(&m));
        let delta = g.max_degree();
        let covered: std::collections::HashSet<VertexId> =
            m.iter().flat_map(|e| [e.u(), e.v()]).collect();
        for v in g.vertices_of_degree(delta) {
            prop_assert!(covered.contains(&v));
        }
    }

    #[test]
    fn prop_slack_int_avoids_both_sets(
        m in 4usize..64,
        xs in proptest::collection::vec(0u64..64, 0..20),
        ys in proptest::collection::vec(0u64..64, 0..20),
        seed in 0u64..1000,
    ) {
        let m = m.max(4);
        let mut x: Vec<u64> = xs.into_iter().map(|e| e % m as u64).collect();
        let mut y: Vec<u64> = ys.into_iter().map(|e| e % m as u64).collect();
        x.sort_unstable(); x.dedup();
        y.sort_unstable(); y.dedup();
        // Enforce the Problem 6 precondition |X| + |Y| ≤ m − 1.
        while x.len() + y.len() > m - 1 {
            if x.len() >= y.len() { x.pop(); } else { y.pop(); }
        }
        let (e, _) = run_slack_int_session(m, &x, &y, seed);
        prop_assert!(!x.contains(&e) && !y.contains(&e));
    }

    #[test]
    fn prop_partitions_are_exact(g in arb_graph(), part in arb_partitioner()) {
        let p = part.split(&g);
        prop_assert_eq!(
            p.alice().num_edges() + p.bob().num_edges(),
            g.num_edges()
        );
        for v in g.vertices() {
            prop_assert_eq!(p.alice().degree(v) + p.bob().degree(v), g.degree(v));
        }
    }

    #[test]
    fn prop_graph_builder_roundtrip(edges in proptest::collection::vec((0u32..30, 0u32..30), 0..80)) {
        let mut b = GraphBuilder::new(30);
        let mut expected = std::collections::HashSet::new();
        for (u, v) in edges {
            if u != v {
                b.add_edge(VertexId(u), VertexId(v));
                expected.insert(Edge::new(VertexId(u), VertexId(v)));
            }
        }
        let g = b.build();
        prop_assert_eq!(g.num_edges(), expected.len());
        for e in g.edges() {
            prop_assert!(expected.contains(e));
        }
        // Handshake: degree sum = 2m.
        let sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
    }
}
