//! End-to-end integration tests for the edge-coloring protocols:
//! Theorem 2 (2Δ−1, O(n) bits, O(1) rounds), Theorem 3 (2Δ, zero
//! bits), and Lemma 5.1 (constant Δ) — driven through the unified
//! `bichrome_runner` API, with party-level output-discipline checks
//! kept on the lower-level entry points they exercise.

use bichrome_core::edge::{self, bounded, two_delta};
use bichrome_core::run_parties;
use bichrome_graph::coloring::{validate_edge_coloring_with_palette, EdgeColoring};
use bichrome_graph::partition::{EdgePartition, Partitioner};
use bichrome_graph::{gen, Graph};
use bichrome_runner::{registry, Instance};

#[test]
fn theorem2_zoo_sweep() {
    let zoo: Vec<Graph> = vec![
        gen::empty(10),
        gen::path(30),
        gen::cycle(25),
        gen::star(20),
        gen::complete(10),
        gen::complete_bipartite(9, 12),
        gen::gnm_max_degree(60, 120, 5, 1),
        gen::gnm_max_degree(60, 260, 9, 2),
        gen::gnm_max_degree(90, 500, 13, 3),
        gen::near_regular(64, 8, 4),
        gen::near_regular(64, 12, 5),
        gen::independent_max_degree(70, 9, 7, 6),
        gen::c4_gadget_union(&[false, true, false]),
    ];
    // Whole zoo × whole partitioner family.
    let proto = registry().get("edge/theorem2").expect("registered");
    for g in &zoo {
        for part in Partitioner::family(7) {
            let out = proto.run(&Instance::new("zoo", part.split(g), 0));
            assert!(
                out.verdict.is_valid(),
                "{g} under {part}: {:?}",
                out.verdict
            );
        }
    }
}

#[test]
fn theorem2_constant_rounds_all_sizes() {
    let proto = registry().get("edge/theorem2").expect("registered");
    for &n in &[32usize, 64, 128, 256, 512] {
        let g = gen::gnm_max_degree(n, n * 5, 11, 5);
        let out = proto.run(&Instance::new("gnm", Partitioner::Random(1).split(&g), 0));
        assert!(
            out.stats.rounds <= 3,
            "O(1) rounds violated at n={n}: {}",
            out.stats.rounds
        );
    }
}

#[test]
fn theorem2_linear_bits() {
    let proto = registry().get("edge/theorem2").expect("registered");
    let mut per_n = Vec::new();
    for &n in &[128usize, 256, 512, 1024] {
        let g = gen::gnm_max_degree(n, n * 5, 12, 2);
        let out = proto.run(&Instance::new("gnm", Partitioner::Random(4).split(&g), 0));
        assert!(out.verdict.is_valid());
        per_n.push(out.stats.total_bits() as f64 / n as f64);
    }
    let min = per_n.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = per_n.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max / min < 1.8,
        "bits per vertex must stay flat as n grows: {per_n:?}"
    );
}

#[test]
fn theorem2_is_deterministic() {
    let proto = registry().get("edge/theorem2").expect("registered");
    let g = gen::gnm_max_degree(70, 300, 10, 8);
    let p = Partitioner::Alternating.split(&g);
    let o1 = proto.run(&Instance::new("a", p.clone(), 123));
    let o2 = proto.run(&Instance::new("a", p, 456));
    // Seeds must not matter: the protocol is deterministic.
    match (&o1.artifact, &o2.artifact) {
        (bichrome_runner::Artifact::Edge(c1), bichrome_runner::Artifact::Edge(c2)) => {
            assert_eq!(c1, c2)
        }
        other => panic!("expected edge artifacts, got {other:?}"),
    }
    assert_eq!(o1.stats.total_bits(), o2.stats.total_bits());
    assert_eq!(o1.stats.rounds, o2.stats.rounds);
}

#[test]
fn theorem3_zero_communication_everywhere() {
    let zoo: Vec<Graph> = vec![
        gen::path(20),
        gen::cycle(17),
        gen::star(14),
        gen::complete(9),
        gen::gnm_max_degree(50, 180, 8, 3),
        gen::near_regular(48, 6, 9),
    ];
    let proto = registry()
        .get("edge/theorem3-zero-comm")
        .expect("registered");
    for g in &zoo {
        for part in Partitioner::family(13) {
            let out = proto.run(&Instance::new("zoo", part.split(g), 0));
            assert!(
                out.verdict.is_valid(),
                "{g} under {part}: {:?}",
                out.verdict
            );
            assert_eq!(
                out.stats.total_bits(),
                0,
                "{g} under {part}: Theorem 3 never communicates"
            );
            assert_eq!(out.stats.rounds, 0, "{g} under {part}");
        }
    }
}

#[test]
fn one_fewer_color_costs_real_bits() {
    // Theorems 2+3 together: the (2Δ−1) protocol transmits Θ(n) bits
    // while the (2Δ) protocol transmits none. The lower bound
    // (Theorem 4) says this gap is inherent.
    let reg = registry();
    let g = gen::gnm_max_degree(200, 900, 10, 1);
    let inst = Instance::new("gnm", Partitioner::Random(6).split(&g), 0);
    let out = reg.get("edge/theorem2").expect("registered").run(&inst);
    assert!(out.stats.total_bits() > 0);
    assert!(
        out.stats.total_bits() as usize >= g.num_vertices(),
        "Algorithm 2 sends several masks of n bits each"
    );
    let zc = reg
        .get("edge/theorem3-zero-comm")
        .expect("registered")
        .run(&inst);
    assert_eq!(zc.stats.total_bits(), 0);
}

#[test]
fn bounded_delta_protocol_exact_costs() {
    // Lemma 5.1 for every Δ in its range: one round, (2Δ−1)·n bits
    // from Alice only.
    let proto = registry().get("edge/lemma5.1-bounded").expect("registered");
    for delta in 2..=7usize {
        let n = 40;
        let g = gen::gnm_max_degree(n, n * delta / 2, delta, delta as u64);
        if g.max_degree() != delta {
            continue; // generator fell short; irrelevant for this check
        }
        let out = proto.run(&Instance::new("gnm", Partitioner::Random(2).split(&g), 0));
        assert!(out.verdict.is_valid(), "Δ={delta}: {:?}", out.verdict);
        assert_eq!(out.stats.rounds, 1, "Δ={delta}");
        assert_eq!(
            out.stats.bits_alice_to_bob,
            ((2 * delta - 1) * n) as u64,
            "Δ={delta}: Alice sends her per-vertex masks"
        );
        assert_eq!(
            out.stats.bits_bob_to_alice, 0,
            "Δ={delta}: Bob stays silent"
        );
    }
}

#[test]
fn adversarial_single_sided_inputs() {
    // All edges on one side: the other party must still terminate and
    // output nothing, while the protocol stays valid and cheap.
    let proto = registry().get("edge/theorem2").expect("registered");
    let g = gen::gnm_max_degree(80, 320, 9, 4);
    for part in [Partitioner::AllToAlice, Partitioner::AllToBob] {
        let out = proto.run(&Instance::new(part.to_string(), part.split(&g), 0));
        assert!(out.verdict.is_valid(), "{part}: {:?}", out.verdict);
        assert!(out.stats.rounds <= 3);
    }
}

#[test]
fn each_party_colors_exactly_its_edges() {
    // Output discipline lives below the runner's merged Artifact: each
    // party must color exactly its own edge set — for every edge
    // protocol, on every graph family, under every partitioner
    // (covering the Lemma 5.1, Algorithm 2, and deferral/matching
    // paths). Lemma 5.1 runs here at every Δ, as its registry key
    // does.
    type Run = fn(&EdgePartition) -> (EdgeColoring, EdgeColoring);
    let theorem2: Run = |p| {
        let (alice, bob, _) = run_parties(p, 0, edge::theorem2_party);
        (alice, bob)
    };
    let protocols: [(&str, Run); 3] = [
        ("theorem2", theorem2),
        ("lemma5.1-bounded", |p| {
            let (alice, bob, _) = run_parties(p, 0, bounded::bounded_delta_party);
            (alice, bob)
        }),
        ("theorem3", |p| {
            let (alice, bob, stats) =
                run_parties(p, 0, |input, _| two_delta::two_delta_party(input));
            // Theorem 3's zero communication, as the session meters it.
            assert_eq!(stats.total_bits(), 0, "theorem3 sends no bits");
            assert_eq!(stats.rounds, 0, "theorem3 takes no rounds");
            (alice, bob)
        }),
    ];
    let zoo: Vec<Graph> = vec![
        gen::path(30),
        gen::cycle(25),
        gen::complete(10),
        gen::gnm_max_degree(60, 120, 5, 1),
        gen::gnm_max_degree(60, 260, 9, 2),
        gen::gnm_max_degree(50, 150, 10, 7),
    ];
    for (name, run) in protocols {
        for g in &zoo {
            for part in Partitioner::family(7) {
                let p = part.split(g);
                let (alice, bob) = run(&p);
                for (who, out, own) in [("Alice", &alice, p.alice()), ("Bob", &bob, p.bob())] {
                    assert_eq!(
                        out.len(),
                        own.num_edges(),
                        "{name} on {g} under {part}: {who} must color exactly the edges it holds"
                    );
                    for &e in own.edges() {
                        assert!(
                            out.get(e).is_some(),
                            "{name} on {g} under {part}: {who} must color its edge {e}"
                        );
                    }
                }
            }
        }
    }
    // The deferral path (K10, everything at Alice): Bob outputs
    // nothing even though his thread participates.
    let g = gen::complete(10);
    let (alice, bob) = theorem2(&Partitioner::AllToAlice.split(&g));
    assert_eq!(alice.len(), 45);
    assert!(bob.is_empty());
}

#[test]
fn algorithm2_doubly_matched_vertices() {
    // Crafted instance forcing the Lemma 5.4 path of Algorithm 2: both
    // parties own a full-degree hub, and the hubs share low-degree
    // neighbors, so the two Δ-perfect matchings can collide at shared
    // vertices and the colliding edges must draw colors from each
    // other's palettes (or the special color, exclusively).
    //
    // Layout per gadget g (Δ = 8): Alice hub a_g with 8 Alice edges to
    // shared vertices s_{g,0..7}; Bob hub b_g with 8 Bob edges to the
    // *same* shared vertices. Every shared vertex has degree exactly 2
    // (one edge per party), far below Δ/2 = 4, so whenever the two
    // matchings meet at a shared vertex, both sides must take the
    // other party's palette via the Lemma 5.4 exchange.
    use bichrome_graph::{Edge, GraphBuilder, VertexId};

    let gadgets = 4usize;
    let per = 10; // a, b, 8 shared
    let n = gadgets * per;
    let mut builder = GraphBuilder::new(n);
    let mut alice_edges = Vec::new();
    for g in 0..gadgets {
        let base = (g * per) as u32;
        let a = VertexId(base);
        let b = VertexId(base + 1);
        for k in 0..8u32 {
            let s = VertexId(base + 2 + k);
            builder.add_edge(a, s);
            alice_edges.push(Edge::new(a, s));
            builder.add_edge(b, s);
        }
    }
    let whole = builder.build();
    assert_eq!(whole.max_degree(), 8, "hubs have full degree");
    let partition = bichrome_graph::partition::EdgePartition::new(whole.clone(), &alice_edges);
    // Both parties hold a degree-8 hub in their own subgraph.
    assert_eq!(partition.alice().max_degree(), 8);
    assert_eq!(partition.bob().max_degree(), 8);

    let out = registry()
        .get("edge/theorem2")
        .expect("registered")
        .run(&Instance::new("collision-gadget", partition, 0));
    assert!(out.verdict.is_valid(), "{:?}", out.verdict);
    let merged = match &out.artifact {
        bichrome_runner::Artifact::Edge(c) => c.clone(),
        other => panic!("expected edge artifact, got {other:?}"),
    };

    // Every hub is matched; find each gadget's matching edges and check
    // the cross-palette discipline: the special color (14) may appear
    // at a shared vertex from at most one side (validity would already
    // fail otherwise, but assert the mechanism explicitly).
    let special = bichrome_graph::coloring::ColorId(14);
    for g in 0..gadgets {
        let base = (g * per) as u32;
        for k in 0..8u32 {
            let s = VertexId(base + 2 + k);
            let ca = merged.get(Edge::new(VertexId(base), s)).expect("colored");
            let cb = merged
                .get(Edge::new(VertexId(base + 1), s))
                .expect("colored");
            assert_ne!(ca, cb, "incident colors must differ at {s}");
            assert!(
                !(ca == special && cb == special),
                "the special color is exclusive at every shared vertex"
            );
        }
    }
}

#[test]
fn algorithm2_deferred_subgraph_path() {
    // Force nonempty deferred subgraphs: give Alice a clique-like core
    // of vertices whose Alice-degrees all reach Δ−1, so the deferral
    // loop must move edges into DG (max degree 2 there, Lemma 5.2) and
    // color them from Bob's first seven colors.
    let proto = registry().get("edge/theorem2").expect("registered");

    // Complete graph K10 (Δ = 9 ≥ 8), all edges to Alice: every vertex
    // has Alice-degree 9 = Δ ≥ Δ−1, so deferral definitely triggers.
    let g = gen::complete(10);
    let out = proto.run(&Instance::new("k10", Partitioner::AllToAlice.split(&g), 0));
    assert!(out.verdict.is_valid(), "{:?}", out.verdict);
    validate_edge_coloring_with_palette(
        &g,
        match &out.artifact {
            bichrome_runner::Artifact::Edge(c) => c,
            other => panic!("expected edge artifact, got {other:?}"),
        },
        17,
    )
    .expect("valid on K10");

    // Same but split by LowHalf so both parties keep high-degree cores.
    let g = gen::complete(20); // Δ = 19
    let p = Partitioner::LowHalf.split(&g);
    assert!(p.alice().max_degree() >= 18 || p.bob().max_degree() >= 18);
    let out = proto.run(&Instance::new("k20", p, 0));
    assert!(
        out.verdict.is_valid(),
        "valid on split K20: {:?}",
        out.verdict
    );
    assert_eq!(out.palette_budget, Some(37));
}
