//! Holds every coloring engine to two judges on exhaustive small
//! inputs: the fast validators of `bichrome_graph::coloring` and the
//! naive `bichrome_graph::oracle`.
//!
//! - Misra–Gries and Fournier run on every labelled graph on at most
//!   five vertices, and their masked forms on every such graph with
//!   every keep mask, where they must equal the plain engines on the
//!   built subgraph.
//! - Every registry protocol runs on every (graph, Alice/Bob split)
//!   pair on at most four vertices, and on a Δ ≥ 8 family on which
//!   Theorem 2 runs Algorithm 2 rather than Lemma 5.1.
//!
//! On every output the two judges must agree and accept at the
//! paper's palette bound, the parties must agree (a registry protocol
//! whose parties disagree fails its trial), and nothing may panic. A
//! copy with one edge recolored like a neighboring edge, or one vertex
//! like a neighbor, must fail both judges.

use bichrome_graph::builder::from_edges;
use bichrome_graph::coloring::{
    validate_edge_coloring_with_palette, validate_vertex_coloring_with_palette, EdgeColoring,
    VertexColoring,
};
use bichrome_graph::edge_color::{
    fournier, fournier_where, misra_gries, misra_gries_where, FournierError,
};
use bichrome_graph::oracle::{edge_coloring_ok, vertex_coloring_ok};
use bichrome_graph::partition::{EdgePartition, Partitioner};
use bichrome_graph::{gen, Edge, EdgeId, Graph, VertexId};
use bichrome_runner::{registry, Artifact, Instance, Registry};
use rand::prelude::*;

/// Every vertex pair `{i, j}` with `i < j < n`.
fn pairs(n: u32) -> Vec<Edge> {
    (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| Edge::new(VertexId(i), VertexId(j))))
        .collect()
}

/// The palette the paper promises for a registry protocol at maximum
/// degree `delta`; `usize::MAX` where only properness is promised.
fn paper_palette(key: &str, delta: usize) -> usize {
    match key {
        "vertex/theorem1"
        | "baseline/flin-mittal"
        | "baseline/greedy-binary-search"
        | "baseline/send-everything" => delta + 1,
        "edge/theorem2" | "edge/lemma5.1-bounded" | "streaming/greedy-w" => {
            (2 * delta).saturating_sub(1).max(1)
        }
        "edge/theorem3-zero-comm" => (2 * delta).max(1),
        "streaming/chunked-w" => usize::MAX,
        other => panic!("no palette bound recorded for {other}"),
    }
}

/// Both judges accept `c` at `palette`, and both reject a copy with
/// one edge recolored like a neighboring edge.
fn judge_edges(g: &Graph, c: &EdgeColoring, palette: usize, what: &str) {
    let fast = validate_edge_coloring_with_palette(g, c, palette);
    assert_eq!(edge_coloring_ok(g, c, palette), fast.is_ok(), "{what}");
    assert!(fast.is_ok(), "{what}: {fast:?}");
    if let Some(v) = g.vertices().find(|&v| g.degree(v) >= 2) {
        let nbrs = g.neighbors(v);
        let (e1, e2) = (Edge::new(v, nbrs[0]), Edge::new(v, nbrs[1]));
        let mut bad = c.clone();
        bad.set(e1, c.get(e2).expect("complete"));
        assert!(!edge_coloring_ok(g, &bad, palette), "oracle: {what}");
        assert!(
            validate_edge_coloring_with_palette(g, &bad, palette).is_err(),
            "validator: {what}"
        );
    }
}

/// Both judges accept `c` at `palette`, and both reject a copy with
/// one vertex recolored like a neighbor.
fn judge_vertices(g: &Graph, c: &VertexColoring, palette: usize, what: &str) {
    let fast = validate_vertex_coloring_with_palette(g, c, palette);
    assert_eq!(vertex_coloring_ok(g, c, palette), fast.is_ok(), "{what}");
    assert!(fast.is_ok(), "{what}: {fast:?}");
    if let Some(&e) = g.edges().first() {
        let mut bad = c.clone();
        bad.set(e.u(), c.get(e.v()).expect("complete"));
        assert!(!vertex_coloring_ok(g, &bad, palette), "oracle: {what}");
        assert!(
            validate_vertex_coloring_with_palette(g, &bad, palette).is_err(),
            "validator: {what}"
        );
    }
}

/// Runs every registry protocol on `inst` and judges each output.
fn check_protocols(protocols: &Registry, inst: &Instance, what: &str) {
    let g = inst.graph();
    for proto in protocols.iter() {
        let key = proto.name();
        let what = format!("{key} on {what}");
        let palette = paper_palette(key, inst.delta());
        let out = proto.run(inst);
        assert_eq!(out.palette_budget.unwrap_or(usize::MAX), palette, "{what}");
        assert!(out.verdict.is_valid(), "{what}: {:?}", out.verdict);
        match &out.artifact {
            Artifact::Vertex(c) => judge_vertices(g, c, palette, &what),
            Artifact::Edge(c) => judge_edges(g, c, palette, &what),
            Artifact::None => panic!("{what} produced no artifact"),
        }
    }
}

#[test]
fn misra_gries_and_fournier_on_every_graph_up_to_five_vertices() {
    for n in 1..=5 {
        let all = pairs(n);
        for mask in 0u32..1 << all.len() {
            let edges = (0..all.len())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| all[i]);
            let g = from_edges(n as usize, edges);
            let delta = g.max_degree();
            judge_edges(
                &g,
                &misra_gries(&g),
                delta + 1,
                &format!("misra_gries on {g}"),
            );
            // Fournier's precondition by a plain loop: no edge joins two
            // maximum-degree vertices.
            let holds = g
                .edges()
                .iter()
                .all(|e| g.degree(e.u()) < delta || g.degree(e.v()) < delta);
            match fournier(&g) {
                Ok(c) if holds => judge_edges(&g, &c, delta, &format!("fournier on {g}")),
                Err(FournierError::MaxDegreeNotIndependent) if !holds => {}
                other => panic!("fournier on {g} (precondition {holds}): {other:?}"),
            }
        }
    }
}

#[test]
fn masked_engines_equal_the_built_subgraph_up_to_five_vertices() {
    for n in 1..=5 {
        let all = pairs(n);
        // Each pair is absent (digit 0), kept (1) or masked out (2).
        for code in 0..3u32.pow(all.len() as u32) {
            let digit = |i: usize| code / 3u32.pow(i as u32) % 3;
            let present: Vec<usize> = (0..all.len()).filter(|&i| digit(i) != 0).collect();
            let g = from_edges(n as usize, present.iter().map(|&i| all[i]));
            // Both lists ascend, so g's edge k is pair present[k].
            let kept: Vec<bool> = present.iter().map(|&i| digit(i) == 1).collect();
            let keep = |id: EdgeId| kept[id.index()];
            let sub = g.edge_subgraph_where(|id, _| keep(id));
            let what = format!("{g}, mask {code}");
            let c = misra_gries_where(&g, keep);
            assert!(c.is_indexed_for(&g), "misra_gries_where on {what}");
            assert_eq!(c, misra_gries(&sub), "misra_gries_where on {what}");
            let c = fournier_where(&g, keep);
            if let Ok(c) = &c {
                assert!(c.is_indexed_for(&g), "fournier_where on {what}");
            }
            assert_eq!(c, fournier(&sub), "fournier_where on {what}");
        }
    }
}

#[test]
fn every_protocol_on_every_split_up_to_four_vertices() {
    let protocols = registry();
    for n in 1..=4 {
        let all = pairs(n);
        // Each pair is absent (digit 0), Alice's (1) or Bob's (2).
        for code in 0..3u32.pow(all.len() as u32) {
            let digit = |i: usize| code / 3u32.pow(i as u32) % 3;
            let owned = |d: u32| {
                (0..all.len())
                    .filter(move |&i| digit(i) == d)
                    .map(|i| all[i])
            };
            let alice: Vec<Edge> = owned(1).collect();
            let whole = from_edges(n as usize, owned(1).chain(owned(2)));
            let what = format!("{whole}, split {code}");
            let inst = Instance::new("sweep", EdgePartition::new(whole, &alice), code.into());
            check_protocols(&protocols, &inst, &what);
        }
    }
}

#[test]
fn every_protocol_on_a_delta_eight_family() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut family = vec![gen::complete(9)];
    // K₁₀ minus a random matching: Δ = 9, or 8 once the matching is
    // perfect.
    for _ in 0..4 {
        let mut order: Vec<u32> = (0..10).collect();
        order.shuffle(&mut rng);
        let cut: Vec<Edge> = order
            .chunks(2)
            .filter(|_| rng.gen_bool(0.7))
            .map(|p| Edge::new(VertexId(p[0]), VertexId(p[1])))
            .collect();
        let kept = pairs(10).into_iter().filter(|e| !cut.contains(e));
        family.push(from_edges(10, kept));
    }
    // Stars on 10–13 vertices with random chords between leaves.
    for n in 10..14 {
        let chords = pairs(n).into_iter().filter(|e| e.u().0 > 0);
        let chords: Vec<Edge> = chords.filter(|_| rng.gen_bool(0.3)).collect();
        family.push(from_edges(
            n as usize,
            gen::star(n as usize).edges().iter().copied().chain(chords),
        ));
    }
    let protocols = registry();
    for g in &family {
        assert!(g.max_degree() >= 8, "{g} routes Theorem 2 to Lemma 5.1");
        let splits = (0..3)
            .flat_map(Partitioner::family)
            .chain((10..16).map(Partitioner::Random));
        for (seed, part) in splits.enumerate() {
            let inst = Instance::new("delta-eight", part.split(g), seed as u64);
            check_protocols(&protocols, &inst, &format!("{g} under {part}"));
        }
    }
}
