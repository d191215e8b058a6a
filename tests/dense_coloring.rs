//! Equivalence tests for the dense edge-indexed hot path: the
//! validators over an `EdgeColoring` must agree with the old
//! `HashMap`-keyed semantics — same accept/reject verdict and same
//! first violation — on random graphs and colorings, whether the
//! coloring is of the graph's own edge list or of a wider one laid
//! onto it; a color on a pair that is not an edge of the graph is the
//! first violation. The `EdgeId` layer must round-trip.

use bichrome_graph::coloring::{
    validate_edge_coloring, validate_edge_coloring_with_palette, validate_partial_edge_coloring,
    ColorId, ColoringError, EdgeColoring,
};
use bichrome_graph::edge_color::misra_gries;
use bichrome_graph::{gen, Edge, EdgeId, Graph, VertexId};
use proptest::prelude::*;
use std::collections::HashMap;

/// The rule for colorings of another edge list: the first colored
/// pair (in ascending edge order) that is not an edge of `g` fails.
fn ref_on_graph(g: &Graph, c: &EdgeColoring) -> Result<(), ColoringError> {
    match c.iter().find(|(e, _)| !g.has_edge(e.u(), e.v())) {
        Some((e, _)) => Err(ColoringError::ColoredNonEdge(e)),
        None => Ok(()),
    }
}

/// The pre-PR-5 reference semantics, verbatim after the non-edge
/// rule: per-vertex `HashMap` duplicate detection over the sorted
/// neighbor lists.
fn ref_validate_partial(g: &Graph, c: &EdgeColoring) -> Result<(), ColoringError> {
    ref_on_graph(g, c)?;
    for v in g.vertices() {
        let mut seen: HashMap<ColorId, Edge> = HashMap::new();
        for &u in g.neighbors(v) {
            let e = Edge::new(u, v);
            if let Some(col) = c.get(e) {
                if let Some(&prev) = seen.get(&col) {
                    return Err(ColoringError::IncidentEdges(prev, e, col));
                }
                seen.insert(col, e);
            }
        }
    }
    Ok(())
}

/// The pre-PR-5 reference complete validator.
fn ref_validate(g: &Graph, c: &EdgeColoring) -> Result<(), ColoringError> {
    ref_on_graph(g, c)?;
    for &e in g.edges() {
        if c.get(e).is_none() {
            return Err(ColoringError::UncoloredEdge(e));
        }
    }
    ref_validate_partial(g, c)
}

/// The pre-PR-5 reference palette validator.
fn ref_validate_palette(g: &Graph, c: &EdgeColoring, k: usize) -> Result<(), ColoringError> {
    ref_validate(g, c)?;
    for &e in g.edges() {
        let col = c.get(e).expect("checked complete");
        if col.index() >= k {
            return Err(ColoringError::EdgePaletteExceeded(e, col, k));
        }
    }
    Ok(())
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40, 0u64..10_000).prop_map(|(n, seed)| {
        let p = 0.05 + (seed % 13) as f64 / 30.0;
        gen::gnp(n, p.min(0.5), seed)
    })
}

/// The complete graph on `g`'s vertices: the widest edge list a
/// coloring of `g`'s edges can be laid out over.
fn wide(g: &Graph) -> Graph {
    gen::complete(g.num_vertices())
}

/// A random (often improper, often partial) assignment over a random
/// subset of the graph's edges, materialized over the complete graph
/// on its vertices (sparse: most slots stay uncolored) and over `g`
/// itself (dense).
fn random_colorings(
    g: &Graph,
    picks: &[(u8, u8)], // (keep-if-nonzero, color) per edge, cycled
) -> (EdgeColoring, EdgeColoring) {
    let mut sparse = EdgeColoring::dense_for(&wide(g));
    let mut dense = EdgeColoring::dense_for(g);
    if picks.is_empty() {
        return (sparse, dense);
    }
    for (i, &e) in g.edges().iter().enumerate() {
        let (keep, color) = picks[i % picks.len()];
        if keep % 3 != 0 {
            sparse.set(e, ColorId(color as u32 % 7));
            dense.set_id(EdgeId(i as u32), ColorId(color as u32 % 7));
        }
    }
    (sparse, dense)
}

/// The per-edge reference merge into a coloring of `target_graph`:
/// one membership test, one `get` and one `set` per edge of `other`,
/// in ascending edge order, stopping at the first edge outside
/// `target_graph` or in conflict.
fn ref_merge(
    target_graph: &Graph,
    target: &mut EdgeColoring,
    other: &EdgeColoring,
) -> Result<(), Edge> {
    for (e, c) in other.iter() {
        if !target_graph.has_edge(e.u(), e.v()) {
            return Err(e);
        }
        match target.get(e) {
            Some(existing) if existing != c => return Err(e),
            _ => {
                target.set(e, c);
            }
        }
    }
    Ok(())
}

/// A coloring of the subgraph of `g` that `mask` keeps (of no edge
/// when `mask` is empty), returned with that subgraph: each kept edge
/// whose pick is nonzero gets a color from `0..4`, so two such
/// colorings clash often, and each holds edges the other's graph
/// lacks.
fn sub_coloring(g: &Graph, mask: &[u8], picks: &[(u8, u8)]) -> (Graph, EdgeColoring) {
    let sub = g.edge_subgraph_where(|id, _| !mask.is_empty() && mask[id.index() % mask.len()] != 0);
    let mut c = EdgeColoring::dense_for(&sub);
    for (i, &e) in g.edges().iter().enumerate() {
        let (keep, color) = picks[i % picks.len()];
        if keep != 0 && sub.has_edge(e.u(), e.v()) {
            c.set(e, ColorId(u32::from(color)));
        }
    }
    (sub, c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_cross_index_merge_matches_per_edge_reference(
        g in arb_graph(),
        target_mask in proptest::collection::vec(0u8..3, 0..8),
        other_mask in proptest::collection::vec(0u8..3, 1..8),
        target_picks in proptest::collection::vec((0u8..3, 0u8..4), 1..16),
        other_picks in proptest::collection::vec((0u8..3, 0u8..4), 1..16),
    ) {
        let (target_graph, target) = sub_coloring(&g, &target_mask, &target_picks);
        let (_, other) = sub_coloring(&g, &other_mask, &other_picks);
        let mut fast = target.clone();
        let mut slow = target;
        // Same verdict (the same first edge outside the target's graph
        // or in conflict), and the same coloring afterwards, even when
        // a failure cut the walk short.
        prop_assert_eq!(fast.merge(&other), ref_merge(&target_graph, &mut slow, &other));
        prop_assert_eq!(&fast, &slow);
    }

    #[test]
    fn prop_dense_validators_match_hashmap_semantics(
        g in arb_graph(),
        picks in proptest::collection::vec((0u8..6, 0u8..12), 1..64),
        palette in 1usize..10,
    ) {
        let (sparse, dense) = random_colorings(&g, &picks);
        // Equality first: it does not depend on the edge list.
        prop_assert_eq!(&sparse, &dense);
        // A wide coloring with a color on a non-edge of `g`, when one
        // exists: the first violation, whatever else is wrong.
        let mut stray = sparse.clone();
        let (u, v) = (VertexId(0), VertexId(g.num_vertices() as u32 - 1));
        if !g.has_edge(u, v) && picks[0].0 % 2 == 0 {
            stray.set(Edge::new(u, v), ColorId(u32::from(picks[0].1)));
        }

        for c in [&sparse, &dense, &stray] {
            // Partial, complete, and palette validators all agree
            // with the reference — same verdict, same first violation.
            prop_assert_eq!(
                validate_partial_edge_coloring(&g, c),
                ref_validate_partial(&g, c)
            );
            prop_assert_eq!(validate_edge_coloring(&g, c), ref_validate(&g, c));
            prop_assert_eq!(
                validate_edge_coloring_with_palette(&g, c, palette),
                ref_validate_palette(&g, c, palette)
            );
        }
    }

    #[test]
    fn prop_dense_and_sparse_iterate_identically(
        g in arb_graph(),
        picks in proptest::collection::vec((0u8..6, 0u8..12), 1..64),
    ) {
        let (sparse, dense) = random_colorings(&g, &picks);
        let s: Vec<(Edge, ColorId)> = sparse.iter().collect();
        let d: Vec<(Edge, ColorId)> = dense.iter().collect();
        prop_assert_eq!(&s, &d, "iter order must be representation-independent");
        // Deterministic ascending edge order.
        prop_assert!(s.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert_eq!(sparse.len(), s.len());
        prop_assert_eq!(sparse.num_distinct_colors(), dense.num_distinct_colors());
        prop_assert_eq!(sparse.max_color(), dense.max_color());
    }

    #[test]
    fn prop_edge_ids_round_trip(g in arb_graph()) {
        for i in 0..g.num_edges() {
            let id = EdgeId(i as u32);
            let e = g.edge(id);
            prop_assert_eq!(g.edge_id(e.u(), e.v()), Some(id));
        }
        // Incidence companions agree with Edge reconstruction.
        for v in g.vertices() {
            for (u, id) in g.incident_edges(v) {
                prop_assert_eq!(g.edge(id), Edge::new(u, v));
            }
        }
        // Non-edges resolve to None.
        for u in g.vertices() {
            for w in g.vertices() {
                if u != w && !g.has_edge(u, w) {
                    prop_assert_eq!(g.edge_id(u, w), None);
                }
            }
        }
    }
}

#[test]
fn tampered_colorings_are_caught_in_both_representations() {
    let g = gen::gnm_max_degree(40, 120, 9, 3);
    let good = misra_gries(&g);
    let budget = g.max_degree() + 1;
    assert!(validate_edge_coloring_with_palette(&g, &good, budget).is_ok());

    // Pick two incident edges to copy a color across.
    let v = g
        .vertices()
        .find(|&v| g.degree(v) >= 2)
        .expect("Δ ≥ 2 graph");
    let ids = g.neighbor_edge_ids(v);
    let (e1, e2) = (g.edge(ids[0]), g.edge(ids[1]));

    // Re-materialize the tampered coloring over both edge lists.
    for dense in [false, true] {
        let mut conflict = if dense {
            good.clone()
        } else {
            let mut laid = EdgeColoring::dense_for(&wide(&g));
            laid.merge(&good)
                .expect("the complete graph holds every edge");
            laid
        };
        conflict.set(e2, good.get(e1).expect("colored"));
        assert!(
            matches!(
                validate_edge_coloring_with_palette(&g, &conflict, budget),
                Err(ColoringError::IncidentEdges(..))
            ),
            "incident conflict must be caught (dense={dense})"
        );

        let mut uncolored = conflict.clone();
        uncolored.set(e2, good.get(e2).expect("colored")); // undo
        uncolored.clear(e1);
        assert_eq!(
            validate_edge_coloring_with_palette(&g, &uncolored, budget),
            Err(ColoringError::UncoloredEdge(e1)),
            "missing edge must be caught (dense={dense})"
        );

        let mut loud = good.clone();
        loud.set(e1, ColorId(999));
        assert!(
            matches!(
                validate_edge_coloring_with_palette(&g, &loud, budget),
                Err(ColoringError::IncidentEdges(..)) | Err(ColoringError::EdgePaletteExceeded(..))
            ),
            "out-of-palette color must be caught (dense={dense})"
        );
    }
}

#[test]
fn merge_is_representation_independent() {
    let g = gen::gnp(25, 0.3, 9);
    let c = misra_gries(&g);
    // Split the coloring across two halves, one per edge list.
    let k = wide(&g);
    let mut lo = EdgeColoring::dense_for(&g);
    let mut hi = EdgeColoring::dense_for(&k);
    for (i, (e, col)) in c.iter().enumerate() {
        if i % 2 == 0 {
            lo.set(e, col);
        } else {
            hi.set(e, col);
        }
    }
    let mut merged = EdgeColoring::dense_for(&g);
    merged.merge(&lo).expect("disjoint");
    merged.merge(&hi).expect("disjoint");
    assert_eq!(merged, c);
    // A genuine conflict is still reported.
    if let Some((e, col)) = c.iter().next() {
        let mut clash = EdgeColoring::dense_for(&k);
        clash.set(e, ColorId(col.0 + 1));
        assert_eq!(merged.merge(&clash), Err(e));
    }
    // So is a color on a pair outside `g`.
    let stray = k.edges().iter().find(|e| !g.has_edge(e.u(), e.v()));
    if let Some(&e) = stray {
        let mut outside = EdgeColoring::dense_for(&k);
        outside.set(e, ColorId(0));
        assert_eq!(merged.merge(&outside), Err(e));
    }
}

#[test]
fn vertex_id_and_edge_id_displays_differ() {
    // EdgeId is a distinct newtype with its own rendering — mixing it
    // up with VertexId in a format string is visible.
    assert_eq!(EdgeId(3).to_string(), "e3");
    assert_eq!(VertexId(3).to_string(), "v3");
    assert_eq!(EdgeId(3).index(), 3);
}
