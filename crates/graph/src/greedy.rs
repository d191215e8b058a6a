//! Greedy (first-fit) colorings.
//!
//! These are the classical sequential algorithms the paper's
//! introduction uses as the yardstick: greedy vertex coloring uses at
//! most `Δ+1` colors, greedy edge coloring at most `2Δ−1`.

use crate::coloring::{ColorId, EdgeColoring, VertexColoring};
use crate::graph::{Edge, Graph, VertexId};

/// First-fit vertex coloring in vertex-id order.
///
/// Uses at most `Δ+1` colors.
///
/// # Example
///
/// ```
/// use bichrome_graph::{gen, greedy, coloring::validate_vertex_coloring_with_palette};
/// let g = gen::cycle(7);
/// let c = greedy::greedy_vertex_coloring(&g);
/// assert!(validate_vertex_coloring_with_palette(&g, &c, g.max_degree() + 1).is_ok());
/// ```
pub fn greedy_vertex_coloring(g: &Graph) -> VertexColoring {
    greedy_vertex_coloring_in_order(g, g.vertices())
}

/// First-fit vertex coloring following the supplied vertex order.
///
/// Every vertex must appear exactly once in `order`; uses at most
/// `Δ+1` colors regardless of the order.
///
/// # Panics
///
/// Panics if `order` misses a vertex (the result would be partial) —
/// detected via a final completeness check in debug builds only.
pub fn greedy_vertex_coloring_in_order(
    g: &Graph,
    order: impl IntoIterator<Item = VertexId>,
) -> VertexColoring {
    let mut coloring = VertexColoring::new(g.num_vertices());
    let mut used = vec![u32::MAX; g.max_degree() + 2]; // stamp per color
    for (stamp, v) in order.into_iter().enumerate() {
        let stamp = stamp as u32;
        for &u in g.neighbors(v) {
            if let Some(c) = coloring.get(u) {
                if c.index() < used.len() {
                    used[c.index()] = stamp;
                }
            }
        }
        let c = (0..used.len())
            .find(|&i| used[i] != stamp)
            .expect("Δ+2 slots suffice");
        coloring.set(v, ColorId(c as u32));
    }
    debug_assert!(coloring.is_complete(), "order must cover all vertices");
    coloring
}

/// First-fit edge coloring in sorted edge order.
///
/// Uses at most `2Δ−1` colors, since every edge is adjacent to at most
/// `2Δ−2` others.
///
/// # Example
///
/// ```
/// use bichrome_graph::{gen, greedy, coloring::validate_edge_coloring_with_palette};
/// let g = gen::gnp(30, 0.2, 1);
/// let c = greedy::greedy_edge_coloring(&g);
/// let bound = (2 * g.max_degree()).saturating_sub(1).max(1);
/// assert!(validate_edge_coloring_with_palette(&g, &c, bound).is_ok());
/// ```
pub fn greedy_edge_coloring(g: &Graph) -> EdgeColoring {
    greedy_edge_coloring_with(g, EdgeColoring::dense_for(g), g.edges().iter().copied())
}

/// Marks `color` as used at the current stamp, growing the scratch
/// geometrically on first sight of a larger color.
#[inline]
fn mark_used(seen: &mut Vec<u32>, stamp: u32, color: ColorId) {
    if color.index() >= seen.len() {
        seen.resize((color.index() + 1).next_power_of_two().max(64), 0);
    }
    seen[color.index()] = stamp;
}

/// The smallest color not marked at the current stamp.
#[inline]
fn first_free(seen: &[u32], stamp: u32) -> ColorId {
    let c = (0..)
        .find(|&c| seen.get(c).is_none_or(|&s| s != stamp))
        .expect("a free color always exists");
    ColorId(c as u32)
}

/// Extends a partial edge coloring of `g` greedily over `edges`,
/// choosing for each edge the smallest color free at both endpoints.
///
/// `partial` is a coloring of `g`'s edges (usually
/// [`EdgeColoring::dense_for`]`(g)`) and `edges` are edges of `g`; the
/// colors `partial` already holds are respected. The used-color
/// scratch is one stamp-marked vector reused across all edges — no
/// per-edge allocation.
///
/// # Panics
///
/// Panics if an uncolored edge of `edges` is not an edge of
/// `partial`'s graph.
pub fn greedy_edge_coloring_with(
    g: &Graph,
    partial: EdgeColoring,
    edges: impl IntoIterator<Item = Edge>,
) -> EdgeColoring {
    let mut coloring = partial;
    let mut seen: Vec<u32> = Vec::new();
    let mut stamp = 0u32;
    for e in edges {
        if coloring.get(e).is_some() {
            continue;
        }
        if stamp == u32::MAX {
            seen.fill(0);
            stamp = 0;
        }
        stamp += 1;
        let (u, v) = e.endpoints();
        for &w in g.neighbors(u) {
            if let Some(c) = coloring.get(Edge::new(u, w)) {
                mark_used(&mut seen, stamp, c);
            }
        }
        for &w in g.neighbors(v) {
            if let Some(c) = coloring.get(Edge::new(v, w)) {
                mark_used(&mut seen, stamp, c);
            }
        }
        coloring.set(e, first_free(&seen, stamp));
    }
    coloring
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{
        validate_edge_coloring_with_palette, validate_vertex_coloring_with_palette,
    };
    use crate::gen;

    #[test]
    fn greedy_vertex_respects_delta_plus_one() {
        for seed in 0..5 {
            let g = gen::gnp(60, 0.15, seed);
            let c = greedy_vertex_coloring(&g);
            assert!(validate_vertex_coloring_with_palette(&g, &c, g.max_degree() + 1).is_ok());
        }
    }

    #[test]
    fn greedy_vertex_on_odd_cycle_uses_three() {
        let g = gen::cycle(7);
        let c = greedy_vertex_coloring(&g);
        assert_eq!(c.num_distinct_colors(), 3);
    }

    #[test]
    fn greedy_vertex_custom_order() {
        let g = gen::complete(5);
        let order: Vec<VertexId> = (0..5).rev().map(VertexId).collect();
        let c = greedy_vertex_coloring_in_order(&g, order);
        assert!(validate_vertex_coloring_with_palette(&g, &c, 5).is_ok());
        assert_eq!(c.num_distinct_colors(), 5);
    }

    #[test]
    fn greedy_edge_respects_two_delta_minus_one() {
        for seed in 0..5 {
            let g = gen::gnm_max_degree(50, 120, 8, seed);
            let c = greedy_edge_coloring(&g);
            let bound = 2 * g.max_degree() - 1;
            assert!(validate_edge_coloring_with_palette(&g, &c, bound).is_ok());
        }
    }

    #[test]
    fn greedy_edge_extends_partial() {
        let g = gen::path(4);
        let e01 = Edge::new(VertexId(0), VertexId(1));
        let mut partial = EdgeColoring::dense_for(&g);
        partial.set(e01, ColorId(5));
        let c = greedy_edge_coloring_with(&g, partial, g.edges().iter().copied());
        assert_eq!(c.get(e01), Some(ColorId(5)), "existing colors preserved");
        // Edge {1,2} must avoid color 5.
        assert_ne!(c.get(Edge::new(VertexId(1), VertexId(2))), Some(ColorId(5)));
        assert!(crate::coloring::validate_edge_coloring(&g, &c).is_ok());
    }

    #[test]
    fn greedy_on_empty_graph() {
        let g = gen::empty(5);
        let c = greedy_vertex_coloring(&g);
        assert!(c.is_complete());
        assert_eq!(c.num_distinct_colors(), 1);
        assert!(greedy_edge_coloring(&g).is_empty());
    }
}
