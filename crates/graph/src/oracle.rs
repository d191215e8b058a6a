//! A second, deliberately naive judge of colorings.
//!
//! The validators in [`crate::coloring`] are built for speed: they
//! mark colors in a per-call timestamp array and walk dense
//! [`EdgeId`](crate::EdgeId) slots. These functions answer the
//! same questions with plain loops over the edge list and incidence
//! lists and nothing else, so tests can hold every engine's output to
//! two judges that share no code beyond the coloring containers.

use crate::coloring::{EdgeColoring, VertexColoring};
use crate::graph::{Edge, Graph};

/// Whether `c` colors every edge of `g` and nothing else, no two edges
/// at a vertex share a color, and every color is below `palette`
/// (`usize::MAX` checks properness only).
pub fn edge_coloring_ok(g: &Graph, c: &EdgeColoring, palette: usize) -> bool {
    if c.iter().any(|(e, _)| g.edges().binary_search(&e).is_err()) {
        return false;
    }
    for v in g.vertices() {
        let mut seen = Vec::new();
        for &u in g.neighbors(v) {
            match c.get(Edge::new(u, v)) {
                Some(col) if col.index() < palette && !seen.contains(&col) => seen.push(col),
                _ => return false,
            }
        }
    }
    true
}

/// Whether `c` colors every vertex of `g`, no edge joins two vertices
/// of one color, and every color is below `palette`.
pub fn vertex_coloring_ok(g: &Graph, c: &VertexColoring, palette: usize) -> bool {
    let in_palette = g
        .vertices()
        .all(|v| c.get(v).is_some_and(|col| col.index() < palette));
    in_palette && g.edges().iter().all(|e| c.get(e.u()) != c.get(e.v()))
}
