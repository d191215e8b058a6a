//! Vertex and edge coloring containers and validators.
//!
//! Validators in this module are the ground truth the entire workspace
//! tests against: a protocol's output is correct exactly when the
//! corresponding `validate_*` function returns `Ok`.

use crate::graph::{Edge, EdgeId, Graph, VertexId};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A color index.
///
/// Palettes are sets of `ColorId`s; the paper's palette `[Δ+1]` maps to
/// `ColorId(0) ..= ColorId(Δ)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ColorId(pub u32);

impl ColorId {
    /// The color index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ColorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u32> for ColorId {
    fn from(i: u32) -> Self {
        ColorId(i)
    }
}

/// A (possibly partial) vertex coloring of an `n`-vertex graph.
///
/// # Example
///
/// ```
/// use bichrome_graph::coloring::{ColorId, VertexColoring};
/// use bichrome_graph::VertexId;
///
/// let mut c = VertexColoring::new(3);
/// c.set(VertexId(0), ColorId(2));
/// assert_eq!(c.get(VertexId(0)), Some(ColorId(2)));
/// assert_eq!(c.get(VertexId(1)), None);
/// assert_eq!(c.num_colored(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexColoring {
    colors: Vec<Option<ColorId>>,
}

impl VertexColoring {
    /// An all-uncolored coloring of `n` vertices.
    pub fn new(n: usize) -> Self {
        VertexColoring {
            colors: vec![None; n],
        }
    }

    /// Number of vertices the coloring is over.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Whether the coloring covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// The color of `v`, if assigned.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<ColorId> {
        self.colors[v.index()]
    }

    /// Assigns color `c` to `v`, returning the previous color if any.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn set(&mut self, v: VertexId, c: ColorId) -> Option<ColorId> {
        self.colors[v.index()].replace(c)
    }

    /// Removes the color of `v`, returning it.
    pub fn clear(&mut self, v: VertexId) -> Option<ColorId> {
        self.colors[v.index()].take()
    }

    /// Whether `v` has been assigned a color.
    #[inline]
    pub fn is_colored(&self, v: VertexId) -> bool {
        self.colors[v.index()].is_some()
    }

    /// Number of vertices with an assigned color.
    pub fn num_colored(&self) -> usize {
        self.colors.iter().filter(|c| c.is_some()).count()
    }

    /// Whether every vertex is colored.
    pub fn is_complete(&self) -> bool {
        self.colors.iter().all(|c| c.is_some())
    }

    /// The uncolored vertices, in increasing order.
    pub fn uncolored_vertices(&self) -> Vec<VertexId> {
        self.colors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| VertexId(i as u32))
            .collect()
    }

    /// Largest color index used, if any vertex is colored.
    pub fn max_color(&self) -> Option<ColorId> {
        self.colors.iter().flatten().copied().max()
    }

    /// Number of distinct colors used.
    pub fn num_distinct_colors(&self) -> usize {
        let mut used: Vec<ColorId> = self.colors.iter().flatten().copied().collect();
        used.sort_unstable();
        used.dedup();
        used.len()
    }
}

/// The slot sentinel for "no color assigned".
const UNCOLORED: u32 = u32::MAX;

/// A (possibly partial) edge coloring of one graph.
///
/// A coloring holds one `u32` slot per edge of the graph it was
/// created for (see [`EdgeColoring::dense_for`]), indexed by
/// [`EdgeId`], with a sentinel for uncolored edges: the trial hot path
/// (protocol rounds, validators) never hashes. Only that graph's
/// edges can carry a color: [`set`](EdgeColoring::set) on any other
/// pair panics, and [`merge`](EdgeColoring::merge) refuses one.
///
/// [`iter`](EdgeColoring::iter) yields pairs in ascending edge order.
///
/// # Example
///
/// ```
/// use bichrome_graph::coloring::{ColorId, EdgeColoring};
/// use bichrome_graph::{gen, Edge, EdgeId, VertexId};
///
/// let g = gen::cycle(4);
/// let mut c = EdgeColoring::dense_for(&g);
/// // Edge-keyed and EdgeId-keyed access reach the same slot.
/// let e = Edge::new(VertexId(0), VertexId(1));
/// c.set(e, ColorId(0));
/// assert_eq!(c.get_id(g.edge_id(VertexId(0), VertexId(1)).unwrap()), Some(ColorId(0)));
/// c.set_id(EdgeId(2), ColorId(7));
/// assert_eq!(c.get(g.edge(EdgeId(2))), Some(ColorId(7)));
/// // A pair outside the graph has no slot, so it has no color.
/// assert_eq!(c.get(Edge::new(VertexId(0), VertexId(2))), None);
/// ```
#[derive(Clone)]
pub struct EdgeColoring {
    /// The [`EdgeId`] space: the sorted edge list of the graph this
    /// coloring was created for, shared with it.
    edges: Arc<[Edge]>,
    /// `slots[i]` = color of `edges[i]`, or [`UNCOLORED`].
    slots: Vec<u32>,
    /// Number of colored slots.
    colored: usize,
}

impl EdgeColoring {
    /// An all-uncolored coloring of `g`'s edges: one `u32` slot per
    /// edge of `g` (the edge list is shared, not copied).
    pub fn dense_for(g: &Graph) -> Self {
        EdgeColoring {
            edges: g.edges_shared(),
            slots: vec![UNCOLORED; g.num_edges()],
            colored: 0,
        }
    }

    /// A coloring of `g`'s edges from its raw slots: `slots[i]` is the
    /// color of [`EdgeId`]`(i)` or the uncolored sentinel, and
    /// `colored` counts the other slots.
    pub(crate) fn from_slots(g: &Graph, slots: Vec<u32>, colored: usize) -> Self {
        debug_assert_eq!(slots.len(), g.num_edges());
        debug_assert_eq!(slots.iter().filter(|&&c| c != UNCOLORED).count(), colored);
        EdgeColoring {
            edges: g.edges_shared(),
            slots,
            colored,
        }
    }

    /// The raw slots, [`EdgeId`]-indexed, with `u32::MAX` for an
    /// uncolored edge.
    #[inline]
    pub(crate) fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Whether this coloring's edge list *is* `g`'s edge list
    /// (pointer identity): the condition under which `EdgeId`-keyed
    /// calls and `g`'s edge ids agree.
    #[inline]
    pub fn is_indexed_for(&self, g: &Graph) -> bool {
        let edges = g.edges();
        self.edges.as_ptr() == edges.as_ptr() && self.edges.len() == edges.len()
    }

    /// The slot of `e`, if `e` is an edge of the coloring's graph.
    #[inline]
    fn slot(&self, e: Edge) -> Option<usize> {
        self.edges.binary_search(&e).ok()
    }

    /// The color of edge `e`, if assigned (`None` for a pair that is
    /// not an edge of the coloring's graph).
    pub fn get(&self, e: Edge) -> Option<ColorId> {
        self.get_id(EdgeId(self.slot(e)? as u32))
    }

    /// Assigns color `c` to edge `e`, returning the previous color if any.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of the coloring's graph, or if `c`
    /// is `ColorId(u32::MAX)` — that value is the internal uncolored
    /// sentinel and can never be a real color.
    pub fn set(&mut self, e: Edge, c: ColorId) -> Option<ColorId> {
        let Some(i) = self.slot(e) else {
            panic!("{e} is not an edge of the coloring's graph");
        };
        self.set_id(EdgeId(i as u32), c)
    }

    /// Removes the color of `e`, returning it.
    pub fn clear(&mut self, e: Edge) -> Option<ColorId> {
        self.clear_id(EdgeId(self.slot(e)? as u32))
    }

    /// The color of the edge with id `id`, if assigned. O(1).
    ///
    /// Ids are those of the graph passed to
    /// [`dense_for`](EdgeColoring::dense_for).
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside that graph's edge list.
    #[inline]
    pub fn get_id(&self, id: EdgeId) -> Option<ColorId> {
        match self.slots[id.index()] {
            UNCOLORED => None,
            c => Some(ColorId(c)),
        }
    }

    /// Assigns color `c` to the edge with id `id`, returning the
    /// previous color if any. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the graph's edge list, or if `c` is
    /// `ColorId(u32::MAX)` (the internal uncolored sentinel).
    #[inline]
    pub fn set_id(&mut self, id: EdgeId, c: ColorId) -> Option<ColorId> {
        assert_ne!(c.0, UNCOLORED, "u32::MAX is the uncolored sentinel");
        let prev = std::mem::replace(&mut self.slots[id.index()], c.0);
        if prev == UNCOLORED {
            self.colored += 1;
            None
        } else {
            Some(ColorId(prev))
        }
    }

    /// Removes the color of the edge with id `id`, returning it.
    /// O(1).
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the graph's edge list.
    #[inline]
    pub fn clear_id(&mut self, id: EdgeId) -> Option<ColorId> {
        match std::mem::replace(&mut self.slots[id.index()], UNCOLORED) {
            UNCOLORED => None,
            c => {
                self.colored -= 1;
                Some(ColorId(c))
            }
        }
    }

    /// Number of colored edges.
    pub fn len(&self) -> usize {
        self.colored
    }

    /// Whether no edge is colored.
    pub fn is_empty(&self) -> bool {
        self.colored == 0
    }

    /// The `(edge, color)` pairs in ascending edge order.
    pub fn iter(&self) -> impl Iterator<Item = (Edge, ColorId)> + '_ {
        self.edges
            .iter()
            .zip(&self.slots)
            .filter(|&(_, &c)| c != UNCOLORED)
            .map(|(&e, &c)| (e, ColorId(c)))
    }

    /// The assigned colors, in ascending edge order.
    fn colors(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().copied().filter(|&c| c != UNCOLORED)
    }

    /// Largest color index used, if any.
    pub fn max_color(&self) -> Option<ColorId> {
        self.colors().max().map(ColorId)
    }

    /// Number of distinct colors used — one bitmap pass, no sorting.
    /// The bitmap is bounded: colors too large for it (only buggy
    /// protocols produce them) are counted through a sorted side list
    /// instead of sizing the bitmap by the largest color value.
    pub fn num_distinct_colors(&self) -> usize {
        /// One `u64` word per 64 colors up to ~1M colors ≈ 16 KiB max.
        const BITMAP_COLOR_LIMIT: u32 = 1 << 20;
        let Some(max) = self.max_color() else {
            return 0;
        };
        let words_len = (max.0.min(BITMAP_COLOR_LIMIT - 1) / 64 + 1) as usize;
        let mut words = vec![0u64; words_len];
        let mut huge: Vec<u32> = Vec::new();
        let mut count = 0usize;
        for c in self.colors() {
            if c >= BITMAP_COLOR_LIMIT {
                huge.push(c);
                continue;
            }
            let word = &mut words[(c / 64) as usize];
            let bit = 1u64 << (c % 64);
            if *word & bit == 0 {
                *word |= bit;
                count += 1;
            }
        }
        huge.sort_unstable();
        huge.dedup();
        count + huge.len()
    }

    /// Merges `other`, a coloring of any graph, into `self`: one
    /// forward pass over both sorted edge lists, in ascending edge
    /// order. The edges merged before a failure stay merged.
    ///
    /// # Errors
    ///
    /// Returns the first edge `other` colors that is not an edge of
    /// `self`'s graph, or that `self` already holds in a *different*
    /// color.
    pub fn merge(&mut self, other: &EdgeColoring) -> Result<(), Edge> {
        let mut at = 0;
        for (e, c) in other.iter() {
            while self.edges.get(at).is_some_and(|&f| f < e) {
                at += 1;
            }
            if self.edges.get(at) != Some(&e) {
                return Err(e);
            }
            match self.slots[at] {
                UNCOLORED => {
                    self.slots[at] = c.0;
                    self.colored += 1;
                }
                existing if existing != c.0 => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }

    /// A new coloring of the *same* graph with every assigned color
    /// passed through `f` — the way to translate a local palette onto
    /// a global one.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns `ColorId(u32::MAX)` (the internal
    /// uncolored sentinel), like [`set`](EdgeColoring::set) would.
    pub fn remap(&self, mut f: impl FnMut(Edge, ColorId) -> ColorId) -> EdgeColoring {
        let mut out = self.clone();
        for (slot, &e) in out.slots.iter_mut().zip(self.edges.iter()) {
            if *slot != UNCOLORED {
                let mapped = f(e, ColorId(*slot));
                assert_ne!(mapped.0, UNCOLORED, "u32::MAX is the uncolored sentinel");
                *slot = mapped.0;
            }
        }
        out
    }
}

impl fmt::Debug for EdgeColoring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl PartialEq for EdgeColoring {
    /// The same `edge → color` mapping, whichever graphs the two
    /// colorings were created for.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for EdgeColoring {}

/// Why a coloring failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColoringError {
    /// A vertex has no assigned color.
    UncoloredVertex(VertexId),
    /// Two adjacent vertices share a color.
    AdjacentVertices(VertexId, VertexId, ColorId),
    /// A vertex color exceeds the allowed palette.
    VertexPaletteExceeded(VertexId, ColorId, usize),
    /// An edge has no assigned color.
    UncoloredEdge(Edge),
    /// Two incident edges share a color.
    IncidentEdges(Edge, Edge, ColorId),
    /// An edge color exceeds the allowed palette.
    EdgePaletteExceeded(Edge, ColorId, usize),
    /// A color sits on a pair that is not an edge of the graph.
    ColoredNonEdge(Edge),
    /// Two reports give one edge different colors.
    ConflictingReports(Edge),
}

impl fmt::Display for ColoringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColoringError::UncoloredVertex(v) => write!(f, "vertex {v} is uncolored"),
            ColoringError::AdjacentVertices(u, v, c) => {
                write!(f, "adjacent vertices {u} and {v} both have color {c}")
            }
            ColoringError::VertexPaletteExceeded(v, c, k) => {
                write!(f, "vertex {v} has color {c} outside palette of size {k}")
            }
            ColoringError::UncoloredEdge(e) => write!(f, "edge {e} is uncolored"),
            ColoringError::IncidentEdges(e1, e2, c) => {
                write!(f, "incident edges {e1} and {e2} both have color {c}")
            }
            ColoringError::EdgePaletteExceeded(e, c, k) => {
                write!(f, "edge {e} has color {c} outside palette of size {k}")
            }
            ColoringError::ColoredNonEdge(e) => {
                write!(f, "{e} has a color but is not an edge of the graph")
            }
            ColoringError::ConflictingReports(e) => {
                write!(f, "edge {e} is reported in two different colors")
            }
        }
    }
}

impl Error for ColoringError {}

/// Validates a *complete, proper* vertex coloring of `g`.
///
/// # Errors
///
/// Returns the first violation found: an uncolored vertex or two
/// adjacent vertices sharing a color.
pub fn validate_vertex_coloring(g: &Graph, c: &VertexColoring) -> Result<(), ColoringError> {
    for v in g.vertices() {
        if c.get(v).is_none() {
            return Err(ColoringError::UncoloredVertex(v));
        }
    }
    validate_partial_vertex_coloring(g, c)
}

/// Validates that the colored portion of a vertex coloring is proper
/// (uncolored vertices are allowed).
///
/// # Errors
///
/// Returns the first pair of adjacent vertices sharing a color.
pub fn validate_partial_vertex_coloring(
    g: &Graph,
    c: &VertexColoring,
) -> Result<(), ColoringError> {
    for e in g.edges() {
        let (u, v) = e.endpoints();
        if let (Some(cu), Some(cv)) = (c.get(u), c.get(v)) {
            if cu == cv {
                return Err(ColoringError::AdjacentVertices(u, v, cu));
            }
        }
    }
    Ok(())
}

/// Validates a complete proper vertex coloring confined to the palette
/// `{0, ..., palette_size-1}` — e.g. `palette_size = Δ+1` for the
/// paper's main problem.
///
/// # Errors
///
/// Returns the first violation: uncolored vertex, adjacent conflict, or
/// out-of-palette color.
pub fn validate_vertex_coloring_with_palette(
    g: &Graph,
    c: &VertexColoring,
    palette_size: usize,
) -> Result<(), ColoringError> {
    validate_vertex_coloring(g, c)?;
    for v in g.vertices() {
        let col = c.get(v).expect("checked complete");
        if col.index() >= palette_size {
            return Err(ColoringError::VertexPaletteExceeded(v, col, palette_size));
        }
    }
    Ok(())
}

/// Timestamp-marked scratch for the edge-coloring validators: one
/// "last seen at stamp" slot per color, so checking a vertex's
/// incident colors for duplicates costs O(deg) with no per-vertex
/// hash map. Each validator call allocates its own, sized by the
/// largest color it sees.
#[derive(Default)]
struct ColorMarks {
    /// `seen_at[c]` = stamp of the vertex at which color `c` was last
    /// observed (0 = never; stamps start at 1).
    seen_at: Vec<u32>,
    /// `nbr[c]` = the neighbor endpoint of the edge that observed `c`
    /// at the current vertex, for conflict reporting.
    nbr: Vec<u32>,
    /// `(color, neighbor)` pairs of the current vertex whose color is
    /// `>= DENSE_COLOR_LIMIT` — only adversarial/buggy colorings land
    /// here, and a vertex has at most `deg` of them, so the linear
    /// scan is fine and scratch memory stays bounded by the limit
    /// rather than by the largest color value submitted.
    overflow: Vec<(u32, u32)>,
    /// Current vertex stamp.
    stamp: u32,
}

/// Largest color the scratch tracks densely (one `u32` slot per
/// color). Real palettes are `O(Δ)`; anything at or above this bound
/// — which only a buggy protocol can produce — takes the per-vertex
/// overflow list instead, so validating an adversarial coloring with
/// `ColorId(u32::MAX - 1)` costs a few list entries, not gigabytes.
const DENSE_COLOR_LIMIT: usize = 1 << 20;

impl ColorMarks {
    /// Starts a new "distinct colors" group (one vertex).
    #[inline]
    fn begin_group(&mut self) {
        if self.stamp == u32::MAX {
            self.seen_at.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.overflow.clear();
    }

    /// Records `color` seen via neighbor `nbr` in the current group;
    /// returns the previous neighbor if the color was already seen.
    #[inline]
    fn observe(&mut self, color: usize, nbr: u32) -> Option<u32> {
        if color >= DENSE_COLOR_LIMIT {
            return self.observe_overflow(color as u32, nbr);
        }
        if color >= self.seen_at.len() {
            self.grow(color);
        }
        if self.seen_at[color] == self.stamp {
            return Some(self.nbr[color]);
        }
        self.seen_at[color] = self.stamp;
        self.nbr[color] = nbr;
        None
    }

    #[cold]
    fn observe_overflow(&mut self, color: u32, nbr: u32) -> Option<u32> {
        if let Some(&(_, prev)) = self.overflow.iter().find(|&&(c, _)| c == color) {
            return Some(prev);
        }
        self.overflow.push((color, nbr));
        None
    }

    #[cold]
    fn grow(&mut self, color: usize) {
        let len = (color + 1).next_power_of_two().max(64);
        self.seen_at.resize(len, 0);
        self.nbr.resize(len, 0);
    }

    /// [`validate_partial_edge_coloring`]'s pass: one O(n+m) sweep of
    /// array traffic over `c`, a coloring of `g`'s edge list.
    fn check_partial_edge_coloring(
        &mut self,
        g: &Graph,
        c: &EdgeColoring,
    ) -> Result<(), ColoringError> {
        for v in g.vertices() {
            self.begin_group();
            let ids = g.neighbor_edge_ids(v);
            for (&u, &id) in g.neighbors(v).iter().zip(ids) {
                let Some(col) = c.get_id(id) else { continue };
                if let Some(prev) = self.observe(col.index(), u.0) {
                    return Err(ColoringError::IncidentEdges(
                        Edge::new(VertexId(prev), v),
                        Edge::new(u, v),
                        col,
                    ));
                }
            }
        }
        Ok(())
    }

    /// [`validate_edge_coloring`]'s pass.
    fn check_edge_coloring(&mut self, g: &Graph, c: &EdgeColoring) -> Result<(), ColoringError> {
        if let Some(i) = c.slots.iter().position(|&slot| slot == UNCOLORED) {
            return Err(ColoringError::UncoloredEdge(g.edge(EdgeId(i as u32))));
        }
        self.check_partial_edge_coloring(g, c)
    }

    /// [`validate_edge_coloring_with_palette`]'s pass.
    fn check_edge_coloring_with_palette(
        &mut self,
        g: &Graph,
        c: &EdgeColoring,
        palette_size: usize,
    ) -> Result<(), ColoringError> {
        self.check_edge_coloring(g, c)?;
        match c.slots.iter().position(|&col| col as usize >= palette_size) {
            Some(i) => Err(ColoringError::EdgePaletteExceeded(
                g.edge(EdgeId(i as u32)),
                ColorId(c.slots[i]),
                palette_size,
            )),
            None => Ok(()),
        }
    }
}

/// `c` as a coloring of `g`'s own edge list: `c` itself when it is
/// one, otherwise `c` laid onto [`EdgeColoring::dense_for`]`(g)` by
/// [`EdgeColoring::merge`].
///
/// # Errors
///
/// Returns [`ColoringError::ColoredNonEdge`] for the first colored
/// pair of `c` that is not an edge of `g`.
fn on_graph<'a>(g: &Graph, c: &'a EdgeColoring) -> Result<Cow<'a, EdgeColoring>, ColoringError> {
    if c.is_indexed_for(g) {
        return Ok(Cow::Borrowed(c));
    }
    let mut laid = EdgeColoring::dense_for(g);
    laid.merge(c).map_err(ColoringError::ColoredNonEdge)?;
    Ok(Cow::Owned(laid))
}

/// Validates a *complete, proper* edge coloring of `g`.
///
/// # Errors
///
/// Returns the first violation found: a color on a pair that is not
/// an edge of `g`, an uncolored edge, or two incident edges sharing a
/// color.
pub fn validate_edge_coloring(g: &Graph, c: &EdgeColoring) -> Result<(), ColoringError> {
    ColorMarks::default().check_edge_coloring(g, &*on_graph(g, c)?)
}

/// Validates that the colored portion of an edge coloring of `g` is
/// proper.
///
/// # Errors
///
/// Returns a color on a pair that is not an edge of `g`, or else the
/// first pair of incident edges sharing a color.
pub fn validate_partial_edge_coloring(g: &Graph, c: &EdgeColoring) -> Result<(), ColoringError> {
    ColorMarks::default().check_partial_edge_coloring(g, &*on_graph(g, c)?)
}

/// Validates a complete proper edge coloring confined to the palette
/// `{0, ..., palette_size-1}` — e.g. `palette_size = 2Δ−1` for the
/// paper's edge-coloring problem.
///
/// # Errors
///
/// Returns the first violation: a color on a non-edge, an uncolored
/// edge, an incident conflict, or an out-of-palette color.
pub fn validate_edge_coloring_with_palette(
    g: &Graph,
    c: &EdgeColoring,
    palette_size: usize,
) -> Result<(), ColoringError> {
    ColorMarks::default().check_edge_coloring_with_palette(g, &*on_graph(g, c)?, palette_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path3() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(1), VertexId(2));
        b.build()
    }

    #[test]
    fn vertex_coloring_accessors() {
        let mut c = VertexColoring::new(3);
        assert!(!c.is_colored(VertexId(0)));
        assert_eq!(c.set(VertexId(0), ColorId(1)), None);
        assert_eq!(c.set(VertexId(0), ColorId(2)), Some(ColorId(1)));
        assert_eq!(c.num_colored(), 1);
        assert!(!c.is_complete());
        assert_eq!(c.uncolored_vertices(), vec![VertexId(1), VertexId(2)]);
        assert_eq!(c.max_color(), Some(ColorId(2)));
        assert_eq!(c.clear(VertexId(0)), Some(ColorId(2)));
        assert_eq!(c.num_colored(), 0);
    }

    #[test]
    fn valid_vertex_coloring_passes() {
        let g = path3();
        let mut c = VertexColoring::new(3);
        c.set(VertexId(0), ColorId(0));
        c.set(VertexId(1), ColorId(1));
        c.set(VertexId(2), ColorId(0));
        assert!(validate_vertex_coloring(&g, &c).is_ok());
        assert!(validate_vertex_coloring_with_palette(&g, &c, 2).is_ok());
        assert_eq!(c.num_distinct_colors(), 2);
    }

    #[test]
    fn adjacent_conflict_detected() {
        let g = path3();
        let mut c = VertexColoring::new(3);
        c.set(VertexId(0), ColorId(0));
        c.set(VertexId(1), ColorId(0));
        c.set(VertexId(2), ColorId(1));
        assert_eq!(
            validate_vertex_coloring(&g, &c),
            Err(ColoringError::AdjacentVertices(
                VertexId(0),
                VertexId(1),
                ColorId(0)
            ))
        );
    }

    #[test]
    fn uncolored_vertex_detected() {
        let g = path3();
        let c = VertexColoring::new(3);
        assert_eq!(
            validate_vertex_coloring(&g, &c),
            Err(ColoringError::UncoloredVertex(VertexId(0)))
        );
        // But the partial validator is fine with it.
        assert!(validate_partial_vertex_coloring(&g, &c).is_ok());
    }

    #[test]
    fn palette_violation_detected() {
        let g = path3();
        let mut c = VertexColoring::new(3);
        c.set(VertexId(0), ColorId(0));
        c.set(VertexId(1), ColorId(5));
        c.set(VertexId(2), ColorId(0));
        assert!(matches!(
            validate_vertex_coloring_with_palette(&g, &c, 3),
            Err(ColoringError::VertexPaletteExceeded(_, ColorId(5), 3))
        ));
    }

    #[test]
    fn edge_coloring_roundtrip() {
        let g = path3();
        let e01 = Edge::new(VertexId(0), VertexId(1));
        let e12 = Edge::new(VertexId(1), VertexId(2));
        let mut c = EdgeColoring::dense_for(&g);
        c.set(e01, ColorId(0));
        c.set(e12, ColorId(1));
        assert!(validate_edge_coloring(&g, &c).is_ok());
        assert!(validate_edge_coloring_with_palette(&g, &c, 2).is_ok());
        assert_eq!(c.len(), 2);
        assert_eq!(c.max_color(), Some(ColorId(1)));
    }

    #[test]
    fn incident_edge_conflict_detected() {
        let g = path3();
        let e01 = Edge::new(VertexId(0), VertexId(1));
        let e12 = Edge::new(VertexId(1), VertexId(2));
        let mut c = EdgeColoring::dense_for(&g);
        c.set(e01, ColorId(0));
        c.set(e12, ColorId(0));
        assert!(matches!(
            validate_edge_coloring(&g, &c),
            Err(ColoringError::IncidentEdges(_, _, ColorId(0)))
        ));
    }

    #[test]
    fn uncolored_edge_detected() {
        let g = path3();
        let c = EdgeColoring::dense_for(&g);
        assert!(matches!(
            validate_edge_coloring(&g, &c),
            Err(ColoringError::UncoloredEdge(_))
        ));
        assert!(validate_partial_edge_coloring(&g, &c).is_ok());
    }

    #[test]
    fn merge_detects_conflicts() {
        let (g, t) = (path3(), crate::gen::complete(3));
        let e = Edge::new(VertexId(0), VertexId(1));
        let mut a = EdgeColoring::dense_for(&g);
        a.set(e, ColorId(0));
        let mut b = EdgeColoring::dense_for(&g);
        b.set(e, ColorId(1));
        assert_eq!(a.clone().merge(&b), Err(e));
        // Across edge lists too: the triangle's {0,1} is the path's.
        let mut same = EdgeColoring::dense_for(&t);
        same.set(e, ColorId(0));
        assert!(a.merge(&same).is_ok());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn merge_refuses_an_edge_outside_the_graph() {
        let (g, t) = (path3(), crate::gen::complete(3));
        let e02 = Edge::new(VertexId(0), VertexId(2));
        let e12 = Edge::new(VertexId(1), VertexId(2));
        let mut other = EdgeColoring::dense_for(&t);
        other.set(Edge::new(VertexId(0), VertexId(1)), ColorId(0));
        other.set(e02, ColorId(9));
        other.set(e12, ColorId(1));
        let mut c = EdgeColoring::dense_for(&g);
        assert_eq!(c.merge(&other), Err(e02));
        // The walk is in ascending edge order: {0,1} merged before the
        // failure, {1,2} was never reached.
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(e12), None);
    }

    #[test]
    fn a_color_on_a_non_edge_fails_validation() {
        // A proper coloring of the triangle is not a coloring of the
        // path on the same vertices: {0,2} is not an edge of it.
        let (g, t) = (path3(), crate::gen::complete(3));
        let mut c = EdgeColoring::dense_for(&t);
        for (i, &e) in t.edges().iter().enumerate() {
            c.set(e, ColorId(i as u32));
        }
        assert!(validate_edge_coloring_with_palette(&t, &c, 3).is_ok());
        let stray = Err(ColoringError::ColoredNonEdge(Edge::new(
            VertexId(0),
            VertexId(2),
        )));
        assert_eq!(validate_edge_coloring_with_palette(&g, &c, 3), stray);
        assert_eq!(validate_edge_coloring(&g, &c), stray);
        assert_eq!(validate_partial_edge_coloring(&g, &c), stray);
    }

    #[test]
    #[should_panic(expected = "is not an edge")]
    fn set_on_a_non_edge_panics() {
        let mut c = EdgeColoring::dense_for(&path3());
        c.set(Edge::new(VertexId(0), VertexId(2)), ColorId(9));
    }

    #[test]
    fn huge_colors_validate_without_huge_scratch() {
        // A buggy protocol may emit near-u32::MAX colors; the
        // validators must reject (or accept) them with bounded
        // memory, not size their scratch by the color value.
        let g = path3();
        let e01 = Edge::new(VertexId(0), VertexId(1));
        let e12 = Edge::new(VertexId(1), VertexId(2));
        let mut c = EdgeColoring::dense_for(&g);
        c.set(e01, ColorId(u32::MAX - 1));
        c.set(e12, ColorId(u32::MAX - 1));
        assert!(matches!(
            validate_partial_edge_coloring(&g, &c),
            Err(ColoringError::IncidentEdges(_, _, ColorId(c))) if c == u32::MAX - 1
        ));
        c.set(e12, ColorId(u32::MAX - 2));
        assert!(validate_edge_coloring(&g, &c).is_ok());
        assert!(matches!(
            validate_edge_coloring_with_palette(&g, &c, 3),
            Err(ColoringError::EdgePaletteExceeded(..))
        ));
        assert_eq!(c.num_distinct_colors(), 2);
    }

    #[test]
    #[should_panic(expected = "uncolored sentinel")]
    fn set_rejects_the_sentinel_color() {
        let mut c = EdgeColoring::dense_for(&path3());
        c.set(Edge::new(VertexId(0), VertexId(1)), ColorId(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "uncolored sentinel")]
    fn remap_rejects_the_sentinel_color() {
        let g = path3();
        let mut c = EdgeColoring::dense_for(&g);
        c.set(Edge::new(VertexId(0), VertexId(1)), ColorId(0));
        let _ = c.remap(|_, _| ColorId(u32::MAX));
    }

    #[test]
    fn error_display_nonempty() {
        let msgs = [
            ColoringError::UncoloredVertex(VertexId(0)).to_string(),
            ColoringError::AdjacentVertices(VertexId(0), VertexId(1), ColorId(0)).to_string(),
            ColoringError::UncoloredEdge(Edge::new(VertexId(0), VertexId(1))).to_string(),
            ColoringError::ColoredNonEdge(Edge::new(VertexId(0), VertexId(2))).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
