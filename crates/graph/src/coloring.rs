//! Vertex and edge coloring containers and validators.
//!
//! Validators in this module are the ground truth the entire workspace
//! tests against: a protocol's output is correct exactly when the
//! corresponding `validate_*` function returns `Ok`.

use crate::graph::{Edge, EdgeId, Graph, VertexId};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// The dense-slot sentinel for "no color assigned".
const UNCOLORED: u32 = u32::MAX;

/// The shared zero-length [`EdgeId`] index used by colorings created
/// without a graph, so `EdgeColoring::new()` never allocates.
fn empty_index() -> Arc<[Edge]> {
    static EMPTY: OnceLock<Arc<[Edge]>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Vec::new().into()))
}

/// A (possibly partial) edge coloring.
///
/// Colors live in a *dense* `Vec` indexed by [`EdgeId`] over the edge
/// list of the graph the coloring was created for (see
/// [`EdgeColoring::dense_for`]), with sentinel slots for uncolored
/// edges — the trial hot path (protocol rounds, validators)
/// never hashes. Edges *outside* that index (e.g. another party's
/// edges merged in, or anything `set` on a [`EdgeColoring::new`]
/// coloring, which has an empty index) spill into a sorted side map,
/// so the [`Edge`]-keyed API keeps working unchanged for every
/// caller.
///
/// [`iter`](EdgeColoring::iter) yields pairs in **ascending edge
/// order** — deterministic, unlike the hash-keyed representation this
/// replaced.
///
/// # Example
///
/// ```
/// use bichrome_graph::coloring::{ColorId, EdgeColoring};
/// use bichrome_graph::{gen, Edge, EdgeId, VertexId};
///
/// // Edge-keyed, index-free usage (everything spills to the side map):
/// let mut c = EdgeColoring::new();
/// let e = Edge::new(VertexId(0), VertexId(1));
/// c.set(e, ColorId(0));
/// assert_eq!(c.get(e), Some(ColorId(0)));
///
/// // Dense, EdgeId-keyed usage over a graph's edge list:
/// let g = gen::cycle(4);
/// let mut c = EdgeColoring::dense_for(&g);
/// c.set_id(EdgeId(2), ColorId(7));
/// assert_eq!(c.get(g.edge(EdgeId(2))), Some(ColorId(7)));
/// ```
#[derive(Clone)]
pub struct EdgeColoring {
    /// The [`EdgeId`] space: a sorted edge list shared with the graph
    /// this coloring was created for (empty for `new()`).
    index: Arc<[Edge]>,
    /// `dense[i]` = color of `index[i]`, or [`UNCOLORED`].
    dense: Vec<u32>,
    /// Colors of edges outside `index`, sorted.
    extra: BTreeMap<Edge, ColorId>,
    /// Number of non-sentinel `dense` slots.
    dense_colored: usize,
}

impl EdgeColoring {
    /// An empty edge coloring with no [`EdgeId`] index: every edge
    /// goes through the sorted side map. Prefer
    /// [`dense_for`](EdgeColoring::dense_for) when the target graph is
    /// at hand.
    pub fn new() -> Self {
        EdgeColoring {
            index: empty_index(),
            dense: Vec::new(),
            extra: BTreeMap::new(),
            dense_colored: 0,
        }
    }

    /// An all-uncolored coloring indexed by `g`'s [`EdgeId`] space:
    /// one flat `Vec` slot per edge of `g` (shared edge list, no
    /// copy). All `Edge`- and `EdgeId`-keyed operations on `g`'s edges
    /// are hash-free.
    pub fn dense_for(g: &Graph) -> Self {
        EdgeColoring {
            index: g.edges_shared(),
            dense: vec![UNCOLORED; g.num_edges()],
            extra: BTreeMap::new(),
            dense_colored: 0,
        }
    }

    /// Whether this coloring's [`EdgeId`] index *is* `g`'s edge list
    /// (pointer identity) — the condition under which `EdgeId`-keyed
    /// calls and `g`'s edge ids agree and validators take the dense
    /// O(n+m) path.
    #[inline]
    pub fn is_indexed_for(&self, g: &Graph) -> bool {
        let edges = g.edges();
        self.index.as_ptr() == edges.as_ptr() && self.index.len() == edges.len()
    }

    /// The dense slot of `e`, if `e` is in the index.
    #[inline]
    fn slot(&self, e: Edge) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        self.index.binary_search(&e).ok()
    }

    /// The color of edge `e`, if assigned.
    pub fn get(&self, e: Edge) -> Option<ColorId> {
        match self.slot(e) {
            Some(i) => match self.dense[i] {
                UNCOLORED => None,
                c => Some(ColorId(c)),
            },
            None => self.extra.get(&e).copied(),
        }
    }

    /// Assigns color `c` to edge `e`, returning the previous color if any.
    ///
    /// # Panics
    ///
    /// Panics if `c` is `ColorId(u32::MAX)` — that value is the
    /// internal uncolored sentinel and can never be a real color.
    pub fn set(&mut self, e: Edge, c: ColorId) -> Option<ColorId> {
        assert_ne!(c.0, UNCOLORED, "u32::MAX is the uncolored sentinel");
        match self.slot(e) {
            Some(i) => {
                let prev = std::mem::replace(&mut self.dense[i], c.0);
                if prev == UNCOLORED {
                    self.dense_colored += 1;
                    None
                } else {
                    Some(ColorId(prev))
                }
            }
            None => self.extra.insert(e, c),
        }
    }

    /// Removes the color of `e`, returning it.
    pub fn clear(&mut self, e: Edge) -> Option<ColorId> {
        match self.slot(e) {
            Some(i) => match std::mem::replace(&mut self.dense[i], UNCOLORED) {
                UNCOLORED => None,
                c => {
                    self.dense_colored -= 1;
                    Some(ColorId(c))
                }
            },
            None => self.extra.remove(&e),
        }
    }

    /// The color of the edge with dense id `id`, if assigned. O(1).
    ///
    /// Ids are relative to the coloring's own index (the graph passed
    /// to [`dense_for`](EdgeColoring::dense_for)).
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the index.
    #[inline]
    pub fn get_id(&self, id: EdgeId) -> Option<ColorId> {
        match self.dense[id.index()] {
            UNCOLORED => None,
            c => Some(ColorId(c)),
        }
    }

    /// Assigns color `c` to the edge with dense id `id`, returning the
    /// previous color if any. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the index, or if `c` is
    /// `ColorId(u32::MAX)` (the internal uncolored sentinel).
    #[inline]
    pub fn set_id(&mut self, id: EdgeId, c: ColorId) -> Option<ColorId> {
        assert_ne!(c.0, UNCOLORED, "u32::MAX is the uncolored sentinel");
        let prev = std::mem::replace(&mut self.dense[id.index()], c.0);
        if prev == UNCOLORED {
            self.dense_colored += 1;
            None
        } else {
            Some(ColorId(prev))
        }
    }

    /// Removes the color of the edge with dense id `id`, returning it.
    /// O(1).
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the index.
    #[inline]
    pub fn clear_id(&mut self, id: EdgeId) -> Option<ColorId> {
        match std::mem::replace(&mut self.dense[id.index()], UNCOLORED) {
            UNCOLORED => None,
            c => {
                self.dense_colored -= 1;
                Some(ColorId(c))
            }
        }
    }

    /// Number of colored edges.
    pub fn len(&self) -> usize {
        self.dense_colored + self.extra.len()
    }

    /// Whether no edge is colored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterator over `(edge, color)` pairs in ascending edge order
    /// (deterministic: dense index entries and side-map entries are
    /// merged into one sorted stream).
    pub fn iter(&self) -> EdgeColoringIter<'_> {
        EdgeColoringIter {
            index: &self.index,
            dense: &self.dense,
            pos: 0,
            extra: self.extra.iter().peekable(),
        }
    }

    /// Largest color index used, if any.
    pub fn max_color(&self) -> Option<ColorId> {
        let dense_max = self.dense.iter().copied().filter(|&c| c != UNCOLORED).max();
        let extra_max = self.extra.values().map(|c| c.0).max();
        dense_max.into_iter().chain(extra_max).max().map(ColorId)
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
        let mut mark = |c: u32| {
            if c >= BITMAP_COLOR_LIMIT {
                huge.push(c);
                return;
            }
            let word = &mut words[(c / 64) as usize];
            let bit = 1u64 << (c % 64);
            if *word & bit == 0 {
                *word |= bit;
                count += 1;
            }
        };
        for &c in &self.dense {
            if c != UNCOLORED {
                mark(c);
            }
        }
        for c in self.extra.values() {
            mark(c.0);
        }
        huge.sort_unstable();
        huge.dedup();
        count + huge.len()
    }

    /// Merges `other` into `self`.
    ///
    /// # Errors
    ///
    /// Returns the conflicting edge if `other` assigns a *different*
    /// color to an edge already colored in `self`.
    pub fn merge(&mut self, other: &EdgeColoring) -> Result<(), Edge> {
        if Arc::ptr_eq(&self.index, &other.index) {
            // Same id space: elementwise, no edge lookups at all.
            for (i, &c) in other.dense.iter().enumerate() {
                if c == UNCOLORED {
                    continue;
                }
                match self.dense[i] {
                    UNCOLORED => {
                        self.dense[i] = c;
                        self.dense_colored += 1;
                    }
                    existing if existing != c => return Err(self.index[i]),
                    _ => {}
                }
            }
            for (&e, &c) in &other.extra {
                match self.get(e) {
                    Some(existing) if existing != c => return Err(e),
                    _ => {
                        self.set(e, c);
                    }
                }
            }
            return Ok(());
        }
        for (e, c) in other.iter() {
            match self.get(e) {
                Some(existing) if existing != c => return Err(e),
                _ => {
                    self.set(e, c);
                }
            }
        }
        Ok(())
    }

    /// A new coloring over the *same* edge index with every assigned
    /// color passed through `f` — the dense-preserving way to
    /// translate a local palette onto a global one.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns `ColorId(u32::MAX)` (the internal
    /// uncolored sentinel), like [`set`](EdgeColoring::set) would.
    pub fn remap(&self, mut f: impl FnMut(Edge, ColorId) -> ColorId) -> EdgeColoring {
        let mut out = self.clone();
        let mut apply = |e: Edge, c: ColorId| {
            let mapped = f(e, c);
            assert_ne!(mapped.0, UNCOLORED, "u32::MAX is the uncolored sentinel");
            mapped
        };
        for (i, slot) in out.dense.iter_mut().enumerate() {
            if *slot != UNCOLORED {
                *slot = apply(self.index[i], ColorId(*slot)).0;
            }
        }
        for (&e, c) in out.extra.iter_mut() {
            *c = apply(e, *c);
        }
        out
    }

    /// Colors in use at edges incident to `v`.
    pub fn colors_at(&self, g: &Graph, v: VertexId) -> Vec<ColorId> {
        let mut out = Vec::new();
        if self.is_indexed_for(g) {
            for (_, id) in g.incident_edges(v) {
                if let Some(c) = self.get_id(id) {
                    out.push(c);
                }
            }
        } else {
            for &u in g.neighbors(v) {
                if let Some(c) = self.get(Edge::new(u, v)) {
                    out.push(c);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl Default for EdgeColoring {
    fn default() -> Self {
        EdgeColoring::new()
    }
}

impl fmt::Debug for EdgeColoring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl PartialEq for EdgeColoring {
    /// Representation-independent equality: the same `edge → color`
    /// mapping, whether a color sits in the dense index or the side
    /// map (both iterate in ascending edge order).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for EdgeColoring {}

impl FromIterator<(Edge, ColorId)> for EdgeColoring {
    fn from_iter<T: IntoIterator<Item = (Edge, ColorId)>>(iter: T) -> Self {
        let mut c = EdgeColoring::new();
        c.extend(iter);
        c
    }
}

impl Extend<(Edge, ColorId)> for EdgeColoring {
    fn extend<T: IntoIterator<Item = (Edge, ColorId)>>(&mut self, iter: T) {
        for (e, c) in iter {
            self.set(e, c);
        }
    }
}

/// Sorted-merge iterator over an [`EdgeColoring`]'s dense index and
/// side map; see [`EdgeColoring::iter`].
pub struct EdgeColoringIter<'a> {
    index: &'a [Edge],
    dense: &'a [u32],
    pos: usize,
    extra: std::iter::Peekable<std::collections::btree_map::Iter<'a, Edge, ColorId>>,
}

impl Iterator for EdgeColoringIter<'_> {
    type Item = (Edge, ColorId);

    fn next(&mut self) -> Option<(Edge, ColorId)> {
        while self.pos < self.dense.len() && self.dense[self.pos] == UNCOLORED {
            self.pos += 1;
        }
        match (self.dense.get(self.pos), self.extra.peek()) {
            (Some(&c), Some(&(&e, &ec))) => {
                if e < self.index[self.pos] {
                    self.extra.next();
                    Some((e, ec))
                } else {
                    let out = (self.index[self.pos], ColorId(c));
                    self.pos += 1;
                    Some(out)
                }
            }
            (Some(&c), None) => {
                let out = (self.index[self.pos], ColorId(c));
                self.pos += 1;
                Some(out)
            }
            (None, Some(_)) => self.extra.next().map(|(&e, &c)| (e, c)),
            (None, None) => None,
        }
    }
}

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
    /// A vertex color is outside its allowed list (D1LC).
    ColorNotInList(VertexId, ColorId),
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
            ColoringError::ColorNotInList(v, c) => {
                write!(f, "vertex {v} has color {c} outside its allowed list")
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

/// Reusable timestamp-marked scratch for the edge-coloring
/// validators: one "last seen at stamp" slot per color, so checking a
/// vertex's incident colors for duplicates costs O(deg) with **zero
/// allocation** — no per-vertex hash map. The buffers persist across
/// calls; reusing one `ColorMarks` across trials (as the runner's
/// per-worker scratch does) makes the whole validator pass
/// allocation-free once the palette has been seen.
///
/// # Example
///
/// ```
/// use bichrome_graph::coloring::ColorMarks;
/// use bichrome_graph::{gen, edge_color::misra_gries};
///
/// let mut marks = ColorMarks::new();
/// for seed in 0..3 {
///     let g = gen::gnp(30, 0.2, seed);
///     let c = misra_gries(&g);
///     // Same verdicts as the free `validate_*` functions, but the
///     // scratch is reused across all three trials.
///     assert!(marks
///         .check_edge_coloring_with_palette(&g, &c, g.max_degree() + 1)
///         .is_ok());
/// }
/// ```
#[derive(Debug, Default)]
pub struct ColorMarks {
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
    /// Number of internal (re)allocations this scratch has made.
    allocs: u64,
}

/// Largest color the scratch tracks densely (one `u32` slot per
/// color). Real palettes are `O(Δ)`; anything at or above this bound
/// — which only a buggy protocol can produce — takes the per-vertex
/// overflow list instead, so validating an adversarial coloring with
/// `ColorId(u32::MAX - 1)` costs a few list entries, not gigabytes.
const DENSE_COLOR_LIMIT: usize = 1 << 20;

impl ColorMarks {
    /// A fresh scratch. Allocates nothing until a color is observed.
    pub fn new() -> Self {
        ColorMarks::default()
    }

    /// Number of internal (re)allocations this scratch has performed
    /// so far — a diagnostic counter for tests asserting that a warm
    /// scratch validates trial after trial with zero heap allocation.
    pub fn allocations(&self) -> u64 {
        self.allocs
    }

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
        self.allocs += 1;
    }

    /// Validates that the colored portion of an edge coloring is
    /// proper, reusing this scratch. Same verdicts (including the
    /// first violation reported) as
    /// [`validate_partial_edge_coloring`].
    ///
    /// One O(n+m) pass: when `c` is dense over `g`'s edge index the
    /// inner loop is pure array traffic; otherwise each incident edge
    /// costs one O(log m) lookup.
    ///
    /// # Errors
    ///
    /// Returns the first pair of incident edges sharing a color.
    pub fn check_partial_edge_coloring(
        &mut self,
        g: &Graph,
        c: &EdgeColoring,
    ) -> Result<(), ColoringError> {
        let fast = c.is_indexed_for(g);
        for v in g.vertices() {
            self.begin_group();
            let nbrs = g.neighbors(v);
            let ids = g.neighbor_edge_ids(v);
            for (k, &u) in nbrs.iter().enumerate() {
                let col = if fast {
                    c.get_id(ids[k])
                } else {
                    c.get(Edge::new(u, v))
                };
                let Some(col) = col else { continue };
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

    /// Validates a *complete, proper* edge coloring of `g`, reusing
    /// this scratch. Same verdicts as [`validate_edge_coloring`].
    ///
    /// # Errors
    ///
    /// Returns the first violation found: an uncolored edge or two
    /// incident edges sharing a color.
    pub fn check_edge_coloring(
        &mut self,
        g: &Graph,
        c: &EdgeColoring,
    ) -> Result<(), ColoringError> {
        if c.is_indexed_for(g) {
            if let Some(i) = c.dense.iter().position(|&slot| slot == UNCOLORED) {
                return Err(ColoringError::UncoloredEdge(g.edge(EdgeId(i as u32))));
            }
        } else {
            for &e in g.edges() {
                if c.get(e).is_none() {
                    return Err(ColoringError::UncoloredEdge(e));
                }
            }
        }
        self.check_partial_edge_coloring(g, c)
    }

    /// Validates a complete proper edge coloring confined to the
    /// palette `{0, ..., palette_size-1}`, reusing this scratch. Same
    /// verdicts as [`validate_edge_coloring_with_palette`].
    ///
    /// # Errors
    ///
    /// Returns the first violation: uncolored edge, incident conflict,
    /// or out-of-palette color.
    pub fn check_edge_coloring_with_palette(
        &mut self,
        g: &Graph,
        c: &EdgeColoring,
        palette_size: usize,
    ) -> Result<(), ColoringError> {
        self.check_edge_coloring(g, c)?;
        if c.is_indexed_for(g) {
            for (i, &col) in c.dense.iter().enumerate() {
                if col != UNCOLORED && col as usize >= palette_size {
                    return Err(ColoringError::EdgePaletteExceeded(
                        g.edge(EdgeId(i as u32)),
                        ColorId(col),
                        palette_size,
                    ));
                }
            }
        } else {
            for &e in g.edges() {
                let col = c.get(e).expect("checked complete");
                if col.index() >= palette_size {
                    return Err(ColoringError::EdgePaletteExceeded(e, col, palette_size));
                }
            }
        }
        Ok(())
    }
}

/// Validates a *complete, proper* edge coloring of `g`.
///
/// Stateless wrapper over [`ColorMarks::check_edge_coloring`]; hot
/// paths that validate many colorings should hold a `ColorMarks` and
/// call the method to reuse its buffers.
///
/// # Errors
///
/// Returns the first violation found: an uncolored edge or two incident
/// edges sharing a color.
pub fn validate_edge_coloring(g: &Graph, c: &EdgeColoring) -> Result<(), ColoringError> {
    ColorMarks::new().check_edge_coloring(g, c)
}

/// Validates that the colored portion of an edge coloring is proper.
///
/// Stateless wrapper over
/// [`ColorMarks::check_partial_edge_coloring`].
///
/// # Errors
///
/// Returns the first pair of incident edges sharing a color.
pub fn validate_partial_edge_coloring(g: &Graph, c: &EdgeColoring) -> Result<(), ColoringError> {
    ColorMarks::new().check_partial_edge_coloring(g, c)
}

/// Validates a complete proper edge coloring confined to the palette
/// `{0, ..., palette_size-1}` — e.g. `palette_size = 2Δ−1` for the
/// paper's edge-coloring problem.
///
/// Stateless wrapper over
/// [`ColorMarks::check_edge_coloring_with_palette`].
///
/// # Errors
///
/// Returns the first violation: uncolored edge, incident conflict, or
/// out-of-palette color.
pub fn validate_edge_coloring_with_palette(
    g: &Graph,
    c: &EdgeColoring,
    palette_size: usize,
) -> Result<(), ColoringError> {
    ColorMarks::new().check_edge_coloring_with_palette(g, c, palette_size)
}

/// Validates a (degree+1)-list coloring: complete, proper, and every
/// vertex's color is inside its list.
///
/// # Errors
///
/// Returns the first violation. `lists[v]` must be sorted or not —
/// membership is checked by linear scan.
///
/// # Panics
///
/// Panics if `lists.len() != g.num_vertices()`.
pub fn validate_list_coloring(
    g: &Graph,
    c: &VertexColoring,
    lists: &[Vec<ColorId>],
) -> Result<(), ColoringError> {
    assert_eq!(lists.len(), g.num_vertices(), "one list per vertex");
    validate_vertex_coloring(g, c)?;
    for v in g.vertices() {
        let col = c.get(v).expect("checked complete");
        if !lists[v.index()].contains(&col) {
            return Err(ColoringError::ColorNotInList(v, col));
        }
    }
    Ok(())
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
        let mut c = EdgeColoring::new();
        c.set(e01, ColorId(0));
        c.set(e12, ColorId(1));
        assert!(validate_edge_coloring(&g, &c).is_ok());
        assert!(validate_edge_coloring_with_palette(&g, &c, 2).is_ok());
        assert_eq!(c.colors_at(&g, VertexId(1)), vec![ColorId(0), ColorId(1)]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.max_color(), Some(ColorId(1)));
    }

    #[test]
    fn incident_edge_conflict_detected() {
        let g = path3();
        let e01 = Edge::new(VertexId(0), VertexId(1));
        let e12 = Edge::new(VertexId(1), VertexId(2));
        let mut c = EdgeColoring::new();
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
        let c = EdgeColoring::new();
        assert!(matches!(
            validate_edge_coloring(&g, &c),
            Err(ColoringError::UncoloredEdge(_))
        ));
        assert!(validate_partial_edge_coloring(&g, &c).is_ok());
    }

    #[test]
    fn merge_detects_conflicts() {
        let e = Edge::new(VertexId(0), VertexId(1));
        let mut a = EdgeColoring::new();
        a.set(e, ColorId(0));
        let mut b = EdgeColoring::new();
        b.set(e, ColorId(1));
        assert_eq!(a.clone().merge(&b), Err(e));
        let mut same = EdgeColoring::new();
        same.set(e, ColorId(0));
        assert!(a.merge(&same).is_ok());
    }

    #[test]
    fn list_coloring_validation() {
        let g = path3();
        let mut c = VertexColoring::new(3);
        c.set(VertexId(0), ColorId(0));
        c.set(VertexId(1), ColorId(1));
        c.set(VertexId(2), ColorId(0));
        let lists = vec![
            vec![ColorId(0), ColorId(1)],
            vec![ColorId(1)],
            vec![ColorId(0)],
        ];
        assert!(validate_list_coloring(&g, &c, &lists).is_ok());
        let bad_lists = vec![vec![ColorId(1)], vec![ColorId(1)], vec![ColorId(0)]];
        assert_eq!(
            validate_list_coloring(&g, &c, &bad_lists),
            Err(ColoringError::ColorNotInList(VertexId(0), ColorId(0)))
        );
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
        let mut c = EdgeColoring::new();
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
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
