//! The immutable simple undirected graph type used across the workspace.

use std::fmt;
use std::sync::Arc;

/// Index of a vertex in a [`Graph`].
///
/// Vertices of an `n`-vertex graph are `0..n`. The newtype prevents
/// accidentally mixing vertex indices with color indices or edge
/// indices (C-NEWTYPE).
///
/// # Example
///
/// ```
/// use bichrome_graph::VertexId;
/// let v = VertexId(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Returns the vertex index as a `usize`, for indexing into arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(i: u32) -> Self {
        VertexId(i)
    }
}

/// Index of an edge in a [`Graph`]'s sorted edge list.
///
/// Edges of an `m`-edge graph are `0..m`, in the lexicographic order
/// of [`Graph::edges`]. The id is the key of the *dense* hot-path
/// layer: [`Graph::edge`] recovers the endpoints in O(1),
/// [`Graph::edge_id`] resolves endpoints to the id in O(log deg), and
/// [`EdgeColoring`](crate::coloring::EdgeColoring) stores colors in a
/// flat `Vec` indexed by it — no hashing anywhere on the trial hot
/// path.
///
/// # Example
///
/// ```
/// use bichrome_graph::{gen, EdgeId};
/// let g = gen::cycle(5);
/// for i in 0..g.num_edges() {
///     let id = EdgeId(i as u32);
///     let e = g.edge(id);
///     assert_eq!(g.edge_id(e.u(), e.v()), Some(id)); // round-trips
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Returns the edge index as a `usize`, for indexing into arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u32> for EdgeId {
    fn from(i: u32) -> Self {
        EdgeId(i)
    }
}

/// An undirected edge `{u, v}` of a [`Graph`], stored with `u < v`.
///
/// Construct through [`Edge::new`], which normalizes endpoint order so
/// that `Edge::new(a, b) == Edge::new(b, a)`.
///
/// # Example
///
/// ```
/// use bichrome_graph::{Edge, VertexId};
/// let e = Edge::new(VertexId(5), VertexId(2));
/// assert_eq!(e.u(), VertexId(2));
/// assert_eq!(e.v(), VertexId(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    u: VertexId,
    v: VertexId,
}

impl Edge {
    /// Creates the undirected edge `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loops are not simple-graph edges).
    #[inline]
    pub fn new(a: VertexId, b: VertexId) -> Self {
        assert_ne!(a, b, "self-loops are not allowed in a simple graph");
        if a < b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// The smaller endpoint.
    #[inline]
    pub fn u(self) -> VertexId {
        self.u
    }

    /// The larger endpoint.
    #[inline]
    pub fn v(self) -> VertexId {
        self.v
    }

    /// Both endpoints as a pair `(u, v)` with `u < v`.
    #[inline]
    pub fn endpoints(self) -> (VertexId, VertexId) {
        (self.u, self.v)
    }

    /// Returns the endpoint opposite to `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    #[inline]
    pub fn other(self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("{x} is not an endpoint of {self}");
        }
    }

    /// Whether `x` is one of the two endpoints.
    #[inline]
    pub fn is_incident_to(self, x: VertexId) -> bool {
        x == self.u || x == self.v
    }

    /// Whether this edge shares an endpoint with `other`.
    #[inline]
    pub fn is_adjacent_to(self, other: Edge) -> bool {
        self.is_incident_to(other.u) || self.is_incident_to(other.v)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.u, self.v)
    }
}

/// An immutable simple undirected graph.
///
/// Adjacency is stored in compressed-sparse-row form: one flat
/// neighbor array plus per-vertex offsets, so neighborhood iteration is
/// cache friendly and `deg(v)` is O(1). Build one with
/// [`GraphBuilder`](crate::GraphBuilder) or one of the generators in
/// [`gen`](crate::gen).
///
/// # Example
///
/// ```
/// use bichrome_graph::{GraphBuilder, VertexId};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(VertexId(0), VertexId(1));
/// b.add_edge(VertexId(1), VertexId(2));
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(VertexId(1)), 2);
/// assert_eq!(g.max_degree(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: u32,
    /// CSR offsets, length n+1.
    offsets: Vec<u32>,
    /// Flat neighbor list, length 2m.
    neighbors: Vec<VertexId>,
    /// Companion to `neighbors`: `neighbor_edge_ids[k]` is the id of
    /// the edge joining the vertex to `neighbors[k]`, so iterating a
    /// vertex's incidence list yields `(VertexId, EdgeId)` pairs with
    /// zero lookups.
    neighbor_edge_ids: Vec<EdgeId>,
    /// Sorted edge list (u < v within each edge, lexicographic order),
    /// shared behind an `Arc` so dense edge-indexed structures
    /// (`EdgeColoring`) can borrow the id space without copying it.
    edges: Arc<[Edge]>,
    /// Maximum degree.
    max_degree: u32,
}

impl Graph {
    pub(crate) fn from_parts(n: u32, edges: Vec<Edge>) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges sorted+deduped"
        );
        let mut deg = vec![0u32; n as usize];
        for e in &edges {
            deg[e.u().index()] += 1;
            deg[e.v().index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n as usize].to_vec();
        let mut neighbors = vec![VertexId(0); 2 * edges.len()];
        let mut neighbor_edge_ids = vec![EdgeId(0); 2 * edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let (u, v) = e.endpoints();
            let id = EdgeId(i as u32);
            neighbors[cursor[u.index()] as usize] = v;
            neighbor_edge_ids[cursor[u.index()] as usize] = id;
            cursor[u.index()] += 1;
            neighbors[cursor[v.index()] as usize] = u;
            neighbor_edge_ids[cursor[v.index()] as usize] = id;
            cursor[v.index()] += 1;
        }
        // Filling in lexicographic edge order leaves every neighbor
        // list sorted already: w's incident edges are {a, w} with
        // a < w (ascending a) followed by {w, b} with b > w
        // (ascending b), and all a's precede all b's.
        debug_assert!((0..n as usize).all(|v| {
            neighbors[offsets[v] as usize..offsets[v + 1] as usize]
                .windows(2)
                .all(|w| w[0] < w[1])
        }));
        let max_degree = deg.iter().copied().max().unwrap_or(0);
        Graph {
            n,
            offsets,
            neighbors,
            neighbor_edge_ids,
            edges: edges.into(),
            max_degree,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n as usize
    }

    /// Number of edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Maximum degree Δ of the graph (0 for an empty graph).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree as usize
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.n).map(VertexId)
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// The sorted, deduplicated edge list. [`EdgeId`]`(i)` names
    /// `edges()[i]`.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The shared handle to the sorted edge list — the [`EdgeId`]
    /// space. Cloning is O(1); dense structures keep it so they can
    /// resolve [`Edge`]-keyed calls without touching the graph.
    #[inline]
    pub fn edges_shared(&self) -> Arc<[Edge]> {
        Arc::clone(&self.edges)
    }

    /// The endpoints of edge `id`, in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// The id of edge `{u, v}`, or `None` if it is not an edge.
    /// O(log deg) via binary search in the sorted neighbor slice of
    /// the lower-degree endpoint.
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let k = self.neighbors(a).binary_search(&b).ok()?;
        Some(self.neighbor_edge_ids(a)[k])
    }

    /// The edge ids incident to `v`, aligned with
    /// [`neighbors`](Graph::neighbors): `neighbor_edge_ids(v)[k]` is
    /// the id of the edge `{v, neighbors(v)[k]}`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbor_edge_ids(&self, v: VertexId) -> &[EdgeId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.neighbor_edge_ids[lo..hi]
    }

    /// Iterator over `(neighbor, edge id)` pairs incident to `v`, in
    /// ascending neighbor order, with zero per-edge lookups.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn incident_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.neighbor_edge_ids(v).iter().copied())
    }

    /// Whether `{u, v}` is an edge. O(log deg) via binary search.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        // Search from the lower-degree endpoint.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Vertices of degree exactly `d`.
    pub fn vertices_of_degree(&self, d: usize) -> Vec<VertexId> {
        self.vertices().filter(|&v| self.degree(v) == d).collect()
    }

    /// Whether the given vertex set is independent (no edge inside it).
    pub fn is_independent_set(&self, set: &[VertexId]) -> bool {
        let mut marked = vec![false; self.num_vertices()];
        for &v in set {
            marked[v.index()] = true;
        }
        self.edges
            .iter()
            .all(|e| !(marked[e.u().index()] && marked[e.v().index()]))
    }

    /// Returns the subgraph on the same vertex set containing exactly the
    /// edges for which `keep` returns `true`.
    pub fn edge_subgraph(&self, mut keep: impl FnMut(Edge) -> bool) -> Graph {
        self.edge_subgraph_where(|_, e| keep(e))
    }

    /// Like [`edge_subgraph`](Graph::edge_subgraph), but `keep` also
    /// receives each edge's [`EdgeId`] — the natural shape when the
    /// kept set is an id-indexed bitmap rather than an `Edge` set.
    pub fn edge_subgraph_where(&self, mut keep: impl FnMut(EdgeId, Edge) -> bool) -> Graph {
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .enumerate()
            .filter(|&(i, &e)| keep(EdgeId(i as u32), e))
            .map(|(_, &e)| e)
            .collect();
        Graph::from_parts(self.n, edges)
    }

    /// Union of this graph with another graph on the same vertex set.
    ///
    /// # Panics
    ///
    /// Panics if the vertex counts differ.
    pub fn union(&self, other: &Graph) -> Graph {
        assert_eq!(self.n, other.n, "union requires equal vertex sets");
        let mut edges: Vec<Edge> = self
            .edges
            .iter()
            .chain(other.edges.iter())
            .copied()
            .collect();
        edges.sort_unstable();
        edges.dedup();
        Graph::from_parts(self.n, edges)
    }

    /// Sum of all vertex degrees, i.e. `2m`.
    pub fn total_degree(&self) -> usize {
        2 * self.num_edges()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, Δ={})",
            self.num_vertices(),
            self.num_edges(),
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(1), VertexId(2));
        b.add_edge(VertexId(0), VertexId(2));
        b.build()
    }

    #[test]
    fn edge_normalizes_order() {
        let e = Edge::new(VertexId(7), VertexId(3));
        assert_eq!(e.u(), VertexId(3));
        assert_eq!(e.v(), VertexId(7));
        assert_eq!(e, Edge::new(VertexId(3), VertexId(7)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(VertexId(1), VertexId(1));
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(VertexId(1), VertexId(4));
        assert_eq!(e.other(VertexId(1)), VertexId(4));
        assert_eq!(e.other(VertexId(4)), VertexId(1));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        Edge::new(VertexId(1), VertexId(4)).other(VertexId(2));
    }

    #[test]
    fn edge_adjacency() {
        let e1 = Edge::new(VertexId(0), VertexId(1));
        let e2 = Edge::new(VertexId(1), VertexId(2));
        let e3 = Edge::new(VertexId(2), VertexId(3));
        assert!(e1.is_adjacent_to(e2));
        assert!(!e1.is_adjacent_to(e3));
    }

    #[test]
    fn triangle_basic_invariants() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_degree(), 2);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(VertexId(0), VertexId(2)));
        assert!(!g.has_edge(VertexId(0), VertexId(0)));
    }

    #[test]
    fn neighbors_sorted() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(VertexId(2), VertexId(4));
        b.add_edge(VertexId(2), VertexId(0));
        b.add_edge(VertexId(2), VertexId(3));
        b.add_edge(VertexId(2), VertexId(1));
        let g = b.build();
        assert_eq!(
            g.neighbors(VertexId(2)),
            &[VertexId(0), VertexId(1), VertexId(3), VertexId(4)]
        );
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.total_degree(), 0);
        for v in g.vertices() {
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn independent_set_detection() {
        let g = triangle();
        assert!(g.is_independent_set(&[VertexId(0)]));
        assert!(!g.is_independent_set(&[VertexId(0), VertexId(1)]));
        assert!(g.is_independent_set(&[]));
    }

    #[test]
    fn edge_subgraph_filters() {
        let g = triangle();
        let h = g.edge_subgraph(|e| e.is_incident_to(VertexId(0)));
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.degree(VertexId(0)), 2);
        assert_eq!(h.degree(VertexId(1)), 1);
    }

    #[test]
    fn union_merges_and_dedups() {
        let mut a = GraphBuilder::new(4);
        a.add_edge(VertexId(0), VertexId(1));
        a.add_edge(VertexId(1), VertexId(2));
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(1), VertexId(2));
        b.add_edge(VertexId(2), VertexId(3));
        let u = a.build().union(&b.build());
        assert_eq!(u.num_edges(), 3);
    }

    #[test]
    fn vertices_of_degree() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(0), VertexId(2));
        let g = b.build();
        assert_eq!(g.vertices_of_degree(2), vec![VertexId(0)]);
        assert_eq!(g.vertices_of_degree(1), vec![VertexId(1), VertexId(2)]);
        assert_eq!(g.vertices_of_degree(0), vec![VertexId(3)]);
    }

    #[test]
    fn edge_ids_round_trip() {
        let g = crate::gen::gnp(30, 0.2, 5);
        for i in 0..g.num_edges() {
            let id = EdgeId(i as u32);
            let e = g.edge(id);
            assert_eq!(g.edge_id(e.u(), e.v()), Some(id));
            assert_eq!(g.edge_id(e.v(), e.u()), Some(id));
        }
        assert_eq!(g.edge_id(VertexId(0), VertexId(0)), None);
    }

    #[test]
    fn incident_edge_ids_align_with_neighbors() {
        let g = crate::gen::gnm_max_degree(20, 40, 6, 3);
        for v in g.vertices() {
            assert_eq!(g.neighbors(v).len(), g.neighbor_edge_ids(v).len());
            for (u, id) in g.incident_edges(v) {
                assert_eq!(g.edge(id), Edge::new(u, v));
            }
        }
    }

    #[test]
    fn edge_subgraph_where_passes_matching_ids() {
        let g = triangle();
        // Keep exactly the edge with id 1 — {0, 2} in sorted order.
        let h = g.edge_subgraph_where(|id, e| {
            assert_eq!(g.edge(id), e);
            id == EdgeId(1)
        });
        assert_eq!(h.edges(), &[Edge::new(VertexId(0), VertexId(2))]);
    }

    #[test]
    fn display_impls_nonempty() {
        let g = triangle();
        assert!(!format!("{g}").is_empty());
        assert!(!format!("{}", VertexId(3)).is_empty());
        assert!(!format!("{}", Edge::new(VertexId(0), VertexId(1))).is_empty());
    }
}
