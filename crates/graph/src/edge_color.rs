//! Constructive edge-coloring theorems.
//!
//! The paper's edge-coloring protocol (Algorithm 2) leans on two
//! classical existential results:
//!
//! * **Proposition 3.4 (Vizing).** Every simple graph is edge colorable
//!   with `Δ+1` colors — here realized by the Misra–Gries fan/Kempe
//!   algorithm, [`misra_gries`].
//! * **Proposition 3.5 (Fournier).** If the maximum-degree vertices
//!   form an independent set, `Δ` colors suffice — here realized
//!   constructively by [`fournier`] with an *ordered* fan insertion:
//!   first all edges not touching a degree-Δ vertex (a max-degree-`Δ−1`
//!   instance, so the Vizing fan argument with `Δ` colors applies),
//!   then each edge incident to a degree-Δ vertex with the fan centered
//!   on that vertex, whose neighbors all have degree `≤ Δ−1` by
//!   independence and therefore always have a free color among `Δ`.
//!
//! Both algorithms run in `O(m · (n + Δ))` time and are validated by
//! property tests against the checkers in [`crate::coloring`].

use crate::coloring::{ColorId, EdgeColoring};
use crate::graph::{Edge, EdgeId, Graph, VertexId};

/// Failure of [`fournier`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FournierError {
    /// The maximum-degree vertices are not an independent set, so
    /// Proposition 3.5 does not apply.
    MaxDegreeNotIndependent,
    /// Internal invariant violation: the fan argument got stuck on the
    /// reported edge. Cannot happen for inputs satisfying the
    /// precondition; surfaced as an error so callers can assert on it.
    FanStuck(Edge),
}

impl std::fmt::Display for FournierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FournierError::MaxDegreeNotIndependent => {
                write!(f, "maximum-degree vertices are not an independent set")
            }
            FournierError::FanStuck(e) => write!(f, "fan argument stuck while coloring {e}"),
        }
    }
}

impl std::error::Error for FournierError {}

/// The "no neighbor" sentinel of [`FanState::tbl`].
const NO_VERTEX: u32 = u32::MAX;

/// Reusable fan / Kempe-path buffers (stamp-marked membership instead
/// of a fresh `Vec<bool>` per edge).
struct FanScratch {
    /// Reusable fan buffer (taken out while a fan is processed).
    fan: Vec<VertexId>,
    /// Stamp-marked "vertex is in the current fan" scratch.
    in_fan: Vec<u32>,
    fan_stamp: u32,
    /// Reusable Kempe-path segment buffer.
    segments: Vec<(VertexId, VertexId, ColorId)>,
}

impl FanScratch {
    fn new(num_vertices: usize) -> Self {
        FanScratch {
            fan: Vec::new(),
            in_fan: vec![0; num_vertices],
            fan_stamp: 0,
            segments: Vec::new(),
        }
    }
}

/// Mutable edge-coloring state with O(1) "which neighbor is joined to
/// `v` by color `c`" lookups, the workhorse of the fan algorithm.
///
/// All bookkeeping is dense and edge-id-indexed: the color table is
/// one flat `n × k` array and the coloring is a dense vector over the
/// graph's [`EdgeId`] space.
struct FanState<'a> {
    g: &'a Graph,
    /// Palette size; colors are `0..k`.
    k: usize,
    /// `tbl[v·k + c]` = neighbor joined to `v` by an edge colored `c`,
    /// or [`NO_VERTEX`].
    tbl: Vec<u32>,
    coloring: EdgeColoring,
}

impl<'a> FanState<'a> {
    fn new(g: &'a Graph, k: usize) -> Self {
        FanState {
            g,
            k,
            tbl: vec![NO_VERTEX; k * g.num_vertices()],
            coloring: EdgeColoring::dense_for(g),
        }
    }

    /// Neighbor joined to `v` by an edge colored `c`, or [`NO_VERTEX`].
    #[inline]
    fn tbl_at(&self, v: VertexId, c: ColorId) -> u32 {
        self.tbl[v.index() * self.k + c.index()]
    }

    /// Is `c` unused at `v`?
    #[inline]
    fn is_free(&self, v: VertexId, c: ColorId) -> bool {
        self.tbl_at(v, c) == NO_VERTEX
    }

    /// Smallest color unused at `v`.
    fn some_free(&self, v: VertexId) -> Option<ColorId> {
        let row = &self.tbl[v.index() * self.k..(v.index() + 1) * self.k];
        row.iter()
            .position(|&slot| slot == NO_VERTEX)
            .map(|c| ColorId(c as u32))
    }

    #[inline]
    fn id_of(&self, a: VertexId, b: VertexId) -> EdgeId {
        self.g.edge_id(a, b).expect("fan edges are graph edges")
    }

    /// Colors the edge `(a, b)` with `c` (must be free at both ends).
    fn set(&mut self, a: VertexId, b: VertexId, c: ColorId) {
        debug_assert!(
            self.is_free(a, c) && self.is_free(b, c),
            "color {c} not free"
        );
        self.tbl[a.index() * self.k + c.index()] = b.0;
        self.tbl[b.index() * self.k + c.index()] = a.0;
        self.coloring.set_id(self.id_of(a, b), c);
    }

    /// Uncolors the edge `(a, b)`, returning its color.
    fn unset(&mut self, a: VertexId, b: VertexId) -> ColorId {
        let c = self
            .coloring
            .clear_id(self.id_of(a, b))
            .expect("edge was colored");
        self.tbl[a.index() * self.k + c.index()] = NO_VERTEX;
        self.tbl[b.index() * self.k + c.index()] = NO_VERTEX;
        c
    }

    /// Current color of edge `(a, b)`.
    fn color_of(&self, a: VertexId, b: VertexId) -> Option<ColorId> {
        self.coloring.get_id(self.id_of(a, b))
    }
}

/// Inverts the maximal alternating `c/d` path starting at `u`.
///
/// Precondition: `c` is free at `u`. The path (if nonempty) starts
/// with the `d`-edge at `u` and alternates; since each vertex has
/// at most one edge of each color and `u` has no `c`-edge, the path
/// is simple.
fn invert_cd_path(
    st: &mut FanState<'_>,
    scratch: &mut FanScratch,
    u: VertexId,
    c: ColorId,
    d: ColorId,
) {
    debug_assert!(st.is_free(u, c));
    let mut segments = std::mem::take(&mut scratch.segments);
    segments.clear();
    let mut cur = u;
    let mut want = d;
    loop {
        let next = st.tbl_at(cur, want);
        if next == NO_VERTEX {
            break;
        }
        segments.push((cur, VertexId(next), want));
        cur = VertexId(next);
        want = if want == c { d } else { c };
    }
    for &(a, b, _) in &segments {
        st.unset(a, b);
    }
    for &(a, b, col) in &segments {
        let flipped = if col == c { d } else { c };
        st.set(a, b, flipped);
    }
    scratch.segments = segments;
}

/// Builds the maximal fan of `u` starting at `v` into the reused
/// fan buffer and hands it out: distinct neighbors
/// `f_0 = v, f_1, ...` where edge `(u, f_{i+1})` is colored with a
/// color free at `f_i`. Return the buffer via `scratch.fan` when
/// done.
fn take_maximal_fan(
    st: &FanState<'_>,
    scratch: &mut FanScratch,
    u: VertexId,
    v: VertexId,
) -> Vec<VertexId> {
    if scratch.fan_stamp == u32::MAX {
        scratch.in_fan.fill(0);
        scratch.fan_stamp = 0;
    }
    scratch.fan_stamp += 1;
    let mut fan = std::mem::take(&mut scratch.fan);
    fan.clear();
    fan.push(v);
    scratch.in_fan[v.index()] = scratch.fan_stamp;
    'grow: loop {
        let last = *fan.last().expect("fan nonempty");
        for c in 0..st.k as u32 {
            let c = ColorId(c);
            if !st.is_free(last, c) {
                continue;
            }
            let w = st.tbl_at(u, c);
            if w != NO_VERTEX && scratch.in_fan[w as usize] != scratch.fan_stamp {
                scratch.in_fan[w as usize] = scratch.fan_stamp;
                fan.push(VertexId(w));
                continue 'grow;
            }
        }
        return fan;
    }
}

/// Checks the fan property of `fan[0..=j]` under current colors.
fn prefix_is_fan(st: &FanState<'_>, u: VertexId, fan: &[VertexId], j: usize) -> bool {
    (0..j).all(|i| match st.color_of(u, fan[i + 1]) {
        Some(c) => st.is_free(fan[i], c),
        None => false,
    })
}

/// Colors the uncolored edge `(u, v)` by the Misra–Gries fan /
/// Kempe-chain procedure with palette `[k]`, centering the fan at
/// `u`.
///
/// Requires that `u` and every neighbor of `u` reachable as a fan
/// vertex have a free color; callers establish this via the
/// preconditions documented on [`misra_gries`] and [`fournier`].
fn color_edge(
    st: &mut FanState<'_>,
    scratch: &mut FanScratch,
    u: VertexId,
    v: VertexId,
) -> Result<(), FournierError> {
    let fan = take_maximal_fan(st, scratch, u, v);
    let result = color_edge_with_fan(st, scratch, u, &fan);
    scratch.fan = fan; // hand the buffer back for the next edge
    result
}

fn color_edge_with_fan(
    st: &mut FanState<'_>,
    scratch: &mut FanScratch,
    u: VertexId,
    fan: &[VertexId],
) -> Result<(), FournierError> {
    let v = fan[0];
    let stuck = || FournierError::FanStuck(Edge::new(u, v));
    let c = st.some_free(u).ok_or_else(stuck)?;
    let last = *fan.last().expect("fan nonempty");
    let d = st.some_free(last).ok_or_else(stuck)?;
    if !st.is_free(u, d) {
        invert_cd_path(st, scratch, u, c, d);
    }
    debug_assert!(st.is_free(u, d), "d must be free at u after inversion");
    // Find a rotation point: smallest j with d free at fan[j] and a
    // valid fan prefix under post-inversion colors. Misra–Gries
    // guarantees one exists.
    let j = (0..fan.len())
        .find(|&j| st.is_free(fan[j], d) && prefix_is_fan(st, u, fan, j))
        .ok_or_else(stuck)?;
    // Rotate the prefix: shift each fan edge's color one step down.
    for i in 0..j {
        let col = st.unset(u, fan[i + 1]);
        st.set(u, fan[i], col);
    }
    st.set(u, fan[j], d);
    Ok(())
}

/// Misra–Gries edge coloring: a proper edge coloring of `g` with the
/// palette `{0, ..., Δ}` (`Δ+1` colors), constructively realizing
/// Vizing's theorem (Proposition 3.4).
///
/// # Example
///
/// ```
/// use bichrome_graph::{gen, edge_color::misra_gries};
/// use bichrome_graph::coloring::validate_edge_coloring_with_palette;
///
/// let g = gen::gnp(40, 0.15, 3);
/// let c = misra_gries(&g);
/// assert!(validate_edge_coloring_with_palette(&g, &c, g.max_degree() + 1).is_ok());
/// ```
pub fn misra_gries(g: &Graph) -> EdgeColoring {
    if g.num_edges() == 0 {
        return EdgeColoring::new();
    }
    let mut st = FanState::new(g, g.max_degree() + 1);
    let mut scratch = FanScratch::new(g.num_vertices());
    for &e in g.edges() {
        // With k = Δ+1 every vertex always has a free color, so the
        // fan procedure cannot get stuck.
        color_edge(&mut st, &mut scratch, e.u(), e.v())
            .expect("Vizing: Δ+1 colors never get stuck");
    }
    st.coloring
}

/// Constructive Fournier coloring: a proper edge coloring of `g` with
/// exactly `Δ` colors `{0, ..., Δ−1}`, valid whenever the
/// maximum-degree vertices of `g` form an independent set
/// (Proposition 3.5).
///
/// # Errors
///
/// Returns [`FournierError::MaxDegreeNotIndependent`] if the
/// precondition fails. (`FanStuck` is unreachable for valid inputs.)
///
/// # Example
///
/// ```
/// use bichrome_graph::{gen, edge_color::fournier};
/// use bichrome_graph::coloring::validate_edge_coloring_with_palette;
///
/// let g = gen::independent_max_degree(40, 5, 6, 1);
/// let c = fournier(&g).expect("precondition holds");
/// assert!(validate_edge_coloring_with_palette(&g, &c, g.max_degree()).is_ok());
/// ```
pub fn fournier(g: &Graph) -> Result<EdgeColoring, FournierError> {
    let d = g.max_degree();
    if g.num_edges() == 0 {
        return Ok(EdgeColoring::new());
    }
    let top = g.vertices_of_degree(d);
    if !g.is_independent_set(&top) {
        return Err(FournierError::MaxDegreeNotIndependent);
    }
    let mut is_top = vec![false; g.num_vertices()];
    for &v in &top {
        is_top[v.index()] = true;
    }
    let mut st = FanState::new(g, d);
    let mut scratch = FanScratch::new(g.num_vertices());
    // Phase 1: edges avoiding all degree-Δ vertices. Every vertex seen
    // by the fan has degree ≤ Δ−1, hence a free color among Δ.
    for &e in g.edges() {
        if !is_top[e.u().index()] && !is_top[e.v().index()] {
            color_edge(&mut st, &mut scratch, e.u(), e.v())?;
        }
    }
    // Phase 2: edges incident to a degree-Δ vertex; center the fan
    // there. Independence makes all fan vertices degree ≤ Δ−1.
    for &e in g.edges() {
        let (u, v) = e.endpoints();
        if is_top[u.index()] {
            color_edge(&mut st, &mut scratch, u, v)?;
        } else if is_top[v.index()] {
            color_edge(&mut st, &mut scratch, v, u)?;
        }
    }
    Ok(st.coloring)
}

/// Remaps the colors of `coloring` through `palette`: color `i`
/// becomes `palette[i]`.
///
/// Used by the protocols to express "color your subgraph with *your*
/// palette": the fan algorithms emit colors `0..k`, and the caller maps
/// them onto its assigned slice of the global `2Δ−1` palette.
///
/// # Panics
///
/// Panics if some color index is `>= palette.len()`.
pub fn remap_colors(coloring: &EdgeColoring, palette: &[ColorId]) -> EdgeColoring {
    // `remap` preserves the dense edge index, so the translated
    // coloring stays on the hash-free hot path.
    coloring.remap(|_, c| {
        *palette
            .get(c.index())
            .unwrap_or_else(|| panic!("color {c} outside palette of {}", palette.len()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{validate_edge_coloring_with_palette, ColoringError};
    use crate::gen;

    #[test]
    fn misra_gries_on_classics() {
        for g in [
            gen::path(10),
            gen::cycle(9),
            gen::complete(7),
            gen::star(12),
        ] {
            let c = misra_gries(&g);
            let k = g.max_degree() + 1;
            assert!(
                validate_edge_coloring_with_palette(&g, &c, k).is_ok(),
                "failed on {g}"
            );
        }
    }

    #[test]
    fn misra_gries_even_cycle_could_use_two_but_three_allowed() {
        let g = gen::cycle(8);
        let c = misra_gries(&g);
        assert!(validate_edge_coloring_with_palette(&g, &c, 3).is_ok());
    }

    #[test]
    fn misra_gries_on_random_graphs() {
        for seed in 0..20 {
            let g = gen::gnp(40, 0.2, seed);
            let c = misra_gries(&g);
            assert!(validate_edge_coloring_with_palette(&g, &c, g.max_degree() + 1).is_ok());
        }
    }

    #[test]
    fn misra_gries_on_dense_and_bipartite() {
        let g = gen::complete_bipartite(6, 9);
        let c = misra_gries(&g);
        assert!(validate_edge_coloring_with_palette(&g, &c, g.max_degree() + 1).is_ok());
        let g = gen::complete(10);
        let c = misra_gries(&g);
        assert!(validate_edge_coloring_with_palette(&g, &c, 10).is_ok());
    }

    #[test]
    fn misra_gries_empty() {
        assert!(misra_gries(&gen::empty(5)).is_empty());
    }

    #[test]
    fn fournier_on_generated_instances() {
        for seed in 0..20 {
            let g = gen::independent_max_degree(70, 6, 9, seed);
            let d = g.max_degree();
            let c = fournier(&g).expect("precondition holds by construction");
            assert!(
                validate_edge_coloring_with_palette(&g, &c, d).is_ok(),
                "Fournier must use exactly Δ = {d} colors (seed {seed})"
            );
        }
    }

    #[test]
    fn fournier_beats_greedy_color_count() {
        // Sanity: Δ colors is fewer than what greedy may need.
        let g = gen::independent_max_degree(50, 5, 8, 3);
        let c = fournier(&g).expect("valid");
        assert!(c.max_color().expect("nonempty").index() < g.max_degree());
    }

    #[test]
    fn fournier_rejects_adjacent_max_degree() {
        // K2: both endpoints have max degree and are adjacent.
        let g = gen::complete(2);
        assert_eq!(fournier(&g), Err(FournierError::MaxDegreeNotIndependent));
        // Even cycle: all vertices have max degree 2 and are adjacent.
        let g = gen::cycle(6);
        assert_eq!(fournier(&g), Err(FournierError::MaxDegreeNotIndependent));
    }

    #[test]
    fn fournier_on_star_uses_delta() {
        // A star has one hub; leaves have degree 1 < Δ.
        let g = gen::star(9);
        let c = fournier(&g).expect("hub is trivially independent");
        assert!(validate_edge_coloring_with_palette(&g, &c, 8).is_ok());
        assert_eq!(c.num_distinct_colors(), 8);
    }

    #[test]
    fn fournier_empty() {
        assert_eq!(fournier(&gen::empty(3)), Ok(EdgeColoring::new()));
    }

    #[test]
    fn remap_colors_translates() {
        let g = gen::path(3);
        let c = misra_gries(&g);
        let palette = [ColorId(10), ColorId(20), ColorId(30)];
        let r = remap_colors(&c, &palette);
        for (_, col) in r.iter() {
            assert!(col.0 >= 10 && col.0 % 10 == 0);
        }
        assert!(crate::coloring::validate_edge_coloring(&g, &r).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside palette")]
    fn remap_colors_panics_on_short_palette() {
        let g = gen::complete(4); // needs ≥ 3 colors
        let c = misra_gries(&g);
        let _ = remap_colors(&c, &[ColorId(0)]);
    }

    #[test]
    fn validators_catch_tampering() {
        let g = gen::complete(5);
        let mut c = misra_gries(&g);
        let e = g.edges()[0];
        let other = g.edges()[1];
        let col = c.get(other).expect("colored");
        c.set(e, col);
        // Either an incident conflict or (if not incident) still fine;
        // pick edges that share vertex 0 to force the conflict.
        assert!(e.is_adjacent_to(other));
        assert!(matches!(
            validate_edge_coloring_with_palette(&g, &c, 5),
            Err(ColoringError::IncidentEdges(..))
        ));
    }
}
