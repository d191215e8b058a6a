//! **Algorithm 2** — the deterministic `(2Δ−1)`-edge-coloring protocol
//! for `Δ ≥ 8` (Theorem 2): `O(n)` bits, three rounds.
//!
//! Per party (everything below is symmetric):
//!
//! 1. **Defer** edges joining two vertices of current remaining-degree
//!    `≥ Δ−1`; the deferred subgraph `DG` has maximum degree 2
//!    (Lemma 5.2). The deferred set is a bitmap over the party
//!    graph's edge ids, and the remaining subgraph `R` is that graph
//!    minus the bitmap: its degrees are counted down in place.
//! 2. Find a **Δ-perfect matching** `M` in `R` covering every
//!    degree-Δ vertex (Lemma 5.3, via Hopcroft–Karp). Only this step
//!    builds `R`'s adjacency, and only when some vertex keeps degree
//!    Δ.
//! 3. Color `R' = R − M` with the party's own `Δ−1` colors: its
//!    maximum-degree vertices are independent, so constructive
//!    Fournier (Proposition 3.5) applies. `R'` is never built: the
//!    masked engines color the party graph's edges outside `DG` and
//!    `M` in place, in its own edge-id space.
//! 4. **Round 1**: exchange two n-bit masks — vertices covered by `M`,
//!    and vertices of own-degree `> Δ/2`.
//! 5. **Round 2**: the Lemma 5.4 exchange — each party publishes
//!    `O(log n)` colors of its palette plus shrinking bit-arrays that
//!    hand the other party one available own-palette color for every
//!    vertex of own-degree `≤ Δ/2` (`O(n)` bits total).
//! 6. Color `M`: an edge `{hub, v}` takes the **special color** when
//!    `v` is unmatched on the other side or the other side is busy at
//!    `v` (degree `> Δ/2`); otherwise it takes the other party's
//!    palette color delivered by step 5. The two parties' rules are
//!    mutually exclusive at every shared vertex.
//! 7. **Round 3**: exchange 7-bit-per-vertex masks of which of each
//!    party's *first seven* palette colors are free, then greedily
//!    color `DG` from the other party's first seven (Lemma 5.5: at
//!    least five are free at each endpoint and `DG` has degree ≤ 2).

use crate::edge::PaletteLayout;
use crate::input::PartyInput;
use bichrome_comm::session::PartyCtx;
use bichrome_comm::wire::{width_for, BitWriter};
use bichrome_graph::coloring::{ColorId, EdgeColoring};
use bichrome_graph::edge_color::{fournier_where, misra_gries_where, remap_colors};
use bichrome_graph::matching::matching_covering;
use bichrome_graph::{Edge, EdgeId, Graph, VertexId};

/// One party's script for Algorithm 2.
///
/// # Panics
///
/// Panics if `Δ < 8` (the dispatcher routes smaller Δ to Lemma 5.1) or
/// if an internal invariant of the paper's analysis fails.
pub fn algorithm2_party(input: &PartyInput, ctx: &PartyCtx) -> EdgeColoring {
    let delta = input.delta;
    assert!(delta >= 8, "Algorithm 2 requires Δ ≥ 8, got {delta}");
    ctx.endpoint.meter().set_phase("edge-algorithm2");
    let g = input.graph;
    let n = input.num_vertices();
    let layout = PaletteLayout::new(delta);
    let my_palette = layout.own_palette(input.side);
    let other_palette = layout.other_palette(input.side);
    let special = layout.special();

    // ---- Step 1: defer edges between two (Δ−1)+-degree vertices. ----
    // The deferred set is a dense bitmap over the party graph's edge
    // ids — membership tests on the Round 3 hot path are one array
    // load, not a hash.
    let mut deg: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    let mut deferred = vec![false; g.num_edges()];
    let mut stack: Vec<EdgeId> = g
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| deg[e.u().index()] >= delta - 1 && deg[e.v().index()] >= delta - 1)
        .map(|(i, _)| EdgeId(i as u32))
        .collect();
    while let Some(id) = stack.pop() {
        let e = g.edge(id);
        if deg[e.u().index()] >= delta - 1 && deg[e.v().index()] >= delta - 1 {
            deferred[id.index()] = true;
            deg[e.u().index()] -= 1;
            deg[e.v().index()] -= 1;
        }
    }
    // Deferred edge ids ascend, so this is already sorted edge order.
    let dg: Vec<EdgeId> = (0..g.num_edges())
        .filter(|&i| deferred[i])
        .map(|i| EdgeId(i as u32))
        .collect();
    debug_assert!(
        {
            let dg_edges: Vec<Edge> = dg.iter().map(|&id| g.edge(id)).collect();
            max_degree_of_edges(&dg_edges, n) <= 2
        },
        "Lemma 5.2"
    );

    // ---- Step 2: Δ-perfect matching in R. ----
    // R's degrees are `deg`. Its adjacency is built only when some
    // vertex keeps degree Δ, since Hopcroft–Karp walks it.
    let matching: Vec<(VertexId, VertexId, EdgeId)> = if deg.contains(&delta) {
        let r_graph = g.edge_subgraph_where(|id, _| !deferred[id.index()]);
        let targets: Vec<VertexId> = g.vertices().filter(|v| deg[v.index()] == delta).collect();
        let edges =
            matching_covering(&r_graph, &targets).expect("Lemma 5.3: a covering matching exists");
        edges
            .iter()
            .map(|e| {
                let hub = if deg[e.u().index()] == delta {
                    e.u()
                } else {
                    e.v()
                };
                let id = g
                    .edge_id(e.u(), e.v())
                    .expect("matching edges are graph edges");
                (hub, e.other(hub), id)
            })
            .collect()
    } else {
        Vec::new()
    };
    // Matched edges as a bitmap over g's edge ids, matched vertices as
    // a bitmap over V.
    let mut in_matching = vec![false; g.num_edges()];
    let mut my_matched = vec![false; n];
    for &(hub, v, id) in &matching {
        in_matching[id.index()] = true;
        my_matched[hub.index()] = true;
        my_matched[v.index()] = true;
    }

    // ---- Step 3: color R' = R − M with my palette. ----
    // R' is colored in place over g's edge ids, never built: its
    // degrees are R's, minus one at matched vertices. The party's
    // output coloring is dense over its whole subgraph g, so every
    // later read and write on the round hot paths is an O(1)
    // id-indexed slot access.
    let d = g
        .vertices()
        .map(|v| deg[v.index()] - usize::from(my_matched[v.index()]))
        .max()
        .unwrap_or(0);
    let in_r_prime = |id: EdgeId| !deferred[id.index()] && !in_matching[id.index()];
    let raw = if d == delta - 1 {
        fournier_where(g, in_r_prime)
            .expect("deferral + matching removal leave max-degree vertices independent")
    } else {
        debug_assert!(d < delta - 1, "Vizing fits in the palette");
        misra_gries_where(g, in_r_prime)
    };
    let mut coloring = remap_colors(&raw, &my_palette);

    // ---- Round 1: matched mask + over-half-degree mask. ----
    let my_over_half: Vec<bool> = g.vertices().map(|v| g.degree(v) > delta / 2).collect();
    let mut w = BitWriter::new();
    w.write_bools(&my_matched);
    w.write_bools(&my_over_half);
    let incoming = ctx.endpoint.exchange(w.finish());
    let mut r = incoming.reader();
    let peer_matched = r.read_bools(n);
    let peer_over_half = r.read_bools(n);

    // ---- Round 2: Lemma 5.4 palette-covering exchange. ----
    let my_k: Vec<VertexId> = g.vertices().filter(|&v| !my_over_half[v.index()]).collect();
    let pw = my_palette.len();
    // One flat |K| × palette availability matrix instead of a Vec per
    // vertex.
    let mut free_rows = vec![false; my_k.len() * pw];
    for (i, &v) in my_k.iter().enumerate() {
        free_in_palette_into(
            g,
            &coloring,
            &my_palette,
            v,
            &mut free_rows[i * pw..(i + 1) * pw],
        );
    }
    let msg = encode_palette_covering(&my_k, &free_rows, pw);
    let incoming = ctx.endpoint.exchange(msg);
    let peer_k: Vec<VertexId> = g
        .vertices()
        .filter(|&v| !peer_over_half[v.index()])
        .collect();
    let peer_assigned = decode_palette_covering(&mut incoming.reader(), &peer_k, &other_palette, n);

    // ---- Step 6: color the matching. ----
    for &(_, v, id) in &matching {
        let color = if !peer_matched[v.index()] || peer_over_half[v.index()] {
            special
        } else {
            peer_assigned[v.index()].expect("Lemma 5.4 covers every low-degree vertex of the peer")
        };
        coloring.set_id(id, color);
    }

    // ---- Round 3: first-seven masks, then color DG. ----
    let seven = 7usize.min(my_palette.len());
    let mut w = BitWriter::new();
    let mut free_buf = vec![false; my_palette.len()];
    for v in g.vertices() {
        // Matching colors live in the other palette (or special), so
        // they never mask out own-palette colors here.
        free_in_palette_into(g, &coloring, &my_palette, v, &mut free_buf);
        for &b in free_buf.iter().take(seven) {
            w.write_bit(b);
        }
    }
    let incoming = ctx.endpoint.exchange(w.finish());
    let mut r = incoming.reader();
    let mut peer_free7 = vec![[false; 7]; n];
    for row in peer_free7.iter_mut() {
        for slot in row.iter_mut().take(seven) {
            *slot = r.read_bit();
        }
    }

    // My matching color at each vertex (to avoid in DG).
    let mut my_match_color: Vec<Option<ColorId>> = vec![None; n];
    for &(hub, v, id) in &matching {
        let c = coloring.get_id(id).expect("just colored");
        my_match_color[hub.index()] = Some(c);
        my_match_color[v.index()] = Some(c);
    }

    for &eid in &dg {
        let (a, b) = g.edge(eid).endpoints();
        let mut blocked = [false; 7];
        for w2 in [a, b] {
            for (i, slot) in blocked.iter_mut().enumerate().take(seven) {
                if !peer_free7[w2.index()][i] {
                    *slot = true;
                }
            }
            if let Some(c) = my_match_color[w2.index()] {
                if let Some(i) = palette_index(&other_palette, c) {
                    if i < 7 {
                        blocked[i] = true;
                    }
                }
            }
            for (_, fid) in g.incident_edges(w2) {
                if deferred[fid.index()] {
                    if let Some(c) = coloring.get_id(fid) {
                        if let Some(i) = palette_index(&other_palette, c) {
                            if i < 7 {
                                blocked[i] = true;
                            }
                        }
                    }
                }
            }
        }
        let i = (0..seven)
            .find(|&i| !blocked[i])
            .expect("Lemma 5.5: at least one of the seven remains free");
        coloring.set_id(eid, other_palette[i]);
    }

    coloring
}

/// Fills `free` (one slot per color of `palette`) with which colors
/// are unused by `coloring` at edges of `g` incident to `v`. The
/// coloring must be dense over `g`'s edge ids; the caller supplies the
/// buffer so round loops reuse one allocation.
fn free_in_palette_into(
    g: &Graph,
    coloring: &EdgeColoring,
    palette: &[ColorId],
    v: VertexId,
    free: &mut [bool],
) {
    debug_assert_eq!(free.len(), palette.len());
    debug_assert!(coloring.is_indexed_for(g));
    free.fill(true);
    for (_, id) in g.incident_edges(v) {
        if let Some(c) = coloring.get_id(id) {
            if let Some(i) = palette_index(palette, c) {
                free[i] = false;
            }
        }
    }
}

/// Index of `c` within `palette`, if present.
fn palette_index(palette: &[ColorId], c: ColorId) -> Option<usize> {
    // Palettes are contiguous ranges; subtract the base.
    let base = palette.first()?.0;
    if c.0 >= base && ((c.0 - base) as usize) < palette.len() {
        Some((c.0 - base) as usize)
    } else {
        None
    }
}

/// Lemma 5.4 encoder: iteratively pick the palette color available for
/// the largest fraction of the still-uncovered vertices (≥ 1/3 by the
/// double-counting argument), announce it with a membership bit-array
/// over the current uncovered list, and recurse on the rest. Each
/// color's count of uncovered vertices is taken once and decremented
/// for every vertex a pick covers; ties go to the largest color.
///
/// `free_rows` is a flat `k.len() × palette_len` availability matrix
/// (row `i` belongs to `k[i]`).
fn encode_palette_covering(
    k: &[VertexId],
    free_rows: &[bool],
    palette_len: usize,
) -> bichrome_comm::Message {
    debug_assert_eq!(free_rows.len(), k.len() * palette_len);
    let row = |i: usize| &free_rows[i * palette_len..(i + 1) * palette_len];
    let mut count = vec![0usize; palette_len];
    for i in 0..k.len() {
        for (n, &f) in count.iter_mut().zip(row(i)) {
            *n += usize::from(f);
        }
    }
    let mut u: Vec<usize> = (0..k.len()).collect();
    let mut picks: Vec<(usize, Vec<bool>)> = Vec::new();
    while !u.is_empty() {
        let best = (0..palette_len)
            .max_by_key(|&c| count[c])
            .expect("palette nonempty");
        assert!(
            count[best] > 0,
            "every vertex has an available color (Δ ≥ 8)"
        );
        let mask: Vec<bool> = u.iter().map(|&i| row(i)[best]).collect();
        let mut next = Vec::with_capacity(u.len() - count[best]);
        for (&i, &covered) in u.iter().zip(&mask) {
            if covered {
                for (n, &f) in count.iter_mut().zip(row(i)) {
                    *n -= usize::from(f);
                }
            } else {
                next.push(i);
            }
        }
        picks.push((best, mask));
        u = next;
    }
    let mut w = BitWriter::new();
    w.write_gamma(picks.len() as u64);
    let cw = width_for(palette_len.saturating_sub(1) as u64);
    for (c, mask) in &picks {
        w.write_uint(*c as u64, cw);
        w.write_bools(mask);
    }
    w.finish()
}

/// Lemma 5.4 decoder: reconstructs, for each vertex in `k`, the first
/// announced color that is available for it (as an absolute
/// [`ColorId`] via `palette`). Returns a dense option array over all
/// `n` vertices.
fn decode_palette_covering(
    r: &mut bichrome_comm::BitReader<'_>,
    k: &[VertexId],
    palette: &[ColorId],
    n: usize,
) -> Vec<Option<ColorId>> {
    let mut assigned: Vec<Option<ColorId>> = vec![None; n];
    let t = r.read_gamma() as usize;
    let cw = width_for(palette.len().saturating_sub(1) as u64);
    let mut u: Vec<VertexId> = k.to_vec();
    for _ in 0..t {
        let c = palette[r.read_uint(cw) as usize];
        let mask = r.read_bools(u.len());
        let mut next = Vec::new();
        for (i, &v) in u.iter().enumerate() {
            if mask[i] {
                assigned[v.index()] = Some(c);
            } else {
                next.push(v);
            }
        }
        u = next;
    }
    assert!(u.is_empty(), "covering must assign every vertex in K");
    assigned
}

fn max_degree_of_edges(edges: &[Edge], n: usize) -> usize {
    let mut deg = vec![0usize; n];
    for e in edges {
        deg[e.u().index()] += 1;
        deg[e.v().index()] += 1;
    }
    deg.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::tests::theorem2_merged;
    use bichrome_comm::Message;
    use bichrome_graph::coloring::validate_edge_coloring_with_palette;
    use bichrome_graph::gen;
    use bichrome_graph::partition::Partitioner;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn check(g: &Graph, part: Partitioner, seed: u64) {
        let p = part.split(g);
        let (merged, _) = theorem2_merged(&p, seed);
        let budget = 2 * g.max_degree() - 1;
        if let Err(e) = validate_edge_coloring_with_palette(g, &merged, budget) {
            panic!("invalid coloring on {g} under {part}: {e}");
        }
    }

    #[test]
    fn algorithm2_on_random_graphs() {
        for seed in 0..6 {
            let g = gen::gnm_max_degree(60, 270, 9, seed);
            assert!(g.max_degree() >= 8, "want the Algorithm 2 path");
            for part in Partitioner::family(seed) {
                check(&g, part, seed);
            }
        }
    }

    #[test]
    fn algorithm2_on_denser_graphs() {
        for seed in 0..3 {
            let g = gen::gnm_max_degree(80, 600, 16, 100 + seed);
            check(&g, Partitioner::Random(seed), seed);
            check(&g, Partitioner::LowHalf, seed);
        }
    }

    #[test]
    fn algorithm2_on_near_regular() {
        let g = gen::near_regular(70, 11, 5);
        for part in Partitioner::family(2) {
            check(&g, part, 0);
        }
    }

    #[test]
    fn algorithm2_on_star_like() {
        // Stars stress the matching/special-color paths: hubs of full
        // degree.
        let g = gen::star(12); // Δ = 11
        check(&g, Partitioner::Alternating, 0);
        check(&g, Partitioner::AllToAlice, 0);
        let g = gen::complete_bipartite(9, 9); // Δ = 9
        check(&g, Partitioner::Random(4), 0);
    }

    #[test]
    fn algorithm2_rounds_are_constant() {
        for &n in &[40usize, 80, 160] {
            let g = gen::gnm_max_degree(n, n * 5, 10, 3);
            let p = Partitioner::Random(1).split(&g);
            let (_, stats) = theorem2_merged(&p, 0);
            assert_eq!(stats.rounds, 3, "Algorithm 2 uses exactly 3 rounds");
        }
    }

    #[test]
    fn algorithm2_bits_are_linear() {
        // O(n) bits: per-n cost must stay bounded as n doubles.
        let mut per_n = Vec::new();
        for &n in &[64usize, 128, 256] {
            let g = gen::gnm_max_degree(n, n * 5, 12, 9);
            let p = Partitioner::Random(2).split(&g);
            let (_, stats) = theorem2_merged(&p, 0);
            per_n.push(stats.total_bits() as f64 / n as f64);
        }
        let min = per_n.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = per_n.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min < 1.8, "bits per vertex {per_n:?} must stay flat");
    }

    #[test]
    fn covering_roundtrip() {
        // Standalone encoder/decoder check.
        let k: Vec<VertexId> = (0..10).map(VertexId).collect();
        let palette: Vec<ColorId> = (0..9).map(ColorId).collect();
        let free_of = |v: VertexId, c: usize| !(v.0 as usize + c).is_multiple_of(3);
        let mut free_rows = vec![false; k.len() * palette.len()];
        for (i, &v) in k.iter().enumerate() {
            for c in 0..palette.len() {
                free_rows[i * palette.len() + c] = free_of(v, c);
            }
        }
        let msg = encode_palette_covering(&k, &free_rows, palette.len());
        let assigned = decode_palette_covering(&mut msg.reader(), &k, &palette, 12);
        for &v in &k {
            let c = assigned[v.index()].expect("assigned");
            let idx = palette_index(&palette, c).expect("in palette");
            assert!(free_of(v, idx), "assigned color must be available");
        }
        assert!(assigned[10].is_none());
    }

    /// Lemma 5.4's encoder with every pick recounting every color over
    /// the still-uncovered vertices.
    fn recount_covering(k: &[VertexId], free_rows: &[bool], palette_len: usize) -> Message {
        let free = |i: usize, c: usize| free_rows[i * palette_len + c];
        let mut u: Vec<usize> = (0..k.len()).collect();
        let mut w = BitWriter::new();
        let mut picks = Vec::new();
        while !u.is_empty() {
            let best = (0..palette_len)
                .max_by_key(|&c| u.iter().filter(|&&i| free(i, c)).count())
                .expect("palette nonempty");
            let mask: Vec<bool> = u.iter().map(|&i| free(i, best)).collect();
            u = u
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| !m)
                .map(|(&i, _)| i)
                .collect();
            picks.push((best, mask));
        }
        w.write_gamma(picks.len() as u64);
        for (c, mask) in &picks {
            w.write_uint(*c as u64, width_for(palette_len.saturating_sub(1) as u64));
            w.write_bools(mask);
        }
        w.finish()
    }

    #[test]
    fn covering_picks_match_a_full_recount() {
        let mut rng = StdRng::seed_from_u64(54);
        for _ in 0..300 {
            let palette_len = rng.gen_range(1..10usize);
            let k: Vec<VertexId> = (0..rng.gen_range(1..40u32)).map(VertexId).collect();
            // Sparse rows tie often; each row keeps one free color.
            let mut free_rows: Vec<bool> = (0..k.len() * palette_len)
                .map(|_| rng.gen_range(0..3u32) == 0)
                .collect();
            for i in 0..k.len() {
                free_rows[i * palette_len + rng.gen_range(0..palette_len)] = true;
            }
            assert_eq!(
                encode_palette_covering(&k, &free_rows, palette_len),
                recount_covering(&k, &free_rows, palette_len),
                "{} rows over {palette_len} colors",
                k.len()
            );
        }
    }

    #[test]
    fn palette_index_maps_contiguous_ranges() {
        let p: Vec<ColorId> = (5..9).map(ColorId).collect();
        assert_eq!(palette_index(&p, ColorId(5)), Some(0));
        assert_eq!(palette_index(&p, ColorId(8)), Some(3));
        assert_eq!(palette_index(&p, ColorId(9)), None);
        assert_eq!(palette_index(&p, ColorId(4)), None);
        assert_eq!(palette_index(&[], ColorId(0)), None);
    }
}
