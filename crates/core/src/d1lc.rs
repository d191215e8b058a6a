//! The `(degree+1)`-list-coloring protocol (§3.3, Lemma 3.3,
//! Appendix B), used to finish the leftover instance after
//! `Random-Color-Trial`.
//!
//! Setup: the vertices `Z` to be colored are public; the edges of the
//! induced graph `G_Z` are split between the parties; for each
//! `v ∈ Z`, Alice holds a list `Ψ_A(v)` and Bob `Ψ_B(v)` with the true
//! palette `Ψ(v) = Ψ_A(v) ∩ Ψ_B(v)` satisfying
//! `|Ψ(v)| ≥ deg_{G_Z}(v) + 1`.
//!
//! Steps (Appendix B):
//! 1. For each `v`, run `Θ(log² |Z|)` parallel
//!    [`ColorSample`](crate::color_sample::ColorSample)
//!    instances to publicly sample `L(v) ⊆ Ψ(v)` — the **palette
//!    sparsification** of Halldórsson–Kuhn–Nolin–Tonoyan
//!    (Proposition 3.2).
//! 2. Drop every edge `{u,v}` with `L(u) ∩ L(v) = ∅` (no bits: `L` is
//!    public, each party filters its own edges), leaving `H`.
//! 3. Bob ships his `H`-edges to Alice (`O(|Z| log² |Z| · log n)`
//!    bits whp); Alice list-colors `H` from the `L`s and announces the
//!    assignment as per-vertex indices into the public `L(v)`.
//! 4. If sparsification failed (too many edges, or `H` resists
//!    coloring within the search budget — probability `1/|Z|^c`), fall
//!    back: Bob ships his whole `G_Z` and his `Ψ_B` bitmaps, and Alice
//!    solves the full D1LC instance greedily (always possible).

use crate::sample_batch::ColorSampleBatch;
use bichrome_comm::session::PartyCtx;
use bichrome_comm::wire::{width_for, BitWriter};
use bichrome_comm::Side;
use bichrome_graph::coloring::{ColorId, VertexColoring};
use bichrome_graph::{Edge, Graph, VertexId};

/// Stream tag for sparsification sampling.
const SPARSIFY_TAG: u64 = 0xD11C_0001;

/// One party's input to the D1LC protocol.
///
/// # Precondition
///
/// Beyond the D1LC condition `|Ψ_A(v) ∩ Ψ_B(v)| ≥ deg_{G_Z}(v) + 1`,
/// the sparsification step inherits Problem 6's requirement on the
/// list *complements*: `|Ψ_A(v)^c| + |Ψ_B(v)^c| ≤ palette − 1` for
/// every `v ∈ z`. Instances arising from partial colorings (the
/// paper's only use) satisfy it automatically — the complements are
/// the colors of each side's colored neighbors, and the two
/// neighborhoods are disjoint, so the cardinalities sum to at most
/// `deg(v) ≤ Δ = palette − 1`. Violations are detected and panic
/// rather than loop.
#[derive(Debug, Clone)]
pub struct D1lcInput {
    /// Which party.
    pub side: Side,
    /// This party's subgraph over the *full* vertex set; only edges
    /// with both endpoints in `z` participate.
    pub graph: Graph,
    /// The public list of vertices to color, sorted ascending.
    pub z: Vec<VertexId>,
    /// `psi[i]` = this party's color list `Ψ_P(z[i])`, each a subset of
    /// `{0, ..., palette-1}`, sorted.
    pub psi: Vec<Vec<ColorId>>,
    /// Universe size (the paper's `Δ+1`).
    pub palette: usize,
}

/// Number of sparsification samples per vertex:
/// `min(palette, ⌈2·log₂²(|Z|+3)⌉)` — the paper's `Θ(log² |Z|)`,
/// capped because more samples than palette colors adds nothing.
pub fn sparsify_samples(z_len: usize, palette: usize) -> usize {
    let l = (z_len as f64 + 3.0).log2().powi(2).ceil() as usize * 2;
    l.clamp(1, palette.max(1))
}

/// Runs one party's side of the D1LC protocol; returns the coloring of
/// the `z` vertices (entries outside `z` untouched), identical on both
/// sides.
///
/// # Panics
///
/// Panics if the inputs are malformed (`psi` length mismatch, unsorted
/// `z`) or if the D1LC condition is violated badly enough that even the
/// fallback greedy pass cannot place a color.
pub fn solve_d1lc(input: &D1lcInput, ctx: &PartyCtx) -> VertexColoring {
    let n = input.graph.num_vertices();
    let zlen = input.z.len();
    assert_eq!(input.psi.len(), zlen, "one Ψ list per z vertex");
    assert!(input.z.windows(2).all(|w| w[0] < w[1]), "z must be sorted");
    ctx.endpoint.meter().set_phase("d1lc");
    let mut coloring = VertexColoring::new(n);
    if zlen == 0 {
        return coloring;
    }

    // Position of each vertex within z.
    let mut zpos = vec![usize::MAX; n];
    for (i, &v) in input.z.iter().enumerate() {
        zpos[v.index()] = i;
    }

    // --- Step 1: palette sparsification via parallel Color-Sample,
    // batched through the SoA engine (bit-identical to per-machine
    // `ColorSample`s). ---
    let l = sparsify_samples(zlen, input.palette);
    // Flatten the list complements first (occupied = colors *not* in
    // Ψ_P(v)), so the engine's fill closure — which runs once per
    // (vertex, rep) machine — copies a slice instead of recomputing
    // the complement l times per vertex.
    let mut comp_off: Vec<u32> = Vec::with_capacity(zlen + 1);
    let mut comp_flat: Vec<u32> = Vec::new();
    let mut in_psi = vec![false; input.palette];
    comp_off.push(0);
    for psi in &input.psi {
        for c in psi {
            in_psi[c.index()] = true;
        }
        comp_flat.extend((0..input.palette as u32).filter(|&c| !in_psi[c as usize]));
        for c in psi {
            in_psi[c.index()] = false;
        }
        comp_off.push(comp_flat.len() as u32);
    }
    let mut batch = ColorSampleBatch::build(input.palette, zlen * l, &ctx.coin, |idx, spec| {
        let i = idx / l;
        spec.set_stream(&[SPARSIFY_TAG, input.z[i].0 as u64, (idx % l) as u64]);
        let comp = &comp_flat[comp_off[i] as usize..comp_off[i + 1] as usize];
        spec.extend_occupied(comp.iter().map(|&c| ColorId(c)));
    });
    batch.drive(&ctx.endpoint);
    let results: Vec<ColorId> = batch.results().collect();
    drop(batch);
    // Per-vertex lists, each with a dense color bitmask for the step-2
    // intersection tests.
    let w64 = input.palette.div_ceil(64);
    let mut lists: Vec<Vec<ColorId>> = Vec::with_capacity(zlen);
    let mut list_masks: Vec<u64> = vec![0u64; zlen * w64];
    for (i, samples) in results.chunks_exact(l).enumerate() {
        let mut list = samples.to_vec();
        list.sort_unstable();
        list.dedup();
        for c in &list {
            list_masks[i * w64 + c.index() / 64] |= 1u64 << (c.index() % 64);
        }
        lists.push(list);
    }

    // --- Step 2: drop list-disjoint edges (public, no bits). One
    // fused pass over the dense edge array: membership in Z and the
    // L(u) ∩ L(v) test per edge via the bitmasks. ---
    let mask_of = |p: usize| &list_masks[p * w64..(p + 1) * w64];
    let my_h_edges: Vec<Edge> = input
        .graph
        .edges()
        .iter()
        .copied()
        .filter(|e| {
            let pu = zpos[e.u().index()];
            let pv = zpos[e.v().index()];
            pu != usize::MAX
                && pv != usize::MAX
                && mask_of(pu)
                    .iter()
                    .zip(mask_of(pv))
                    .any(|(&a, &b)| a & b != 0)
        })
        .collect();

    // --- Step 3: gather H at Alice; she colors and announces. ---
    let zwidth = width_for(zlen as u64 - 1);
    let assignment: Option<Vec<ColorId>> = match input.side {
        Side::Bob => {
            let mut w = BitWriter::new();
            w.write_gamma(my_h_edges.len() as u64);
            for e in &my_h_edges {
                w.write_uint(zpos[e.u().index()] as u64, zwidth);
                w.write_uint(zpos[e.v().index()] as u64, zwidth);
            }
            ctx.endpoint.send(w.finish());
            // Receive the outcome: 1 success bit, then either indices
            // into L(v) or a fallback exchange.
            let msg = ctx.endpoint.recv();
            let mut r = msg.reader();
            if r.read_bit() {
                let mut out = Vec::with_capacity(zlen);
                for list in &lists {
                    let w = width_for(list.len() as u64 - 1);
                    out.push(list[r.read_uint(w) as usize]);
                }
                Some(out)
            } else {
                None
            }
        }
        Side::Alice => {
            let msg = ctx.endpoint.recv();
            let mut r = msg.reader();
            let bob_count = r.read_gamma() as usize;
            let mut h_adj: Vec<Vec<usize>> = vec![Vec::new(); zlen];
            let push = |a: usize, b: usize, adj: &mut Vec<Vec<usize>>| {
                if !adj[a].contains(&b) {
                    adj[a].push(b);
                    adj[b].push(a);
                }
            };
            for _ in 0..bob_count {
                let a = r.read_uint(zwidth) as usize;
                let b = r.read_uint(zwidth) as usize;
                push(a, b, &mut h_adj);
            }
            for e in &my_h_edges {
                push(zpos[e.u().index()], zpos[e.v().index()], &mut h_adj);
            }
            let solved = list_color_backtracking(&h_adj, &lists, 200_000);
            let mut w = BitWriter::new();
            match &solved {
                Some(colors) => {
                    w.write_bit(true);
                    for (i, list) in lists.iter().enumerate() {
                        let width = width_for(list.len() as u64 - 1);
                        let idx = list
                            .iter()
                            .position(|&c| c == colors[i])
                            .expect("assigned color is in the list");
                        w.write_uint(idx as u64, width);
                    }
                }
                None => w.write_bit(false),
            }
            ctx.endpoint.send(w.finish());
            solved
        }
    };

    let assignment = match assignment {
        Some(a) => a,
        // --- Step 4: fallback — gather everything at Alice. ---
        None => fallback_exchange(input, ctx, &zpos),
    };
    for (i, &v) in input.z.iter().enumerate() {
        coloring.set(v, assignment[i]);
    }
    coloring
}

/// Edges of the party's subgraph with both endpoints in `z`.
fn induced_edges(g: &Graph, zpos: &[usize]) -> Vec<Edge> {
    g.edges()
        .iter()
        .copied()
        .filter(|e| zpos[e.u().index()] != usize::MAX && zpos[e.v().index()] != usize::MAX)
        .collect()
}

/// Step 4: Bob ships his `G_Z` edges and `Ψ_B` bitmaps; Alice solves
/// the full D1LC instance greedily (always succeeds under the D1LC
/// condition) and announces full color ids.
fn fallback_exchange(input: &D1lcInput, ctx: &PartyCtx, zpos: &[usize]) -> Vec<ColorId> {
    let zlen = input.z.len();
    let zwidth = width_for(zlen as u64 - 1);
    let cwidth = width_for(input.palette as u64 - 1);
    match input.side {
        Side::Bob => {
            let mine = induced_edges(&input.graph, zpos);
            let mut w = BitWriter::new();
            w.write_gamma(mine.len() as u64);
            for e in &mine {
                w.write_uint(zpos[e.u().index()] as u64, zwidth);
                w.write_uint(zpos[e.v().index()] as u64, zwidth);
            }
            // One dense palette bitset reused across vertices: set the
            // list's bits, emit, unset — no O(palette) allocation per
            // vertex.
            let mut mask = vec![false; input.palette];
            for psi in &input.psi {
                for c in psi {
                    mask[c.index()] = true;
                }
                w.write_bools(&mask);
                for c in psi {
                    mask[c.index()] = false;
                }
            }
            ctx.endpoint.send(w.finish());
            let msg = ctx.endpoint.recv();
            let mut r = msg.reader();
            (0..zlen)
                .map(|_| ColorId(r.read_uint(cwidth) as u32))
                .collect()
        }
        Side::Alice => {
            let msg = ctx.endpoint.recv();
            let mut r = msg.reader();
            let bob_count = r.read_gamma() as usize;
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); zlen];
            let push = |a: usize, b: usize, adj: &mut Vec<Vec<usize>>| {
                if !adj[a].contains(&b) {
                    adj[a].push(b);
                    adj[b].push(a);
                }
            };
            for _ in 0..bob_count {
                let a = r.read_uint(zwidth) as usize;
                let b = r.read_uint(zwidth) as usize;
                push(a, b, &mut adj);
            }
            for e in induced_edges(&input.graph, zpos) {
                push(zpos[e.u().index()], zpos[e.v().index()], &mut adj);
            }
            // Greedy D1LC: under |Ψ(v)| ≥ deg+1 a color always remains.
            // Bob's Ψ_B masks arrive in vertex order and the greedy
            // pass visits vertices in the same order, so each mask is
            // read into one reused dense bitset right when it is
            // needed — the true palette Ψ = Ψ_A ∩ Ψ_B is never
            // materialized per vertex. One stamp-marked used-color
            // scratch serves all vertices.
            let mut colors: Vec<Option<ColorId>> = vec![None; zlen];
            let mut used_at = vec![0u32; input.palette];
            let mut mask: Vec<bool> = Vec::new();
            for i in 0..zlen {
                r.read_bools_into(input.palette, &mut mask);
                let stamp = i as u32 + 1;
                for &j in &adj[i] {
                    if let Some(c) = colors[j] {
                        used_at[c.index()] = stamp;
                    }
                }
                let c = input.psi[i]
                    .iter()
                    .copied()
                    .find(|c| mask[c.index()] && used_at[c.index()] != stamp)
                    .expect("D1LC condition guarantees an available color");
                colors[i] = Some(c);
            }
            let out: Vec<ColorId> = colors.into_iter().map(|c| c.expect("all set")).collect();
            let mut w = BitWriter::new();
            for &c in &out {
                w.write_uint(c.0 as u64, cwidth);
            }
            ctx.endpoint.send(w.finish());
            out
        }
    }
}

/// Backtracking list coloring of the sparsified graph, with a step
/// budget. Vertices are processed smallest-list-first; `None` when the
/// budget runs out or the instance is uncolorable.
fn list_color_backtracking(
    adj: &[Vec<usize>],
    lists: &[Vec<ColorId>],
    budget: usize,
) -> Option<Vec<ColorId>> {
    let n = adj.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (lists[i].len(), i));
    let mut assigned: Vec<Option<ColorId>> = vec![None; n];
    let mut steps = 0usize;
    // Explicit backtracking stack (one Z can be most of a giant
    // graph, so recursion depth O(|Z|) would overflow the thread
    // stack): `next[pos]` is the index of the next untried color at
    // `order[pos]`.
    let mut next = vec![0usize; n];
    let mut pos = 0usize;
    while pos < n {
        let v = order[pos];
        let mut advanced = false;
        while next[pos] < lists[v].len() {
            let c = lists[v][next[pos]];
            next[pos] += 1;
            steps += 1;
            if steps > budget {
                return None;
            }
            if adj[v].iter().any(|&u| assigned[u] == Some(c)) {
                continue;
            }
            assigned[v] = Some(c);
            pos += 1;
            if pos < n {
                next[pos] = 0;
            }
            advanced = true;
            break;
        }
        if !advanced {
            if pos == 0 {
                return None;
            }
            pos -= 1;
            assigned[order[pos]] = None;
        }
    }
    Some(assigned.into_iter().map(|c| c.expect("complete")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bichrome_comm::session::run_two_party_ctx;
    use bichrome_graph::gen;
    use bichrome_graph::partition::Partitioner;

    /// Builds a realistic D1LC instance the way Theorem 1 does: color
    /// a prefix of the vertices greedily (publicly), take Z = the
    /// rest, and give each party the lists induced by *its own*
    /// colored neighbors. Returns `(g, partition, z, psi_a, psi_b,
    /// palette, lists)` where `lists` are the true palettes
    /// `Ψ = Ψ_A ∩ Ψ_B` for validation.
    #[allow(clippy::type_complexity)]
    fn coloring_induced_instance(
        g: &Graph,
        part: Partitioner,
        keep_every: usize,
    ) -> (D1lcInput, D1lcInput, Vec<Vec<ColorId>>, Vec<VertexId>) {
        let p = part.split(g);
        let palette = g.max_degree() + 1;
        // Publicly pre-color all vertices except every `keep_every`-th.
        let mut pre = VertexColoring::new(g.num_vertices());
        let full = bichrome_graph::greedy::greedy_vertex_coloring(g);
        let z: Vec<VertexId> = g
            .vertices()
            .filter(|v| v.index() % keep_every == 0)
            .collect();
        for v in g.vertices() {
            if v.index() % keep_every != 0 {
                pre.set(v, full.get(v).expect("complete"));
            }
        }
        let psi_of = |side_graph: &Graph| -> Vec<Vec<ColorId>> {
            z.iter()
                .map(|&v| {
                    let mut occ: Vec<ColorId> = side_graph
                        .neighbors(v)
                        .iter()
                        .filter_map(|&u| pre.get(u))
                        .collect();
                    occ.sort_unstable();
                    occ.dedup();
                    (0..palette as u32)
                        .map(ColorId)
                        .filter(|c| occ.binary_search(c).is_err())
                        .collect()
                })
                .collect()
        };
        let psi_a = psi_of(p.alice());
        let psi_b = psi_of(p.bob());
        let lists: Vec<Vec<ColorId>> = psi_a
            .iter()
            .zip(&psi_b)
            .map(|(a, b)| a.iter().copied().filter(|c| b.contains(c)).collect())
            .collect();
        let ia = D1lcInput {
            side: Side::Alice,
            graph: p.alice().clone(),
            z: z.clone(),
            psi: psi_a,
            palette,
        };
        let ib = D1lcInput {
            side: Side::Bob,
            graph: p.bob().clone(),
            z: z.clone(),
            psi: psi_b,
            palette,
        };
        (ia, ib, lists, z)
    }

    #[test]
    fn d1lc_solves_coloring_induced_instances() {
        for seed in 0..5 {
            let g = gen::gnp(30, 0.15, seed);
            let (ia, ib, lists, z) = coloring_induced_instance(&g, Partitioner::Random(seed), 3);
            let (ca, cb, _) = run_two_party_ctx(
                seed,
                move |ctx| solve_d1lc(&ia, &ctx),
                move |ctx| solve_d1lc(&ib, &ctx),
            );
            assert_eq!(ca, cb, "parties must agree");
            // Validate against the induced subgraph on Z with the true
            // lists.
            let zset: std::collections::HashSet<VertexId> = z.iter().copied().collect();
            let gz = g.edge_subgraph(|e| zset.contains(&e.u()) && zset.contains(&e.v()));
            for (i, &v) in z.iter().enumerate() {
                let c = ca.get(v).expect("every z vertex colored");
                assert!(lists[i].contains(&c), "color of {v} outside Ψ(v)");
            }
            for e in gz.edges() {
                if zset.contains(&e.u()) && zset.contains(&e.v()) {
                    assert_ne!(ca.get(e.u()), ca.get(e.v()), "conflict on {e}");
                }
            }
        }
    }

    #[test]
    fn d1lc_empty_z_is_a_noop() {
        let g = gen::path(4);
        let p = Partitioner::Alternating.split(&g);
        let ia = D1lcInput {
            side: Side::Alice,
            graph: p.alice().clone(),
            z: vec![],
            psi: vec![],
            palette: 3,
        };
        let ib = D1lcInput {
            side: Side::Bob,
            graph: p.bob().clone(),
            z: vec![],
            psi: vec![],
            palette: 3,
        };
        let (ca, cb, stats) = run_two_party_ctx(
            0,
            move |ctx| solve_d1lc(&ia, &ctx),
            move |ctx| solve_d1lc(&ib, &ctx),
        );
        assert_eq!(ca, cb);
        assert_eq!(ca.num_colored(), 0);
        assert_eq!(stats.total_bits(), 0);
    }

    #[test]
    fn d1lc_single_vertex() {
        // Ψ_A = {1,2,3}, Ψ_B = {0,2,3} → Ψ = {2,3}; complements have
        // sizes 1 + 1 ≤ palette − 1 = 3, so the instance is valid.
        let g = gen::empty(3);
        let p = Partitioner::AllToAlice.split(&g);
        let mk = |side, psi: Vec<u32>| D1lcInput {
            side,
            graph: p.alice().clone(),
            z: vec![VertexId(1)],
            psi: vec![psi.into_iter().map(ColorId).collect()],
            palette: 4,
        };
        let ia = mk(Side::Alice, vec![1, 2, 3]);
        let ib = mk(Side::Bob, vec![0, 2, 3]);
        let (ca, cb, _) = run_two_party_ctx(
            1,
            move |ctx| solve_d1lc(&ia, &ctx),
            move |ctx| solve_d1lc(&ib, &ctx),
        );
        assert_eq!(ca, cb);
        let c = ca.get(VertexId(1)).expect("colored");
        assert!(
            c == ColorId(2) || c == ColorId(3),
            "must pick from Ψ, got {c}"
        );
    }

    #[test]
    fn d1lc_respects_asymmetric_lists() {
        // Path 0-1: Ψ_A(0) = {0,1}, Ψ_B(0) = {1,2} → Ψ(0) = {1}.
        let g = gen::path(2);
        let p = Partitioner::AllToAlice.split(&g);
        let z = vec![VertexId(0), VertexId(1)];
        let psi_a = vec![
            vec![ColorId(0), ColorId(1)],
            vec![ColorId(0), ColorId(1), ColorId(2)],
        ];
        let psi_b = vec![
            vec![ColorId(1), ColorId(2)],
            vec![ColorId(0), ColorId(1), ColorId(2)],
        ];
        let ia = D1lcInput {
            side: Side::Alice,
            graph: p.alice().clone(),
            z: z.clone(),
            psi: psi_a,
            palette: 3,
        };
        let ib = D1lcInput {
            side: Side::Bob,
            graph: p.bob().clone(),
            z,
            psi: psi_b,
            palette: 3,
        };
        let (ca, cb, _) = run_two_party_ctx(
            5,
            move |ctx| solve_d1lc(&ia, &ctx),
            move |ctx| solve_d1lc(&ib, &ctx),
        );
        assert_eq!(ca, cb);
        assert_eq!(ca.get(VertexId(0)), Some(ColorId(1)), "forced color");
        assert_ne!(ca.get(VertexId(1)), Some(ColorId(1)), "proper on the edge");
    }

    #[test]
    fn backtracking_solver_finds_and_fails_correctly() {
        // Triangle with lists of size 2 each but only 2 colors total:
        // uncolorable.
        let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        let short: Vec<Vec<ColorId>> = vec![vec![ColorId(0), ColorId(1)]; 3];
        assert!(list_color_backtracking(&adj, &short, 10_000).is_none());
        // With three colors somewhere it works.
        let ok: Vec<Vec<ColorId>> = vec![
            vec![ColorId(0), ColorId(1)],
            vec![ColorId(0), ColorId(1)],
            vec![ColorId(0), ColorId(2)],
        ];
        let sol = list_color_backtracking(&adj, &ok, 10_000).expect("colorable");
        assert_ne!(sol[0], sol[1]);
        assert_ne!(sol[1], sol[2]);
        assert_ne!(sol[0], sol[2]);
    }

    #[test]
    fn sparsify_sample_count_behaves() {
        assert!(sparsify_samples(1, 100) >= 1);
        assert!(sparsify_samples(1000, 4) <= 4, "capped at palette");
        assert!(sparsify_samples(1 << 12, 10_000) >= sparsify_samples(4, 10_000));
    }
}
