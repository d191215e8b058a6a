//! Pins the outputs of the coloring engines as CRC-32 constants:
//! Misra–Gries (Proposition 3.4) and Fournier (Proposition 3.5)
//! colorings, both parties' D1LC colorings and meters (Lemma 3.3), and
//! whole `vertex/theorem1` / `edge/theorem2` trials on an instance with
//! Δ ≥ 16, large enough that Theorem 2 runs Algorithm 2 rather than
//! Lemma 5.1. `ci/report_golden.csv` runs a Δ = 5 graph, so neither
//! Algorithm 2's Misra–Gries nor the D1LC finish reaches it.
//!
//! A refactor of these engines must leave every constant unchanged. A
//! deliberate output change updates them in the same commit, and says
//! why; a failing run lists every mismatching hash it computed.

use bichrome_comm::session::run_two_party_ctx;
use bichrome_comm::transport::crc32;
use bichrome_comm::{CommStats, Side};
use bichrome_core::d1lc::{solve_d1lc, D1lcInput};
use bichrome_graph::coloring::{
    validate_edge_coloring_with_palette, ColorId, EdgeColoring, VertexColoring,
};
use bichrome_graph::edge_color::{fournier, misra_gries};
use bichrome_graph::partition::Partitioner;
use bichrome_graph::{gen, Graph, VertexId};
use bichrome_runner::{registry, Artifact, Instance, TrialRecord};

/// Collects every mismatch of a test before failing, so one run
/// reports all the hashes a deliberate change has to update.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    fn check(&mut self, what: &str, got: u32, want: u32) {
        if got != want {
            self.0
                .push(format!("{what}: got {got:#010x}, pinned {want:#010x}"));
        }
    }

    fn finish(self) {
        assert!(
            self.0.is_empty(),
            "pinned outputs changed:\n{}",
            self.0.join("\n")
        );
    }
}

/// CRC-32 of an edge coloring: `(u, v, color)` as little-endian `u32`
/// triples, in the coloring's (sorted) edge order.
fn edge_crc(c: &EdgeColoring) -> u32 {
    let mut bytes = Vec::with_capacity(12 * c.len());
    for (e, col) in c.iter() {
        for x in [e.u().0, e.v().0, col.0] {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
    }
    crc32(&[&bytes])
}

/// CRC-32 of a vertex coloring: one little-endian `u32` per vertex,
/// `u32::MAX` for an uncolored one.
fn vertex_crc(c: &VertexColoring) -> u32 {
    let mut bytes = Vec::with_capacity(4 * c.len());
    for i in 0..c.len() {
        let col = c.get(VertexId(i as u32)).map_or(u32::MAX, |c| c.0);
        bytes.extend_from_slice(&col.to_le_bytes());
    }
    crc32(&[&bytes])
}

/// CRC-32 of a meter: both directions' bits, rounds, and every
/// per-phase bit and round total.
fn stats_crc(s: &CommStats) -> u32 {
    let mut text = format!(
        "{} {} {}",
        s.bits_alice_to_bob, s.bits_bob_to_alice, s.rounds
    );
    for (phase, bits) in &s.bits_by_phase {
        text.push_str(&format!(" bits/{phase}={bits}"));
    }
    for (phase, rounds) in &s.rounds_by_phase {
        text.push_str(&format!(" rounds/{phase}={rounds}"));
    }
    crc32(&[text.as_bytes()])
}

/// Builds a D1LC instance pair the way Theorem 1 does: greedily
/// pre-color three quarters of the vertices, let `Z` be the rest, and
/// give each party the palette minus its own colored neighbors.
fn d1lc_pair(g: &Graph, part: Partitioner) -> (D1lcInput, D1lcInput) {
    let p = part.split(g);
    let palette = g.max_degree() + 1;
    let full = bichrome_graph::greedy::greedy_vertex_coloring(g);
    let z: Vec<VertexId> = g
        .vertices()
        .filter(|v| v.index().is_multiple_of(4))
        .collect();
    let pre = |v: VertexId| -> Option<ColorId> {
        if v.index().is_multiple_of(4) {
            None
        } else {
            full.get(v)
        }
    };
    let psi_of = |side: &Graph| -> Vec<Vec<ColorId>> {
        z.iter()
            .map(|&v| {
                let occupied: Vec<ColorId> =
                    side.neighbors(v).iter().filter_map(|&u| pre(u)).collect();
                (0..palette as u32)
                    .map(ColorId)
                    .filter(|c| !occupied.contains(c))
                    .collect()
            })
            .collect()
    };
    let (psi_a, psi_b) = (psi_of(p.alice()), psi_of(p.bob()));
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
        z,
        psi: psi_b,
        palette,
    };
    (ia, ib)
}

#[test]
fn misra_gries_colorings_are_pinned() {
    let cases = [
        (gen::gnp(40, 0.2, 1), 0x1d49f15c),
        (gen::gnp(80, 0.15, 2), 0x441bdf5f),
        (gen::gnp(120, 0.05, 3), 0x2d132efd),
        (gen::complete(20), 0x6d0df7f6),
        (gen::complete_bipartite(9, 11), 0x14139c8a),
        (gen::near_regular(150, 10, 4), 0xfdff1e35),
        (gen::star(30), 0x6bcbecfc),
        (gen::path(3), 0xa79add11),
        (gen::gnp(2000, 0.01, 5), 0x2d3fc42a),
    ];
    let mut pins = Pins::default();
    for (g, want) in &cases {
        let c = misra_gries(g);
        assert!(validate_edge_coloring_with_palette(g, &c, g.max_degree() + 1).is_ok());
        pins.check(&format!("misra_gries on {g}"), edge_crc(&c), *want);
    }
    pins.finish();
}

#[test]
fn fournier_colorings_are_pinned() {
    let cases = [
        (gen::independent_max_degree(70, 6, 9, 0), 0xc43d443d),
        (gen::independent_max_degree(70, 6, 9, 1), 0x647ff6d8),
        (gen::independent_max_degree(200, 12, 20, 2), 0x2f0f699b),
        (gen::independent_max_degree(500, 20, 40, 3), 0x441f4c34),
    ];
    let mut pins = Pins::default();
    for (g, want) in &cases {
        let c = fournier(g).expect("precondition holds by construction");
        assert!(validate_edge_coloring_with_palette(g, &c, g.max_degree()).is_ok());
        pins.check(&format!("fournier on {g}"), edge_crc(&c), *want);
    }
    pins.finish();
}

#[test]
fn d1lc_colorings_and_meters_are_pinned() {
    // (graph, partitioner, session seed, [Alice, Bob, CommStats]).
    let cases = [
        (
            gen::gnp(60, 0.2, 5),
            Partitioner::Random(3),
            11,
            [0x3cddc6e6, 0x3cddc6e6, 0x8b28a094],
        ),
        (
            gen::gnp(400, 0.05, 9),
            Partitioner::Alternating,
            12,
            [0xbd824c4e, 0xbd824c4e, 0x1315d557],
        ),
    ];
    let mut pins = Pins::default();
    for (g, part, seed, [want_a, want_b, want_stats]) in cases {
        let (ia, ib) = d1lc_pair(&g, part);
        let (ca, cb, stats) = run_two_party_ctx(
            seed,
            move |ctx| solve_d1lc(&ia, &ctx),
            move |ctx| solve_d1lc(&ib, &ctx),
        );
        assert_eq!(ca, cb, "parties must agree on {g}");
        assert!(stats.total_bits() > 0);
        pins.check(&format!("d1lc Alice on {g}"), vertex_crc(&ca), want_a);
        pins.check(&format!("d1lc Bob on {g}"), vertex_crc(&cb), want_b);
        pins.check(
            &format!("d1lc CommStats on {g}"),
            stats_crc(&stats),
            want_stats,
        );
    }
    pins.finish();
}

#[test]
fn paper_protocol_trials_are_pinned() {
    let g = gen::gnp(300, 0.06, 11);
    assert!(
        g.max_degree() >= 16,
        "Δ = {} routes Theorem 2 to Lemma 5.1",
        g.max_degree()
    );
    let inst = Instance::new("pinned", Partitioner::Random(7).split(&g), 2024);
    // (protocol, [artifact, record JSON]).
    let cases = [
        ("vertex/theorem1", [0x15849a81, 0xef9a471c]),
        ("edge/theorem2", [0xb6f8d8d6, 0x1ffdeb72]),
    ];
    let mut pins = Pins::default();
    for (key, [want_artifact, want_record]) in cases {
        let out = registry().get(key).expect("registered").run(&inst);
        assert!(out.verdict.is_valid(), "{key}: {:?}", out.verdict);
        let artifact = match &out.artifact {
            Artifact::Vertex(c) => vertex_crc(c),
            Artifact::Edge(c) => edge_crc(c),
            Artifact::None => panic!("{key} produced no artifact"),
        };
        let record = TrialRecord::from_outcome(&inst, out).to_json();
        pins.check(&format!("{key} artifact"), artifact, want_artifact);
        pins.check(
            &format!("{key} record"),
            crc32(&[record.as_bytes()]),
            want_record,
        );
    }
    pins.finish();
}
