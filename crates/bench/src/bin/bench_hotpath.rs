//! **bench-hotpath** — microbenchmark of the dense edge-indexed hot
//! path: the validator pass (`ColorMarks` + dense `EdgeColoring`),
//! Misra–Gries fan coloring, and the D1LC finishing protocol, timed
//! on gnp/gnm grids at n ∈ {1e3, 1e4, 1e5, 1e6}, and written to
//! `BENCH_hotpath.json` (nanos per phase + edges/sec) so CI tracks
//! hot-path throughput across PRs. A full run also times two
//! end-to-end campaign shapes (few giant cells vs a 100+-cell small
//! grid) through the real runner.
//!
//! The bin asserts its own schema invariants (all timings > 0, every
//! phase present) before writing, so a malformed benchmark fails the
//! run instead of producing a silently broken trajectory point.
//!
//! ```sh
//! cargo run --release -p bichrome-bench --bin bench_hotpath \
//!     [out.json] [--max-n N]
//! ```
//!
//! `--max-n` drops grid sizes above `N` and skips the campaign section
//! (CI uses `--max-n 100000` for a quick trajectory point).

use bichrome_comm::Side;
use bichrome_core::d1lc::{solve_d1lc, D1lcInput};
use bichrome_graph::coloring::{ColorId, ColorMarks};
use bichrome_graph::edge_color::misra_gries;
use bichrome_graph::partition::Partitioner;
use bichrome_graph::{gen, Graph, VertexId};
use bichrome_runner::{Campaign, GraphSpec};
use std::time::Instant;

/// The benchmark's graph sizes.
const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Average degree targeted by both families.
const AVG_DEGREE: usize = 8;

/// Keep every `KEEP_EVERY`-th vertex uncolored for the D1LC phase.
const KEEP_EVERY: usize = 4;

/// How many validator repetitions to time (the pass is fast; reps
/// keep the measurement out of clock-granularity noise).
const VALIDATE_REPS: u32 = 20;

/// One timed grid point.
struct Point {
    family: &'static str,
    n: usize,
    m: usize,
    delta: usize,
    validate_nanos: u64,
    validate_nanos_p50: f64,
    validate_nanos_p95: f64,
    validate_nanos_p99: f64,
    validate_edges_per_sec: f64,
    misra_gries_nanos: u64,
    misra_gries_edges_per_sec: f64,
    d1lc_nanos: u64,
    d1lc_vertices_per_sec: f64,
}

fn build(family: &'static str, n: usize, seed: u64) -> Graph {
    match family {
        "gnp" => gen::gnp(n, AVG_DEGREE as f64 / n as f64, seed),
        "gnm" => gen::gnm_max_degree(n, n * AVG_DEGREE / 2, AVG_DEGREE + 4, seed),
        other => panic!("unknown family {other}"),
    }
}

/// Times one `(family, n)` grid point.
fn measure(family: &'static str, n: usize, marks: &mut ColorMarks) -> Point {
    let g = build(family, n, 1);
    let m = g.num_edges();
    let delta = g.max_degree();
    let budget = delta + 1;
    let (ia, ib, zlen) = d1lc_instance(&g);
    let per_sec = |nanos: u64, units: usize| units as f64 / (nanos as f64 / 1e9);

    // --- Misra–Gries (Proposition 3.4). ---
    let started = Instant::now();
    let coloring = misra_gries(&g);
    let misra_gries_nanos = started.elapsed().as_nanos() as u64;

    // --- Validator pass over the coloring, scratch reused. Each rep
    // lands in an obs histogram so the trajectory carries tail
    // latency, not just the mean. ---
    let n_label = n.to_string();
    let validate_hist = bichrome_obs::histogram_labeled(
        "bench_validate_nanos",
        &[("family", family), ("n", &n_label)],
    );
    let started = Instant::now();
    for _ in 0..VALIDATE_REPS {
        let rep = Instant::now();
        marks
            .check_edge_coloring_with_palette(&g, &coloring, budget)
            .expect("Misra–Gries colorings are valid");
        validate_hist.observe(rep.elapsed().as_nanos() as u64);
    }
    let validate_nanos =
        (started.elapsed().as_nanos() as u64 / u128::from(VALIDATE_REPS) as u64).max(1);

    // --- D1LC rounds. ---
    let started = Instant::now();
    let (ca, cb, _) = bichrome_comm::session::run_two_party_ctx(
        7,
        move |ctx| solve_d1lc(&ia, &ctx),
        move |ctx| solve_d1lc(&ib, &ctx),
    );
    let d1lc_nanos = started.elapsed().as_nanos() as u64;
    assert_eq!(ca, cb, "D1LC parties must agree");

    Point {
        family,
        n,
        m,
        delta,
        validate_nanos,
        validate_nanos_p50: validate_hist.percentile(50.0),
        validate_nanos_p95: validate_hist.percentile(95.0),
        validate_nanos_p99: validate_hist.percentile(99.0),
        validate_edges_per_sec: per_sec(validate_nanos, m),
        misra_gries_nanos,
        misra_gries_edges_per_sec: per_sec(misra_gries_nanos, m),
        d1lc_nanos,
        d1lc_vertices_per_sec: per_sec(d1lc_nanos, zlen),
    }
}

/// Builds a realistic D1LC instance the way Theorem 1 does: greedily
/// pre-color all but every [`KEEP_EVERY`]-th vertex publicly, take
/// `Z` = the rest, and give each party the palette minus the colors
/// of *its own* colored neighbors.
fn d1lc_instance(g: &Graph) -> (D1lcInput, D1lcInput, usize) {
    let p = Partitioner::Alternating.split(g);
    let palette = g.max_degree() + 1;
    let full = bichrome_graph::greedy::greedy_vertex_coloring(g);
    let z: Vec<VertexId> = g
        .vertices()
        .filter(|v| v.index().is_multiple_of(KEEP_EVERY))
        .collect();
    let pre = |v: VertexId| -> Option<ColorId> {
        if v.index().is_multiple_of(KEEP_EVERY) {
            None
        } else {
            full.get(v)
        }
    };
    let psi_of = |side: &Graph| -> Vec<Vec<ColorId>> {
        let mut occ_marks = vec![0u32; palette];
        z.iter()
            .enumerate()
            .map(|(stamp, &v)| {
                let stamp = stamp as u32 + 1;
                for &u in side.neighbors(v) {
                    if let Some(c) = pre(u) {
                        occ_marks[c.index()] = stamp;
                    }
                }
                (0..palette as u32)
                    .map(ColorId)
                    .filter(|c| occ_marks[c.index()] != stamp)
                    .collect()
            })
            .collect()
    };
    let psi_a = psi_of(p.alice());
    let psi_b = psi_of(p.bob());
    let zlen = z.len();
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
    (ia, ib, zlen)
}

fn point_json(p: &Point) -> String {
    let mut w = bichrome_runner::json::Writer::object();
    w.field_str("family", p.family);
    w.field_u64("n", p.n as u64);
    w.field_u64("m", p.m as u64);
    w.field_u64("delta", p.delta as u64);
    w.field_u64("validate_nanos", p.validate_nanos);
    w.field_f64("validate_nanos_p50", p.validate_nanos_p50);
    w.field_f64("validate_nanos_p95", p.validate_nanos_p95);
    w.field_f64("validate_nanos_p99", p.validate_nanos_p99);
    w.field_f64("validate_edges_per_sec", p.validate_edges_per_sec);
    w.field_u64("misra_gries_nanos", p.misra_gries_nanos);
    w.field_f64("misra_gries_edges_per_sec", p.misra_gries_edges_per_sec);
    w.field_u64("d1lc_nanos", p.d1lc_nanos);
    w.field_f64("d1lc_vertices_per_sec", p.d1lc_vertices_per_sec);
    w.finish()
}

/// One end-to-end campaign timing through the real runner (queue →
/// executor), reported as trajectory evidence for the two scheduling
/// regimes: few giant cells vs a wide small grid.
struct CampaignPoint {
    label: &'static str,
    cells: usize,
    trials: u64,
    wall_seconds: f64,
}

fn campaign_json(p: &CampaignPoint) -> String {
    let mut w = bichrome_runner::json::Writer::object();
    w.field_str("label", p.label);
    w.field_u64("cells", p.cells as u64);
    w.field_u64("trials", p.trials);
    w.field_f64("wall_seconds", p.wall_seconds);
    w.finish()
}

/// Four big cells at n = 1e5: two protocols × two partitioners, one
/// seed — fewer trials than cores, so the run is bound by its slowest
/// trial.
fn giant_campaign() -> CampaignPoint {
    let started = Instant::now();
    let (report, stats) = Campaign::new()
        .protocol_keys(["vertex/theorem1", "edge/theorem2"])
        .graphs([GraphSpec::Gnp {
            n: 100_000,
            p: AVG_DEGREE as f64 / 100_000.0,
        }])
        .partitioners([Partitioner::Alternating, Partitioner::Random(1)])
        .seeds([1])
        .run_with_stats();
    CampaignPoint {
        label: "giant-4-cells-n1e5",
        cells: report.cells.len(),
        trials: stats.trials_computed,
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

/// A 100+-cell grid of small instances — many more trials than
/// cores, so the run is bound by the executor's per-trial overhead.
fn small_grid_campaign() -> CampaignPoint {
    let started = Instant::now();
    let (report, stats) = Campaign::new()
        .protocol_keys([
            "vertex/theorem1",
            "edge/theorem2",
            "baseline/send-everything",
        ])
        .graphs([GraphSpec::NearRegular { n: 64, d: 8 }])
        .sizes((64..400).step_by(9))
        .seeds([1])
        .run_with_stats();
    CampaignPoint {
        label: "small-grid-100plus-cells",
        cells: report.cells.len(),
        trials: stats.trials_computed,
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

fn main() {
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut max_n: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-n" => {
                let v = args.next().expect("--max-n needs a value");
                max_n = Some(v.parse().expect("--max-n must be an integer"));
            }
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            other => out_path = other.to_string(),
        }
    }
    let sizes: Vec<usize> = SIZES
        .into_iter()
        .filter(|&n| max_n.is_none_or(|cap| n <= cap))
        .collect();
    let full_grid = max_n.is_none();

    let started = Instant::now();
    let mut marks = ColorMarks::new();
    let mut points = Vec::new();
    for family in ["gnp", "gnm"] {
        for &n in &sizes {
            let p = measure(family, n, &mut marks);
            println!(
                "{family:4} n={n:7} m={:8} Δ={:3} · validate {:9} ns ({:.1}M edges/s) · \
                 misra-gries {:10} ns · d1lc {:11} ns",
                p.m,
                p.delta,
                p.validate_nanos,
                p.validate_edges_per_sec / 1e6,
                p.misra_gries_nanos,
                p.d1lc_nanos,
            );
            points.push(p);
        }
    }

    // End-to-end campaign regimes, only on unfiltered runs (CI's
    // filtered trajectory point skips them).
    let campaigns: Vec<CampaignPoint> = if full_grid {
        let giant = giant_campaign();
        println!(
            "campaign {} · {} cells · {} trials · wall {:.3}s",
            giant.label, giant.cells, giant.trials, giant.wall_seconds
        );
        let small = small_grid_campaign();
        println!(
            "campaign {} · {} cells · {} trials · wall {:.3}s",
            small.label, small.cells, small.trials, small.wall_seconds
        );
        vec![giant, small]
    } else {
        Vec::new()
    };
    let wall_seconds = started.elapsed().as_secs_f64();

    // Schema smoke invariants: a zero timing or a missing phase means
    // the benchmark is broken, not fast.
    assert_eq!(points.len(), 2 * sizes.len(), "full grid measured");
    for p in &points {
        assert!(p.m > 0 && p.delta > 0, "graphs must be nonempty");
        assert!(
            p.validate_nanos > 0 && p.misra_gries_nanos > 0 && p.d1lc_nanos > 0,
            "all phase timings must be positive"
        );
        assert!(
            p.validate_nanos_p50 > 0.0
                && p.validate_nanos_p50 <= p.validate_nanos_p95
                && p.validate_nanos_p95 <= p.validate_nanos_p99,
            "validator percentiles must be positive and ordered"
        );
    }
    for c in &campaigns {
        assert!(c.cells > 0 && c.wall_seconds > 0.0, "campaigns must run");
    }
    if full_grid {
        assert!(
            campaigns[1].cells > 100,
            "small grid must exceed 100 cells, got {}",
            campaigns[1].cells
        );
    }

    let rows: Vec<String> = points.iter().map(point_json).collect();
    let camp_rows: Vec<String> = campaigns.iter().map(campaign_json).collect();
    let mut w = bichrome_runner::json::Writer::object();
    w.field_str("benchmark", "hotpath");
    w.field_u64("sizes", sizes.len() as u64);
    w.field_f64("wall_seconds", wall_seconds);
    w.field_raw("grid", &format!("[{}]", rows.join(",")));
    w.field_raw("campaigns", &format!("[{}]", camp_rows.join(",")));
    let json = w.finish();
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wall {wall_seconds:.3}s → {out_path}");
}
