//! **bench-hotpath** — microbenchmark of the dense edge-indexed hot
//! path: the partition split (both sides cut from a shared whole
//! graph), the validator pass (over a dense `EdgeColoring`),
//! Misra–Gries fan coloring, `Random-Color-Trial` (Algorithm 1) and
//! the D1LC finishing protocol, timed on gnp/gnm grids at
//! n ∈ {1e3, 1e4, 1e5, 1e6}, and written to `BENCH_hotpath.json`
//! (nanos per phase + edges or vertices per second) so CI tracks
//! hot-path throughput across PRs. Each phase repeats until it has
//! run for at least [`MIN_PHASE`] and [`MIN_REPS`] times; a point
//! is the best repetition, with the spread (worst/best − 1) beside
//! it. A full run also times two end-to-end campaign shapes (few
//! giant cells vs a 100+-cell small grid) through the real runner.
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
use bichrome_core::rct::{run_random_color_trial, RctConfig};
use bichrome_core::run_parties;
use bichrome_graph::coloring::{validate_edge_coloring_with_palette, ColorId, VertexColoring};
use bichrome_graph::edge_color::misra_gries;
use bichrome_graph::partition::{EdgePartition, Partitioner};
use bichrome_graph::{gen, Graph, VertexId};
use bichrome_runner::{Campaign, GraphSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's graph sizes.
const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Average degree targeted by both families.
const AVG_DEGREE: usize = 8;

/// Keep every `KEEP_EVERY`-th vertex uncolored for the D1LC phase.
const KEEP_EVERY: usize = 4;

/// Each phase repeats until it has run at least this long in total…
const MIN_PHASE: Duration = Duration::from_millis(100);

/// …and at least this many times.
const MIN_REPS: usize = 3;

/// One phase's repetitions, in nanoseconds, ascending.
struct Timing(Vec<f64>);

impl Timing {
    /// Runs `phase` until it has taken [`MIN_PHASE`] in total and run
    /// [`MIN_REPS`] times, timing each repetition.
    fn of<R>(mut phase: impl FnMut() -> R) -> Timing {
        let started = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < MIN_REPS || started.elapsed() < MIN_PHASE {
            let rep = Instant::now();
            std::hint::black_box(phase());
            reps.push(rep.elapsed().as_nanos().max(1) as f64);
        }
        reps.sort_by(f64::total_cmp);
        Timing(reps)
    }

    /// The best repetition.
    fn best(&self) -> u64 {
        self.0[0] as u64
    }

    /// Worst over best repetition, minus one.
    fn spread(&self) -> f64 {
        self.0[self.0.len() - 1] / self.0[0] - 1.0
    }

    /// The nearest-rank `p`-th percentile of the repetitions.
    fn percentile(&self, p: f64) -> f64 {
        bichrome_runner::percentile(&self.0, p)
    }

    /// Units per second at the best repetition.
    fn per_sec(&self, units: usize) -> f64 {
        units as f64 / (self.0[0] / 1e9)
    }
}

/// One timed grid point.
struct Point {
    family: &'static str,
    n: usize,
    m: usize,
    delta: usize,
    split: Timing,
    validate: Timing,
    misra_gries: Timing,
    d1lc: Timing,
    /// Vertices D1LC colours.
    zlen: usize,
    rct: Timing,
}

fn build(family: &'static str, n: usize, seed: u64) -> Graph {
    match family {
        "gnp" => gen::gnp(n, AVG_DEGREE as f64 / n as f64, seed),
        "gnm" => gen::gnm_max_degree(n, n * AVG_DEGREE / 2, AVG_DEGREE + 4, seed),
        other => panic!("unknown family {other}"),
    }
}

/// Times one `(family, n)` grid point. Every phase reads inputs built
/// before its timer starts and leaves them as they were.
fn measure(family: &'static str, n: usize) -> Point {
    let g = Arc::new(build(family, n, 1));
    let budget = g.max_degree() + 1;

    // --- Partition split: the ownership bits and both sides, cut
    // from the shared whole graph. ---
    let split_timing = Timing::of(|| Partitioner::Alternating.split_shared(Arc::clone(&g)));
    let split = Partitioner::Alternating.split_shared(Arc::clone(&g));
    let (ia, ib, zlen) = d1lc_instance(&g, &split);

    // --- Misra–Gries (Proposition 3.4). ---
    let coloring = misra_gries(&g);
    let misra_gries = Timing::of(|| misra_gries(&g));

    // --- Validator pass over the coloring. Each rep also lands in an
    // obs histogram. ---
    let n_label = n.to_string();
    let validate_hist = bichrome_obs::histogram_labeled(
        "bench_validate_nanos",
        &[("family", family), ("n", &n_label)],
    );
    let validate = Timing::of(|| {
        let rep = Instant::now();
        validate_edge_coloring_with_palette(&g, &coloring, budget)
            .expect("Misra–Gries colorings are valid");
        validate_hist.observe(rep.elapsed().as_nanos() as u64);
    });

    // --- D1LC rounds. ---
    let d1lc = Timing::of(|| {
        let (ca, cb, _) = bichrome_comm::session::run_two_party_ctx(
            7,
            |ctx| solve_d1lc(&ia, &ctx),
            |ctx| solve_d1lc(&ib, &ctx),
        );
        assert_eq!(ca, cb, "D1LC parties must agree");
    });

    // --- Random-Color-Trial alone, both parties on the split. ---
    let rct = Timing::of(|| {
        let (ca, cb, _) = run_parties(&split, 7, |input, ctx| {
            let mut coloring = VertexColoring::new(input.num_vertices());
            run_random_color_trial(input, ctx, &mut coloring, &RctConfig::default());
            coloring
        });
        assert_eq!(ca, cb, "RCT parties must agree");
    });

    Point {
        family,
        n,
        m: g.num_edges(),
        delta: g.max_degree(),
        split: split_timing,
        validate,
        misra_gries,
        d1lc,
        zlen,
        rct,
    }
}

/// Builds a realistic D1LC instance the way Theorem 1 does: greedily
/// pre-color all but every [`KEEP_EVERY`]-th vertex publicly, take
/// `Z` = the rest, and give each party (its edges from `p`) the
/// palette minus the colors of *its own* colored neighbors.
fn d1lc_instance<'a>(g: &Graph, p: &'a EdgePartition) -> (D1lcInput<'a>, D1lcInput<'a>, usize) {
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
        graph: p.alice(),
        z: z.clone(),
        psi: psi_a,
        palette,
    };
    let ib = D1lcInput {
        side: Side::Bob,
        graph: p.bob(),
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
    w.field_u64("split_nanos", p.split.best());
    w.field_f64("split_spread", p.split.spread());
    w.field_f64("split_edges_per_sec", p.split.per_sec(p.m));
    w.field_u64("validate_nanos", p.validate.best());
    w.field_f64("validate_nanos_p50", p.validate.percentile(50.0));
    w.field_f64("validate_nanos_p95", p.validate.percentile(95.0));
    w.field_f64("validate_nanos_p99", p.validate.percentile(99.0));
    w.field_f64("validate_spread", p.validate.spread());
    w.field_f64("validate_edges_per_sec", p.validate.per_sec(p.m));
    w.field_u64("misra_gries_nanos", p.misra_gries.best());
    w.field_f64("misra_gries_spread", p.misra_gries.spread());
    w.field_f64("misra_gries_edges_per_sec", p.misra_gries.per_sec(p.m));
    w.field_u64("d1lc_nanos", p.d1lc.best());
    w.field_f64("d1lc_spread", p.d1lc.spread());
    w.field_f64("d1lc_vertices_per_sec", p.d1lc.per_sec(p.zlen));
    w.field_u64("rct_nanos", p.rct.best());
    w.field_f64("rct_spread", p.rct.spread());
    w.field_f64("rct_vertices_per_sec", p.rct.per_sec(p.n));
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
    let mut points = Vec::new();
    for family in ["gnp", "gnm"] {
        for &n in &sizes {
            let p = measure(family, n);
            println!(
                "{family:4} n={n:7} m={:8} Δ={:3} · split {:9} ns · validate {:9} ns \
                 ({:.1}M edges/s) · misra-gries {:10} ns · d1lc {:11} ns · rct {:11} ns",
                p.m,
                p.delta,
                p.split.best(),
                p.validate.best(),
                p.validate.per_sec(p.m) / 1e6,
                p.misra_gries.best(),
                p.d1lc.best(),
                p.rct.best(),
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
        for phase in [&p.split, &p.validate, &p.misra_gries, &p.d1lc, &p.rct] {
            assert!(phase.0.len() >= MIN_REPS, "every phase repeats");
            assert!(phase.best() > 0, "all phase timings must be positive");
        }
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
