//! End-to-end properties of the `Campaign` orchestration layer: the
//! determinism guarantee (parallel == serial, bit for bit), the
//! full-registry smoke grid from the acceptance criteria, the pinned
//! CSV format, and the CLI-args path (grids declared from strings).

use bichrome_graph::partition::Partitioner;
use bichrome_runner::{
    registry, seeds, Campaign, CampaignReport, GraphSpec, GroupBy, Instance, TrialRecord,
};
use proptest::prelude::*;

/// The 3-protocol × 2-family grid of the determinism property.
fn determinism_grid(base_seed: u64) -> Campaign {
    Campaign::new()
        .protocol_keys([
            "vertex/theorem1",
            "edge/theorem2",
            "baseline/send-everything",
        ])
        .graphs([
            GraphSpec::NearRegular { n: 32, d: 4 },
            GraphSpec::Gnp { n: 32, p: 0.15 },
        ])
        .seeds(base_seed..base_seed + 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Every spec string the parser accepts builds: the parser refuses
    /// what would panic inside a generator, over small parameters that
    /// straddle each family's limits.
    #[test]
    fn prop_every_accepted_spec_builds(
        family in 0usize..8,
        n in 0usize..9,
        k in 0usize..40,
        dmax in 0usize..9,
        p in 0usize..6,
        seed in 0u64..1000,
    ) {
        let p = [0.0, 0.3, 1.0, -0.1, 1.5, f64::NAN][p];
        let text = match family {
            0 => format!("empty(n={n})"),
            1 => format!("path(n={n})"),
            2 => format!("cycle(n={n})"),
            3 => format!("complete(n={n})"),
            4 => format!("star(n={n})"),
            5 => format!("gnp(n={n},p={p})"),
            6 => format!("near-regular(n={n},d={dmax})"),
            _ => format!("gnm(n={n},m={k},dmax={dmax})"),
        };
        if let Ok(spec) = text.parse::<GraphSpec>() {
            let g = spec.build(seed);
            prop_assert_eq!(g.num_vertices(), n, "{}", text);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The determinism property: a 3-protocol × 2-family × 4-seed
    /// grid produces *bit-identical* results with `.parallel(true)`
    /// and `.parallel(false)`, wherever the seed window starts.
    #[test]
    fn prop_campaign_parallel_serial_bit_identical(base_seed in 0u64..10_000) {
        let par = determinism_grid(base_seed).parallel(true).run();
        let ser = determinism_grid(base_seed).parallel(false).run();
        prop_assert_eq!(&par, &ser, "parallel execution must not change any record");
        prop_assert!(par.all_valid());
        prop_assert_eq!(par.cells.len(), 6);
        prop_assert_eq!(par.total_trials(), 24);
    }

    /// The caching property: the executor's lazy, cached instance
    /// materialization is *bit-identical* to an eager uncached build
    /// — every record of a multi-protocol grid (where the cache
    /// actually dedups across protocols) equals the record obtained
    /// by building the instance fresh with `Instance::from_spec` and
    /// running the protocol on it directly.
    #[test]
    fn prop_lazy_cached_equals_eager_uncached(base_seed in 0u64..10_000) {
        const PROTOS: [&str; 3] = [
            "vertex/theorem1",
            "edge/theorem2",
            "baseline/send-everything",
        ];
        const SPECS: [GraphSpec; 2] = [
            GraphSpec::NearRegular { n: 32, d: 4 },
            GraphSpec::Gnp { n: 32, p: 0.15 },
        ];
        let trial_seeds = base_seed..base_seed + 3;
        let report = Campaign::new()
            .protocol_keys(PROTOS)
            .graphs(SPECS)
            .seeds(trial_seeds.clone())
            .run();
        let reg = registry();
        let mut cell = 0;
        for key in PROTOS {
            let proto = reg.get(key).expect("registered");
            for spec in SPECS {
                for (t, trial_seed) in trial_seeds.clone().enumerate() {
                    // The campaign's default partition adversary,
                    // then a fully eager, uncached build.
                    let partitioner =
                        Partitioner::Random(seeds::partition_seed(trial_seed));
                    let inst = Instance::from_spec(&spec, partitioner, trial_seed);
                    let eager = TrialRecord::from_outcome(&inst, proto.run(&inst));
                    prop_assert_eq!(
                        &report.cells[cell].report.trials[t],
                        &eager,
                        "{} on {} at trial seed {}",
                        key,
                        spec,
                        trial_seed
                    );
                }
                cell += 1;
            }
        }
    }
}

/// The acceptance-criteria smoke grid: every registry protocol ×
/// 3 graph families × 4 seeds — every cell validator-valid, and the
/// parallel run bit-identical to the serial one.
#[test]
fn full_registry_smoke_grid_is_valid_and_deterministic() {
    let grid = || {
        Campaign::new()
            .protocol_keys(registry().names())
            .graphs([
                GraphSpec::NearRegular { n: 40, d: 6 },
                GraphSpec::Gnp { n: 40, p: 0.12 },
                GraphSpec::GnmMaxDegree {
                    n: 40,
                    m: 100,
                    dmax: 8,
                },
            ])
            .seeds(0..4)
    };
    let report = grid().parallel(true).run();
    assert_eq!(report.cells.len(), 9 * 3, "all 9 protocols × 3 families");
    assert_eq!(report.total_trials(), 9 * 3 * 4);
    for cell in &report.cells {
        assert!(
            cell.report.all_valid(),
            "cell {} on {} must be validator-valid: {:?}",
            cell.protocol,
            cell.spec,
            cell.report.trials.iter().find_map(|t| t.error.clone()),
        );
    }
    let serial = grid().parallel(false).run();
    assert_eq!(
        report, serial,
        "parallel vs serial output must be bit-identical"
    );

    // The pivots cover the whole grid.
    let by_proto = report.group_by(GroupBy::Protocol);
    assert_eq!(by_proto.len(), 9);
    assert!(by_proto.iter().all(|(_, s)| s.trials == 3 * 4));
}

/// The acceptance criterion of the lazy-materialization rework: on a
/// 9-protocol campaign over shared graphs, each distinct
/// `(spec, seed)` graph is built *exactly once* — the other
/// `9 × (specs × seeds) − specs × seeds` requests are cache hits —
/// and likewise for the partitions (the default partitioner is
/// per-seed, shared by every protocol).
#[test]
fn nine_protocol_grid_builds_each_graph_exactly_once() {
    let (report, stats) = Campaign::new()
        .protocol_keys(registry().names())
        .graphs([
            GraphSpec::NearRegular { n: 32, d: 4 },
            GraphSpec::Gnp { n: 32, p: 0.12 },
        ])
        .seeds(0..4)
        .run_with_stats();
    assert_eq!(report.cells.len(), 9 * 2);
    assert!(report.all_valid());
    let trials = report.total_trials() as u64;
    assert_eq!(trials, 9 * 2 * 4);
    assert_eq!(stats.graphs_requested, trials, "every trial needs a graph");
    assert_eq!(stats.graphs_built, 2 * 4, "one build per (spec, seed)");
    assert_eq!(stats.partitions_requested, trials);
    assert_eq!(
        stats.partitions_built,
        2 * 4,
        "one split per (spec, seed, partitioner)"
    );
    assert!(stats.graph_cache_hit_rate() > 0.85, "8/9 must be hits");
}

/// Golden test pinning the CSV header and row format. The cell is a
/// zero-communication deterministic protocol on a deterministic
/// graph, so every field is stable.
///
/// Header history: PR 4 deliberately bumped the format, inserting the
/// nearest-rank percentile columns `bits_p50`/`bits_p95` (after
/// `bits_max`) and `rounds_p50`/`rounds_p95` (after `rounds_max`).
/// Downstream consumers of the CSV must be updated alongside this
/// golden.
#[test]
fn campaign_csv_format_is_pinned() {
    let report = Campaign::new()
        .protocol_keys(["edge/theorem3-zero-comm"])
        .graphs([GraphSpec::Complete { n: 6 }])
        .partitioners([Partitioner::Alternating])
        .seeds(0..2)
        .run();
    assert!(report.all_valid());
    assert_eq!(
        report.to_csv(),
        "protocol,graph,family,partitioner,n,trials,valid,\
         bits_mean,bits_stddev,bits_min,bits_max,bits_p50,bits_p95,\
         rounds_mean,rounds_stddev,rounds_max,rounds_p50,rounds_p95,\
         bits_per_vertex_mean,colors_mean\n\
         edge/theorem3-zero-comm,complete(n=6),complete,alternating,6,2,2,\
         0,0,0,0,0,0,0,0,0,0,0,0,8\n"
    );
    // And the header constant matches the rendered header.
    assert_eq!(
        report.to_csv().lines().next().unwrap(),
        CampaignReport::CSV_HEADER.join(",")
    );
}

/// Grids declared from CLI-style strings: specs and partitioners
/// parse via `FromStr`, malformed input surfaces typed errors instead
/// of panics.
#[test]
fn campaign_grid_from_cli_strings() {
    let specs: Vec<GraphSpec> = ["near-regular(n=24,d=4)", "gnp(n=24,p=0.2)"]
        .iter()
        .map(|s| s.parse().expect("valid spec"))
        .collect();
    let parts: Vec<Partitioner> = ["alternating", "random(7)"]
        .iter()
        .map(|s| s.parse().expect("valid partitioner"))
        .collect();
    let report = Campaign::new()
        .protocol_keys(["edge/theorem2"])
        .graphs(specs)
        .partitioners(parts)
        .seeds(0..2)
        .run();
    assert_eq!(report.cells.len(), 4);
    assert!(report.all_valid());

    assert!("moebius(n=8)".parse::<GraphSpec>().is_err());
    assert!("random(NaN)".parse::<Partitioner>().is_err());
}

/// Baseline-relative deltas across the registry's vertex protocols:
/// Theorem 1 must beat send-everything on bits for dense-enough
/// graphs, and the rendered table carries the comparison column.
#[test]
fn campaign_baseline_deltas_against_send_everything() {
    let report = Campaign::new()
        .protocol_keys([
            "vertex/theorem1",
            "baseline/flin-mittal",
            "baseline/send-everything",
        ])
        .graphs([GraphSpec::NearRegular { n: 96, d: 8 }])
        .seeds(0..3)
        .baseline("baseline/send-everything")
        .run();
    assert!(report.all_valid());
    let deltas = report.baseline_deltas();
    assert_eq!(deltas.len(), 2, "one delta per non-baseline cell");
    for d in &deltas {
        assert!(
            d.bits_ratio.is_finite() && d.bits_ratio < 1.0,
            "{} should save bits vs send-everything, ratio {}",
            d.protocol,
            d.bits_ratio
        );
    }
    assert!(report.render_table().contains("bits vs baseline"));
}
