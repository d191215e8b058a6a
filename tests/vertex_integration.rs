//! End-to-end integration tests for the (Δ+1)-vertex-coloring stack:
//! Theorem 1 against every generator family, partitioner, and the
//! baselines — all driven through the unified `bichrome_runner` API.

use bichrome_core::rct::paper_iterations;
use bichrome_graph::partition::Partitioner;
use bichrome_graph::{gen, Graph};
use bichrome_runner::{registry, Instance, Registry};

fn graph_zoo(seed: u64) -> Vec<(String, Graph)> {
    vec![
        ("empty".into(), gen::empty(25)),
        ("path".into(), gen::path(40)),
        ("cycle-odd".into(), gen::cycle(31)),
        ("cycle-even".into(), gen::cycle(32)),
        ("star".into(), gen::star(30)),
        ("complete".into(), gen::complete(12)),
        ("bipartite".into(), gen::complete_bipartite(8, 11)),
        ("gnp-sparse".into(), gen::gnp(70, 0.04, seed)),
        ("gnp-dense".into(), gen::gnp(40, 0.3, seed)),
        ("near-regular".into(), gen::near_regular(60, 7, seed)),
        ("capped".into(), gen::gnm_max_degree(80, 240, 9, seed)),
        (
            "c4-gadgets".into(),
            gen::c4_gadget_union(&[true, false, true, true, false]),
        ),
        (
            "independent-max".into(),
            gen::independent_max_degree(50, 6, 6, seed),
        ),
        ("grid-king".into(), gen::grid_king(8, 7)),
        ("caterpillar".into(), gen::caterpillar(12, 4)),
    ]
}

fn theorem1(reg: &Registry) -> std::sync::Arc<dyn bichrome_runner::Protocol> {
    reg.get("vertex/theorem1").expect("registered")
}

#[test]
fn theorem1_valid_on_the_whole_zoo() {
    let proto = theorem1(&registry());
    for (name, g) in graph_zoo(5) {
        let out = proto.run(&Instance::new(
            name.as_str(),
            Partitioner::Random(3).split(&g),
            17,
        ));
        assert!(out.verdict.is_valid(), "{name}: {:?}", out.verdict);
    }
}

#[test]
fn theorem1_valid_under_every_partitioner() {
    let proto = theorem1(&registry());
    let g = gen::gnm_max_degree(70, 220, 8, 2);
    for part in Partitioner::family(11) {
        for seed in 0..3 {
            let out = proto.run(&Instance::new(part.to_string(), part.split(&g), seed));
            assert!(
                out.verdict.is_valid(),
                "{part}/seed{seed}: {:?}",
                out.verdict
            );
        }
    }
}

#[test]
fn theorem1_beats_flin_mittal_on_rounds_at_same_bits_scale() {
    // The headline comparison of the paper (§1.1): same O(n) bits, but
    // rounds drop from Θ(n) to O(log log n · log Δ).
    let reg = registry();
    let g = gen::near_regular(240, 8, 4);
    let inst = Instance::new("near-regular", Partitioner::Random(5).split(&g), 7);

    let ours = theorem1(&reg).run(&inst);
    let fm = reg
        .get("baseline/flin-mittal")
        .expect("registered")
        .run(&inst);
    assert!(ours.verdict.is_valid() && fm.verdict.is_valid());

    assert!(
        ours.stats.rounds * 3 < fm.stats.rounds,
        "ours = {} rounds must be far below Flin–Mittal = {} rounds",
        ours.stats.rounds,
        fm.stats.rounds
    );
    // Bits stay within a moderate constant of each other (both O(n)).
    let ratio = ours.stats.total_bits() as f64 / fm.stats.total_bits().max(1) as f64;
    assert!(
        ratio < 8.0,
        "our bits should be within a constant of FM's: ratio {ratio}"
    );
}

#[test]
fn theorem1_bits_scale_linearly() {
    // Doubling n at fixed Δ should roughly double the bits — not
    // quadruple them (the bits/vertex ratio stays bounded).
    let proto = theorem1(&registry());
    let mut bits = Vec::new();
    for &n in &[128usize, 256, 512] {
        let g = gen::near_regular(n, 8, 6);
        let out = proto.run(&Instance::new("nr", Partitioner::Random(1).split(&g), 3));
        assert!(out.verdict.is_valid());
        bits.push(out.stats.total_bits() as f64 / n as f64);
    }
    let min = bits.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = bits.iter().cloned().fold(0.0f64, f64::max);
    assert!(max / min < 2.0, "bits/vertex not flat across n: {bits:?}");
}

#[test]
fn theorem1_rounds_track_paper_budget() {
    // Worst-case rounds O(log log n · log Δ): compare against an
    // explicit constant times the formula.
    let g = gen::near_regular(300, 16, 8);
    let out = theorem1(&registry()).run(&Instance::new("nr", Partitioner::Random(2).split(&g), 11));
    let budget = paper_iterations(300) as u64 * (2 * (16f64).log2().ceil() as u64 + 8) + 200;
    assert!(
        out.stats.rounds <= budget,
        "rounds {} exceed paper-shaped budget {budget}",
        out.stats.rounds
    );
}

#[test]
fn all_protocols_agree_on_validity_never_on_colors() {
    // Different registry protocols give different colorings, but the
    // validators accept every one of them.
    let reg = registry();
    let g = gen::gnp(50, 0.15, 9);
    let inst = Instance::new("gnp", Partitioner::Alternating.split(&g), 3);
    for key in [
        "vertex/theorem1",
        "baseline/flin-mittal",
        "baseline/greedy-binary-search",
        "baseline/send-everything",
    ] {
        let out = reg.get(key).expect("registered").run(&inst);
        assert!(out.verdict.is_valid(), "{key}: {:?}", out.verdict);
        assert_eq!(out.palette_budget, Some(g.max_degree() + 1));
    }
}

#[test]
fn theorem1_under_newman_private_coins() {
    // §3.1: public randomness can be replaced by private coins at an
    // additive O(log n + log 1/δ) bits (Newman). Run the full
    // Theorem 1 protocol with only a private seed announcement. The
    // Newman wrapper composes with the party scripts directly, below
    // the runner's session assembly.
    use bichrome_comm::newman::run_newman;
    use bichrome_core::rct::RctConfig;
    use bichrome_core::vertex::vertex_coloring_party;
    use bichrome_core::PartyInput;
    use bichrome_graph::coloring::validate_vertex_coloring_with_palette;

    let g = gen::gnm_max_degree(60, 180, 8, 4);
    let p = Partitioner::Random(2).split(&g);
    let (a_in, b_in) = (PartyInput::alice(&p), PartyInput::bob(&p));
    let cfg = RctConfig::default();
    let ((ca, _), (cb, _), stats) = run_newman(
        11,
        1 << 10, // K = 1024 candidate seeds -> 10 announcement bits
        777,
        move |ctx| vertex_coloring_party(&a_in, &ctx, &cfg),
        move |ctx| vertex_coloring_party(&b_in, &ctx, &cfg),
    );
    assert_eq!(ca, cb);
    validate_vertex_coloring_with_palette(&g, &ca, g.max_degree() + 1)
        .expect("valid under private coins");
    assert!(stats.total_bits() >= 10, "announcement bits are metered");
}

#[test]
fn repeated_runs_with_distinct_seeds_all_valid() {
    let proto = theorem1(&registry());
    let g = gen::gnm_max_degree(60, 200, 10, 3);
    let partition = std::sync::Arc::new(Partitioner::ParitySum.split(&g));
    for seed in 0..10 {
        let out = proto.run(&Instance::new("paritysum", partition.clone(), seed));
        assert!(out.verdict.is_valid(), "seed {seed}: {:?}", out.verdict);
    }
}
