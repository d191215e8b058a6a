//! Integration tests tying the W-streaming substrate (§6.4) to the
//! rest of the workspace: streaming algorithms vs the two-party
//! protocols on shared workloads, and the weaker-output reduction.

use bichrome_graph::coloring::{validate_edge_coloring, validate_edge_coloring_with_palette};
use bichrome_graph::gen;
use bichrome_graph::partition::Partitioner;
use bichrome_runner::{registry, Instance};
use bichrome_streaming::algorithms::{ChunkedWStreaming, GreedyWStreaming};
use bichrome_streaming::reduction::simulate_streaming_two_party;
use bichrome_streaming::run_w_streaming;
use bichrome_streaming::weaker::validate_weaker_output;
use proptest::prelude::*;

#[test]
fn streaming_and_two_party_agree_on_validity() {
    // Same workload solved three ways: all valid within their palettes.
    for seed in 0..4 {
        let g = gen::gnm_max_degree(80, 360, 10, seed);
        let delta = g.max_degree();

        let mut s = GreedyWStreaming::new(80, delta);
        let (streaming, _) = run_w_streaming(&mut s, &g, g.edges());
        validate_edge_coloring_with_palette(&g, &streaming, 2 * delta - 1)
            .expect("streaming valid");

        let p = Partitioner::Random(seed).split(&g);
        let two_party = registry()
            .get("edge/theorem2")
            .expect("registered")
            .run(&Instance::new("gnm", p.clone(), 0));
        assert!(
            two_party.verdict.is_valid(),
            "two-party valid: {:?}",
            two_party.verdict
        );

        let sim = simulate_streaming_two_party(&p, || GreedyWStreaming::new(80, delta), 0);
        validate_weaker_output(&g, &sim.output, 2 * delta - 1).expect("simulation valid");

        // The same simulation is also a registry protocol.
        let via_registry = registry()
            .get("streaming/greedy-w")
            .expect("registered")
            .run(&Instance::new("gnm", p, 0));
        assert!(
            via_registry.verdict.is_valid(),
            "{:?}",
            via_registry.verdict
        );
        assert_eq!(via_registry.stats.total_bits(), sim.stats.total_bits());
    }
}

#[test]
fn theorem2_beats_streaming_simulation_on_bits() {
    // Algorithm 2's O(n) bits undercut the streaming-state transfer
    // (n·(2Δ−1) bits) as Δ grows: the direct protocol is strictly
    // better than simulating the trivial streamer, as it should be.
    let n = 256;
    let g = gen::gnm_max_degree(n, n * 5, 16, 3);
    let reg = registry();
    let inst = Instance::new("gnm", Partitioner::Random(1).split(&g), 0);
    let direct = reg.get("edge/theorem2").expect("registered").run(&inst);
    let sim = reg
        .get("streaming/greedy-w")
        .expect("registered")
        .run(&inst);
    assert!(
        direct.stats.total_bits() < sim.stats.total_bits(),
        "direct {} must beat simulated {}",
        direct.stats.total_bits(),
        sim.stats.total_bits()
    );
}

#[test]
fn stream_order_does_not_break_validity() {
    // Same edges, three arrival orders.
    let g = gen::gnm_max_degree(50, 200, 9, 5);
    let delta = g.max_degree();
    let mut orders: Vec<Vec<bichrome_graph::Edge>> = vec![
        g.edges().to_vec(),
        g.edges().iter().rev().copied().collect(),
    ];
    let mut shuffled = g.edges().to_vec();
    // Deterministic shuffle via index arithmetic.
    shuffled.sort_by_key(|e| (e.u().0 * 31 + e.v().0 * 17) % 101);
    orders.push(shuffled);
    for order in &mut orders {
        let mut alg = GreedyWStreaming::new(50, delta);
        let (c, _) = run_w_streaming(&mut alg, &g, order);
        validate_edge_coloring_with_palette(&g, &c, 2 * delta - 1).expect("order-independent");
        let mut alg = ChunkedWStreaming::new(50, 30);
        let (c, _) = run_w_streaming(&mut alg, &g, order);
        validate_edge_coloring(&g, &c).expect("chunked order-independent");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_streaming_simulation_always_valid(
        n in 10usize..50,
        seed in 0u64..500,
        alice_frac in 0u64..1000,
    ) {
        let g = gen::gnm_max_degree(n, n * 3, 8, seed);
        let delta = g.max_degree().max(1);
        let p = Partitioner::Random(alice_frac).split(&g);
        let sim = simulate_streaming_two_party(&p, || GreedyWStreaming::new(n, delta), 0);
        prop_assert!(validate_weaker_output(&g, &sim.output, 2 * delta - 1).is_ok());
        // One pass: bits equal the byte-rounded state size.
        let state = (n * (2 * delta - 1)) as u64;
        prop_assert_eq!(sim.stats.total_bits(), state.div_ceil(8) * 8);
    }

    #[test]
    fn prop_chunked_valid_for_any_capacity(
        cap in 1usize..80,
        seed in 0u64..300,
    ) {
        let g = gen::gnm_max_degree(30, 90, 7, seed);
        let mut alg = ChunkedWStreaming::new(30, cap);
        let (c, stats) = run_w_streaming(&mut alg, &g, g.edges());
        prop_assert!(validate_edge_coloring(&g, &c).is_ok());
        // Buffer never exceeds its capacity (audited space is bounded).
        let vbits = 5; // ⌈log₂ 30⌉
        prop_assert!(stats.max_state_bits <= (cap * 2 * vbits + 64) as u64);
    }
}
