//! The persistent-store acceptance properties: a campaign run against
//! a store — killed partway and resumed, or re-run fully warm — must
//! produce a `CampaignReport` *bit-identical* to an uninterrupted
//! fresh serial run, and a corrupted trial log must salvage its good
//! prefix and recompute only the tail. Below the campaign level, any
//! sequence of appends, flushes, checkpoints, compactions, reopens and
//! torn appends must leave the store agreeing with a `HashMap` model.

use bichrome_runner::{Campaign, CampaignReport, GraphSpec};
use bichrome_store::{Store, StoreConfig, StoreFault, TrialKey};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

/// A unique scratch directory (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        TempDir(std::env::temp_dir().join(format!(
            "bichrome-resume-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The property grid: 3 protocols (a randomized vertex protocol, a
/// deterministic edge protocol, a baseline) × 2 families, with a
/// shifting seed window.
fn grid(base_seed: u64, seeds: std::ops::Range<u64>) -> Campaign {
    Campaign::new()
        .protocol_keys([
            "vertex/theorem1",
            "edge/theorem2",
            "baseline/send-everything",
        ])
        .graphs([
            GraphSpec::NearRegular { n: 28, d: 4 },
            GraphSpec::Gnp { n: 28, p: 0.15 },
        ])
        .seeds(seeds.map(|s| base_seed + s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance criterion: (fresh serial run) == (run half,
    /// "kill", resume from store) == (fully warm re-run), bit for
    /// bit, wherever the seed window starts.
    #[test]
    fn prop_resume_and_warm_runs_are_bit_identical_to_fresh(base_seed in 0u64..10_000) {
        let tmp = TempDir::new("prop");

        // Ground truth: an uninterrupted fresh *serial* run.
        let fresh = grid(base_seed, 0..4).parallel(false).run();

        // A run that died halfway: only the first two seeds landed in
        // the store before the "kill".
        let (_, stats) = grid(base_seed, 0..2)
            .with_store(&tmp.0)
            .run_with_stats();
        prop_assert_eq!(stats.trials_computed, 3 * 2 * 2);
        prop_assert_eq!(stats.trials_skipped, 0);

        // Resume the full grid from the store (parallel this time —
        // the schedule must not matter).
        let (resumed, stats) = grid(base_seed, 0..4)
            .with_store(&tmp.0)
            .run_with_stats();
        prop_assert_eq!(stats.trials_skipped, 3 * 2 * 2, "the half already done");
        prop_assert_eq!(stats.trials_computed, 3 * 2 * 2, "only the other half runs");
        prop_assert_eq!(&resumed, &fresh, "resume must be bit-identical to fresh");

        // A fully warm re-run computes nothing and still matches.
        let (warm, stats) = grid(base_seed, 0..4)
            .with_store(&tmp.0)
            .run_with_stats();
        prop_assert_eq!(stats.trials_computed, 0, "warm store: every cell skipped");
        prop_assert_eq!(stats.trials_skipped, 3 * 2 * 4);
        prop_assert_eq!(stats.graphs_requested, 0, "no instance materialized");
        prop_assert_eq!(&warm, &fresh, "warm must be bit-identical to fresh");
    }
}

/// A truncated trial log loads its salvageable prefix and the next
/// run recomputes only the destroyed tail — ending bit-identical to
/// an uninterrupted run.
#[test]
fn truncated_log_salvages_and_recomputes_only_the_tail() {
    let tmp = TempDir::new("truncate");
    let fresh = grid(77, 0..4).parallel(false).run();
    let total: u64 = 3 * 2 * 4;

    let (_, stats) = grid(77, 0..4).with_store(&tmp.0).run_with_stats();
    assert_eq!(stats.trials_computed, total);

    // Tear the newest segment mid-frame, as a crash mid-append would.
    let store = Store::open_existing(&tmp.0).expect("open for tear");
    let seg = store
        .segments()
        .expect("list segments")
        .last()
        .cloned()
        .expect("at least one segment");
    drop(store);
    let bytes = std::fs::read(&seg).expect("read segment");
    std::fs::write(&seg, &bytes[..bytes.len() * 2 / 3]).expect("truncate");

    // Loading salvages the intact prefix and reports the damage.
    let store = Store::open_existing(&tmp.0).expect("open");
    let salvaged = store.len() as u64;
    let salvage = store.salvage().expect("damage must be reported");
    assert_eq!(salvage.kept as u64, salvaged);
    assert!(salvage.dropped_bytes > 0);
    assert!(salvaged < total, "something was actually lost");
    assert!(salvaged > 0, "and something was actually salvaged");
    drop(store);

    // Re-running recomputes exactly the destroyed records…
    let (repaired, stats) = grid(77, 0..4).with_store(&tmp.0).run_with_stats();
    assert_eq!(stats.trials_skipped, salvaged);
    assert_eq!(stats.trials_computed, total - salvaged);
    // …and the result is still bit-identical to the fresh run.
    assert_eq!(repaired, fresh);

    // The store is whole again: everything skips.
    let (_, stats) = grid(77, 0..4).with_store(&tmp.0).run_with_stats();
    assert_eq!(stats.trials_computed, 0);
}

/// `CampaignReport::from_store` rebuilds per-cell reports that are
/// bit-identical to the live run's (modulo canonical cell order).
#[test]
fn report_from_store_matches_the_live_run() {
    let tmp = TempDir::new("fromstore");
    let (live, _) = grid(5, 0..3).with_store(&tmp.0).run_with_stats();
    let store = Store::open_existing(&tmp.0).expect("open");
    let rebuilt = CampaignReport::from_store(&store).expect("decode");
    assert_eq!(rebuilt.total_trials(), live.total_trials());
    for cell in &live.cells {
        let twin = rebuilt
            .cells
            .iter()
            .find(|c| {
                c.protocol == cell.protocol
                    && c.spec == cell.spec
                    && c.partitioner == cell.partitioner
            })
            .unwrap_or_else(|| panic!("cell {} on {} missing", cell.protocol, cell.spec));
        assert_eq!(twin.report, cell.report);
    }
}

/// The model test's key pool: few enough keys that appends often
/// overwrite, with labels of different lengths.
fn pool_key(i: u8) -> TrialKey {
    let (protocol, graph) = match i % 3 {
        0 => ("edge/theorem2", "near-regular(n=24,d=4)"),
        1 => ("vertex/theorem1", "gnp(n=30,p=0.15)"),
        _ => ("baseline/send-everything", "cycle(n=8)"),
    };
    TrialKey {
        protocol: protocol.to_string(),
        graph: graph.to_string(),
        partitioner: "alternating".to_string(),
        seed: u64::from(i / 3),
    }
}

/// One step of the store model test, decoded from a random
/// `(kind, key, param)` triple.
#[derive(Debug)]
enum StoreOp {
    Append(u8, u16),
    Flush,
    Checkpoint,
    Compact,
    Reopen,
    TornAppendThenReopen(u8, u16),
}

impl StoreOp {
    fn decode((kind, key, param): (u8, u8, u16)) -> StoreOp {
        match kind {
            0..=7 => StoreOp::Append(key, param),
            8 => StoreOp::Flush,
            9 => StoreOp::Checkpoint,
            10 => StoreOp::Compact,
            11 => StoreOp::Reopen,
            _ => StoreOp::TornAppendThenReopen(key, param),
        }
    }
}

/// The reference the store must agree with: the live payload per key,
/// the live keys in log order of their current version, and how many
/// records (dead ones included) the segments hold.
#[derive(Default)]
struct StoreModel {
    live: HashMap<TrialKey, String>,
    order: Vec<TrialKey>,
    records: usize,
}

impl StoreModel {
    fn append(&mut self, key: TrialKey, record: String) {
        self.order.retain(|k| k != &key);
        self.order.push(key.clone());
        self.live.insert(key, record);
        self.records += 1;
    }

    fn compact(&mut self) {
        self.records = self.live.len();
    }

    fn check(&self, store: &Store, step: usize) {
        assert_eq!(store.len(), self.live.len(), "len after step {step}");
        assert_eq!(
            store.dead_records(),
            self.records - self.live.len(),
            "dead_records after step {step}"
        );
        for i in 0..POOL_KEYS {
            let key = pool_key(i);
            assert_eq!(
                store.get(&key),
                self.live.get(&key).map(String::as_str),
                "get({key}) after step {step}"
            );
        }
        let stored: Vec<(TrialKey, String)> =
            store.iter().map(|e| (e.key, e.record_json)).collect();
        let expected: Vec<(TrialKey, String)> = self
            .order
            .iter()
            .map(|k| (k.clone(), self.live[k].clone()))
            .collect();
        assert_eq!(stored, expected, "iter after step {step}");
    }
}

/// Keys in [`pool_key`]'s pool (two of them never appended, so `get`
/// also checks misses).
const POOL_KEYS: u8 = 8;

/// Small segments, batched flushes and a low compaction threshold, so
/// short op sequences roll, reuse tails and compact at checkpoints.
const MODEL_CONFIG: StoreConfig = StoreConfig {
    segment_bytes: 400,
    flush_every: 3,
    compact_dead_ratio: 0.5,
    compact_min_records: 8,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random appends (fresh keys and overwrites), flushes,
    /// checkpoints, compactions, reopens and torn appends: after every
    /// step `get`, `iter` order, `len` and `dead_records` match a
    /// `HashMap` model.
    #[test]
    fn prop_store_matches_a_hashmap_model(
        ops in proptest::collection::vec((0u8..13, 0u8..POOL_KEYS - 2, 0u16..1000), 1..48),
    ) {
        let tmp = TempDir::new("model");
        let open = || Store::open_or_create_with(&tmp.0, MODEL_CONFIG).expect("open");
        let mut store = open();
        let mut model = StoreModel::default();
        for (step, op) in ops.into_iter().map(StoreOp::decode).enumerate() {
            match op {
                StoreOp::Append(k, v) => {
                    let record = format!(r#"{{"v":{v}}}"#);
                    store.append(pool_key(k), record.clone()).expect("append");
                    model.append(pool_key(k), record);
                }
                StoreOp::Flush => store.flush().expect("flush"),
                StoreOp::Checkpoint => {
                    let dead = model.records - model.live.len();
                    store.checkpoint().expect("checkpoint");
                    if model.records >= MODEL_CONFIG.compact_min_records
                        && dead as f64 / model.records as f64 >= MODEL_CONFIG.compact_dead_ratio
                    {
                        model.compact();
                    }
                }
                StoreOp::Compact => {
                    store.compact().expect("compact");
                    model.compact();
                }
                StoreOp::Reopen => {
                    drop(store);
                    store = open();
                    prop_assert!(store.salvage().is_none(), "clean reopen at step {}", step);
                }
                StoreOp::TornAppendThenReopen(k, keep) => {
                    // Fewer bytes than any frame's fixed header, so
                    // the frame is always torn.
                    let keep_bytes = 1 + usize::from(keep) % 25;
                    store.inject_fault(StoreFault::TornAppend { keep_bytes });
                    prop_assert!(store.append(pool_key(k), "{}".to_string()).is_err());
                    drop(store);
                    store = open();
                    let salvage = store.salvage().expect("the tear is salvaged");
                    prop_assert_eq!(salvage.dropped_bytes, keep_bytes);
                    prop_assert_eq!(salvage.kept, model.live.len());
                }
            }
            model.check(&store, step);
        }
        drop(store);
        model.check(&open(), usize::MAX);
    }
}
