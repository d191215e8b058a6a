//! The persistent-store acceptance properties: a campaign run against
//! a store — killed partway and resumed, or re-run fully warm — must
//! produce a `CampaignReport` *bit-identical* to an uninterrupted
//! fresh serial run, and a corrupted trial log must salvage its good
//! prefix and recompute only the tail.

use bichrome_runner::{Campaign, CampaignReport, GraphSpec};
use bichrome_store::Store;
use proptest::prelude::*;
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
