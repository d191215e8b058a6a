//! The trial executor behind [`crate::Campaign`] and the daemon.
//!
//! A campaign flattens its cells × seeds into a *flat* queue of
//! [`WorkItem`]s; the daemon feeds every in-flight job's items to one
//! shared queue. Either way workers take items through [`pull_loop`]
//! and run each through [`run_item`], the one panic boundary. Every
//! item's randomness derives only from its own cell and seed, so the
//! parallel and serial schedules produce bit-identical records.
//!
//! # Lazy, shared instance materialization
//!
//! A work item does not carry a pre-built [`Instance`]; it *is* a
//! lazy descriptor (`spec` + `partitioner` + trial seed) that the
//! worker resolves right before running the protocol, through a
//! concurrent cache:
//!
//! ```text
//! (spec, graph_seed)              → Arc<Graph>
//! (spec, graph_seed, partitioner) → Arc<EdgePartition>
//! ```
//!
//! A partition is split from the graph entry's own `Arc`
//! ([`Partitioner::split_shared`]) and keeps it as its whole graph, so
//! every partitioner of one `(spec, graph_seed)` shares one graph and
//! each instance is held once: one graph plus its two sides.
//!
//! This fixes three problems of eager construction at once: setup
//! work happens *on* the worker threads instead of serially before
//! them; at most one materialized graph/partition exists per distinct
//! key instead of one per trial (a P-protocol grid runs all P
//! protocols on the *same* `Arc`s, which is also the campaign's
//! apples-to-apples contract); and memory is bounded by the number of
//! distinct instances, not the number of trials.
//!
//! Cache hits are bit-identical to fresh builds — generators are
//! deterministic per seed and every build happens exactly once per
//! key (a per-key [`OnceLock`]), so lazy/cached execution equals an
//! eager uncached build record for record. [`ExecStats`] reports the
//! dedup win (`graphs_built` vs `graphs_requested`) and the
//! setup-vs-execute worker-time split (cumulative across threads, so
//! it can exceed wall time under parallelism).

use crate::instance::{GraphSpec, Instance};
use crate::plan::TrialRecord;
use crate::protocol::Protocol;
use crate::seeds;
use bichrome_comm::fault::{with_session_faults, FaultPlan};
use bichrome_comm::transport::{with_session_transport, TransportKind};
use bichrome_graph::partition::{EdgePartition, Partitioner};
use bichrome_graph::Graph;
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One unit of work: run `protocol` on the instance the lazy
/// descriptor `(spec, partitioner, trial_seed)` names. The instance
/// is resolved inside the worker through the shared
/// [`InstanceCache`]; graph, partition, and protocol sub-seeds derive
/// from `trial_seed` via [`crate::seeds`].
pub(crate) struct WorkItem {
    /// The protocol to execute.
    pub protocol: Arc<dyn Protocol>,
    /// The graph family to build.
    pub spec: GraphSpec,
    /// The edge partitioner to split it with.
    pub partitioner: Partitioner,
    /// The trial seed every sub-stream derives from.
    pub trial_seed: u64,
}

/// Counters and timings from one executor run — how much instance
/// materialization was deduplicated by the cache, how the wall time
/// split between building instances and running protocols, and (when
/// a campaign ran against a persistent store) how many trials were
/// served from disk instead of being recomputed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Trials actually executed by this run.
    pub trials_computed: u64,
    /// Trials skipped because the campaign's persistent store already
    /// held their record (0 when no store is attached).
    pub trials_skipped: u64,
    /// Trials that needed a graph (one per executed work item).
    pub graphs_requested: u64,
    /// Graphs actually built — exactly one per distinct
    /// `(spec, graph_seed)` key.
    pub graphs_built: u64,
    /// Trials that needed an edge partition.
    pub partitions_requested: u64,
    /// Partitions actually built — exactly one per distinct
    /// `(spec, graph_seed, partitioner)` key.
    pub partitions_built: u64,
    /// Cumulative nanoseconds spent *building* graphs and partitions
    /// (cache misses only), summed across threads. Waiting on another
    /// worker's in-flight build is deliberately not counted, so a
    /// build shared by many trials contributes its cost once, not
    /// once per waiter.
    pub setup_nanos: u64,
    /// Cumulative nanoseconds workers spent inside `Protocol::run`,
    /// summed across threads.
    pub run_nanos: u64,
}

impl ExecStats {
    /// Fraction of graph requests served from cache (0 when nothing
    /// was requested).
    pub fn graph_cache_hit_rate(&self) -> f64 {
        if self.graphs_requested == 0 {
            0.0
        } else {
            1.0 - self.graphs_built as f64 / self.graphs_requested as f64
        }
    }

    /// Fraction of partition requests served from cache (0 when
    /// nothing was requested).
    pub fn partition_cache_hit_rate(&self) -> f64 {
        if self.partitions_requested == 0 {
            0.0
        } else {
            1.0 - self.partitions_built as f64 / self.partitions_requested as f64
        }
    }
}

/// The human-readable one-liner the experiment binaries and the CLI
/// print after a run. The phrase `computed N trials` is load-bearing:
/// CI greps for `computed 0 trials` to assert a warm-store run did no
/// work.
impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exec: computed {} trials ({} skipped via store) · graphs built {}/{} \
             ({:.0}% cache hits) · partitions built {}/{} ({:.0}% cache hits) · \
             setup {:.3}s vs execute {:.3}s worker time",
            self.trials_computed,
            self.trials_skipped,
            self.graphs_built,
            self.graphs_requested,
            100.0 * self.graph_cache_hit_rate(),
            self.partitions_built,
            self.partitions_requested,
            100.0 * self.partition_cache_hit_rate(),
            self.setup_nanos as f64 / 1e9,
            self.run_nanos as f64 / 1e9,
        )
    }
}

/// A `key → value` cache with exactly-once construction: the lock is
/// held only to look up the per-key cell, and the build itself runs
/// under the cell's [`OnceLock`], so concurrent builds of *different*
/// keys do not serialize and the same key is never built twice.
struct OnceMap<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    requested: AtomicU64,
    built: AtomicU64,
    build_nanos: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> OnceMap<K, V> {
    fn new() -> Self {
        OnceMap {
            cells: Mutex::new(HashMap::new()),
            requested: AtomicU64::new(0),
            built: AtomicU64::new(0),
            build_nanos: AtomicU64::new(0),
        }
    }

    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        self.requested.fetch_add(1, Ordering::Relaxed);
        let cell = {
            let mut map = self.cells.lock().expect("instance cache poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        cell.get_or_init(|| {
            // Time only the build itself: workers blocked here on
            // another thread's in-flight build must not re-bill it.
            let started = Instant::now();
            self.built.fetch_add(1, Ordering::Relaxed);
            let value = build();
            self.build_nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            value
        })
        .clone()
    }
}

/// Cache key of a materialized graph. The spec is keyed by its
/// canonical `Display` form (which round-trips every parameter,
/// including `p`).
#[derive(PartialEq, Eq, Hash)]
struct GraphKey {
    spec: String,
    graph_seed: u64,
}

/// Cache key of a materialized edge partition.
#[derive(PartialEq, Eq, Hash)]
struct PartitionKey {
    spec: String,
    graph_seed: u64,
    partitioner: Partitioner,
}

/// Cumulative counters of one [`InstanceCache`]: how much instance
/// materialization was deduplicated, and the time spent on actual
/// builds (cache misses only, summed across threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Trials that needed a graph.
    pub graphs_requested: u64,
    /// Graphs actually built — exactly one per distinct
    /// `(spec, graph_seed)` key.
    pub graphs_built: u64,
    /// Trials that needed an edge partition.
    pub partitions_requested: u64,
    /// Partitions actually built — exactly one per distinct
    /// `(spec, graph_seed, partitioner)` key.
    pub partitions_built: u64,
    /// Cumulative nanoseconds spent building (cache misses only).
    pub setup_nanos: u64,
}

/// The shared `(spec, seed) → Arc<Graph>` / partition cache trials
/// resolve their instances through. One is created per
/// [`crate::Campaign::run`] for one-shot runs; a long-lived service
/// (the `bichrome` daemon) keeps a single cache at process scope so
/// concurrent overlapping campaigns build each distinct instance
/// exactly once between them.
pub struct InstanceCache {
    graphs: OnceMap<GraphKey, Arc<Graph>>,
    partitions: OnceMap<PartitionKey, Arc<EdgePartition>>,
}

impl Default for InstanceCache {
    fn default() -> Self {
        InstanceCache::new()
    }
}

impl InstanceCache {
    /// An empty cache.
    pub fn new() -> Self {
        InstanceCache {
            graphs: OnceMap::new(),
            partitions: OnceMap::new(),
        }
    }

    /// A snapshot of the cache's cumulative request/build counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            graphs_requested: self.graphs.requested.load(Ordering::Relaxed),
            graphs_built: self.graphs.built.load(Ordering::Relaxed),
            partitions_requested: self.partitions.requested.load(Ordering::Relaxed),
            partitions_built: self.partitions.built.load(Ordering::Relaxed),
            setup_nanos: self.graphs.build_nanos.load(Ordering::Relaxed)
                + self.partitions.build_nanos.load(Ordering::Relaxed),
        }
    }

    /// Resolves one lazy descriptor to an [`Instance`], building the
    /// graph and partition at most once per distinct key. The result
    /// is bit-identical to [`Instance::from_spec`] on the same
    /// arguments.
    fn instance(&self, spec: &GraphSpec, partitioner: Partitioner, trial_seed: u64) -> Instance {
        let label = spec.to_string();
        let graph_seed = seeds::graph_seed(trial_seed);
        let graph = self.graphs.get_or_build(
            GraphKey {
                spec: label.clone(),
                graph_seed,
            },
            || Arc::new(spec.build(graph_seed)),
        );
        let partition = self.partitions.get_or_build(
            PartitionKey {
                spec: label.clone(),
                graph_seed,
                partitioner,
            },
            || Arc::new(partitioner.split_shared(Arc::clone(&graph))),
        );
        Instance {
            label,
            partition,
            trial_seed,
            seed: seeds::protocol_seed(trial_seed),
        }
    }
}

/// Runs `work` on every item `next` yields until it yields `None`, on
/// `workers` threads (the caller and `workers − 1` scoped ones) that
/// each pull their next item as soon as they finish one: one worker
/// runs inline. A panic in `work` re-raises once the others finish.
pub fn pull_loop<T>(workers: usize, next: impl Fn() -> Option<T> + Sync, work: impl Fn(T) + Sync) {
    let drain = || {
        while let Some(item) = next() {
            work(item);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(drain);
        }
        drain();
    });
}

/// Runs one work item against `cache`, its sessions over `transport`
/// under `fault`: the record and the nanoseconds inside
/// `Protocol::run`, or the panic message of a trial that panicked
/// (graph build, session set-up or protocol). Every executor calls
/// this one panic boundary; the transport and fault guards inside it
/// restore the thread's settings as a panic unwinds.
pub(crate) fn run_item(
    item: &WorkItem,
    transport: TransportKind,
    fault: &FaultPlan,
    cache: &InstanceCache,
) -> Result<(TrialRecord, u64), String> {
    let trial = || {
        let _trial_span = bichrome_obs::span("trial/run");
        let instance = {
            let _setup_span = bichrome_obs::span("trial/setup");
            cache.instance(&item.spec, item.partitioner, item.trial_seed)
        };
        let run_started = Instant::now();
        let outcome = {
            let _execute_span = bichrome_obs::span("trial/execute");
            item.protocol.run(&instance)
        };
        let record = TrialRecord::from_outcome(&instance, outcome);
        let nanos = run_started.elapsed().as_nanos() as u64;
        trial_metrics().observe(nanos);
        (record, nanos)
    };
    catch_unwind(AssertUnwindSafe(|| {
        with_session_transport(transport, || with_session_faults(fault, trial))
    }))
    .map_err(|panic| {
        let text = (panic.downcast_ref::<&str>().copied())
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str));
        format!("trial panicked: {}", text.unwrap_or("(no message)"))
    })
}

/// The cached process-registry handle for per-trial execution time
/// (`bichrome_exec_trials_total` rides along as the histogram's
/// count; a separate counter keeps the family greppable on its own).
fn trial_metrics() -> &'static TrialMetrics {
    static METRICS: OnceLock<TrialMetrics> = OnceLock::new();
    METRICS.get_or_init(|| TrialMetrics {
        trials: bichrome_obs::counter("bichrome_exec_trials_total"),
        trial_nanos: bichrome_obs::histogram("bichrome_exec_trial_nanos"),
    })
}

struct TrialMetrics {
    trials: bichrome_obs::Counter,
    trial_nanos: bichrome_obs::Histogram,
}

impl TrialMetrics {
    fn observe(&self, nanos: u64) {
        self.trials.inc();
        self.trial_nanos.observe(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;
    use std::sync::atomic::AtomicUsize;

    /// A queue repeating the same (spec, seed) column across several
    /// protocols — the shape whose redundancy the cache removes.
    fn shared_column_queue(protocols: &[&str], seeds: std::ops::Range<u64>) -> Vec<WorkItem> {
        let reg = registry();
        let mut queue = Vec::new();
        for key in protocols {
            for seed in seeds.clone() {
                queue.push(WorkItem {
                    protocol: reg.get(key).expect("registered"),
                    spec: GraphSpec::NearRegular { n: 24, d: 4 },
                    partitioner: Partitioner::Alternating,
                    trial_seed: seed,
                });
            }
        }
        queue
    }

    /// Runs the queue in order over one cache, returning the records
    /// and the summed protocol-run nanoseconds.
    fn run_all(queue: &[WorkItem], cache: &InstanceCache) -> (Vec<TrialRecord>, u64) {
        let mut run_nanos = 0;
        let records = queue
            .iter()
            .map(|item| {
                let (record, nanos) =
                    run_item(item, TransportKind::InProc, &FaultPlan::new(), cache)
                        .expect("registry protocols do not panic");
                run_nanos += nanos;
                record
            })
            .collect();
        (records, run_nanos)
    }

    #[test]
    fn each_distinct_graph_is_built_exactly_once() {
        let queue = shared_column_queue(
            &[
                "vertex/theorem1",
                "edge/theorem2",
                "baseline/send-everything",
            ],
            0..4,
        );
        let cache = InstanceCache::new();
        let (records, _) = run_all(&queue, &cache);
        assert_eq!(records.len(), 12);
        let stats = cache.stats();
        assert_eq!(stats.graphs_requested, 12);
        assert_eq!(stats.graphs_built, 4, "one graph per seed");
        assert_eq!(stats.partitions_requested, 12);
        assert_eq!(stats.partitions_built, 4, "one partition per seed");
    }

    #[test]
    fn partitions_hold_the_cached_graph_itself() {
        let cache = InstanceCache::new();
        let spec = GraphSpec::NearRegular { n: 24, d: 4 };
        let alternating = cache.instance(&spec, Partitioner::Alternating, 5);
        let random = cache.instance(&spec, Partitioner::Random(1), 5);
        let graph = cache.graphs.get_or_build(
            GraphKey {
                spec: spec.to_string(),
                graph_seed: seeds::graph_seed(5),
            },
            || unreachable!("built by the first resolution"),
        );
        assert!(
            std::ptr::eq(alternating.graph(), &*graph),
            "the partition shares the cache's graph, not a copy"
        );
        assert!(
            std::ptr::eq(random.graph(), alternating.graph()),
            "two partitioners on one (spec, seed) share one whole graph"
        );
        assert_eq!(cache.stats().graphs_built, 1);
    }

    #[test]
    fn cached_resolution_is_bit_identical_to_eager_from_spec() {
        let queue = shared_column_queue(&["edge/theorem2", "vertex/theorem1"], 0..3);
        let (records, _) = run_all(&queue, &InstanceCache::new());
        let reg = registry();
        let spec = GraphSpec::NearRegular { n: 24, d: 4 };
        let mut i = 0;
        for key in ["edge/theorem2", "vertex/theorem1"] {
            let proto = reg.get(key).expect("registered");
            for seed in 0..3 {
                let inst = Instance::from_spec(&spec, Partitioner::Alternating, seed);
                let expected = TrialRecord::from_outcome(&inst, proto.run(&inst));
                assert_eq!(records[i], expected, "{key} seed {seed}");
                i += 1;
            }
        }
    }

    #[test]
    fn stats_time_split_covers_the_run() {
        let queue = shared_column_queue(&["vertex/theorem1"], 0..2);
        let cache = InstanceCache::new();
        let (_, run_nanos) = run_all(&queue, &cache);
        assert!(run_nanos > 0, "protocol runs take measurable time");
        assert!(
            cache.stats().setup_nanos > 0,
            "two graphs were actually built"
        );
    }

    /// Pulls `0..n` from a shared counter, as `Campaign` does.
    fn counter_source(next: &AtomicUsize, n: usize) -> Option<usize> {
        Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n)
    }

    #[test]
    fn the_pull_loop_hands_out_every_item_exactly_once() {
        for workers in [0, 1, 3] {
            let next = AtomicUsize::new(0);
            let seen = Mutex::new(Vec::new());
            pull_loop(
                workers,
                || counter_source(&next, 100),
                |i| seen.lock().expect("seen").push(i),
            );
            let mut seen = seen.into_inner().expect("seen");
            seen.sort_unstable();
            assert_eq!(seen, (0..100).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn one_worker_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let next = AtomicUsize::new(0);
        pull_loop(
            1,
            || counter_source(&next, 3),
            |_| assert_eq!(std::thread::current().id(), caller),
        );
    }

    #[test]
    fn a_costly_first_item_does_not_strand_the_rest() {
        // Item 0 ends only once the other worker has run every other
        // item. A schedule that cut the source into one chunk per
        // worker up front would leave half of them queued behind it.
        let next = AtomicUsize::new(0);
        let rest_done = AtomicUsize::new(0);
        let started = Instant::now();
        pull_loop(
            2,
            || counter_source(&next, 10),
            |i| {
                if i > 0 {
                    rest_done.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                while rest_done.load(Ordering::SeqCst) < 9 {
                    assert!(
                        started.elapsed().as_secs() < 10,
                        "items stranded behind the costly one"
                    );
                    std::thread::yield_now();
                }
            },
        );
    }

    #[test]
    fn a_panicking_trial_comes_back_as_its_err() {
        struct Boom;
        impl Protocol for Boom {
            fn name(&self) -> &str {
                "test/boom"
            }
            fn run(&self, _inst: &Instance) -> crate::Outcome {
                panic!("boom on purpose")
            }
        }
        let item = WorkItem {
            protocol: Arc::new(Boom),
            spec: GraphSpec::NearRegular { n: 24, d: 4 },
            partitioner: Partitioner::Alternating,
            trial_seed: 1,
        };
        let err = run_item(
            &item,
            TransportKind::Pipe,
            &FaultPlan::new(),
            &InstanceCache::new(),
        )
        .expect_err("the protocol panicked");
        assert_eq!(err, "trial panicked: boom on purpose");
        assert_eq!(
            bichrome_comm::transport::session_transport(),
            TransportKind::InProc,
            "the transport scope unwound"
        );
    }
}
