//! **bench-serve** — the daemon + store-format benchmark: writes
//! `BENCH_serve.json` so CI can chart three things across PRs:
//!
//! 1. **Daemon throughput.** A real daemon on a Unix socket, driven
//!    by 1 / 4 / 16 concurrent socket clients submitting disjoint
//!    seed windows of the same grid — jobs/sec and trials/sec per
//!    client count.
//! 2. **Warm-store open.** Authors a 10⁵-record store and times
//!    `Store::open_existing` on it (best-of-3).
//! 3. **Write batching.** Appends the same record stream with
//!    `flush_every` 1 (per-record flush) vs 64 (the daemon default)
//!    and records both timings.
//!
//! ```sh
//! cargo run --release -p bichrome-bench --bin bench_serve [out.json]
//! ```

use bichrome_serve::{Addr, Client, Daemon, DaemonConfig, Listener};
use bichrome_store::{Store, StoreConfig, TrialKey};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records authored into the open-timing stores (one per key).
const OPEN_RECORDS: u64 = 100_000;

/// Records appended in each write-batching pass.
const BATCH_RECORDS: u64 = 20_000;

/// Jobs submitted per client-count scale (split evenly across the
/// clients), each a disjoint 4-seed window → nothing is served warm.
const JOBS_PER_SCALE: u64 = 16;

/// Trials per submitted job (one protocol × one graph × 4 seeds).
const TRIALS_PER_JOB: u64 = 4;

/// A scratch directory under the system temp dir (removed by the
/// caller once the benchmark is done with it).
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bichrome-bench-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The synthetic trial identity stream shared by every store-side
/// measurement.
fn nth_key(i: u64) -> TrialKey {
    TrialKey {
        protocol: "edge/theorem3-zero-comm".to_string(),
        graph: format!("near-regular(n=64,d=6)#{}", i % 97),
        partitioner: "random".to_string(),
        seed: i,
    }
}

/// A realistic-size record payload (~100 bytes, like a real trial).
fn nth_record(i: u64) -> String {
    format!(
        "{{\"bits\":{},\"rounds\":{},\"valid\":true,\"colors\":[{},{}],\"elapsed_nanos\":{}}}",
        3 * i + 7,
        1 + i % 5,
        i % 2,
        (i + 1) % 2,
        1000 + i
    )
}

/// Authors an `n`-record store.
fn author_store(dir: &Path, n: u64) {
    let config = StoreConfig {
        flush_every: 4096,
        ..StoreConfig::default()
    };
    let mut store = Store::open_or_create_with(dir, config).expect("create store");
    for i in 0..n {
        store.append(nth_key(i), nth_record(i)).expect("append");
    }
    drop(store); // flushes the active segment
}

/// Best-of-3 `Store::open_existing` timing; also sanity-checks that
/// the store loads every record cleanly.
fn time_open(dir: &Path, n: u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        let store = Store::open_existing(dir).expect("open");
        let secs = started.elapsed().as_secs_f64();
        assert_eq!(store.len() as u64, n, "store must hold all {n} records");
        assert!(store.salvage().is_none(), "clean store must not salvage");
        best = best.min(secs);
    }
    best
}

/// Times appending `BATCH_RECORDS` fresh records with the given
/// flush cadence (fresh directory per pass; drop flushes the tail).
/// Each append also lands in a per-cadence obs histogram
/// (`bench_append_nanos`), the source of the written percentiles.
fn time_batched_append(flush_every: usize) -> f64 {
    let dir = scratch(&format!("batch-{flush_every}"));
    let config = StoreConfig {
        flush_every,
        ..StoreConfig::default()
    };
    let hist = append_hist(flush_every);
    let mut store = Store::open_or_create_with(&dir, config).expect("create");
    let started = Instant::now();
    for i in 0..BATCH_RECORDS {
        let one = Instant::now();
        store.append(nth_key(i), nth_record(i)).expect("append");
        hist.observe(one.elapsed().as_nanos() as u64);
    }
    drop(store);
    let secs = started.elapsed().as_secs_f64();
    let reopened = Store::open_existing(&dir).expect("reopen");
    assert_eq!(
        reopened.len() as u64,
        BATCH_RECORDS,
        "batched writes must all be durable after drop"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    secs
}

/// The per-flush-cadence append-latency histogram.
fn append_hist(flush_every: usize) -> bichrome_obs::Histogram {
    bichrome_obs::histogram_labeled(
        "bench_append_nanos",
        &[("flush_every", &flush_every.to_string())],
    )
}

/// The campaign TOML for one submitted job: a disjoint 4-seed window
/// so every job computes all of its trials (no warm skips).
fn job_toml(job: u64) -> String {
    format!(
        "[campaign]\n\
         protocols = [\"edge/theorem3-zero-comm\"]\n\
         graphs    = [\"near-regular(n=48,d=4)\"]\n\
         seeds     = \"{}..{}\"\n",
        job * TRIALS_PER_JOB,
        (job + 1) * TRIALS_PER_JOB
    )
}

/// Runs `JOBS_PER_SCALE` submit+watch round trips against a fresh
/// daemon, split across `clients` concurrent socket clients; returns
/// wall seconds.
fn time_daemon_scale(clients: u64) -> f64 {
    assert_eq!(JOBS_PER_SCALE % clients, 0, "jobs must split evenly");
    let dir = scratch(&format!("daemon-{clients}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let daemon = Daemon::start(dir.join("store"), DaemonConfig::default()).expect("start daemon");
    let addr = Addr::Unix(dir.join("daemon.sock"));
    let listener = Listener::bind(&addr).expect("bind");
    let server = {
        let daemon = daemon.clone();
        std::thread::spawn(move || daemon.serve(listener))
    };

    let jobs_each = JOBS_PER_SCALE / clients;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let addr = addr.clone();
            scope.spawn(move || {
                let client = Client::new(addr);
                for j in 0..jobs_each {
                    let job = client.submit(&job_toml(c * jobs_each + j)).expect("submit");
                    let end = client.watch(job, |_trial| {}).expect("watch");
                    let end = end.as_object().expect("end event");
                    assert_eq!(end["state"].as_str(), Some("done"), "job must finish");
                }
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();

    Client::new(addr).shutdown().expect("shutdown");
    server.join().expect("serve thread").expect("serve exits");
    let store = Store::open_existing(dir.join("store")).expect("reopen daemon store");
    assert_eq!(
        store.len() as u64,
        JOBS_PER_SCALE * TRIALS_PER_JOB,
        "every submitted trial must be durable after shutdown"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    wall
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    // Daemon throughput at 1 / 4 / 16 concurrent socket clients.
    let total_trials = JOBS_PER_SCALE * TRIALS_PER_JOB;
    println!(
        "bench-serve: daemon throughput ({JOBS_PER_SCALE} jobs · {total_trials} trials per scale)..."
    );
    let scales = [1u64, 4, 16];
    let walls: Vec<f64> = scales.iter().map(|&c| time_daemon_scale(c)).collect();
    for (&clients, &wall) in scales.iter().zip(&walls) {
        println!(
            "  {clients:>2} client(s): {wall:.3}s · {:.1} jobs/sec · {:.1} trials/sec",
            JOBS_PER_SCALE as f64 / wall,
            total_trials as f64 / wall,
        );
    }

    // Warm-store open of a 10⁵-record store.
    println!("bench-serve: authoring a {OPEN_RECORDS}-record store...");
    let open_dir = scratch("open");
    author_store(&open_dir, OPEN_RECORDS);
    let open_seconds = time_open(&open_dir, OPEN_RECORDS);
    let _ = std::fs::remove_dir_all(&open_dir);
    println!("  open: {open_seconds:.3}s");

    // Write batching: per-record flush vs the daemon's group flush.
    let flush_1 = time_batched_append(1);
    let flush_64 = time_batched_append(64);
    println!(
        "  append {BATCH_RECORDS} records: flush_every=1 {flush_1:.3}s · flush_every=64 {flush_64:.3}s"
    );

    let mut w = bichrome_runner::json::Writer::object();
    w.field_str("benchmark", "serve-daemon");
    w.field_u64("jobs_per_scale", JOBS_PER_SCALE);
    w.field_u64("trials_per_scale", total_trials);
    for (&clients, &wall) in scales.iter().zip(&walls) {
        w.field_f64(&format!("clients_{clients}_wall_seconds"), wall);
        w.field_f64(
            &format!("clients_{clients}_jobs_per_sec"),
            JOBS_PER_SCALE as f64 / wall,
        );
        w.field_f64(
            &format!("clients_{clients}_trials_per_sec"),
            total_trials as f64 / wall,
        );
    }
    w.field_u64("open_records", OPEN_RECORDS);
    w.field_f64("open_seconds", open_seconds);
    w.field_u64("batch_records", BATCH_RECORDS);
    w.field_f64("append_flush_every_1_seconds", flush_1);
    w.field_f64("append_flush_every_64_seconds", flush_64);
    w.field_f64("batching_speedup", flush_1 / flush_64);
    // Per-append tail latency at the daemon's default cadence (64).
    let hist = append_hist(64);
    w.field_f64("append_nanos_p50", hist.percentile(50.0));
    w.field_f64("append_nanos_p95", hist.percentile(95.0));
    w.field_f64("append_nanos_p99", hist.percentile(99.0));
    let json = w.finish();
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("→ {out_path}");
}
