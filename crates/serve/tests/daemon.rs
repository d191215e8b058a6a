//! End-to-end daemon properties: cross-job instance dedup, warm
//! re-submission, cancellation, graceful shutdown, and crash-resume
//! convergence.

use bichrome_serve::proto::MAX_REQUEST_LINE;
use bichrome_serve::{Addr, Client, Daemon, DaemonConfig, Format, Listener, ProtoError, Stream};
use bichrome_store::{Store, StoreConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        TempDir(std::env::temp_dir().join(format!(
            "bichrome-daemon-test-{tag}-{}-{}",
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

fn config(workers: usize) -> DaemonConfig {
    DaemonConfig {
        workers,
        ..DaemonConfig::default()
    }
}

/// One overlapping-grid campaign per client: same graphs × seeds,
/// distinct protocol axis.
fn overlap_campaign(protocol: &str) -> String {
    format!(
        r#"
        [campaign]
        protocols = ["{protocol}"]
        graphs    = ["near-regular(n=30,d=4)", "gnp(n=30,p=0.15)"]
        seeds     = "0..3"
        "#
    )
}

/// The tentpole concurrency property: four clients submit
/// overlapping grids concurrently, and the daemon-wide cache builds
/// each distinct `(spec, seed)` graph exactly once — 6 builds for 24
/// requests — because all jobs multiplex onto one executor and one
/// cache. A fifth, repeated submission then computes 0 trials.
#[test]
fn concurrent_overlapping_jobs_build_each_graph_exactly_once() {
    let tmp = TempDir::new("overlap");
    let daemon = Daemon::start(tmp.0.join("store"), config(4)).expect("start");

    let protocols = [
        "vertex/theorem1",
        "edge/theorem2",
        "baseline/send-everything",
        "baseline/greedy-binary-search",
    ];
    std::thread::scope(|scope| {
        for protocol in protocols {
            let daemon = &daemon;
            scope.spawn(move || {
                let job = daemon.submit(&overlap_campaign(protocol)).expect("submit");
                let (_ack, rx) = daemon.watch(job).expect("watch");
                let events: Vec<String> = rx.iter().collect();
                let end = events.last().expect("end event");
                assert!(end.contains("\"state\":\"done\""), "{protocol}: {end}");
                assert!(
                    end.contains("computed 6 trials (0 skipped via store)"),
                    "{protocol}: {end}"
                );
                // 6 pending trials → at most 6 trial events (those
                // committed before the watch registered are not
                // replayed) + the end event.
                assert!((1..=7).contains(&events.len()), "{protocol}: {events:?}");
            });
        }
    });

    // 4 jobs × 6 trials requested a graph each; 2 specs × 3 seeds
    // distinct graphs were actually built — once each, across jobs.
    let cs = daemon.cache_stats();
    assert_eq!(cs.graphs_requested, 24);
    assert_eq!(cs.graphs_built, 6, "each distinct graph built exactly once");
    assert_eq!(cs.partitions_requested, 24);
    assert_eq!(
        cs.partitions_built, 6,
        "per-seed default partition shared across jobs"
    );

    // Warm re-submission: everything is in the store now.
    let job = daemon
        .submit(&overlap_campaign("vertex/theorem1"))
        .expect("warm submit");
    let (_ack, rx) = daemon.watch(job).expect("watch");
    let end: Vec<String> = rx.iter().collect();
    assert_eq!(end.len(), 1, "no trial events on a warm job");
    assert!(
        end[0].contains("computed 0 trials (6 skipped via store)"),
        "{end:?}"
    );
    assert_eq!(cs.graphs_built, daemon.cache_stats().graphs_built);

    // Per-job accounting survives in status and the jobs listing.
    let status = daemon.status(job).expect("status");
    assert!(status.contains("\"state\":\"done\""), "{status}");
    assert!(status.contains("\"skipped\":6"), "{status}");
    let jobs = daemon.jobs_line();
    assert_eq!(jobs.matches("\"state\":\"done\"").count(), 5, "{jobs}");

    daemon.shutdown().expect("shutdown");
}

/// Real sockets: two clients on a Unix socket drive the same daemon,
/// the second resubmission is warm, and reports/diffs come back over
/// the wire.
#[test]
fn socket_clients_share_the_daemon() {
    let tmp = TempDir::new("socket");
    let daemon = Daemon::start(tmp.0.join("store"), config(2)).expect("start");
    let addr = Addr::Unix(tmp.0.join("daemon.sock"));
    let listener = Listener::bind(&addr).expect("bind");
    let server = {
        let daemon = daemon.clone();
        std::thread::spawn(move || daemon.serve(listener))
    };

    let campaign = r#"
        [campaign]
        protocols = ["edge/theorem2", "baseline/send-everything"]
        graphs    = ["gnp(n=24,p=0.2)"]
        seeds     = "0..4"
        baseline  = "baseline/send-everything"
    "#;
    let client_a = Client::new(addr.clone());
    let client_b = Client::new(addr.clone());
    assert!(client_a.ping(), "daemon should answer pings");

    let job_a = client_a.submit(campaign).expect("submit a");
    let mut trial_events = 0u64;
    let end = client_a
        .watch(job_a, |_event| trial_events += 1)
        .expect("watch a");
    let end_obj = end.as_object().expect("end object");
    assert_eq!(end_obj["state"].as_str(), Some("done"));
    assert_eq!(
        end_obj["summary"].as_str(),
        Some("computed 8 trials (0 skipped via store)")
    );
    assert!(trial_events <= 8, "2 protocols × 4 seeds trial events");

    // Client B resubmits the identical grid: fully warm.
    let job_b = client_b.submit(campaign).expect("submit b");
    let end = client_b.watch(job_b, |_| {}).expect("watch b");
    assert_eq!(
        end.as_object().expect("obj")["summary"].as_str(),
        Some("computed 0 trials (8 skipped via store)")
    );

    // Reports and diffs round-trip the wire.
    let report = client_b.report(Some(job_b), Format::Text).expect("report");
    assert!(
        report.contains("computed 0 trials (8 skipped via store)"),
        "{report}"
    );
    let csv = client_b.report(None, Format::Csv).expect("store csv");
    assert_eq!(csv.lines().count(), 1 + 2, "header + one row per cell");
    let diff = client_a.diff(job_a, job_b).expect("diff");
    assert!(diff.contains("2 shared cell(s)"), "{diff}");
    assert!(
        diff.contains("1.00x"),
        "identical jobs diff at 1.00x: {diff}"
    );

    let stats = client_a.stats().expect("stats");
    let stats = stats.as_object().expect("obj");
    assert_eq!(stats["records"].as_u64(), Some(8));
    assert_eq!(stats["jobs"].as_u64(), Some(2));

    // The `metrics` verb returns the process-wide obs registry: the
    // two submits above are counted under their verb label, and the
    // store saw at least this test's eight appends.
    let metrics = client_a.metrics().expect("metrics");
    let counters = metrics.as_object().expect("obj")["counters"]
        .as_object()
        .expect("counters object")
        .clone();
    let submits = counters["bichrome_daemon_requests_total{verb=\"submit\"}"]
        .as_u64()
        .expect("submit counter");
    assert!(submits >= 2, "two submits counted, saw {submits}");
    let appends = counters["bichrome_store_appends_total"]
        .as_u64()
        .expect("append counter");
    assert!(appends >= 8, "eight store appends counted, saw {appends}");

    client_a.shutdown().expect("shutdown");
    server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    assert!(
        !client_b.ping(),
        "daemon must stop answering after shutdown"
    );
}

/// Cancellation is cooperative: queued tasks drain without running,
/// completed trials stay committed, and the watcher gets a
/// `cancelled` end event.
#[test]
fn cancel_stops_a_running_job_and_keeps_its_progress() {
    let tmp = TempDir::new("cancel");
    let daemon = Daemon::start(tmp.0.join("store"), config(2)).expect("start");
    let job = daemon
        .submit(
            r#"
            [campaign]
            protocols = ["vertex/theorem1"]
            graphs    = ["near-regular(n=1024,d=6)"]
            seeds     = "0..24"
            "#,
        )
        .expect("submit");
    let (_ack, rx) = daemon.watch(job).expect("watch");
    // Cancel as soon as the first trial lands; the 20+ queued tasks
    // behind it must drain as no-ops.
    let mut events = Vec::new();
    for event in rx {
        if events.is_empty() {
            daemon.cancel(job).expect("cancel");
        }
        events.push(event);
    }
    let end = events.last().expect("end event");
    assert!(end.contains("\"state\":\"cancelled\""), "{end}");
    let computed = events.len() as u64 - 1;
    assert!(
        (1..24).contains(&computed),
        "cancel must land mid-job (computed {computed})"
    );

    // What was computed before the cancel is durable: a re-submit
    // skips exactly that many trials.
    let resubmit = daemon
        .submit(
            r#"
            [campaign]
            protocols = ["vertex/theorem1"]
            graphs    = ["near-regular(n=1024,d=6)"]
            seeds     = "0..1"
            "#,
        )
        .expect("submit warm probe");
    let status = daemon.status(resubmit).expect("status");
    // Seed 0 ran first (FIFO queue), so this 1-trial grid is warm.
    let (_ack, rx) = daemon.watch(resubmit).expect("watch");
    let _ = rx.iter().count();
    let status_done = daemon.status(resubmit).expect("status");
    assert!(
        status.contains("\"ok\":true") && status_done.contains("\"skipped\":1"),
        "{status_done}"
    );
    daemon.shutdown().expect("shutdown");
}

/// Graceful shutdown drains in-flight jobs to completion, then
/// checkpoints (flush + roll + atomic meta): nothing computed is
/// lost, and new submissions are refused while draining.
#[test]
fn shutdown_drains_inflight_jobs_then_checkpoints() {
    let tmp = TempDir::new("drain");
    let store_dir = tmp.0.join("store");
    let daemon = Daemon::start(&store_dir, config(2)).expect("start");
    let job = daemon
        .submit(
            r#"
            [campaign]
            protocols = ["edge/theorem2", "baseline/send-everything"]
            graphs    = ["gnp(n=40,p=0.1)"]
            seeds     = "0..6"
            "#,
        )
        .expect("submit");
    daemon.shutdown().expect("shutdown drains");
    let status = daemon.status(job).expect("status");
    assert!(
        status.contains("\"state\":\"done\"") && status.contains("\"computed\":12"),
        "shutdown must finish the in-flight job: {status}"
    );
    assert!(
        daemon.submit("[campaign]\n").is_err(),
        "submissions refused once draining"
    );

    // The checkpointed store reopens whole: every record present, no
    // salvage, and the meta matches (open_existing validates it).
    let store = Store::open_existing(&store_dir).expect("reopen");
    assert_eq!(store.len(), 12);
    assert!(store.salvage().is_none(), "checkpointed store is clean");
}

/// Kill-at-a-random-point resume: a daemon's store torn mid-frame at
/// arbitrary byte offsets salvages what was durable, and a fresh
/// daemon re-submitted the same campaign converges to a report
/// bit-identical to an uninterrupted run.
#[test]
fn torn_store_resumes_to_a_bit_identical_report() {
    let campaign = r#"
        [campaign]
        protocols = ["edge/theorem2", "baseline/send-everything"]
        graphs    = ["gnp(n=24,p=0.2)"]
        seeds     = "0..6"
    "#;
    let fresh = bichrome_runner::CampaignFile::parse(campaign)
        .expect("parse")
        .to_campaign(None)
        .run()
        .to_json();
    let total = 2 * 6u64;

    for cut in [0.35, 0.65, 0.95] {
        let tmp = TempDir::new("tear");
        let store_dir = tmp.0.join("store");
        {
            let daemon = Daemon::start(&store_dir, config(2)).expect("start");
            let job = daemon.submit(campaign).expect("submit");
            let (_ack, rx) = daemon.watch(job).expect("watch");
            let _ = rx.iter().count();
            daemon.shutdown().expect("shutdown");
        }

        // The "kill": tear the newest segment at an arbitrary point.
        let (salvaged, torn) = {
            let store = Store::open_existing(&store_dir).expect("open for tear");
            let seg = store
                .segments()
                .expect("segments")
                .last()
                .cloned()
                .expect("at least one segment");
            drop(store);
            let bytes = std::fs::read(&seg).expect("read segment");
            let keep = (bytes.len() as f64 * cut) as usize;
            std::fs::write(&seg, &bytes[..keep]).expect("tear");
            let store = Store::open_existing(&store_dir).expect("salvaging open");
            (store.len() as u64, store.salvage().is_some())
        };
        assert!(torn, "cut={cut}: the tear must be detected");
        assert!(salvaged < total, "cut={cut}: something was lost");

        // Resume on a brand-new daemon: recompute only the lost tail.
        let daemon = Daemon::start(&store_dir, config(2)).expect("restart");
        let job = daemon.submit(campaign).expect("resubmit");
        let (_ack, rx) = daemon.watch(job).expect("watch");
        let _ = rx.iter().count();
        let status = daemon.status(job).expect("status");
        assert!(
            status.contains(&format!("\"computed\":{}", total - salvaged))
                && status.contains(&format!("\"skipped\":{salvaged}")),
            "cut={cut}: recompute exactly the destroyed records: {status}"
        );
        let report = daemon.report(Some(job), Format::Json).expect("job report");
        assert_eq!(report, fresh, "cut={cut}: resume must be bit-identical");
        daemon.shutdown().expect("shutdown");
    }
}

/// The daemon honors store batching config end to end: many small
/// appends stay buffered between group flushes, and shutdown leaves
/// nothing behind.
#[test]
fn batched_writes_survive_shutdown() {
    let tmp = TempDir::new("batch");
    let store_dir = tmp.0.join("store");
    let daemon = Daemon::start(
        &store_dir,
        DaemonConfig {
            workers: 1,
            store: StoreConfig {
                flush_every: 1000, // far more than the job writes
                ..StoreConfig::default()
            },
            ..DaemonConfig::default()
        },
    )
    .expect("start");
    let job = daemon
        .submit(
            r#"
            [campaign]
            protocols = ["baseline/send-everything"]
            graphs    = ["path(n=16)"]
            seeds     = "0..5"
            "#,
        )
        .expect("submit");
    let (_ack, rx) = daemon.watch(job).expect("watch");
    let _ = rx.iter().count();
    daemon.shutdown().expect("shutdown");
    let store = Store::open_existing(&store_dir).expect("reopen");
    assert_eq!(store.len(), 5, "buffered appends flushed by shutdown");
    assert!(store.salvage().is_none());
}

/// A request line over the cap is refused with an error the client
/// types as a rejection, its connection closes, and the daemon keeps
/// answering everyone else.
#[test]
fn an_over_long_request_line_is_refused_and_the_daemon_still_answers() {
    let tmp = TempDir::new("overlong");
    let daemon = Daemon::start(tmp.0.join("store"), config(1)).expect("start");
    let addr = Addr::Unix(tmp.0.join("daemon.sock"));
    let listener = Listener::bind(&addr).expect("bind");
    let server = {
        let daemon = daemon.clone();
        std::thread::spawn(move || daemon.serve(listener))
    };
    let client = Client::new(addr.clone());

    // A campaign padded past the cap by a TOML comment.
    let padded = format!("[campaign]\n#{}\n", "x".repeat(MAX_REQUEST_LINE));
    match client.submit(&padded) {
        Err(ProtoError::Rejected(msg)) => assert!(msg.contains("longer than"), "{msg}"),
        other => panic!("expected a rejection, got {other:?}"),
    }

    // On a raw connection: one error line, then the daemon hangs up.
    let mut raw = Stream::connect(&addr).expect("dial");
    let mut line = vec![b'x'; MAX_REQUEST_LINE + 1];
    line.push(b'\n');
    raw.write_all(&line).expect("send");
    let mut reader = BufReader::new(raw);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error line");
    assert!(reply.contains("\"ok\":false"), "{reply}");
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).expect("eof"), 0, "{reply}");

    assert!(client.ping(), "the daemon must still answer");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("serve");
}
