//! Remote-worker properties, end to end over the wire: workers drain
//! the queue through `lease`/`complete` and the daemon's report is
//! bit-identical to an in-process run; a worker dying mid-trial loses
//! nothing — its lease expires, the trial re-queues, and the stale
//! completion is discarded. An idle `lease` waits at the daemon for
//! work, and `lease`/`complete` share one kept connection per client.

use bichrome_runner::{
    compute_trial, CampaignFile, FaultPlan, InstanceCache, TransportKind, TrialRecord,
};
use bichrome_serve::json::Value;
use bichrome_serve::{
    Addr, Client, Daemon, DaemonConfig, Format, LeaseGrant, Listener, Stream, TrialLease,
};
use bichrome_store::TrialKey;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Held by every test that reads the process-wide
/// `bichrome_worker_reconnects_total` counter or adds to it, so their
/// readings do not race.
static RECONNECT_COUNTER: Mutex<()> = Mutex::new(());

/// A unique scratch directory (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        TempDir(std::env::temp_dir().join(format!(
            "bichrome-workers-test-{tag}-{}-{}",
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

/// A scheduler-only daemon (no local pool) serving a Unix socket.
fn pure_scheduler(
    tmp: &TempDir,
    lease_timeout: Duration,
) -> (std::sync::Arc<Daemon>, Addr, std::thread::JoinHandle<()>) {
    scheduler_with(
        tmp,
        DaemonConfig {
            workers: 0,
            lease_timeout,
            ..DaemonConfig::default()
        },
    )
}

/// [`pure_scheduler`] with the whole configuration given.
fn scheduler_with(
    tmp: &TempDir,
    config: DaemonConfig,
) -> (std::sync::Arc<Daemon>, Addr, std::thread::JoinHandle<()>) {
    let daemon = Daemon::start(tmp.0.join("store"), config).expect("start");
    let addr = Addr::Unix(tmp.0.join("daemon.sock"));
    let listener = Listener::bind(&addr).expect("bind");
    let server = {
        let daemon = daemon.clone();
        std::thread::spawn(move || daemon.serve(listener).expect("serve"))
    };
    (daemon, addr, server)
}

const CAMPAIGN: &str = r#"
    [campaign]
    protocols = ["edge/theorem2", "baseline/send-everything"]
    graphs    = ["near-regular(n=24,d=4)"]
    seeds     = "0..3"
    transport = "tcp"
"#;

/// Recomputes a leased trial from its key alone, as a worker does.
fn compute(t: &TrialLease, cache: &InstanceCache) -> TrialRecord {
    let key = TrialKey {
        protocol: t.protocol.clone(),
        graph: t.graph.clone(),
        partitioner: t.partitioner.clone(),
        seed: t.seed,
    };
    let kind: TransportKind = t.transport.parse().expect("transport name");
    let fault: FaultPlan = t.fault.parse().expect("fault spec");
    compute_trial(&key, kind, &fault, cache).expect("descriptor resolves")
}

/// What `bichrome work` does, minus the process boundary: pull a
/// lease, recompute it from the key alone, send the record back.
fn work_one(client: &Client, cache: &InstanceCache) -> Option<LeaseGrant> {
    match client.lease().expect("lease") {
        LeaseGrant::Trial(t) => {
            let record = compute(&t, cache);
            assert!(
                client
                    .complete(t.lease, Ok(&record.to_json()))
                    .expect("complete"),
                "fresh lease must be accepted"
            );
            None
        }
        grant => Some(grant),
    }
}

/// One counter from the daemon's `stats` line.
fn stat(daemon: &Daemon, name: &str) -> u64 {
    Value::parse(&daemon.stats_line())
        .expect("stats parse")
        .as_object()
        .and_then(|o| o.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats has no counter {name:?}"))
}

/// Returns once `n` `lease` requests are waiting on the daemon's
/// empty queue — the barrier the held-lease tests order events by.
fn wait_until_held(daemon: &Daemon, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while stat(daemon, "leases_held") != n {
        assert!(Instant::now() < deadline, "{n} lease(s) never held");
        std::thread::yield_now();
    }
}

/// Keeps working until the watched job ends; returns trials computed.
fn work_until_done(addr: &Addr, job: u64) -> u64 {
    let client = Client::new(addr.clone());
    let cache = InstanceCache::new();
    let watcher = {
        let client = client.clone();
        std::thread::spawn(move || client.watch(job, |_| {}).expect("watch"))
    };
    let mut computed = 0;
    while !watcher.is_finished() {
        match work_one(&client, &cache) {
            None => computed += 1,
            Some(LeaseGrant::Stop) => break,
            Some(LeaseGrant::Idle) => {}
            Some(LeaseGrant::Trial(_)) => unreachable!(),
        }
    }
    let end = watcher.join().expect("watcher");
    assert_eq!(
        end.as_object().expect("object")["state"].as_str(),
        Some("done"),
        "{end:?}"
    );
    computed
}

/// The tentpole acceptance property: a scheduler-only daemon plus two
/// remote workers produce, over the wire, the exact report an
/// in-process `Campaign::run` computes — and the workers did all the
/// computing (the daemon has zero local workers).
#[test]
fn remote_workers_drain_the_queue_and_the_report_is_bit_identical() {
    let tmp = TempDir::new("drain");
    let (_daemon, addr, server) = pure_scheduler(&tmp, Duration::from_secs(30));
    let client = Client::new(addr.clone());
    let job = client.submit(CAMPAIGN).expect("submit");

    let total: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || work_until_done(&addr, job))
            })
            .collect();
        workers.into_iter().map(|h| h.join().expect("worker")).sum()
    });
    assert_eq!(total, 6, "the two workers computed every trial");

    let remote_csv = client.report(Some(job), Format::Csv).expect("report");
    let local_csv = CampaignFile::parse(CAMPAIGN)
        .expect("toml")
        .to_campaign(None)
        .run()
        .to_csv();
    assert_eq!(
        remote_csv, local_csv,
        "wire execution must be bit-identical"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("server");
}

/// Satellite robustness property: a worker that leases a trial and
/// dies never stalls the campaign. The reaper expires the lease and
/// re-queues the trial, a live worker recomputes it bit-identically,
/// and the dead worker's eventual stale `complete` is discarded
/// without double-counting.
#[test]
fn an_abandoned_lease_expires_requeues_and_the_late_complete_is_discarded() {
    let tmp = TempDir::new("expiry");
    // 400ms: long enough that no *live* worker's lease ever expires
    // mid-compute (trials here take microseconds), short enough that
    // the abandoned lease turns over quickly.
    let (daemon, addr, server) = pure_scheduler(&tmp, Duration::from_millis(400));
    let client = Client::new(addr.clone());
    let job = client.submit(CAMPAIGN).expect("submit");

    // The doomed worker takes one trial and "crashes": it holds the
    // token but never completes.
    let stale = match client.lease().expect("lease") {
        LeaseGrant::Trial(t) => t,
        other => panic!("expected a trial, got {other:?}"),
    };

    // A healthy worker drains everything — including, once the
    // lease expires and the reaper re-queues it, the trial the dead
    // worker abandoned.
    let computed = work_until_done(&addr, job);
    assert_eq!(computed, 6, "the live worker computed all six trials");

    // The dead worker limps back with its answer: politely discarded.
    let record = compute(&stale, &InstanceCache::new());
    assert!(
        !client
            .complete(stale.lease, Ok(&record.to_json()))
            .expect("stale complete"),
        "an expired lease's completion must be rejected"
    );

    // Accounting: exactly one expiry, no double-counted trials.
    let stats = client.stats().expect("stats");
    let stats = stats.as_object().expect("object");
    assert_eq!(stats["leases_expired"].as_u64(), Some(1), "{stats:?}");
    assert_eq!(stats["leases_completed"].as_u64(), Some(6), "{stats:?}");
    let status = daemon.status(job).expect("status");
    assert!(
        status.contains("\"computed\":6"),
        "no double count: {status}"
    );

    // And the report is still bit-identical to an in-process run.
    let remote_csv = client.report(Some(job), Format::Csv).expect("report");
    let local_csv = CampaignFile::parse(CAMPAIGN)
        .expect("toml")
        .to_campaign(None)
        .run()
        .to_csv();
    assert_eq!(remote_csv, local_csv, "expiry must not change results");

    client.shutdown().expect("shutdown");
    server.join().expect("server");
}

/// A record that does not decode, or that answers the wrong trial,
/// sends the trial back to the queue instead of poisoning the job.
#[test]
fn malformed_or_mismatched_records_requeue_the_trial() {
    let tmp = TempDir::new("badrecord");
    let (_daemon, addr, server) = pure_scheduler(&tmp, Duration::from_secs(30));
    let client = Client::new(addr.clone());
    let job = client.submit(CAMPAIGN).expect("submit");

    // Garbage payload: rejected, trial re-queued.
    let t = match client.lease().expect("lease") {
        LeaseGrant::Trial(t) => t,
        other => panic!("expected a trial, got {other:?}"),
    };
    let err = client
        .complete(t.lease, Ok("this is not json"))
        .expect_err("garbage record");
    assert!(err.to_string().contains("re-queued"), "{err}");
    assert!(
        !err.is_retryable(),
        "a rejected record is the worker's fault"
    );

    // Right shape, wrong trial: also rejected and re-queued.
    let t2 = match client.lease().expect("lease") {
        LeaseGrant::Trial(t2) => t2,
        other => panic!("expected a trial, got {other:?}"),
    };
    let cache = InstanceCache::new();
    let wrong_key = TrialKey {
        protocol: t2.protocol.clone(),
        graph: t2.graph.clone(),
        partitioner: t2.partitioner.clone(),
        seed: t2.seed.wrapping_add(1_000_000),
    };
    let wrong = compute_trial(&wrong_key, TransportKind::InProc, &FaultPlan::new(), &cache)
        .expect("compute");
    let err = client
        .complete(t2.lease, Ok(&wrong.to_json()))
        .expect_err("mismatched record");
    assert!(err.to_string().contains("re-queued"), "{err}");

    // Both trials are back in the queue: an honest worker finishes.
    assert_eq!(work_until_done(&addr, job), 6);
    client.shutdown().expect("shutdown");
    server.join().expect("server");
}

/// A trial that failed on its worker comes back as an error: the
/// daemon fails the job with the worker's message, as it does a panic
/// on its own pool, and counts the lease as completed.
#[test]
fn a_trial_failure_reported_by_a_worker_fails_the_job() {
    let tmp = TempDir::new("reported");
    let (daemon, addr, server) = pure_scheduler(&tmp, Duration::from_secs(30));
    let client = Client::new(addr);
    let job = client
        .submit(
            r#"
            [campaign]
            protocols = ["edge/theorem2"]
            graphs    = ["near-regular(n=24,d=4)"]
            seeds     = "0..1"
            "#,
        )
        .expect("submit");
    let t = match client.lease().expect("lease") {
        LeaseGrant::Trial(t) => t,
        other => panic!("expected a trial, got {other:?}"),
    };
    assert!(
        client
            .complete(t.lease, Err("trial panicked: boom"))
            .expect("complete"),
        "the daemon takes the failure"
    );
    let status = daemon.status(job).expect("status");
    assert!(status.contains("\"state\":\"failed\""), "{status}");
    assert!(status.contains("trial panicked: boom"), "{status}");
    assert_eq!(stat(&daemon, "leases_completed"), 1);
    assert_eq!(stat(&daemon, "leases_outstanding"), 0);
    client.shutdown().expect("shutdown");
    server.join().expect("server");
}

/// A campaign that declares chaos ships its fault plan inside every
/// lease, the worker re-injects it, and — because every declared
/// fault is recovered below the meter — the report still matches a
/// fault-free in-process run byte for byte. The worker's reconnect
/// telemetry, piggybacked on the lease request, lands in `stats`.
#[test]
fn faulted_campaigns_ship_the_chaos_plan_with_every_lease() {
    const FAULTED: &str = r#"
        [campaign]
        protocols = ["edge/theorem2", "baseline/send-everything"]
        graphs    = ["near-regular(n=24,d=4)"]
        seeds     = "0..3"
        transport = "tcp"
        fault     = "sever@2,corrupt@1"
    "#;
    let _counter = RECONNECT_COUNTER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let tmp = TempDir::new("chaos");
    let (_daemon, addr, server) = pure_scheduler(&tmp, Duration::from_secs(30));
    let client = Client::new(addr.clone());
    let job = client.submit(FAULTED).expect("submit");

    // This worker claims it survived two outages getting here; the
    // telemetry rides the lease request itself.
    let t = match client.lease_reporting(2, 5_000_000).expect("lease") {
        LeaseGrant::Trial(t) => t,
        other => panic!("expected a trial, got {other:?}"),
    };
    assert_eq!(
        t.fault, "sever@2,corrupt@1",
        "the lease must carry the campaign's fault plan"
    );
    let record = compute(&t, &InstanceCache::new());
    assert!(client
        .complete(t.lease, Ok(&record.to_json()))
        .expect("complete"));

    // `work_one` drains the rest, re-injecting each lease's plan.
    assert_eq!(work_until_done(&addr, job), 5);

    // Chaos recovered below the meter: byte-identical to a fault-free
    // in-process run of the same grid.
    let remote_csv = client.report(Some(job), Format::Csv).expect("report");
    let local_csv = CampaignFile::parse(CAMPAIGN)
        .expect("toml")
        .to_campaign(None)
        .run()
        .to_csv();
    assert_eq!(remote_csv, local_csv, "faults must not change results");

    // The piggybacked outage count surfaced in the daemon's stats.
    let stats = client.stats().expect("stats");
    let stats = stats.as_object().expect("object");
    assert_eq!(stats["worker_reconnects"].as_u64(), Some(2), "{stats:?}");

    client.shutdown().expect("shutdown");
    server.join().expect("server");
}

/// A `lease` that finds the queue empty waits there: sent before any
/// job exists, it returns a trial once one is submitted.
#[test]
fn a_lease_sent_before_any_job_returns_a_trial_once_one_is_submitted() {
    let tmp = TempDir::new("held");
    let (daemon, addr, server) = pure_scheduler(&tmp, Duration::from_secs(30));
    let worker = Client::new(addr.clone());
    let client = Client::new(addr.clone());
    let job = std::thread::scope(|scope| {
        let held = scope.spawn(|| worker.lease().expect("lease"));
        wait_until_held(&daemon, 1);
        let job = client.submit(CAMPAIGN).expect("submit");
        let t = match held.join().expect("worker") {
            LeaseGrant::Trial(t) => t,
            other => panic!("the held lease must get the new trial, got {other:?}"),
        };
        let record = compute(&t, &InstanceCache::new());
        assert!(worker
            .complete(t.lease, Ok(&record.to_json()))
            .expect("complete"));
        job
    });
    assert_eq!(work_until_done(&addr, job), 5);
    client.shutdown().expect("shutdown");
    server.join().expect("server");
}

/// `shutdown` wakes a held lease, which answers `stop` at once — not
/// at the end of its hold, and not only once the drain is over: here
/// the drain still waits on another worker's trial.
#[test]
fn shutdown_answers_a_held_lease_with_stop() {
    const ONE_TRIAL: &str = r#"
        [campaign]
        protocols = ["edge/theorem2"]
        graphs    = ["near-regular(n=24,d=4)"]
        seeds     = "0..1"
    "#;
    let tmp = TempDir::new("stop");
    let (daemon, addr, server) = pure_scheduler(&tmp, Duration::from_secs(30));
    let busy = Client::new(addr.clone());
    busy.submit(ONE_TRIAL).expect("submit");
    let t = match busy.lease().expect("lease") {
        LeaseGrant::Trial(t) => t,
        other => panic!("expected a trial, got {other:?}"),
    };
    let idle = Client::new(addr.clone());
    let (grant, waited) = std::thread::scope(|scope| {
        let asked = Instant::now();
        let held = scope.spawn(|| idle.lease().expect("lease"));
        wait_until_held(&daemon, 1);
        let drain = scope.spawn(|| Client::new(addr.clone()).shutdown());
        let grant = held.join().expect("idle worker");
        let waited = asked.elapsed();
        // Finish the drain before asserting, so a failure cannot hang.
        let record = compute(&t, &InstanceCache::new());
        assert!(busy
            .complete(t.lease, Ok(&record.to_json()))
            .expect("complete"));
        drain.join().expect("drain").expect("shutdown");
        (grant, waited)
    });
    server.join().expect("server");
    assert_eq!(grant, LeaseGrant::Stop);
    // Left to run out, the daemon's one-second hold would answer no
    // sooner than a second after the ask.
    assert!(waited < Duration::from_secs(1), "{waited:?}");
}

/// A held lease whose worker hung up takes no trial: the daemon checks
/// the connection before handing the trial out, leaves it queued and
/// closes the connection, so no lease has to expire before a live
/// worker gets it.
#[test]
fn a_held_lease_whose_worker_hung_up_takes_no_trial() {
    let tmp = TempDir::new("hungup");
    // Short enough that a trial stranded on the dead connection would
    // fail the assertions in seconds rather than hang the test.
    let (daemon, addr, server) = pure_scheduler(&tmp, Duration::from_secs(2));
    let mut dead = Stream::connect(&addr).expect("dial");
    dead.write_all(b"{\"op\":\"lease\"}\n").expect("send lease");
    wait_until_held(&daemon, 1);
    drop(dead);

    let client = Client::new(addr.clone());
    let job = client.submit(CAMPAIGN).expect("submit");
    assert_eq!(work_until_done(&addr, job), 6);
    assert_eq!(stat(&daemon, "leases_expired"), 0);
    assert_eq!(stat(&daemon, "leases_issued"), 6);
    assert_eq!(stat(&daemon, "leases_held"), 0);
    client.shutdown().expect("shutdown");
    server.join().expect("server");
}

/// A worker that holds its trial past the daemon's io timeout finds
/// its kept connection closed; `complete` re-dials once, lands, and
/// counts as no reconnect.
#[test]
fn a_kept_connection_closed_by_the_io_timeout_is_redialed() {
    let _counter = RECONNECT_COUNTER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let tmp = TempDir::new("redial");
    let (daemon, addr, server) = scheduler_with(
        &tmp,
        DaemonConfig {
            workers: 0,
            io_timeout: Duration::from_millis(100),
            ..DaemonConfig::default()
        },
    );
    let reconnects = stat(&daemon, "worker_reconnects");
    let client = Client::new(addr.clone());
    let job = client.submit(CAMPAIGN).expect("submit");
    let t = match client.lease().expect("lease") {
        LeaseGrant::Trial(t) => t,
        other => panic!("expected a trial, got {other:?}"),
    };
    let record = compute(&t, &InstanceCache::new());
    // Past the io timeout, the daemon has closed the kept connection.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        client
            .complete(t.lease, Ok(&record.to_json()))
            .expect("complete on a re-dialed connection"),
        "the lease is still live"
    );
    assert_eq!(work_until_done(&addr, job), 5);
    assert_eq!(stat(&daemon, "leases_expired"), 0);
    assert_eq!(stat(&daemon, "worker_reconnects"), reconnects);
    client.shutdown().expect("shutdown");
    server.join().expect("server");
}
