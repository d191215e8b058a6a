//! The distributed acceptance tests, across real process boundaries:
//! a scheduler-only `bichrome serve` daemon plus two `bichrome work`
//! worker *processes* execute a TCP-transport campaign over the wire,
//! and the daemon's store reports bit-identically to an in-process
//! run of the same grid; and a worker whose trials fail reports the
//! failure and lives on.

use bichrome_cli::dispatch;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A unique scratch directory (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bichrome-dist-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kills the child on drop so a failing assertion can't leak
/// processes.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn call(args: &[&str]) -> Result<String, String> {
    dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

/// The campaign under test asks for real TCP sessions, so the
/// workers' protocol rounds cross actual sockets twice over: worker ↔
/// daemon for scheduling, Alice ↔ Bob inside each trial. The protocol
/// axis is listed in store-canonical (sorted) order so the offline
/// store report and the in-process run render cells identically.
const CAMPAIGN: &str = r#"
[campaign]
protocols = ["baseline/send-everything", "edge/theorem2"]
graphs    = ["near-regular(n=24,d=4)"]
seeds     = "0..3"
transport = "tcp"
"#;

/// A scheduler-only daemon on an ephemeral TCP port, and the address
/// it announced: with no local pool, any computed trial was computed
/// by a remote worker.
fn scheduler(exe: &str, store: &str) -> (Reap, String) {
    let mut daemon = Command::new(exe)
        .args([
            "serve",
            store,
            "--addr",
            "tcp:127.0.0.1:0",
            "--no-local-workers",
        ])
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let addr = {
        let stderr = daemon.stderr.take().expect("daemon stderr");
        let mut line = String::new();
        BufReader::new(stderr)
            .read_line(&mut line)
            .expect("daemon announces itself");
        line.trim()
            .strip_prefix("daemon listening at ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .to_string()
    };
    (Reap(daemon), addr)
}

#[test]
fn a_daemon_and_two_worker_processes_reproduce_the_in_process_report() {
    let tmp = TempDir::new("e2e");
    let toml = tmp.path("campaign.toml");
    let store = tmp.path("store");
    std::fs::write(&toml, CAMPAIGN).expect("write campaign file");
    let exe = env!("CARGO_BIN_EXE_bichrome");
    let (mut daemon, addr) = scheduler(exe, &store);

    // Two worker processes pulling from it.
    let workers: Vec<Reap> = (0..2)
        .map(|_| {
            Reap(
                Command::new(exe)
                    .args(["work", "--connect", &addr])
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("spawn worker"),
            )
        })
        .collect();

    // Submit and watch to completion: every trial computes (remotely).
    let watched = call(&["submit", &toml, "--addr", &addr, "--watch"]).expect("submit");
    assert!(
        watched.contains("computed 6 trials (0 skipped via store)"),
        "{watched}"
    );

    // The daemon's own ledger agrees that workers did all six.
    let stats = call(&["stats", "--addr", &addr]).expect("stats");
    assert!(stats.contains("leases_completed: 6"), "{stats}");
    assert!(stats.contains("leases_outstanding: 0"), "{stats}");

    // Stop the daemon; it checkpoints the store and exits cleanly.
    call(&["shutdown", "--addr", &addr]).expect("shutdown");
    let status = daemon.0.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited {status}");
    // The drain answered the workers' held leases with `stop`, so
    // they exit; Reap reclaims any that has not yet.
    drop(workers);

    // Acceptance: the distributed store reports bit-identically to a
    // plain in-process run of the same campaign.
    let remote_csv = call(&["report", &store, "--format", "csv"]).expect("offline report");
    let local_csv = call(&["run", &toml, "--format", "csv"]).expect("in-process run");
    assert_eq!(
        remote_csv, local_csv,
        "distributed execution must be bit-identical"
    );
}

/// A worker whose descriptor table is nearly full cannot open a trial's
/// TCP session. It reports that failure on `complete` instead of dying:
/// the job ends `failed` with the transport's message, the worker keeps
/// leasing until the drain tells it to stop, and `shutdown` returns.
#[test]
fn a_worker_that_cannot_open_a_session_fails_the_job_and_lives_on() {
    let tmp = TempDir::new("nofds");
    let toml = tmp.path("campaign.toml");
    std::fs::write(&toml, CAMPAIGN).expect("write campaign file");
    let exe = env!("CARGO_BIN_EXE_bichrome");
    let (mut daemon, addr) = scheduler(exe, &tmp.path("store"));
    let mut worker = Reap(
        Command::new("sh")
            .args(["-c", "ulimit -n 8; exec \"$0\" work --connect \"$1\""])
            .args([exe, addr.as_str()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn worker"),
    );

    let submitted = call(&["submit", &toml, "--addr", &addr]).expect("submit");
    assert_eq!(submitted, "job 1\n");
    // Poll with a deadline: a worker that dies on its lease leaves the
    // job running for good.
    let deadline = Instant::now() + Duration::from_secs(60);
    while call(&["jobs", "--addr", &addr])
        .expect("jobs")
        .contains("running")
    {
        assert!(Instant::now() < deadline, "the job never ended");
        std::thread::sleep(Duration::from_millis(20));
    }
    let ended = call(&["watch", "1", "--addr", &addr]).expect("watch");
    assert!(ended.contains("job 1 failed"), "{ended}");
    assert!(
        ended.contains("cannot set up tcp transport"),
        "the job carries the worker's message: {ended}"
    );
    let stats = call(&["stats", "--addr", &addr]).expect("stats");
    assert!(stats.contains("leases_completed: 1\n"), "{stats}");
    assert!(stats.contains("leases_expired: 0\n"), "{stats}");

    call(&["shutdown", "--addr", &addr]).expect("shutdown returns");
    let status = daemon.0.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited {status}");
    let status = worker.0.wait().expect("worker exit");
    assert!(status.success(), "the worker exits 0 on stop: {status}");
}
