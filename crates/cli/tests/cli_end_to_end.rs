//! End-to-end tests of the `bichrome` command surface, driven
//! in-process through `dispatch` (the binary `main` is a shim over
//! it): run → warm run → report → diff, against real campaign files
//! and stores on disk.

use bichrome_cli::dispatch;
use std::path::PathBuf;

/// A unique scratch directory (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bichrome-cli-test-{tag}-{}-{}",
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

fn call(args: &[&str]) -> Result<String, String> {
    dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

/// A small deterministic campaign (fixed partitioner, deterministic
/// protocols) so outputs are stable across runs.
const CAMPAIGN: &str = r#"
[campaign]
protocols    = ["edge/theorem2", "edge/theorem3-zero-comm"]
graphs       = ["near-regular(n=24,d=4)"]
partitioners = ["alternating"]
seeds        = "0..3"
"#;

#[test]
fn run_then_warm_run_then_report_round_trips() {
    let tmp = TempDir::new("roundtrip");
    let toml = tmp.path("campaign.toml");
    let store = tmp.path("store");
    std::fs::write(&toml, CAMPAIGN).expect("write campaign file");

    // Cold run: everything computes, and the stats line says so.
    let cold = call(&["run", &toml, "--store", &store]).expect("cold run");
    assert!(
        cold.contains("computed 6 trials (0 skipped via store)"),
        "{cold}"
    );
    assert!(cold.contains("edge/theorem2"), "{cold}");

    // Warm run: the store holds the whole grid — nothing computes.
    let warm = call(&["run", &toml, "--store", &store]).expect("warm run");
    assert!(
        warm.contains("computed 0 trials (6 skipped via store)"),
        "{warm}"
    );

    // The warm run's CSV equals the cold run's (bit-identical grid).
    let cold_csv = call(&["run", &toml, "--store", &store, "--format", "csv"]).expect("csv");
    assert!(cold_csv.starts_with("protocol,graph,"), "{cold_csv}");

    // `report` re-aggregates purely from the store. This campaign's
    // canonical cell order matches the axis order, so the CSV matches
    // the run's exactly.
    let report_csv = call(&["report", &store, "--format", "csv"]).expect("report csv");
    assert_eq!(
        report_csv, cold_csv,
        "store re-aggregation must be faithful"
    );
    let report_json = call(&["report", &store, "--format", "json"]).expect("report json");
    assert!(report_json.contains("\"cells\":2"), "{report_json}");

    // `--serial` must not change anything either.
    let serial = call(&[
        "run", &toml, "--store", &store, "--format", "csv", "--serial",
    ])
    .expect("serial run");
    assert_eq!(serial, cold_csv);
}

#[test]
fn resume_requires_a_store_and_finishes_a_partial_run() {
    let tmp = TempDir::new("resume");
    let toml = tmp.path("campaign.toml");
    let half_toml = tmp.path("half.toml");
    let store = tmp.path("store");
    std::fs::write(&toml, CAMPAIGN).expect("write campaign file");
    std::fs::write(&half_toml, CAMPAIGN.replace("0..3", "0..1")).expect("write half file");

    let err = call(&["resume", &toml]).expect_err("no store anywhere");
    assert!(err.contains("resume needs a store"), "{err}");

    // Simulate a killed run: only the first seed got computed.
    let half = call(&["run", &half_toml, "--store", &store]).expect("half run");
    assert!(half.contains("computed 2 trials"), "{half}");

    // Resume the full grid: only the missing two-thirds compute.
    let resumed = call(&["resume", &toml, "--store", &store]).expect("resume");
    assert!(
        resumed.contains("computed 4 trials (2 skipped via store)"),
        "{resumed}"
    );

    // And the final report equals a storeless fresh run of the grid.
    let from_store = call(&["report", &store, "--format", "csv"]).expect("report");
    let fresh = call(&["run", &toml, "--format", "csv"]).expect("fresh run");
    assert_eq!(from_store, fresh, "resumed grid must be bit-identical");
}

#[test]
fn diff_compares_two_stores_cell_by_cell() {
    let tmp = TempDir::new("diff");
    let toml_a = tmp.path("a.toml");
    let toml_b = tmp.path("b.toml");
    let (store_a, store_b) = (tmp.path("store-a"), tmp.path("store-b"));
    std::fs::write(&toml_a, CAMPAIGN).expect("write");
    // b shares one protocol with a and adds a different one.
    std::fs::write(
        &toml_b,
        CAMPAIGN.replace("edge/theorem3-zero-comm", "baseline/send-everything"),
    )
    .expect("write");
    call(&["run", &toml_a, "--store", &store_a]).expect("run a");
    call(&["run", &toml_b, "--store", &store_b]).expect("run b");

    let out = call(&["diff", &store_a, &store_b]).expect("diff");
    assert!(out.contains("1 shared cell(s)"), "{out}");
    // The shared deterministic cell is identical across stores.
    assert!(out.contains("1.00x"), "{out}");
    assert!(out.contains("only in a: edge/theorem3-zero-comm"), "{out}");
    assert!(out.contains("only in b: baseline/send-everything"), "{out}");
}

/// The daemon through the CLI surface: `serve` in a thread, then
/// `ping` / `submit --watch` / `jobs` / `shutdown` as clients, ending
/// with an offline `report` against the daemon's checkpointed store.
#[test]
fn daemon_serves_submissions_over_a_socket() {
    let tmp = TempDir::new("daemon");
    let toml = tmp.path("campaign.toml");
    std::fs::write(&toml, CAMPAIGN).expect("write campaign file");
    let store = tmp.path("store");
    let addr = format!("unix:{}", tmp.path("daemon.sock"));

    let server = {
        let (store, addr) = (store.clone(), addr.clone());
        std::thread::spawn(move || call(&["serve", &store, "--addr", &addr]))
    };
    for _ in 0..200 {
        if call(&["ping", "--addr", &addr]).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let cold = call(&["submit", &toml, "--addr", &addr, "--watch"]).expect("cold submit");
    assert!(cold.contains("job 1"), "{cold}");
    assert!(
        cold.contains("computed 6 trials (0 skipped via store)"),
        "{cold}"
    );

    let warm = call(&["submit", &toml, "--addr", &addr, "--watch"]).expect("warm submit");
    assert!(
        warm.contains("computed 0 trials (6 skipped via store)"),
        "{warm}"
    );

    let jobs = call(&["jobs", "--addr", &addr]).expect("jobs");
    assert!(jobs.contains("2 job(s)"), "{jobs}");
    assert_eq!(jobs.matches("done").count(), 2, "{jobs}");

    call(&["shutdown", "--addr", &addr]).expect("shutdown");
    let stopped = server.join().expect("serve thread").expect("serve exits");
    assert!(stopped.contains("stopped"), "{stopped}");
    assert!(
        call(&["ping", "--addr", &addr]).is_err(),
        "daemon must be gone"
    );

    // The checkpointed store is a plain store: offline report works.
    let csv = call(&["report", &store, "--format", "csv"]).expect("offline report");
    assert!(csv.starts_with("protocol,graph,"), "{csv}");
    assert_eq!(csv.lines().count(), 1 + 2, "{csv}");
}

/// `store merge` unions stores with identical shared records and
/// refuses genuinely conflicting ones.
#[test]
fn store_merge_unions_and_refuses_conflicts() {
    use bichrome_store::Store;

    let tmp = TempDir::new("merge");
    let toml_a = tmp.path("a.toml");
    let toml_b = tmp.path("b.toml");
    let (store_a, store_b) = (tmp.path("store-a"), tmp.path("store-b"));
    std::fs::write(&toml_a, CAMPAIGN).expect("write");
    // b shares the deterministic edge/theorem2 cells with a.
    std::fs::write(
        &toml_b,
        CAMPAIGN.replace("edge/theorem3-zero-comm", "baseline/send-everything"),
    )
    .expect("write");
    call(&["run", &toml_a, "--store", &store_a]).expect("run a");
    call(&["run", &toml_b, "--store", &store_b]).expect("run b");

    // Union: 6 + 6 records with 3 identical shared keys -> 9.
    let merged = tmp.path("merged");
    let out = call(&["store", "merge", &store_a, &store_b, &merged]).expect("merge");
    assert!(out.contains("merged 6 + 6 records -> 9 records"), "{out}");
    let report = call(&["report", &merged, "--format", "json"]).expect("merged report");
    assert!(report.contains("\"cells\":3"), "{report}");

    // A store holding the same key with a *different* payload is a
    // conflict the merge must refuse.
    let conflicted = tmp.path("conflicted");
    {
        let a = Store::open_existing(&store_a).expect("open a");
        let key = a.iter().next().expect("a has records").key.clone();
        let mut c = Store::open_or_create(&conflicted).expect("create");
        c.append(key, "{\"tampered\":1}".to_string())
            .expect("append");
    }
    let out2 = tmp.path("out2");
    let err = call(&["store", "merge", &store_a, &conflicted, &out2]).expect_err("conflict");
    assert!(err.contains("conflict"), "{err}");

    // Sub-command surface errors are descriptive.
    let err = call(&["store", "merge", "just-one"]).expect_err("arity");
    assert!(err.contains("<a> <b> <out>"), "{err}");
    let err = call(&["store", "frob"]).expect_err("unknown sub");
    assert!(err.contains("unknown store subcommand"), "{err}");
}

#[test]
fn run_reports_declaration_errors_with_the_file_name() {
    let tmp = TempDir::new("badfile");
    let toml = tmp.path("bad.toml");
    std::fs::write(&toml, CAMPAIGN.replace("edge/theorem2", "edge/theorem9")).expect("write");
    let err = call(&["run", &toml]).expect_err("unknown protocol");
    assert!(
        err.contains("bad.toml") && err.contains("edge/theorem9"),
        "{err}"
    );
    std::fs::write(
        &toml,
        CAMPAIGN.replace("\"0..3\"", "\"0..18446744073709551615\""),
    )
    .expect("write");
    let err = call(&["run", &toml]).expect_err("over the trial cap");
    assert!(err.contains("bad.toml") && err.contains(" trials"), "{err}");
    let err = call(&["run", &tmp.path("missing.toml")]).expect_err("missing file");
    assert!(err.contains("missing.toml"), "{err}");
}

/// A spec whose generator would panic is refused at parse time: the
/// binary exits 1 and names it, rather than dying mid-run.
#[test]
fn run_refuses_graph_specs_whose_generator_panics() {
    let tmp = TempDir::new("badspec");
    let toml = tmp.path("bad.toml");
    for (graph, sizes) in [
        ("cycle(n=2)", ""),
        ("star(n=0)", ""),
        ("gnp(n=10,p=NaN)", ""),
        ("gnp(n=10,p=2)", ""),
        ("gnm(n=4,m=100,dmax=2)", ""),
        ("near-regular(n=4,d=9)", ""),
        ("path(n=5000000000)", ""),
        ("cycle(n=5)", "sizes = [2]"),
    ] {
        let campaign = CAMPAIGN.replace("near-regular(n=24,d=4)", graph);
        std::fs::write(&toml, format!("{campaign}{sizes}\n")).expect("write");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bichrome"))
            .args(["run", &toml])
            .output()
            .expect("run bichrome");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{graph} {sizes}: {stderr}");
        assert!(stderr.contains(graph), "{graph} {sizes}: {stderr}");
    }
}

/// A failed `accept` does not end `bichrome serve`. Under `ulimit -n
/// 32`, 64 held connections fill the daemon's descriptor table; once
/// they close, the daemon has counted its accept errors and still
/// answers `ping`, `metrics` and `shutdown`, and exits cleanly.
#[test]
fn serve_survives_accept_errors_from_a_full_descriptor_table() {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;
    use std::process::{Child, Command, Stdio};

    /// Kills the daemon on drop so a failing assertion leaks nothing.
    struct Reap(Child);
    impl Drop for Reap {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let tmp = TempDir::new("accept");
    let sock = tmp.path("daemon.sock");
    let addr = format!("unix:{sock}");
    let store = tmp.path("store");
    let mut daemon = Reap(
        Command::new("sh")
            .args(["-c", r#"ulimit -n 32 && exec "$0" "$@""#])
            .args([env!("CARGO_BIN_EXE_bichrome"), "serve", &store])
            .args(["--addr", &addr])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn daemon"),
    );
    // Announced before the accept loop starts. The pipe stays open
    // until the end so the daemon never writes into a closed one.
    let mut stderr = BufReader::new(daemon.0.stderr.take().expect("daemon stderr"));
    let mut line = String::new();
    stderr
        .read_line(&mut line)
        .expect("daemon announces itself");
    assert!(line.starts_with("daemon listening at "), "{line:?}");

    let flood: Vec<UnixStream> = (0..64)
        .filter_map(|_| UnixStream::connect(&sock).ok())
        .collect();
    // Long enough for the daemon to take connections until its table
    // is full, and to fail `accept` on the rest.
    std::thread::sleep(std::time::Duration::from_millis(300));
    drop(flood);

    let answers = (0..100).any(|_| {
        let ok = call(&["ping", "--addr", &addr]).is_ok();
        if !ok {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        ok
    });
    assert!(answers, "the daemon must still answer after the flood");
    let metrics = call(&["metrics", "--addr", &addr]).expect("metrics");
    let accept_errors = metrics
        .lines()
        .find_map(|l| l.strip_prefix("bichrome_daemon_accept_errors_total: "))
        .and_then(|n| n.parse::<u64>().ok());
    assert!(
        accept_errors.is_some_and(|n| n > 0),
        "the flood must have failed some accepts: {metrics}"
    );
    call(&["shutdown", "--addr", &addr]).expect("shutdown");
    let status = daemon.0.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited {status}");
    drop(stderr);
}
