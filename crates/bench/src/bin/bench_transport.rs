//! **bench-transport** — the wire-layer benchmark: writes
//! `BENCH_transport.json` so CI can chart three things across PRs:
//!
//! 1. **Per-exchange latency.** One two-party session per transport
//!    (`inproc` / `pipe` / `tcp`) ping-pongs a small message a few
//!    thousand times; ns per exchange, best-of-3. The metered stats
//!    are asserted identical across transports — the wire must never
//!    change the numbers, only the clock. A fourth row repeats the
//!    TCP session under a recoverable fault plan (sever + corrupt +
//!    short reads) and asserts the stats *still* match: chaos lives
//!    below the meter, so it may only cost wall-clock.
//! 2. **Frame batching.** Streams frames over a real loopback TCP
//!    socket two ways: through the `FramedLink`-style `BufWriter`
//!    (header + payload coalesce into one syscall per frame) and
//!    through the raw unbuffered stream (two syscalls per frame).
//!    Records both timings and the speedup.
//! 3. **Distributed throughput.** The same campaign executed by the
//!    daemon's local pool (`workers = 0` remote) and by a
//!    scheduler-only daemon with 2 / 4 remote workers pulling
//!    `lease`/`complete` over a real TCP socket; trials/sec each.
//!
//! ```sh
//! cargo run --release -p bichrome-bench --bin bench_transport [out.json]
//! ```

use bichrome_comm::session::run_two_party_ctx_on;
use bichrome_comm::transport::{read_frame, write_frame};
use bichrome_comm::{with_session_faults, BitWriter, CommStats, FaultPlan, Message, TransportKind};
use bichrome_runner::{compute_trial, InstanceCache};
use bichrome_serve::{Addr, Client, Daemon, DaemonConfig, LeaseGrant, Listener};
use bichrome_store::TrialKey;
use std::io::{BufReader, BufWriter as IoBufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

/// Ping-pong exchanges per latency session.
const EXCHANGES: u64 = 2_000;

/// Frames streamed per batching pass.
const FRAMES: u64 = 20_000;

/// Trials in the distributed-throughput campaign.
const TRIALS: u64 = 24;

/// A scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bichrome-bench-transport-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Times `EXCHANGES` round-synchronous exchanges over `kind`; returns
/// (wall seconds, the metered stats) — the stats must match across
/// transports. Both parties run the same script: one `exchange` per
/// round, each verifying the peer echoed the round index. Every
/// exchange also lands in a per-transport obs histogram
/// (`bench_exchange_nanos`), so the written percentiles cover both
/// parties across all best-of-3 passes.
fn time_exchanges(kind: TransportKind) -> (f64, CommStats) {
    let hist = exchange_hist(kind);
    let script = move |ep: &bichrome_comm::Endpoint| {
        for i in 0..EXCHANGES {
            let mut w = BitWriter::new();
            w.write_uint(i % 64, 6);
            let one = Instant::now();
            let reply = ep.exchange(w.finish());
            hist.observe(one.elapsed().as_nanos() as u64);
            assert_eq!(reply.reader().read_uint(6), i % 64);
        }
    };
    let started = Instant::now();
    let (_, _, stats) = run_two_party_ctx_on(
        kind,
        0,
        {
            let script = script.clone();
            move |ctx| script(&ctx.endpoint)
        },
        move |ctx| script(&ctx.endpoint),
    );
    (started.elapsed().as_secs_f64(), stats)
}

/// The per-transport exchange-latency histogram.
fn exchange_hist(kind: TransportKind) -> bichrome_obs::Histogram {
    bichrome_obs::histogram_labeled("bench_exchange_nanos", &[("transport", &kind.to_string())])
}

/// [`time_exchanges`] over TCP under a recoverable fault plan — one
/// severed connection, one corrupted frame, and a few short reads.
/// The wall-clock row prices the self-healing machinery; the metered
/// stats are asserted untouched (faults live below the meter).
fn time_faulted_exchanges(plan: &FaultPlan) -> (f64, CommStats) {
    with_session_faults(plan, || time_exchanges(TransportKind::Tcp))
}

/// A ~32-byte frame payload, like a real protocol round's message.
fn bench_message() -> Message {
    let mut w = BitWriter::new();
    for i in 0..256u64 {
        w.write_bit(i % 3 == 0);
    }
    w.finish()
}

/// Streams `FRAMES` frames over loopback TCP and waits for the
/// reader's ack. `batched` sends each frame through a `BufWriter`
/// (one flush = one syscall per frame, as `FramedLink` does);
/// unbatched writes header and payload straight to the socket (two
/// syscalls per frame).
fn time_frames(batched: bool) -> f64 {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let reader_side = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for _ in 0..FRAMES {
            let msg = read_frame(&mut reader).expect("frame");
            assert_eq!(msg.len_bits(), 256);
        }
        // One ack byte so the writer's clock covers full delivery.
        (&stream).write_all(&[1]).expect("ack");
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let msg = bench_message();

    let started = Instant::now();
    if batched {
        let mut w = IoBufWriter::new(stream.try_clone().expect("clone"));
        for _ in 0..FRAMES {
            write_frame(&mut w, &msg).expect("send");
            w.flush().expect("flush");
        }
    } else {
        for _ in 0..FRAMES {
            write_frame(&mut stream, &msg).expect("send");
        }
    }
    let mut ack = [0u8; 1];
    stream.read_exact(&mut ack).expect("ack");
    let secs = started.elapsed().as_secs_f64();
    reader_side.join().expect("reader thread");
    secs
}

/// The distributed-throughput campaign: one deterministic protocol,
/// `TRIALS` disjoint seeds, sessions over TCP.
fn campaign_toml() -> String {
    format!(
        "[campaign]\n\
         protocols = [\"edge/theorem2\"]\n\
         graphs    = [\"near-regular(n=48,d=4)\"]\n\
         seeds     = \"0..{TRIALS}\"\n\
         transport = \"tcp\"\n"
    )
}

/// One worker thread: pull leases over the socket, compute, complete,
/// until the daemon says stop (the watcher below ends the measurement,
/// then shuts the daemon down).
fn worker_loop(addr: &Addr) -> u64 {
    let client = Client::new(addr.clone());
    let cache = InstanceCache::new();
    let mut computed = 0;
    loop {
        match client.lease().expect("lease") {
            LeaseGrant::Trial(t) => {
                let key = TrialKey {
                    protocol: t.protocol.clone(),
                    graph: t.graph.clone(),
                    partitioner: t.partitioner.clone(),
                    seed: t.seed,
                };
                let kind: TransportKind = t.transport.parse().expect("transport");
                let fault: FaultPlan = t.fault.parse().expect("fault");
                let record = compute_trial(&key, kind, &fault, &cache).expect("compute");
                client
                    .complete(t.lease, &record.to_json())
                    .expect("complete");
                computed += 1;
            }
            LeaseGrant::Idle => {}
            LeaseGrant::Stop => break,
        }
    }
    computed
}

/// Submits the campaign to a fresh daemon and times it to completion.
/// `remote_workers = 0` uses the daemon's own local pool; otherwise
/// the daemon is a pure scheduler and `remote_workers` threads pull
/// trials over a real TCP socket.
fn time_workers(remote_workers: usize) -> f64 {
    let dir = scratch(&format!("workers-{remote_workers}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let daemon = Daemon::start(
        dir.join("store"),
        DaemonConfig {
            local_pool: remote_workers == 0,
            ..DaemonConfig::default()
        },
    )
    .expect("start daemon");
    let listener = Listener::bind(&Addr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = Addr::parse(&listener.local_addr().to_string()).expect("effective addr");
    let server = {
        let daemon = daemon.clone();
        std::thread::spawn(move || daemon.serve(listener))
    };

    let client = Client::new(addr.clone());
    let started = Instant::now();
    let wall = std::thread::scope(|scope| {
        for _ in 0..remote_workers {
            let addr = addr.clone();
            scope.spawn(move || worker_loop(&addr));
        }
        let job = client.submit(&campaign_toml()).expect("submit");
        let end = client.watch(job, |_trial| {}).expect("watch");
        assert_eq!(
            end.as_object().expect("end")["state"].as_str(),
            Some("done"),
            "job must finish"
        );
        let wall = started.elapsed().as_secs_f64();
        // Held leases answer `stop`, so the workers exit.
        client.shutdown().expect("shutdown");
        wall
    });
    server.join().expect("serve thread").expect("serve exits");
    let _ = std::fs::remove_dir_all(&dir);
    wall
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_transport.json".to_string());

    // Per-exchange latency, best-of-3 per transport — with the
    // transport-invariance assertion on the metered stats.
    println!("bench-transport: {EXCHANGES} ping-pong exchanges per session...");
    let mut exchange_ns = Vec::new();
    let mut baseline: Option<CommStats> = None;
    for kind in TransportKind::ALL {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let (secs, stats) = time_exchanges(kind);
            match &baseline {
                None => baseline = Some(stats),
                Some(b) => assert_eq!(
                    &stats, b,
                    "{kind} must meter identically to the other transports"
                ),
            }
            best = best.min(secs);
        }
        let ns = best * 1e9 / EXCHANGES as f64;
        println!("  {kind:>6}: {ns:>9.0} ns/exchange");
        let hist = exchange_hist(kind);
        let percentiles = (
            hist.percentile(50.0),
            hist.percentile(95.0),
            hist.percentile(99.0),
        );
        exchange_ns.push((kind, ns, percentiles));
    }

    // The same TCP session under a recoverable fault plan, best-of-3
    // — prices reconnect/retransmit against the clean tcp row above.
    let plan = FaultPlan::new().sever_at(16).corrupt_at(64).short(8);
    let clean_stats = baseline.clone().expect("clean baseline stats");
    let mut faulted_best = f64::INFINITY;
    for _ in 0..3 {
        let (secs, stats) = time_faulted_exchanges(&plan);
        assert_eq!(
            stats, clean_stats,
            "faults must stay below the meter: stats are transport- and fault-invariant"
        );
        faulted_best = faulted_best.min(secs);
    }
    let faulted_ns = faulted_best * 1e9 / EXCHANGES as f64;
    println!("  tcp+fault[{plan}]: {faulted_ns:>9.0} ns/exchange");

    // Frame batching on a raw loopback socket.
    let unbatched = time_frames(false);
    let batched = time_frames(true);
    println!(
        "  {FRAMES} frames over TCP: batched {batched:.3}s · unbatched {unbatched:.3}s · {:.2}x",
        unbatched / batched
    );

    // Distributed throughput at 0 / 2 / 4 remote workers.
    println!("bench-transport: {TRIALS}-trial campaign per worker scale...");
    let scales = [0usize, 2, 4];
    let walls: Vec<f64> = scales.iter().map(|&n| time_workers(n)).collect();
    for (&n, &wall) in scales.iter().zip(&walls) {
        println!(
            "  {n} remote worker(s): {wall:.3}s · {:.1} trials/sec",
            TRIALS as f64 / wall
        );
    }

    let mut w = bichrome_runner::json::Writer::object();
    w.field_str("benchmark", "transport");
    w.field_u64("exchanges", EXCHANGES);
    for (kind, ns, (p50, p95, p99)) in &exchange_ns {
        w.field_f64(&format!("{kind}_exchange_ns"), *ns);
        w.field_f64(&format!("{kind}_exchange_ns_p50"), *p50);
        w.field_f64(&format!("{kind}_exchange_ns_p95"), *p95);
        w.field_f64(&format!("{kind}_exchange_ns_p99"), *p99);
    }
    w.field_str("fault_plan", &plan.to_string());
    w.field_f64("tcp_faulted_exchange_ns", faulted_ns);
    w.field_u64("frames", FRAMES);
    w.field_f64("tcp_frames_batched_seconds", batched);
    w.field_f64("tcp_frames_unbatched_seconds", unbatched);
    w.field_f64("frame_batching_speedup", unbatched / batched);
    w.field_u64("campaign_trials", TRIALS);
    for (&n, &wall) in scales.iter().zip(&walls) {
        w.field_f64(&format!("workers_{n}_wall_seconds"), wall);
        w.field_f64(&format!("workers_{n}_trials_per_sec"), TRIALS as f64 / wall);
    }
    let json = w.finish();
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("→ {out_path}");
}
