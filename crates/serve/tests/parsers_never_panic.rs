//! The daemon parses what it is sent: request lines, the campaign
//! TOML inside a `submit`, and the `TrialRecord` JSON inside a
//! `complete`. Mutated valid inputs — byte flips, deletions,
//! truncations and duplicated spans — must come back as a value, an
//! `Err` or a re-queued trial, never as a panic.

use bichrome_runner::{
    compute_trial, Campaign, CampaignFile, FaultPlan, GraphSpec, InstanceCache, TransportKind,
    TrialRecord,
};
use bichrome_serve::json::Value;
use bichrome_serve::{Addr, Client, Daemon, DaemonConfig, LeaseGrant, Listener, Request};
use bichrome_store::TrialKey;
use proptest::prelude::*;
use std::sync::OnceLock;

const CAMPAIGN: &str = r#"
[campaign]
protocols    = ["edge/theorem2", "vertex/theorem1"]
graphs       = ["near-regular(n=24,d=4)", "gnm(n=30,m=40,dmax=5)", "cycle(n=9)"]
sizes        = [24, 48]
partitioners = ["alternating", "random(7)"]
seeds        = "0..3"
baseline     = "vertex/theorem1"
store        = "out/store"
parallel     = false
transport    = "pipe"
fault        = "delay:1,sever@2"
"#;

/// One valid line per request verb.
fn request_lines() -> Vec<String> {
    let mut lines: Vec<String> = [
        r#"{"op":"status","job":3}"#,
        r#"{"op":"jobs"}"#,
        r#"{"op":"watch","job":1}"#,
        r#"{"op":"report","job":2,"format":"csv"}"#,
        r#"{"op":"diff","a":1,"b":2}"#,
        r#"{"op":"cancel","job":4}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"metrics"}"#,
        r#"{"op":"ping"}"#,
        r#"{"op":"shutdown"}"#,
        r#"{"op":"lease","reconnects":2,"backoff_ns":1500}"#,
        r#"{"op":"complete","lease":7,"record":"{\"valid\":true,\"bits\":12}"}"#,
        r#"{"op":"complete","lease":8,"error":"trial panicked: cannot set up tcp transport"}"#,
    ]
    .map(str::to_string)
    .to_vec();
    lines.push(
        Request::Submit {
            campaign: CAMPAIGN.to_string(),
        }
        .encode(),
    );
    lines
}

/// Applies `(kind, at, len, byte)` edits in order: 0 flips the bits
/// of `byte` into one byte, 1 deletes a span, 2 truncates, 3 inserts
/// a copy of a span right after it.
fn mutate(text: &str, edits: &[(u8, usize, usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, at, len, byte) in edits {
        if bytes.is_empty() {
            break;
        }
        let at = at % bytes.len();
        let end = (at + len).min(bytes.len());
        match kind {
            0 => bytes[at] ^= byte.max(1),
            1 => {
                bytes.drain(at..end);
            }
            2 => bytes.truncate(at),
            _ => {
                let span = bytes[at..end].to_vec();
                bytes.splice(end..end, span);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses a campaign the way `bichrome run` and `submit` do.
fn parse_campaign(text: &str) {
    if let Ok(file) = CampaignFile::parse(text) {
        let _ = file.to_campaign(None);
    }
}

fn edits() -> impl Strategy<Value = Vec<(u8, usize, usize, u8)>> {
    proptest::collection::vec((0u8..4, 0usize..4096, 0usize..24, any::<u8>()), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutated_campaign_files_parse_or_err(edits in edits()) {
        parse_campaign(&mutate(CAMPAIGN, &edits));
    }

    #[test]
    fn mutated_request_lines_parse_or_err(which in 0usize..14, edits in edits()) {
        let lines = request_lines();
        let line = mutate(&lines[which % lines.len()], &edits);
        if let Ok(Request::Submit { campaign }) = Request::parse(&line) {
            parse_campaign(&campaign);
        }
    }

    #[test]
    fn mutated_records_decode_or_err(which in 0usize..8, edits in edits()) {
        let lines = record_lines();
        let _ = TrialRecord::from_json(&mutate(&lines[which % lines.len()], &edits));
    }
}

/// Real `TrialRecord::to_json()` lines: vertex, edge, zero-bit and
/// streaming records, which between them carry every optional field.
fn record_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        Campaign::new()
            .protocol_keys([
                "vertex/theorem1",
                "edge/theorem2",
                "edge/theorem3-zero-comm",
                "streaming/greedy-w",
            ])
            .graphs([GraphSpec::NearRegular { n: 12, d: 3 }])
            .seeds(0..2)
            .run()
            .cells
            .iter()
            .flat_map(|cell| &cell.report.trials)
            .map(TrialRecord::to_json)
            .collect()
    })
}

/// What a worker computes for a lease, as its `to_json()` line.
fn record_for(t: &bichrome_serve::TrialLease, cache: &InstanceCache) -> String {
    let key = TrialKey {
        protocol: t.protocol.clone(),
        graph: t.graph.clone(),
        partitioner: t.partitioner.clone(),
        seed: t.seed,
    };
    compute_trial(&key, TransportKind::InProc, &FaultPlan::new(), cache)
        .expect("a registry trial computes")
        .to_json()
}

/// Mutations of the record a lease asks for, fed to `complete_line`
/// on that live lease: each is accepted, or refused with the trial
/// re-queued, and the daemon serves on. Honest records then finish the
/// job, so the mutated records that were accepted also go through the
/// job's final aggregation.
#[test]
fn mutated_records_complete_or_requeue_on_a_live_lease() {
    const CASES: u32 = 300;
    let dir = std::env::temp_dir().join(format!("bichrome-fuzz-complete-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start(
        dir.join("store"),
        DaemonConfig {
            workers: 0,
            ..DaemonConfig::default()
        },
    )
    .expect("start");
    let addr = Addr::Unix(dir.join("daemon.sock"));
    let listener = Listener::bind(&addr).expect("bind");
    let server = {
        let daemon = daemon.clone();
        std::thread::spawn(move || daemon.serve(listener).expect("serve"))
    };
    let client = Client::new(addr);
    let job = client
        .submit(&format!(
            "[campaign]\nprotocols = [\"edge/theorem3-zero-comm\"]\n\
             graphs = [\"path(n=6)\"]\nseeds = \"0..{}\"\n",
            CASES + 20
        ))
        .expect("submit");
    let cache = InstanceCache::new();
    let lease = || match client.lease().expect("lease") {
        LeaseGrant::Trial(t) => t,
        other => panic!("the job has trials left, got {other:?}"),
    };
    let (mut accepted, mut requeued) = (0, 0);
    for case in 0..CASES {
        let t = lease();
        let edits = edits().sample(&mut proptest::rng_for_case(case));
        let line = mutate(&record_for(&t, &cache), &edits);
        let reply = Value::parse(&daemon.complete_line(t.lease, Ok(&line))).expect("JSON reply");
        let reply = reply.as_object().expect("object reply");
        match reply.get("ok") {
            Some(Value::Bool(true)) => {
                assert_eq!(reply.get("accepted"), Some(&Value::Bool(true)), "{line}");
                accepted += 1;
            }
            _ => {
                let error = reply.get("error").and_then(Value::as_str).expect("error");
                assert!(error.ends_with("trial re-queued"), "{line}: {error}");
                requeued += 1;
            }
        }
    }
    eprintln!("accepted {accepted} requeued {requeued}");
    assert!(accepted > 0 && requeued > 0, "both arms are reached");
    let remaining = || {
        let status = Value::parse(&daemon.status(job).expect("status")).expect("JSON");
        status.as_object().expect("object")["remaining"]
            .as_u64()
            .expect("remaining")
    };
    while remaining() > 0 {
        let t = lease();
        let line = record_for(&t, &cache);
        assert!(client
            .complete(t.lease, Ok(&line))
            .expect("an honest record"));
    }
    let status = daemon.status(job).expect("status");
    assert!(status.contains("\"state\":\"done\""), "{status}");
    client.shutdown().expect("shutdown");
    server.join().expect("server");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_unmutated_inputs_parse() {
    CampaignFile::parse(CAMPAIGN).expect("the campaign seed is valid");
    for line in request_lines() {
        Request::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
}
