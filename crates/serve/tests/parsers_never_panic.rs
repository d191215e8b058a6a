//! The daemon parses what it is sent: request lines, and the campaign
//! TOML inside a `submit`. Mutated valid inputs — byte flips,
//! deletions, truncations and duplicated spans — must come back as a
//! value or an `Err`, never as a panic.

use bichrome_runner::CampaignFile;
use bichrome_serve::Request;
use proptest::prelude::*;

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
    fn mutated_request_lines_parse_or_err(which in 0usize..13, edits in edits()) {
        let lines = request_lines();
        let line = mutate(&lines[which % lines.len()], &edits);
        if let Ok(Request::Submit { campaign }) = Request::parse(&line) {
            parse_campaign(&campaign);
        }
    }
}

#[test]
fn the_unmutated_inputs_parse() {
    CampaignFile::parse(CAMPAIGN).expect("the campaign seed is valid");
    for line in request_lines() {
        Request::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
}
