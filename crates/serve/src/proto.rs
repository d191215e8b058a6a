//! The wire protocol: one JSON object per line, reusing the
//! workspace's hand-written codec ([`bichrome_store::json`]). A
//! connection stays open for any number of requests, answered in
//! order, until the client closes it, it sits idle past the daemon's
//! io timeout, or it carries `shutdown`.
//!
//! Requests are `{"op": "...", ...}`; responses are
//! `{"ok": true, ...}` or `{"ok": false, "error": "..."}`. The
//! `watch` request is the one streaming case: after the `ok` line the
//! daemon emits `{"event": "trial", ...}` lines, ending with
//! `{"event": "end", ...}`. A request line longer than
//! [`MAX_REQUEST_LINE`] is refused with an error line and the
//! connection closes.
//!
//! Trial seeds cross the wire as *strings*: the JSON parser holds
//! numbers as `f64`, which would corrupt seeds above 2⁵³.

use bichrome_store::json::{self, Value};

/// The longest request line the daemon reads, newline excluded. A
/// campaign declaration lists axes, not data, and a trial record is a
/// fixed set of counters, so the largest `submit` and `complete` lines
/// the test suites send stay under a kilobyte; 1 MiB leaves three
/// orders of magnitude of headroom and still bounds what one peer can
/// make a connection handler buffer.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Output format asked of `report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Rendered table.
    #[default]
    Text,
    /// Full `CampaignReport` JSON.
    Json,
    /// The pinned per-cell CSV.
    Csv,
}

impl Format {
    /// Parses `"text"` / `"json"` / `"csv"`.
    ///
    /// # Errors
    ///
    /// Names the unknown format.
    pub fn parse(s: &str) -> Result<Format, String> {
        match s {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            "csv" => Ok(Format::Csv),
            other => Err(format!("unknown format {other:?} (text|json|csv)")),
        }
    }
}

/// Why a daemon interaction failed, split by what the caller should
/// do about it: [`ProtoError::is_retryable`] separates transient
/// conditions (daemon unreachable or draining — back off and try
/// again) from permanent ones (malformed traffic, rejected requests —
/// retrying the same bytes can only fail the same way). The
/// self-healing worker loop branches on exactly this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// No daemon answered (connect/send/recv failed). Retryable: the
    /// daemon may be restarting, or the network flaking.
    Unreachable(String),
    /// The daemon answered but is shutting down. Retryable: a
    /// replacement daemon often comes up at the same address.
    Draining(String),
    /// A line failed to parse, or a response was missing required
    /// fields. Fatal: a protocol bug, not a transient condition.
    Malformed(String),
    /// The daemon processed the request and said no. Fatal: the same
    /// request would be refused again.
    Rejected(String),
}

impl ProtoError {
    /// Whether backing off and retrying the same request can succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ProtoError::Unreachable(_) | ProtoError::Draining(_))
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Unreachable(msg) => write!(f, "daemon unreachable: {msg}"),
            ProtoError::Draining(msg) => write!(f, "daemon draining: {msg}"),
            ProtoError::Malformed(msg) => write!(f, "malformed protocol traffic: {msg}"),
            ProtoError::Rejected(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Renders for the CLI's `Result<_, String>` surfaces; the typed
/// variant stays available to callers that branch on retryability.
impl From<ProtoError> for String {
    fn from(e: ProtoError) -> String {
        e.to_string()
    }
}

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit an inline campaign declaration (the TOML text itself,
    /// not a path — the daemon may not share a filesystem view with
    /// the client).
    Submit {
        /// The `[campaign]` TOML text.
        campaign: String,
    },
    /// Snapshot one job's progress.
    Status {
        /// Job id from `submit`.
        job: u64,
    },
    /// List every job the daemon knows.
    Jobs,
    /// Stream a job's per-trial progress until it ends.
    Watch {
        /// Job id from `submit`.
        job: u64,
    },
    /// Render a report: of one finished job, or (without `job`) of
    /// the daemon's whole store.
    Report {
        /// Finished job id; `None` aggregates the store.
        job: Option<u64>,
        /// Output format.
        format: Format,
    },
    /// Compare two finished jobs' reports (a is the baseline).
    Diff {
        /// Baseline job id.
        a: u64,
        /// Candidate job id.
        b: u64,
    },
    /// Cooperatively cancel a running job.
    Cancel {
        /// Job id from `submit`.
        job: u64,
    },
    /// Daemon-wide counters (instance cache, store, jobs).
    Stats,
    /// The process-wide observability registry
    /// ([`bichrome_obs::render_json`]) — every counter and histogram,
    /// in the same registry `GET /metrics` exposes in Prometheus text
    /// form.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Drain in-flight jobs, checkpoint the store, and exit.
    Shutdown,
    /// A remote worker asks for one trial to compute. The daemon
    /// answers with a trial descriptor plus a lease token as soon as
    /// one is queued, with `{"idle": true}` when the queue stayed
    /// empty for its one-second hold, or with `{"stop": true}` when it
    /// is draining with an empty queue and workers should exit. The
    /// request piggybacks the worker's self-healing telemetry since
    /// its last successful contact, so the daemon's registry
    /// aggregates reconnect behaviour across the whole fleet without
    /// a separate reporting channel.
    Lease {
        /// Outages survived since the last accepted request (absent
        /// on the wire = 0).
        reconnects: u64,
        /// Cumulative backoff slept during those outages, in
        /// nanoseconds (absent on the wire = 0).
        backoff_ns: u64,
    },
    /// A remote worker returns a leased trial's result: its record
    /// (`"record"`, the `TrialRecord` JSON carried as a string) or, if
    /// the trial failed on the worker, its error (`"error"`).
    Complete {
        /// The lease token from the daemon's `lease` answer.
        lease: u64,
        /// `TrialRecord::to_json` of the record, or the trial's error.
        result: Result<String, String>,
    },
}

impl Request {
    /// The wire verb (`"op"` value) — the label the daemon's
    /// per-request counters and latency histograms are keyed by.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Submit { .. } => "submit",
            Request::Status { .. } => "status",
            Request::Jobs => "jobs",
            Request::Watch { .. } => "watch",
            Request::Report { .. } => "report",
            Request::Diff { .. } => "diff",
            Request::Cancel { .. } => "cancel",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
            Request::Lease { .. } => "lease",
            Request::Complete { .. } => "complete",
        }
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Value::parse(line.trim())?;
        let obj = v.as_object().ok_or("request is not a JSON object")?;
        let op = obj
            .get("op")
            .and_then(Value::as_str)
            .ok_or("request has no \"op\" string")?;
        let job_field = |field: &str| -> Result<u64, String> {
            obj.get(field)
                .and_then(Value::as_u64)
                .ok_or(format!("{op:?} needs an integer {field:?} field"))
        };
        match op {
            "submit" => Ok(Request::Submit {
                campaign: obj
                    .get("campaign")
                    .and_then(Value::as_str)
                    .ok_or("\"submit\" needs a \"campaign\" string (inline TOML)")?
                    .to_string(),
            }),
            "status" => Ok(Request::Status {
                job: job_field("job")?,
            }),
            "jobs" => Ok(Request::Jobs),
            "watch" => Ok(Request::Watch {
                job: job_field("job")?,
            }),
            "report" => Ok(Request::Report {
                job: match obj.get("job") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(
                        v.as_u64()
                            .ok_or("\"report\" job field must be an integer")?,
                    ),
                },
                format: match obj.get("format") {
                    None => Format::Text,
                    Some(v) => Format::parse(
                        v.as_str()
                            .ok_or("\"report\" format field must be a string")?,
                    )?,
                },
            }),
            "diff" => Ok(Request::Diff {
                a: job_field("a")?,
                b: job_field("b")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: job_field("job")?,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "lease" => {
                let opt_u64 = |field: &str| -> Result<u64, String> {
                    match obj.get(field) {
                        None => Ok(0),
                        Some(v) => v
                            .as_u64()
                            .ok_or(format!("\"lease\" {field} field must be an integer")),
                    }
                };
                Ok(Request::Lease {
                    reconnects: opt_u64("reconnects")?,
                    backoff_ns: opt_u64("backoff_ns")?,
                })
            }
            "complete" => Ok(Request::Complete {
                lease: job_field("lease")?,
                result: match (obj.get("record"), obj.get("error")) {
                    (Some(Value::String(record)), None) => Ok(record.clone()),
                    (None, Some(Value::String(error))) => Err(error.clone()),
                    _ => Err("\"complete\" needs a \"record\" string (TrialRecord JSON) \
                              or an \"error\" string, not both")?,
                },
            }),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Encodes the request as its wire line (without newline).
    pub fn encode(&self) -> String {
        let mut w = json::Writer::object();
        match self {
            Request::Submit { campaign } => {
                w.field_str("op", "submit");
                w.field_str("campaign", campaign);
            }
            Request::Status { job } => {
                w.field_str("op", "status");
                w.field_u64("job", *job);
            }
            Request::Jobs => w.field_str("op", "jobs"),
            Request::Watch { job } => {
                w.field_str("op", "watch");
                w.field_u64("job", *job);
            }
            Request::Report { job, format } => {
                w.field_str("op", "report");
                if let Some(job) = job {
                    w.field_u64("job", *job);
                }
                w.field_str(
                    "format",
                    match format {
                        Format::Text => "text",
                        Format::Json => "json",
                        Format::Csv => "csv",
                    },
                );
            }
            Request::Diff { a, b } => {
                w.field_str("op", "diff");
                w.field_u64("a", *a);
                w.field_u64("b", *b);
            }
            Request::Cancel { job } => {
                w.field_str("op", "cancel");
                w.field_u64("job", *job);
            }
            Request::Stats => w.field_str("op", "stats"),
            Request::Metrics => w.field_str("op", "metrics"),
            Request::Ping => w.field_str("op", "ping"),
            Request::Shutdown => w.field_str("op", "shutdown"),
            Request::Lease {
                reconnects,
                backoff_ns,
            } => {
                w.field_str("op", "lease");
                if *reconnects > 0 {
                    w.field_u64("reconnects", *reconnects);
                }
                if *backoff_ns > 0 {
                    w.field_u64("backoff_ns", *backoff_ns);
                }
            }
            Request::Complete { lease, result } => {
                w.field_str("op", "complete");
                w.field_u64("lease", *lease);
                match result {
                    Ok(record) => w.field_str("record", record),
                    Err(error) => w.field_str("error", error),
                }
            }
        }
        w.finish()
    }
}

/// An `{"ok": false, "error": ...}` line.
pub fn error_line(msg: &str) -> String {
    let mut w = json::Writer::object();
    w.field_bool("ok", false);
    w.field_str("error", msg);
    w.finish()
}

/// An error line tagged with a machine-readable `kind`, so clients
/// can classify without string-matching the human text. The only
/// kind emitted today is `"draining"` (see [`ProtoError::Draining`]);
/// untagged error lines decode as [`ProtoError::Rejected`].
pub fn error_line_kind(msg: &str, kind: &str) -> String {
    let mut w = json::Writer::object();
    w.field_bool("ok", false);
    w.field_str("error", msg);
    w.field_str("kind", kind);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        let cases = [
            Request::Submit {
                campaign: "[campaign]\nseeds = \"0..2\"\n".to_string(),
            },
            Request::Status { job: 3 },
            Request::Jobs,
            Request::Watch { job: 7 },
            Request::Report {
                job: None,
                format: Format::Csv,
            },
            Request::Report {
                job: Some(2),
                format: Format::Text,
            },
            Request::Diff { a: 1, b: 2 },
            Request::Cancel { job: 9 },
            Request::Stats,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
            Request::Lease {
                reconnects: 0,
                backoff_ns: 0,
            },
            Request::Lease {
                reconnects: 3,
                backoff_ns: 700_000_000,
            },
            Request::Complete {
                lease: 41,
                result: Ok("{\"label\":\"near-regular(n=6,d=2)\",\"seed\":\"3\"}".to_string()),
            },
            Request::Complete {
                lease: 42,
                result: Err("trial panicked: cannot set up tcp transport".to_string()),
            },
        ];
        for req in cases {
            let line = req.encode();
            assert_eq!(Request::parse(&line).expect("parses"), req, "{line}");
            assert!(
                line.contains(&format!("\"op\":\"{}\"", req.verb())),
                "verb/op mismatch: {line}"
            );
        }
    }

    #[test]
    fn malformed_requests_are_described() {
        for (line, needle) in [
            ("nonsense", "expected"),
            ("[1,2]", "not a JSON object"),
            ("{}", "no \"op\""),
            ("{\"op\":\"frob\"}", "unknown op"),
            ("{\"op\":\"status\"}", "integer \"job\""),
            ("{\"op\":\"submit\"}", "inline TOML"),
            ("{\"op\":\"report\",\"format\":\"yaml\"}", "yaml"),
            ("{\"op\":\"complete\"}", "integer \"lease\""),
            ("{\"op\":\"complete\",\"lease\":1}", "TrialRecord JSON"),
            (
                "{\"op\":\"complete\",\"lease\":1,\"record\":\"{}\",\"error\":\"x\"}",
                "not both",
            ),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(
                err.to_lowercase().contains(&needle.to_lowercase()),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn bare_lease_lines_decode_with_zeroed_telemetry() {
        // Wire compatibility: a worker that predates the telemetry
        // fields sends a bare {"op":"lease"} — absent means zero.
        assert_eq!(
            Request::parse("{\"op\":\"lease\"}").expect("parses"),
            Request::Lease {
                reconnects: 0,
                backoff_ns: 0,
            }
        );
        let err = Request::parse("{\"op\":\"lease\",\"reconnects\":\"many\"}").expect_err("typed");
        assert!(err.contains("integer"), "{err}");
    }

    #[test]
    fn retryability_splits_transient_from_fatal() {
        assert!(ProtoError::Unreachable("x".into()).is_retryable());
        assert!(ProtoError::Draining("x".into()).is_retryable());
        assert!(!ProtoError::Malformed("x".into()).is_retryable());
        assert!(!ProtoError::Rejected("x".into()).is_retryable());
        let rendered: String = ProtoError::Unreachable("no route".into()).into();
        assert!(rendered.contains("no route"), "{rendered}");
    }

    #[test]
    fn tagged_error_lines_carry_their_kind() {
        let v = Value::parse(&error_line_kind("going away", "draining")).expect("parses");
        let obj = v.as_object().expect("object");
        assert_eq!(obj["ok"], Value::Bool(false));
        assert_eq!(obj["kind"].as_str(), Some("draining"));
        assert_eq!(obj["error"].as_str(), Some("going away"));
    }

    #[test]
    fn error_lines_are_wellformed_json() {
        let v = Value::parse(&error_line("bad \"quote\"")).expect("parses");
        let obj = v.as_object().expect("object");
        assert_eq!(obj["ok"], Value::Bool(false));
        assert_eq!(obj["error"].as_str(), Some("bad \"quote\""));
    }
}
