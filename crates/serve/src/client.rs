//! A blocking client for the daemon's wire protocol: line-delimited
//! JSON requests, each answered by one line (or, for `watch`, a stream
//! of lines).
//!
//! Every method returns [`ProtoError`], which splits failures by what
//! the caller should do: [`ProtoError::is_retryable`] is true for a
//! daemon that is unreachable or draining (back off and try again)
//! and false for malformed traffic or refused requests (give up).
//! `bichrome work`'s reconnect loop is built directly on this split.

use crate::net::{write_line, Addr, Stream};
use crate::proto::{Format, ProtoError, Request};
use bichrome_store::json::Value;
use std::io::{BufRead, BufReader};
use std::sync::Mutex;

/// A handle on a daemon address. [`Client::lease`] and
/// [`Client::complete`] share one kept connection, so a worker does
/// not dial per trial; every other call dials a fresh connection. A
/// clone starts with no kept connection of its own.
#[derive(Debug)]
pub struct Client {
    addr: Addr,
    /// The connection `lease` and `complete` reuse, once dialed.
    kept: Mutex<Option<BufReader<Stream>>>,
}

impl Clone for Client {
    fn clone(&self) -> Client {
        Client::new(self.addr.clone())
    }
}

impl Client {
    /// A client for the daemon at `addr`.
    pub fn new(addr: Addr) -> Client {
        Client {
            addr,
            kept: Mutex::new(None),
        }
    }

    fn dial(&self) -> Result<BufReader<Stream>, ProtoError> {
        Stream::connect(&self.addr)
            .map(BufReader::new)
            .map_err(|e| ProtoError::Unreachable(format!("connecting {}: {e}", self.addr)))
    }

    /// Sends one request on a fresh connection and returns the reader
    /// positioned after it, plus the first (decoded) response line.
    fn request(&self, req: &Request) -> Result<(BufReader<Stream>, Value), ProtoError> {
        let mut conn = self.dial()?;
        let first = exchange(&mut conn, req)?;
        Ok((conn, first))
    }

    /// [`Client::roundtrip`] on the kept connection. A kept connection
    /// the daemon has closed since (its io timeout, or a restart)
    /// fails at once, and the request goes again on one fresh dial
    /// without backoff: only `lease` and `complete` come here, and the
    /// daemon's token arbiter makes both safe to resend. A failure on
    /// the fresh dial is the caller's to retry.
    fn kept_roundtrip(&self, req: &Request) -> Result<Value, ProtoError> {
        let mut kept = self.kept.lock().expect("kept connection poisoned");
        let reused = kept
            .take()
            .map(|mut conn| exchange(&mut conn, req).map(|v| (conn, v)));
        let (conn, v) = match reused {
            Some(Ok(answered)) => answered,
            None | Some(Err(ProtoError::Unreachable(_))) => {
                let mut conn = self.dial()?;
                let v = exchange(&mut conn, req)?;
                (conn, v)
            }
            Some(Err(e)) => return Err(e),
        };
        *kept = Some(conn);
        check_ok(v)
    }

    /// Sends one request expecting a single `{"ok":...}` line.
    fn roundtrip(&self, req: &Request) -> Result<Value, ProtoError> {
        let (_, v) = self.request(req)?;
        check_ok(v)
    }

    /// True if a daemon answers at this address.
    pub fn ping(&self) -> bool {
        self.roundtrip(&Request::Ping).is_ok()
    }

    /// Submits inline campaign TOML; returns the job id.
    ///
    /// # Errors
    ///
    /// Transport failures and daemon-side rejections, typed.
    pub fn submit(&self, campaign_toml: &str) -> Result<u64, ProtoError> {
        let v = self.roundtrip(&Request::Submit {
            campaign: campaign_toml.to_string(),
        })?;
        field_u64(&v, "job")
    }

    /// One status snapshot for `job`.
    ///
    /// # Errors
    ///
    /// Transport failures and unknown job ids.
    pub fn status(&self, job: u64) -> Result<Value, ProtoError> {
        self.roundtrip(&Request::Status { job })
    }

    /// Every job the daemon knows, oldest first.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn jobs(&self) -> Result<Vec<Value>, ProtoError> {
        let v = self.roundtrip(&Request::Jobs)?;
        match v.as_object().and_then(|o| o.get("jobs")) {
            Some(Value::Array(items)) => Ok(items.clone()),
            _ => Err(ProtoError::Malformed("malformed jobs response".into())),
        }
    }

    /// Streams `job`'s progress, invoking `on_event` per `trial`
    /// event, until the `end` event — which is returned.
    ///
    /// # Errors
    ///
    /// Transport failures and unknown job ids.
    pub fn watch(&self, job: u64, mut on_event: impl FnMut(&Value)) -> Result<Value, ProtoError> {
        let (mut reader, ack) = self.request(&Request::Watch { job })?;
        check_ok(ack)?;
        while let Some(event) = read_value(&mut reader)? {
            let kind = event
                .as_object()
                .and_then(|o| o.get("event"))
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            if kind == "end" {
                return Ok(event);
            }
            on_event(&event);
        }
        Err(ProtoError::Unreachable(
            "watch stream ended without an end event".into(),
        ))
    }

    /// Renders a report of one finished job (`Some(id)`) or of the
    /// daemon's whole store (`None`).
    ///
    /// # Errors
    ///
    /// Transport failures, unknown/unfinished jobs.
    pub fn report(&self, job: Option<u64>, format: Format) -> Result<String, ProtoError> {
        let v = self.roundtrip(&Request::Report { job, format })?;
        field_str(&v, "output")
    }

    /// Baseline-relative diff of two finished jobs.
    ///
    /// # Errors
    ///
    /// Transport failures, unknown/unfinished jobs.
    pub fn diff(&self, a: u64, b: u64) -> Result<String, ProtoError> {
        let v = self.roundtrip(&Request::Diff { a, b })?;
        field_str(&v, "output")
    }

    /// Cooperatively cancels a job.
    ///
    /// # Errors
    ///
    /// Transport failures and unknown job ids.
    pub fn cancel(&self, job: u64) -> Result<(), ProtoError> {
        self.roundtrip(&Request::Cancel { job }).map(|_| ())
    }

    /// Daemon-wide counters.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&self) -> Result<Value, ProtoError> {
        self.roundtrip(&Request::Stats)
    }

    /// The daemon's process-wide observability registry — the same
    /// registry its `GET /metrics` endpoint serves, as a JSON object
    /// (`{"counters":{...},"histograms":{...}}`).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn metrics(&self) -> Result<Value, ProtoError> {
        let v = self.roundtrip(&Request::Metrics)?;
        v.as_object()
            .and_then(|o| o.get("metrics"))
            .cloned()
            .ok_or(ProtoError::Malformed("malformed metrics response".into()))
    }

    /// Asks the daemon to drain, checkpoint, and exit; returns once
    /// it has (the daemon responds *after* the drain completes).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&self) -> Result<(), ProtoError> {
        self.roundtrip(&Request::Shutdown).map(|_| ())
    }

    /// Asks for one trial to compute (the remote-worker pull).
    ///
    /// # Errors
    ///
    /// Transport failures and malformed descriptors.
    pub fn lease(&self) -> Result<LeaseGrant, ProtoError> {
        self.lease_reporting(0, 0)
    }

    /// [`Client::lease`] carrying the worker's self-healing telemetry
    /// since its last accepted request: `reconnects` outages survived
    /// and `backoff_ns` cumulative backoff slept. The daemon folds
    /// both into its metrics registry
    /// (`bichrome_worker_reconnects_total`,
    /// `bichrome_worker_backoff_nanos`), so fleet-wide reconnect
    /// behaviour shows up in `bichrome stats` without a separate
    /// reporting channel.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed descriptors.
    pub fn lease_reporting(
        &self,
        reconnects: u64,
        backoff_ns: u64,
    ) -> Result<LeaseGrant, ProtoError> {
        let v = self.kept_roundtrip(&Request::Lease {
            reconnects,
            backoff_ns,
        })?;
        let obj = v
            .as_object()
            .ok_or(ProtoError::Malformed("malformed lease response".into()))?;
        if matches!(obj.get("stop"), Some(Value::Bool(true))) {
            return Ok(LeaseGrant::Stop);
        }
        if matches!(obj.get("idle"), Some(Value::Bool(true))) {
            return Ok(LeaseGrant::Idle);
        }
        let seed_text = field_str(&v, "seed")?;
        Ok(LeaseGrant::Trial(TrialLease {
            lease: field_u64(&v, "lease")?,
            protocol: field_str(&v, "protocol")?,
            graph: field_str(&v, "graph")?,
            partitioner: field_str(&v, "partitioner")?,
            seed: seed_text.parse().map_err(|_| {
                ProtoError::Malformed(format!("lease seed {seed_text:?} is not a u64"))
            })?,
            transport: field_str(&v, "transport")?,
            // Absent on the wire (the overwhelmingly common case)
            // means the fault-free plan.
            fault: obj
                .get("fault")
                .and_then(Value::as_str)
                .unwrap_or("none")
                .to_string(),
        }))
    }

    /// Returns a leased trial's result: its computed record (the
    /// `TrialRecord` JSON), or the error the trial failed with, which
    /// fails its job. `Ok(false)` means the daemon discarded it — the
    /// lease had already expired and the trial went to another worker.
    ///
    /// # Errors
    ///
    /// Transport failures and rejected (re-queued) records.
    pub fn complete(&self, lease: u64, result: Result<&str, &str>) -> Result<bool, ProtoError> {
        let v = self.kept_roundtrip(&Request::Complete {
            lease,
            result: result.map(str::to_string).map_err(str::to_string),
        })?;
        let obj = v
            .as_object()
            .ok_or(ProtoError::Malformed("malformed complete response".into()))?;
        Ok(matches!(obj.get("accepted"), Some(Value::Bool(true))))
    }
}

/// The daemon's answer to [`Client::lease`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseGrant {
    /// A trial to compute (return it via [`Client::complete`]).
    Trial(TrialLease),
    /// Nothing was queued during the daemon's hold; ask again (the
    /// next `lease` waits for work in turn, so there is no need to
    /// sleep first).
    Idle,
    /// The daemon is draining; the worker should exit.
    Stop,
}

/// One leased trial descriptor: the [`TrialKey`] fields plus the
/// session transport and fault plan the campaign asked for and the
/// lease token to complete against.
///
/// [`TrialKey`]: bichrome_store::TrialKey
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialLease {
    /// Token for [`Client::complete`].
    pub lease: u64,
    /// Registry protocol key.
    pub protocol: String,
    /// Graph spec string.
    pub graph: String,
    /// Partitioner label.
    pub partitioner: String,
    /// Trial seed.
    pub seed: u64,
    /// Transport name (`inproc` / `pipe` / `tcp`).
    pub transport: String,
    /// Fault-plan spec to inject under the trial's session (`"none"`
    /// unless the campaign declared chaos). Faults are recovered
    /// below the meter, so the record is bit-identical either way —
    /// this field makes the worker reproduce the daemon's exact
    /// execution, chaos included.
    pub fault: String,
}

/// Sends `req` on `conn` and reads the first response line.
fn exchange(conn: &mut BufReader<Stream>, req: &Request) -> Result<Value, ProtoError> {
    write_line(conn.get_mut(), &req.encode())
        .map_err(|e| ProtoError::Unreachable(format!("send: {e}")))?;
    read_value(conn)?.ok_or(ProtoError::Unreachable(
        "daemon closed the connection".into(),
    ))
}

/// Reads and parses one response line (`None` on clean EOF).
fn read_value(reader: &mut BufReader<Stream>) -> Result<Option<Value>, ProtoError> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| ProtoError::Unreachable(format!("recv: {e}")))?;
    if n == 0 {
        return Ok(None);
    }
    Value::parse(line.trim())
        .map(Some)
        .map_err(ProtoError::Malformed)
}

/// Unwraps `{"ok":true,...}` or surfaces the daemon's error, typed
/// by the optional machine-readable `kind` tag.
fn check_ok(v: Value) -> Result<Value, ProtoError> {
    let obj = v
        .as_object()
        .ok_or(ProtoError::Malformed("malformed response".into()))?;
    match obj.get("ok") {
        Some(Value::Bool(true)) => Ok(v),
        _ => {
            let msg = obj
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("malformed response")
                .to_string();
            match obj.get("kind").and_then(Value::as_str) {
                Some("draining") => Err(ProtoError::Draining(msg)),
                _ => Err(ProtoError::Rejected(msg)),
            }
        }
    }
}

fn field_u64(v: &Value, field: &str) -> Result<u64, ProtoError> {
    v.as_object()
        .and_then(|o| o.get(field))
        .and_then(Value::as_u64)
        .ok_or(ProtoError::Malformed(format!(
            "response has no integer {field:?}"
        )))
}

fn field_str(v: &Value, field: &str) -> Result<String, ProtoError> {
    v.as_object()
        .and_then(|o| o.get(field))
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(ProtoError::Malformed(format!(
            "response has no string {field:?}"
        )))
}
