//! Deterministic fault injection under the two-party link: the
//! [`FaultPlan`] axis value and the [`FaultyLink`] wrapper that
//! executes it.
//!
//! A fault plan is a campaign axis like any other — parsed from a
//! spec string (`fault = "sever@3,delay:1"`), rendered back
//! canonically, and threaded ambiently through
//! [`with_session_faults`] exactly like the session transport. The
//! injected faults live **below** the
//! [`Meter`](crate::meter::Meter): metering happens in
//! [`Endpoint::exchange`](crate::Endpoint) before the message reaches
//! the link, so `CommStats` — and therefore every campaign report —
//! are byte-identical with faults on or off. That invariant is the
//! headline guarantee, pinned by campaign-level proptests: *for any
//! fault plan that eventually lets traffic through, the final report
//! is byte-identical to the fault-free run.*
//!
//! # The fault grammar
//!
//! A spec is `"none"` (or empty) or comma-separated clauses:
//!
//! | clause       | effect                                                        |
//! |--------------|---------------------------------------------------------------|
//! | `sever@K`    | severs the connection just before the initiator's K-th send; a fresh link is established and the last message per direction retransmitted |
//! | `corrupt@K`  | delivers a copy of the initiator's K-th message with one seed-deterministically chosen bit flipped (then the good copy) |
//! | `delay:MS`   | sleeps `MS` milliseconds before every send                    |
//! | `short:N`    | caps every raw stream read/write at `N` bytes (stream transports only) |
//!
//! Frame indices are 1-based and count the initiator's (Alice's)
//! sends. Every plan expressible in this grammar eventually lets
//! traffic through: severed links reconnect, corrupted frames are
//! followed by their clean copy, delays end, and short I/O still
//! makes progress one byte at a time.
//!
//! # How recovery works
//!
//! [`FaultyLink`] wraps each message in a 12-byte envelope — a
//! sequence number, the payload bit length, and an IEEE CRC-32 over
//! all three — so the receiver *detects* corruption (the checksum
//! never lies about a flipped bit) and *deduplicates* retransmits
//! (sequence numbers already seen are dropped). On a sever, the
//! initiating half builds a fresh base link pair, parks the peer's
//! half in a shared slot, and retransmits its most recent envelope;
//! the responder half, on any link error, waits (bounded) for the
//! replacement link, retransmits *its* most recent envelope, and
//! resumes. Since the session protocol is round-synchronous, at most
//! one message per direction is ever in flight, so
//! retransmit-last-plus-dedup is a complete recovery protocol.
//!
//! # Quickstart
//!
//! ```
//! use bichrome_comm::fault::{with_session_faults, FaultPlan};
//! use bichrome_comm::session::run_two_party_ctx_on;
//! use bichrome_comm::transport::TransportKind;
//! use bichrome_comm::wire::BitWriter;
//!
//! // Sever the link before the 2nd frame and corrupt the 1st: the
//! // session heals and the exchange is unchanged.
//! let plan: FaultPlan = "sever@2,corrupt@1".parse().unwrap();
//! let (a, b, stats) = with_session_faults(&plan, || {
//!     run_two_party_ctx_on(
//!         TransportKind::Tcp,
//!         7,
//!         |ctx| {
//!             let mut w = BitWriter::new();
//!             w.write_uint(99, 7);
//!             ctx.endpoint.send(w.finish());
//!             ctx.endpoint.recv().reader().read_uint(8)
//!         },
//!         |ctx| {
//!             let x = ctx.endpoint.recv().reader().read_uint(7);
//!             let mut w = BitWriter::new();
//!             w.write_uint(x + 1, 8);
//!             ctx.endpoint.send(w.finish());
//!         },
//!     )
//! });
//! assert_eq!(a, 100);
//! assert_eq!((stats.rounds, stats.total_bits()), (2, 15));
//! assert_eq!(plan.to_string(), "sever@2,corrupt@1");
//! # let _ = b;
//! ```

use crate::coin::splitmix64;
use crate::transport::{self, FramedLink, Link, LinkBox, TransportError, TransportKind};
use crate::wire::Message;
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a responder half waits for the initiator to offer a
/// replacement link after a sever before giving up and propagating
/// the original error (so a genuinely dead peer still surfaces).
const RECONNECT_WAIT: Duration = Duration::from_secs(5);

/// Envelope header: u32 sequence + u32 payload bit length + u32 CRC.
const ENVELOPE_BYTES: usize = 12;

// ---------------------------------------------------------------------------
// FaultPlan: the parseable axis value.
// ---------------------------------------------------------------------------

/// A deterministic schedule of link faults — the value a campaign's
/// `fault = "sever@3,delay:1"` axis parses into. See the
/// [module docs](self) for the grammar and semantics.
///
/// The default plan is empty ([`FaultPlan::is_noop`]); sessions under
/// a no-op plan use the unwrapped transport directly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FaultPlan {
    /// Initiator send indices (1-based, sorted, deduped) severed just
    /// before transmission.
    severs: Vec<u64>,
    /// Initiator send indices (1-based, sorted, deduped) preceded by
    /// a one-bit-flipped copy.
    corrupts: Vec<u64>,
    /// Milliseconds slept before every send (0 = off).
    delay_ms: u64,
    /// Per-call byte cap on raw stream reads/writes (stream
    /// transports only).
    short_bytes: Option<usize>,
}

impl FaultPlan {
    /// The empty (no-op) plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a sever just before the initiator's `k`-th send
    /// (1-based).
    #[must_use]
    pub fn sever_at(mut self, k: u64) -> FaultPlan {
        self.severs.push(k.max(1));
        self.severs.sort_unstable();
        self.severs.dedup();
        self
    }

    /// Adds a one-bit corruption of the initiator's `k`-th send
    /// (1-based).
    #[must_use]
    pub fn corrupt_at(mut self, k: u64) -> FaultPlan {
        self.corrupts.push(k.max(1));
        self.corrupts.sort_unstable();
        self.corrupts.dedup();
        self
    }

    /// Sleeps `ms` milliseconds before every send.
    #[must_use]
    pub fn delay_ms(mut self, ms: u64) -> FaultPlan {
        self.delay_ms = ms;
        self
    }

    /// Caps every raw stream read/write at `n` bytes (≥ 1).
    #[must_use]
    pub fn short(mut self, n: usize) -> FaultPlan {
        self.short_bytes = Some(n.max(1));
        self
    }

    /// Whether this plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.severs.is_empty()
            && self.corrupts.is_empty()
            && self.delay_ms == 0
            && self.short_bytes.is_none()
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultPlan, String> {
        let s = s.trim();
        let mut plan = FaultPlan::new();
        if s.is_empty() || s == "none" {
            return Ok(plan);
        }
        for clause in s.split(',') {
            let clause = clause.trim();
            let index = |rest: &str, what: &str| -> Result<u64, String> {
                let k: u64 = rest
                    .parse()
                    .map_err(|_| format!("{what} wants a frame index, got {rest:?}"))?;
                if k == 0 {
                    return Err(format!("{what} indices are 1-based; {clause:?} names 0"));
                }
                Ok(k)
            };
            if let Some(rest) = clause.strip_prefix("sever@") {
                plan = plan.sever_at(index(rest, "sever@K")?);
            } else if let Some(rest) = clause.strip_prefix("corrupt@") {
                plan = plan.corrupt_at(index(rest, "corrupt@K")?);
            } else if let Some(rest) = clause.strip_prefix("delay:") {
                plan.delay_ms = rest
                    .parse()
                    .map_err(|_| format!("delay:MS wants milliseconds, got {rest:?}"))?;
            } else if clause == "short" {
                plan = plan.short(1);
            } else if let Some(rest) = clause.strip_prefix("short:") {
                let n: usize = rest
                    .parse()
                    .map_err(|_| format!("short:N wants a byte cap, got {rest:?}"))?;
                if n == 0 {
                    return Err("short:N needs N ≥ 1 (a zero cap makes no progress)".to_string());
                }
                plan = plan.short(n);
            } else {
                return Err(format!(
                    "unknown fault clause {clause:?} (sever@K|corrupt@K|delay:MS|short[:N])"
                ));
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_noop() {
            return f.write_str("none");
        }
        let mut clauses = Vec::new();
        for k in &self.severs {
            clauses.push(format!("sever@{k}"));
        }
        for k in &self.corrupts {
            clauses.push(format!("corrupt@{k}"));
        }
        if self.delay_ms > 0 {
            clauses.push(format!("delay:{}", self.delay_ms));
        }
        if let Some(n) = self.short_bytes {
            clauses.push(format!("short:{n}"));
        }
        f.write_str(&clauses.join(","))
    }
}

// ---------------------------------------------------------------------------
// The ambient (thread-local) session fault plan.
// ---------------------------------------------------------------------------

thread_local! {
    static SESSION_FAULTS: RefCell<FaultPlan> = RefCell::new(FaultPlan::new());
}

/// The fault plan sessions started from this thread currently apply
/// (the no-op plan unless a [`with_session_faults`] scope is active).
pub fn session_faults() -> FaultPlan {
    SESSION_FAULTS.with(|cell| cell.borrow().clone())
}

/// Runs `f` with `plan` as this thread's ambient session fault plan,
/// restoring the previous plan afterwards (also on panic/unwind).
///
/// This mirrors
/// [`with_session_transport`](crate::transport::with_session_transport):
/// the campaign executor wraps each trial in this scope so a
/// `fault = "..."` campaign setting reaches protocol code that never
/// mentions faults.
pub fn with_session_faults<R>(plan: &FaultPlan, f: impl FnOnce() -> R) -> R {
    struct Restore(FaultPlan);
    impl Drop for Restore {
        fn drop(&mut self) {
            SESSION_FAULTS.with(|cell| *cell.borrow_mut() = std::mem::take(&mut self.0));
        }
    }
    let prev = SESSION_FAULTS.with(|cell| std::mem::replace(&mut *cell.borrow_mut(), plan.clone()));
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------------
// The envelope: sequence + checksum around every message.
// ---------------------------------------------------------------------------

/// Wraps `msg` in the sequenced, checksummed envelope.
fn seal(seq: u32, msg: &Message) -> Message {
    let payload = msg.as_bytes();
    let bits = msg.len_bits() as u32;
    let crc = transport::crc32(&[&seq.to_le_bytes(), &bits.to_le_bytes(), payload]);
    let mut buf = Vec::with_capacity(ENVELOPE_BYTES + payload.len());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&bits.to_le_bytes());
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(payload);
    let total_bits = buf.len() * 8;
    Message::from_raw_parts(buf, total_bits)
}

/// Unwraps an envelope, verifying shape and checksum.
fn open(envelope: &Message) -> Result<(u32, Message), String> {
    let buf = envelope.as_bytes();
    if !envelope.len_bits().is_multiple_of(8) || buf.len() < ENVELOPE_BYTES {
        return Err(format!(
            "envelope of {} bits is not a whole ≥{ENVELOPE_BYTES}-byte header",
            envelope.len_bits()
        ));
    }
    let seq = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    let bits = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let want_crc = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let payload = &buf[ENVELOPE_BYTES..];
    if payload.len() != (bits as usize).div_ceil(8) {
        return Err(format!(
            "envelope claims {bits} payload bits but carries {} bytes",
            payload.len()
        ));
    }
    let got = transport::crc32(&[&buf[0..4], &buf[4..8], payload]);
    if got != want_crc {
        return Err(format!(
            "envelope checksum mismatch (want {want_crc:08x}, got {got:08x})"
        ));
    }
    Ok((
        seq,
        Message::from_raw_parts(payload.to_vec(), bits as usize),
    ))
}

/// A copy of `msg` with bit `pos` flipped.
fn flip_bit(msg: &Message, pos: usize) -> Message {
    let mut buf = msg.as_bytes().to_vec();
    buf[pos / 8] ^= 1 << (pos % 8);
    Message::from_raw_parts(buf, msg.len_bits())
}

// ---------------------------------------------------------------------------
// Short I/O adapters (below the frame codec).
// ---------------------------------------------------------------------------

/// Caps every read at `cap` bytes, counting each truncation as an
/// injected `short` fault.
struct ShortReader {
    inner: Box<dyn Read + Send>,
    cap: usize,
    injected: bichrome_obs::Counter,
}

impl Read for ShortReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.len() > self.cap {
            self.injected.inc();
            self.inner.read(&mut buf[..self.cap])
        } else {
            self.inner.read(buf)
        }
    }
}

/// Caps every write at `cap` bytes, counting each truncation as an
/// injected `short` fault.
struct ShortWriter {
    inner: Box<dyn Write + Send>,
    cap: usize,
    injected: bichrome_obs::Counter,
}

impl Write for ShortWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.len() > self.cap {
            self.injected.inc();
            self.inner.write(&buf[..self.cap])
        } else {
            self.inner.write(buf)
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// FaultyLink: the wrapper that executes a plan.
// ---------------------------------------------------------------------------

/// Cached observability handles, one set per faulty pair.
#[derive(Clone)]
struct FaultMetrics {
    injected_sever: bichrome_obs::Counter,
    injected_delay: bichrome_obs::Counter,
    injected_corrupt: bichrome_obs::Counter,
    injected_short: bichrome_obs::Counter,
    detected_corrupt: bichrome_obs::Counter,
    detected_duplicate: bichrome_obs::Counter,
}

impl FaultMetrics {
    fn new() -> FaultMetrics {
        let injected = |kind| {
            bichrome_obs::counter_labeled("bichrome_comm_faults_injected_total", &[("kind", kind)])
        };
        let detected = |kind| {
            bichrome_obs::counter_labeled("bichrome_comm_faults_detected_total", &[("kind", kind)])
        };
        FaultMetrics {
            injected_sever: injected("sever"),
            injected_delay: injected("delay"),
            injected_corrupt: injected("corrupt"),
            injected_short: injected("short"),
            detected_corrupt: detected("corrupt"),
            detected_duplicate: detected("duplicate"),
        }
    }
}

/// The reconnect rendezvous both halves share: after a sever, the
/// initiator parks the responder's replacement link half here.
struct Shared {
    kind: TransportKind,
    short_bytes: Option<usize>,
    metrics: FaultMetrics,
    slot: Mutex<Slot>,
    cv: Condvar,
}

#[derive(Default)]
struct Slot {
    waiting: Option<LinkBox>,
}

/// A connected base link pair for `kind`, with short-I/O adapters
/// interposed when the plan asks for them (stream transports only —
/// the in-process transport has no byte stream to cap).
fn base_pair(
    kind: TransportKind,
    short_bytes: Option<usize>,
    metrics: &FaultMetrics,
) -> io::Result<(LinkBox, LinkBox)> {
    let cap = match short_bytes {
        Some(cap) => cap,
        None => return kind.pair(),
    };
    match transport::raw_stream_pair(kind)? {
        None => kind.pair(),
        Some(((a_read, a_write), (b_read, b_write))) => {
            let shorten = |read, write| {
                FramedLink::new(
                    ShortReader {
                        inner: read,
                        cap,
                        injected: metrics.injected_short.clone(),
                    },
                    ShortWriter {
                        inner: write,
                        cap,
                        injected: metrics.injected_short.clone(),
                    },
                )
            };
            Ok((
                Box::new(shorten(a_read, a_write)),
                Box::new(shorten(b_read, b_write)),
            ))
        }
    }
}

/// A [`Link`] that executes a [`FaultPlan`] against a wrapped base
/// link and transparently recovers: corruption is detected by the
/// envelope checksum, retransmits are deduplicated by sequence
/// number, and severed connections are re-established with the last
/// in-flight message per direction retransmitted. See the
/// [module docs](self).
pub struct FaultyLink {
    base: LinkBox,
    /// The initiator (Alice) half fires sever/corrupt faults; the
    /// responder half waits out severs on the shared slot.
    initiator: bool,
    plan: FaultPlan,
    seed: u64,
    /// Logical messages sent so far (the plan's 1-based frame index
    /// space, per direction).
    sends: u64,
    send_seq: u32,
    recv_expect: u32,
    /// The most recently sent envelope — retransmitted after any
    /// reconnect, since at most one message per direction is in
    /// flight in a round-synchronous session.
    last_sent: Option<Message>,
    shared: Arc<Shared>,
}

impl FaultyLink {
    /// Initiator only: severs the live link and offers the peer a
    /// replacement.
    fn sever(&mut self) -> Result<(), TransportError> {
        let (mine, theirs) = base_pair(
            self.shared.kind,
            self.shared.short_bytes,
            &self.shared.metrics,
        )
        .map_err(|e| TransportError::Io(format!("reconnect after sever: {e}")))?;
        {
            let mut slot = self.shared.slot.lock().expect("slot lock");
            slot.waiting = Some(theirs);
            self.shared.cv.notify_all();
        }
        // Dropping the old half is the sever: the responder's next
        // link operation fails and sends it to the slot.
        self.base = mine;
        self.shared.metrics.injected_sever.inc();
        if let Some(prev) = self.last_sent.clone() {
            self.base.try_send(&prev)?;
        }
        Ok(())
    }

    /// Responder only: waits (bounded) for the initiator's
    /// replacement link, then retransmits this side's last envelope.
    fn await_reconnect(&mut self, cause: TransportError) -> Result<(), TransportError> {
        let deadline = Instant::now() + RECONNECT_WAIT;
        let mut slot = self.shared.slot.lock().expect("slot lock");
        loop {
            if let Some(link) = slot.waiting.take() {
                drop(slot);
                self.base = link;
                if let Some(prev) = self.last_sent.clone() {
                    self.base.try_send(&prev)?;
                }
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                // No replacement came: the peer is genuinely gone.
                return Err(cause);
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(slot, deadline - now)
                .expect("slot lock");
            slot = guard;
        }
    }

    /// Sends one envelope, riding out a sever on the responder side.
    fn send_envelope(&mut self, envelope: &Message) -> Result<(), TransportError> {
        match self.base.try_send(envelope) {
            Ok(()) => Ok(()),
            Err(e) if !self.initiator => {
                self.await_reconnect(e)?;
                self.base.try_send(envelope)
            }
            Err(e) => Err(e),
        }
    }
}

impl Link for FaultyLink {
    fn try_send(&mut self, msg: &Message) -> Result<(), TransportError> {
        let k = self.sends + 1;
        if self.initiator && self.plan.severs.binary_search(&k).is_ok() {
            self.sever()?;
        }
        if self.plan.delay_ms > 0 {
            self.shared.metrics.injected_delay.inc();
            std::thread::sleep(Duration::from_millis(self.plan.delay_ms));
        }
        let sealed = seal(self.send_seq, msg);
        if self.initiator && self.plan.corrupts.binary_search(&k).is_ok() {
            // One deterministic bit flip: CRC-32 detects every
            // single-bit error, so the copy can never be accepted.
            let pos = (splitmix64(self.seed ^ k) as usize) % (sealed.len_bits().max(1));
            self.shared.metrics.injected_corrupt.inc();
            self.base.try_send(&flip_bit(&sealed, pos))?;
        }
        self.send_envelope(&sealed)?;
        self.sends = k;
        self.send_seq = self.send_seq.wrapping_add(1);
        self.last_sent = Some(sealed);
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Message, TransportError> {
        loop {
            let envelope = match self.base.try_recv() {
                Ok(envelope) => envelope,
                Err(e) if !self.initiator => {
                    self.await_reconnect(e)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match open(&envelope) {
                Err(_) => {
                    // Detected corruption: drop the bad copy — the
                    // clean retransmit is right behind it.
                    self.shared.metrics.detected_corrupt.inc();
                    continue;
                }
                Ok((seq, msg)) => {
                    if seq < self.recv_expect {
                        // A retransmit of something already
                        // delivered: deduplicate.
                        self.shared.metrics.detected_duplicate.inc();
                        continue;
                    }
                    if seq > self.recv_expect {
                        // Cannot happen with at most one in-flight
                        // message per direction; guard anyway.
                        return Err(TransportError::Corrupt(format!(
                            "sequence desync: got {seq}, expected {}",
                            self.recv_expect
                        )));
                    }
                    self.recv_expect += 1;
                    return Ok(msg);
                }
            }
        }
    }
}

/// A connected pair of fault-injecting link halves `(alice, bob)`
/// over `kind`, executing `plan` with corruption positions derived
/// deterministically from `seed`. Alice's half is the initiator:
/// sever/corrupt indices count *her* sends.
///
/// # Errors
///
/// Propagates OS resource failures setting up the base transport.
pub fn faulty_pair(
    kind: TransportKind,
    plan: &FaultPlan,
    seed: u64,
) -> io::Result<(LinkBox, LinkBox)> {
    let metrics = FaultMetrics::new();
    let (a, b) = base_pair(kind, plan.short_bytes, &metrics)?;
    let shared = Arc::new(Shared {
        kind,
        short_bytes: plan.short_bytes,
        metrics,
        slot: Mutex::new(Slot::default()),
        cv: Condvar::new(),
    });
    let half = |base, initiator, shared| FaultyLink {
        base,
        initiator,
        plan: plan.clone(),
        seed,
        sends: 0,
        send_seq: 0,
        recv_expect: 0,
        last_sent: None,
        shared,
    };
    Ok((
        Box::new(half(a, true, shared.clone())),
        Box::new(half(b, false, shared)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::BitWriter;

    /// Held for the whole body of every test that injects faults. The
    /// fault counters are process-global, so a test diffing them must
    /// not overlap another test's injections on a parallel test
    /// thread. Poison-tolerant: one failed test must not fail the rest.
    static INJECTING: Mutex<()> = Mutex::new(());

    fn injecting() -> std::sync::MutexGuard<'static, ()> {
        INJECTING.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn msg(value: u64, width: usize) -> Message {
        let mut w = BitWriter::new();
        w.write_uint(value, width);
        w.finish()
    }

    #[test]
    fn plans_parse_and_render_canonically() {
        for (spec, canonical) in [
            ("none", "none"),
            ("", "none"),
            ("sever@3", "sever@3"),
            ("delay:2,sever@3", "sever@3,delay:2"),
            ("sever@5,sever@2,sever@5", "sever@2,sever@5"),
            ("short", "short:1"),
            ("short:4,corrupt@1", "corrupt@1,short:4"),
            (
                "corrupt@2,sever@1,delay:1,short:3",
                "sever@1,corrupt@2,delay:1,short:3",
            ),
        ] {
            let plan: FaultPlan = spec.parse().expect(spec);
            assert_eq!(plan.to_string(), canonical, "{spec}");
            let reparsed: FaultPlan = plan.to_string().parse().expect("canonical reparses");
            assert_eq!(reparsed, plan, "{spec}");
        }
        assert!("none".parse::<FaultPlan>().unwrap().is_noop());
        assert!(!"sever@1".parse::<FaultPlan>().unwrap().is_noop());
    }

    #[test]
    fn malformed_plans_are_described() {
        for (spec, needle) in [
            ("sever@zero", "frame index"),
            ("sever@0", "1-based"),
            ("corrupt@0", "1-based"),
            ("delay:fast", "milliseconds"),
            ("short:0", "≥ 1"),
            ("explode", "unknown fault clause"),
            ("sever@1,,delay:1", "unknown fault clause"),
        ] {
            let err = spec.parse::<FaultPlan>().expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn envelopes_round_trip_and_detect_every_single_bit_flip() {
        for (value, width) in [(0u64, 0usize), (1, 1), (0xBEEF, 16), (12345, 60)] {
            let original = if width == 0 {
                Message::empty()
            } else {
                msg(value, width)
            };
            let sealed = seal(7, &original);
            let (seq, opened) = open(&sealed).expect("clean envelope opens");
            assert_eq!(seq, 7);
            assert_eq!(opened, original);
            for bit in 0..sealed.len_bits() {
                let corrupted = flip_bit(&sealed, bit);
                assert!(
                    open(&corrupted).is_err(),
                    "bit {bit} of {width}-bit envelope silently accepted"
                );
            }
        }
    }

    #[test]
    fn ambient_fault_scopes_nest_and_restore() {
        assert!(session_faults().is_noop());
        let outer: FaultPlan = "sever@1".parse().unwrap();
        let inner: FaultPlan = "delay:3".parse().unwrap();
        with_session_faults(&outer, || {
            assert_eq!(session_faults(), outer);
            with_session_faults(&inner, || assert_eq!(session_faults(), inner));
            assert_eq!(session_faults(), outer, "inner scope restored");
        });
        assert!(session_faults().is_noop());
        let caught = std::panic::catch_unwind(|| with_session_faults(&outer, || panic!("boom")));
        assert!(caught.is_err());
        assert!(session_faults().is_noop(), "panicking scope restored");
    }

    /// Drives a two-round exchange over a faulty pair and asserts the
    /// payloads are delivered intact.
    fn exchange_survives(kind: TransportKind, plan: &FaultPlan, seed: u64) {
        let (mut alice, mut bob) = faulty_pair(kind, plan, seed).expect("pair");
        let handle = std::thread::spawn(move || {
            let got = bob.recv();
            assert_eq!(got.reader().read_uint(11), 1027, "bob got round 1");
            bob.send(&msg(2054, 12));
            let got = bob.recv();
            assert_eq!(got.reader().read_uint(5), 19, "bob got round 2");
            bob.send(&Message::empty());
        });
        alice.send(&msg(1027, 11));
        assert_eq!(alice.recv().reader().read_uint(12), 2054, "alice round 1");
        alice.send(&msg(19, 5));
        assert!(alice.recv().is_empty(), "alice round 2");
        handle.join().expect("bob ok");
    }

    #[test]
    fn every_fault_clause_lets_traffic_through_on_every_transport() {
        let _injecting = injecting();
        let plans = [
            "sever@1",
            "sever@2",
            "corrupt@1",
            "corrupt@2",
            "sever@1,corrupt@1",
            "sever@1,sever@2,corrupt@1,corrupt@2",
            "delay:1",
            "short:1",
            "short:3,sever@2",
        ];
        for kind in TransportKind::ALL {
            for spec in plans {
                let plan: FaultPlan = spec.parse().expect(spec);
                for seed in [0u64, 1, 99] {
                    exchange_survives(kind, &plan, seed);
                }
            }
        }
    }

    #[test]
    fn corruption_is_counted_as_injected_and_detected() {
        let _injecting = injecting();
        let detected = bichrome_obs::counter_labeled(
            "bichrome_comm_faults_detected_total",
            &[("kind", "corrupt")],
        );
        let injected = bichrome_obs::counter_labeled(
            "bichrome_comm_faults_injected_total",
            &[("kind", "corrupt")],
        );
        let (d0, i0) = (detected.get(), injected.get());
        let plan: FaultPlan = "corrupt@1,corrupt@2".parse().unwrap();
        exchange_survives(TransportKind::InProc, &plan, 4);
        assert_eq!(injected.get() - i0, 2, "two corrupt frames injected");
        assert_eq!(
            detected.get() - d0,
            2,
            "both were detected, neither delivered"
        );
    }

    #[test]
    fn severs_are_counted_and_recovered_from() {
        let _injecting = injecting();
        let injected = bichrome_obs::counter_labeled(
            "bichrome_comm_faults_injected_total",
            &[("kind", "sever")],
        );
        let before = injected.get();
        let plan: FaultPlan = "sever@1,sever@2".parse().unwrap();
        exchange_survives(TransportKind::Tcp, &plan, 11);
        assert_eq!(injected.get() - before, 2, "both severs fired");
    }

    #[test]
    fn dead_peer_with_faults_still_surfaces_as_an_error() {
        // Bob vanishes for real (no sever in flight): Alice's recv
        // must fail rather than wait forever — the reconnect slot only
        // ever helps the responder half.
        let _injecting = injecting();
        let plan: FaultPlan = "delay:1".parse().unwrap();
        let (mut alice, bob) = faulty_pair(TransportKind::InProc, &plan, 0).expect("pair");
        drop(bob);
        assert!(alice.try_recv().is_err(), "initiator sees the dead peer");
    }
}
