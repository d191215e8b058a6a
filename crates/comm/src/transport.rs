//! Pluggable wires under the two-party session: the [`Transport`]
//! trait and its three implementations.
//!
//! Every session runs both parties in one process (two threads), but
//! the *bytes* between them can travel three ways:
//!
//! * [`InProc`] — the original yield-to-peer mpsc exchange. Zero
//!   copies beyond an `Arc` bump; the fast default for campaigns.
//! * [`Pipe`] — a pair of OS pipes (`std::io::pipe`). Every round
//!   crosses a real kernel byte boundary.
//! * [`Tcp`] — a loopback TCP connection with length-prefixed frames.
//!   The frame writer is buffered so one round costs one `write`
//!   syscall (header + payload flushed together), not one per field
//!   the bit writer flushed.
//!
//! The communication *accounting* is transport-independent by
//! construction: the [`Meter`](crate::meter::Meter) counts
//! `len_bits()` and rounds in [`Endpoint::exchange`](crate::Endpoint)
//! **before** the message reaches the link, so `CommStats` are
//! bit-identical across all three transports — the byte framing the
//! stream transports add (a length prefix and checksum per message)
//! is plumbing, not protocol, and is never metered. Tests in this
//! module and the workspace's campaign-level proptests pin that
//! invariant.
//!
//! # Frame format
//!
//! Stream transports ship each message as one *frame*, written by
//! [`write_frame`]: a little-endian `u32` *bit* length with the high
//! bit ([`FRAME_V2_FLAG`]) set, then a little-endian IEEE CRC-32 of
//! (bit length, payload), then `ceil(bits / 8)` payload bytes.
//! [`read_frame`] refuses as `InvalidData`, never delivering garbage,
//! a header without the flag, a bit length above [`MAX_FRAME_BITS`]
//! (both before any payload is allocated), and a checksum mismatch —
//! so every single-bit flip of a frame is detected.
//!
//! # Errors instead of hangs
//!
//! [`Link::try_send`] / [`Link::try_recv`] surface failures as typed
//! [`TransportError`]s; the panicking [`Link::send`] / [`Link::recv`]
//! wrappers preserve the original session semantics (a vanished peer
//! means its thread panicked, and the session layer propagates that
//! panic anyway). The in-process receive no longer parks forever: it
//! spins a configurable yield budget, then parks with a deadline
//! ([`configure_inproc_recv`]) so a peer that is alive but silent past
//! the deadline surfaces as [`TransportError::Timeout`].
//!
//! # Selecting a transport
//!
//! [`TransportKind`] names the three implementations and parses from
//! the same strings campaign files use (`"inproc"`, `"pipe"`,
//! `"tcp"`). Sessions pick their wire two ways:
//!
//! * explicitly — [`run_two_party_ctx_on`](crate::session::run_two_party_ctx_on)
//!   takes a `TransportKind` first argument;
//! * ambiently — [`with_session_transport`] sets a thread-local
//!   default that every plain
//!   [`run_two_party_ctx`](crate::session::run_two_party_ctx) under
//!   the closure inherits. This is how the campaign runner threads a
//!   `transport = "tcp"` axis setting through protocol code that
//!   never mentions transports.

use crate::wire::Message;
use std::cell::Cell;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Duration;

/// Default for [`InProcRecvConfig::yield_rounds`].
const DEFAULT_YIELD_ROUNDS: usize = 16;

/// Default for [`InProcRecvConfig::park_timeout`]: generous, because
/// a party may legitimately compute for a long time between rounds —
/// the deadline exists to turn a *permanently* silent peer into a
/// typed error instead of an unbounded hang.
const DEFAULT_PARK_TIMEOUT: Duration = Duration::from_secs(300);

/// Upper bound a stream transport accepts for one frame's bit length.
///
/// A header above this is refused as corrupt instead of allocating —
/// a torn or misaligned stream must not look like a 500 MB message.
/// Keeping the cap below `1 << 31` leaves the header's high bit to
/// [`FRAME_V2_FLAG`].
pub const MAX_FRAME_BITS: usize = 1 << 30;

/// High bit of the frame header, set on every frame; a header without
/// it is refused (see the module's frame-format docs).
pub const FRAME_V2_FLAG: u32 = 1 << 31;

// ---------------------------------------------------------------------------
// TransportError: typed link failures.
// ---------------------------------------------------------------------------

/// Why a link operation failed. Carried by [`Link::try_send`] /
/// [`Link::try_recv`]; the panicking [`Link::send`] / [`Link::recv`]
/// render it into their panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer disconnected (its thread panicked, its process died,
    /// or the connection was severed).
    PeerGone(String),
    /// Bytes arrived but failed validation (bad checksum, impossible
    /// header, sequence desync) — detected, never silently delivered.
    Corrupt(String),
    /// The peer stayed silent past the receive deadline
    /// (see [`configure_inproc_recv`]).
    Timeout(String),
    /// Any other I/O failure.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerGone(d) => write!(f, "peer gone: {d}"),
            TransportError::Corrupt(d) => write!(f, "corrupt frame: {d}"),
            TransportError::Timeout(d) => write!(f, "receive timeout: {d}"),
            TransportError::Io(d) => write!(f, "link i/o error: {d}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Maps an [`io::Error`] from a stream link onto the matching
/// [`TransportError`] variant.
fn io_error(context: &str, e: io::Error) -> TransportError {
    let detail = format!("{context}: {e}");
    match e.kind() {
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::NotConnected => TransportError::PeerGone(detail),
        io::ErrorKind::InvalidData => TransportError::Corrupt(detail),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => TransportError::Timeout(detail),
        _ => TransportError::Io(detail),
    }
}

/// One party's end of a connected duplex wire.
///
/// `try_send` ships one [`Message`] to the peer; `try_recv` blocks
/// for the peer's next message. Both report failures as typed
/// [`TransportError`]s. The provided [`Link::send`] / [`Link::recv`]
/// panic instead — in this workspace a vanished peer means its thread
/// panicked, and the session layer propagates that panic anyway.
pub trait Link {
    /// Ships one message to the peer.
    ///
    /// # Errors
    ///
    /// [`TransportError::PeerGone`] if the peer disconnected; other
    /// variants for stream-level failures.
    fn try_send(&mut self, msg: &Message) -> Result<(), TransportError>;

    /// Blocks for the peer's next message.
    ///
    /// # Errors
    ///
    /// [`TransportError::PeerGone`] if the peer disconnected before
    /// answering, [`TransportError::Timeout`] past the receive
    /// deadline, [`TransportError::Corrupt`] for frames that fail
    /// validation.
    fn try_recv(&mut self) -> Result<Message, TransportError>;

    /// Ships one message to the peer.
    ///
    /// # Panics
    ///
    /// Panics if the peer disconnected.
    fn send(&mut self, msg: &Message) {
        if let Err(e) = self.try_send(msg) {
            panic!("link send failed ({e})");
        }
    }

    /// Blocks for the peer's next message.
    ///
    /// # Panics
    ///
    /// Panics if the peer disconnected before answering.
    fn recv(&mut self) -> Message {
        match self.try_recv() {
            Ok(msg) => msg,
            Err(e) => panic!("link recv failed ({e})"),
        }
    }
}

/// A boxed, thread-movable link half.
pub type LinkBox = Box<dyn Link + Send>;

/// A way to wire two parties together: produces connected
/// [`Link`] pairs.
///
/// # Example
///
/// A real TCP loopback round trip, driven directly at the link layer:
///
/// ```
/// use bichrome_comm::transport::{Tcp, Transport};
/// use bichrome_comm::wire::BitWriter;
///
/// let (mut alice, mut bob) = Tcp.pair().unwrap();
/// let echo = std::thread::spawn(move || {
///     let got = bob.recv();
///     bob.send(&got);
/// });
/// let mut w = BitWriter::new();
/// w.write_uint(29, 5);
/// alice.send(&w.finish());
/// assert_eq!(alice.recv().reader().read_uint(5), 29);
/// echo.join().unwrap();
/// ```
pub trait Transport {
    /// The transport's canonical name (`"inproc"` / `"pipe"` /
    /// `"tcp"`).
    fn name(&self) -> &'static str;

    /// A fresh connected pair of link halves: `(alice, bob)`.
    ///
    /// # Errors
    ///
    /// Propagates OS resource failures (pipe / socket creation).
    fn pair(&self) -> io::Result<(LinkBox, LinkBox)>;
}

// ---------------------------------------------------------------------------
// InProc: the original mpsc exchange.
// ---------------------------------------------------------------------------

/// How the in-process receive waits for the peer: a cooperative
/// yield-spin budget, then a parked wait with a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InProcRecvConfig {
    /// Yield-and-retry attempts before parking on the blocking
    /// receive. On a single core `yield_now` runs the peer
    /// immediately, making one round cost one scheduler handoff
    /// instead of a futex park/wake pair.
    pub yield_rounds: usize,
    /// How long the parked receive waits before surfacing
    /// [`TransportError::Timeout`]. Generous by default (300 s): a
    /// party may compute for a long time between rounds, and the
    /// deadline only exists so a *permanently* silent peer becomes a
    /// typed error instead of a hang.
    pub park_timeout: Duration,
}

impl Default for InProcRecvConfig {
    fn default() -> InProcRecvConfig {
        InProcRecvConfig {
            yield_rounds: DEFAULT_YIELD_ROUNDS,
            park_timeout: DEFAULT_PARK_TIMEOUT,
        }
    }
}

/// Process-wide [`InProcRecvConfig`], captured by each
/// [`InProc::pair`] at creation time.
static INPROC_YIELD_ROUNDS: AtomicUsize = AtomicUsize::new(DEFAULT_YIELD_ROUNDS);
static INPROC_PARK_TIMEOUT_NANOS: AtomicU64 = AtomicU64::new(300_000_000_000);

/// Sets the process-wide receive behavior for **future** in-process
/// link pairs (existing links keep the configuration they were
/// created with).
pub fn configure_inproc_recv(config: InProcRecvConfig) {
    INPROC_YIELD_ROUNDS.store(config.yield_rounds, Ordering::Relaxed);
    INPROC_PARK_TIMEOUT_NANOS.store(
        config.park_timeout.as_nanos().min(u64::MAX as u128) as u64,
        Ordering::Relaxed,
    );
}

/// The current process-wide in-process receive configuration.
pub fn inproc_recv_config() -> InProcRecvConfig {
    InProcRecvConfig {
        yield_rounds: INPROC_YIELD_ROUNDS.load(Ordering::Relaxed),
        park_timeout: Duration::from_nanos(INPROC_PARK_TIMEOUT_NANOS.load(Ordering::Relaxed)),
    }
}

/// The in-process transport: std mpsc channels with a cooperative
/// yield-to-peer fast path, semantics identical to the pre-transport
/// `Endpoint`.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProc;

impl InProc {
    /// [`Transport::pair`] with an explicit receive configuration
    /// instead of the process-wide one — lets tests exercise short
    /// deadlines without perturbing concurrent sessions.
    pub fn pair_with(&self, config: InProcRecvConfig) -> io::Result<(LinkBox, LinkBox)> {
        let (a_tx, a_rx) = std::sync::mpsc::channel();
        let (b_tx, b_rx) = std::sync::mpsc::channel();
        Ok((
            Box::new(InProcLink {
                tx: a_tx,
                rx: b_rx,
                config,
            }),
            Box::new(InProcLink {
                tx: b_tx,
                rx: a_rx,
                config,
            }),
        ))
    }
}

struct InProcLink {
    tx: Sender<Message>,
    rx: Receiver<Message>,
    config: InProcRecvConfig,
}

impl Link for InProcLink {
    fn try_send(&mut self, msg: &Message) -> Result<(), TransportError> {
        // Messages are Arc-backed; this clone is a refcount bump.
        self.tx
            .send(msg.clone())
            .map_err(|_| TransportError::PeerGone("peer hung up before send".to_string()))
    }

    fn try_recv(&mut self) -> Result<Message, TransportError> {
        // Cooperative fast path: the peer is almost always runnable
        // and about to answer, so try a few yield-to-peer handoffs
        // before the blocking receive parks this thread. On many
        // cores the reply usually lands during the first yields.
        for _ in 0..self.config.yield_rounds {
            match self.rx.try_recv() {
                Ok(m) => return Ok(m),
                Err(TryRecvError::Empty) => std::thread::yield_now(),
                Err(TryRecvError::Disconnected) => {
                    return Err(TransportError::PeerGone(
                        "peer hung up before reply".to_string(),
                    ))
                }
            }
        }
        match self.rx.recv_timeout(self.config.park_timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::PeerGone(
                "peer hung up before reply".to_string(),
            )),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout(format!(
                "peer sent nothing for {:?}",
                self.config.park_timeout
            ))),
        }
    }
}

impl Transport for InProc {
    fn name(&self) -> &'static str {
        "inproc"
    }

    fn pair(&self) -> io::Result<(LinkBox, LinkBox)> {
        self.pair_with(inproc_recv_config())
    }
}

// ---------------------------------------------------------------------------
// The frame codec shared by the byte-stream transports.
// ---------------------------------------------------------------------------

/// The IEEE CRC-32 lookup table (reflected 0xEDB88320 polynomial),
/// built at compile time — no dependencies, no lazy init.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (the zlib/PNG polynomial) over `parts` concatenated.
///
/// Detects all single-bit errors and all burst errors up to 32 bits —
/// exactly what the frame format and the fault-injection layer
/// rely on to guarantee corruption is *detected*, never silently
/// delivered.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// Writes one frame — a little-endian `u32` *bit* length with
/// [`FRAME_V2_FLAG`] set, a little-endian CRC-32 of (bit length,
/// payload), then `ceil(bits / 8)` payload bytes — into `w` without
/// flushing, so a buffered writer coalesces header and payload into
/// one syscall.
///
/// # Errors
///
/// Propagates the underlying write failure; refuses messages above
/// [`MAX_FRAME_BITS`] as `InvalidInput`.
pub fn write_frame(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    let bits = msg.len_bits();
    if bits > MAX_FRAME_BITS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {bits} bits exceeds the {MAX_FRAME_BITS}-bit cap"),
        ));
    }
    let bits_le = (bits as u32).to_le_bytes();
    let crc = crc32(&[&bits_le, msg.as_bytes()]);
    w.write_all(&((bits as u32) | FRAME_V2_FLAG).to_le_bytes())?;
    w.write_all(&crc.to_le_bytes())?;
    w.write_all(msg.as_bytes())
}

/// Reads one frame from `r` (the format [`write_frame`] writes).
///
/// # Errors
///
/// `UnexpectedEof` on a torn frame (stream ends inside the header,
/// checksum or payload); `InvalidData` on a header without
/// [`FRAME_V2_FLAG`] or with an oversized bit length (both refused
/// before any payload allocation), or on a checksum mismatch
/// (corruption is detected, never silently delivered).
pub fn read_frame(r: &mut impl Read) -> io::Result<Message> {
    let refuse = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let raw = u32::from_le_bytes(header);
    if raw & FRAME_V2_FLAG == 0 {
        return Err(refuse(format!(
            "frame header {raw:#010x} lacks the checksum flag; refusing"
        )));
    }
    let bits = (raw & !FRAME_V2_FLAG) as usize;
    if bits > MAX_FRAME_BITS {
        return Err(refuse(format!(
            "frame header claims {bits} bits (cap {MAX_FRAME_BITS}); refusing"
        )));
    }
    let mut want_crc = [0u8; 4];
    r.read_exact(&mut want_crc)?;
    let want = u32::from_le_bytes(want_crc);
    let mut buf = vec![0u8; bits.div_ceil(8)];
    r.read_exact(&mut buf)?;
    let got = crc32(&[&(bits as u32).to_le_bytes(), &buf]);
    if got != want {
        return Err(refuse(format!(
            "frame checksum mismatch (want {want:08x}, got {got:08x}); refusing"
        )));
    }
    Ok(Message::from_raw_parts(buf, bits))
}

/// A [`Link`] over any byte stream: buffered frames, one flush (and
/// therefore one syscall on an OS-backed stream) per message.
pub(crate) struct FramedLink<R: Read, W: Write> {
    reader: BufReader<R>,
    writer: BufWriter<W>,
}

impl<R: Read, W: Write> FramedLink<R, W> {
    pub(crate) fn new(reader: R, writer: W) -> Self {
        FramedLink {
            reader: BufReader::new(reader),
            writer: BufWriter::new(writer),
        }
    }
}

impl<R: Read, W: Write> Link for FramedLink<R, W> {
    fn try_send(&mut self, msg: &Message) -> Result<(), TransportError> {
        write_frame(&mut self.writer, msg)
            .and_then(|()| self.writer.flush())
            .map_err(|e| io_error("frame send", e))
    }

    fn try_recv(&mut self) -> Result<Message, TransportError> {
        read_frame(&mut self.reader).map_err(|e| io_error("frame recv", e))
    }
}

/// One direction of a raw byte stream, as the fault layer consumes it
/// (to interpose short-read/short-write adapters *below* the frame
/// codec).
pub(crate) type RawReader = Box<dyn Read + Send>;
/// See [`RawReader`].
pub(crate) type RawWriter = Box<dyn Write + Send>;

/// A connected raw duplex pair for the stream transports —
/// `Some(((a_read, a_write), (b_read, b_write)))` for [`Pipe`] /
/// [`Tcp`], `None` for [`InProc`] (which has no byte stream to
/// interpose on).
#[allow(clippy::type_complexity)]
pub(crate) fn raw_stream_pair(
    kind: TransportKind,
) -> io::Result<Option<((RawReader, RawWriter), (RawReader, RawWriter))>> {
    match kind {
        TransportKind::InProc => Ok(None),
        TransportKind::Pipe => Pipe::raw_pair().map(Some),
        TransportKind::Tcp => Tcp::raw_pair().map(Some),
    }
}

// ---------------------------------------------------------------------------
// Pipe: two OS pipes.
// ---------------------------------------------------------------------------

/// The OS-pipe transport: one anonymous pipe per direction
/// (`std::io::pipe`), frames crossing a real kernel byte boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pipe;

impl Pipe {
    #[allow(clippy::type_complexity)]
    fn raw_pair() -> io::Result<((RawReader, RawWriter), (RawReader, RawWriter))> {
        let (a_to_b_read, a_to_b_write) = io::pipe()?;
        let (b_to_a_read, b_to_a_write) = io::pipe()?;
        Ok((
            (Box::new(b_to_a_read), Box::new(a_to_b_write)),
            (Box::new(a_to_b_read), Box::new(b_to_a_write)),
        ))
    }
}

impl Transport for Pipe {
    fn name(&self) -> &'static str {
        "pipe"
    }

    fn pair(&self) -> io::Result<(LinkBox, LinkBox)> {
        let ((a_read, a_write), (b_read, b_write)) = Pipe::raw_pair()?;
        Ok((
            Box::new(FramedLink::new(a_read, a_write)),
            Box::new(FramedLink::new(b_read, b_write)),
        ))
    }
}

// ---------------------------------------------------------------------------
// Tcp: loopback sockets.
// ---------------------------------------------------------------------------

/// The TCP transport: a loopback connection on an ephemeral port,
/// `TCP_NODELAY` on, length-prefixed frames batched so one round is
/// one `write` syscall per direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tcp;

impl Tcp {
    #[allow(clippy::type_complexity)]
    fn raw_pair() -> io::Result<((RawReader, RawWriter), (RawReader, RawWriter))> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let alice = TcpStream::connect(addr)?;
        let (bob, _) = listener.accept()?;
        // Rounds are latency-bound single frames; Nagle would add a
        // delayed-ACK stall to every exchange.
        alice.set_nodelay(true)?;
        bob.set_nodelay(true)?;
        Ok((
            (Box::new(alice.try_clone()?), Box::new(alice)),
            (Box::new(bob.try_clone()?), Box::new(bob)),
        ))
    }
}

impl Transport for Tcp {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn pair(&self) -> io::Result<(LinkBox, LinkBox)> {
        let ((a_read, a_write), (b_read, b_write)) = Tcp::raw_pair()?;
        Ok((
            Box::new(FramedLink::new(a_read, a_write)),
            Box::new(FramedLink::new(b_read, b_write)),
        ))
    }
}

// ---------------------------------------------------------------------------
// TransportKind: the nameable axis value.
// ---------------------------------------------------------------------------

/// A nameable transport choice — the value a campaign's
/// `transport = "inproc" | "pipe" | "tcp"` axis parses into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportKind {
    /// [`InProc`] (the default).
    #[default]
    InProc,
    /// [`Pipe`].
    Pipe,
    /// [`Tcp`].
    Tcp,
}

static INPROC: InProc = InProc;
static PIPE: Pipe = Pipe;
static TCP: Tcp = Tcp;

impl TransportKind {
    /// Every kind, in declaration order — handy for identity tests
    /// that sweep all transports.
    pub const ALL: [TransportKind; 3] = [
        TransportKind::InProc,
        TransportKind::Pipe,
        TransportKind::Tcp,
    ];

    /// The canonical name (`"inproc"` / `"pipe"` / `"tcp"`).
    pub fn name(self) -> &'static str {
        self.transport().name()
    }

    /// The implementation behind this kind.
    pub fn transport(self) -> &'static dyn Transport {
        match self {
            TransportKind::InProc => &INPROC,
            TransportKind::Pipe => &PIPE,
            TransportKind::Tcp => &TCP,
        }
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<TransportKind, String> {
        match s {
            "inproc" => Ok(TransportKind::InProc),
            "pipe" => Ok(TransportKind::Pipe),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport {other:?} (inproc|pipe|tcp)")),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// The ambient (thread-local) session transport.
// ---------------------------------------------------------------------------

thread_local! {
    static SESSION_TRANSPORT: Cell<TransportKind> = const { Cell::new(TransportKind::InProc) };
}

/// The transport plain
/// [`run_two_party_ctx`](crate::session::run_two_party_ctx) sessions
/// started from this thread currently use ([`TransportKind::InProc`]
/// unless a [`with_session_transport`] scope is active).
pub fn session_transport() -> TransportKind {
    SESSION_TRANSPORT.with(Cell::get)
}

/// Runs `f` with `kind` as this thread's ambient session transport,
/// restoring the previous value afterwards (also on panic/unwind).
///
/// This is how a transport choice reaches protocol code that calls
/// `run_two_party_ctx` without a transport parameter: the campaign
/// executor wraps each trial in this scope.
pub fn with_session_transport<R>(kind: TransportKind, f: impl FnOnce() -> R) -> R {
    struct Restore(TransportKind);
    impl Drop for Restore {
        fn drop(&mut self) {
            SESSION_TRANSPORT.with(|cell| cell.set(self.0));
        }
    }
    let prev = SESSION_TRANSPORT.with(|cell| cell.replace(kind));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::BitWriter;
    use std::io::Cursor;

    fn msg(value: u64, width: usize) -> Message {
        let mut w = BitWriter::new();
        w.write_uint(value, width);
        w.finish()
    }

    #[test]
    fn kinds_parse_and_render_round_trip() {
        for kind in TransportKind::ALL {
            assert_eq!(kind.name().parse::<TransportKind>().expect("parses"), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(TransportKind::default(), TransportKind::InProc);
        let err = "smoke-signals".parse::<TransportKind>().expect_err("bad");
        assert!(err.contains("inproc|pipe|tcp"), "{err}");
    }

    #[test]
    fn every_transport_round_trips_messages_both_ways() {
        for kind in TransportKind::ALL {
            let (mut alice, mut bob) = kind.transport().pair().expect("pair");
            let handle = std::thread::spawn(move || {
                let got = bob.recv();
                assert_eq!(got.reader().read_uint(9), 257, "bob got alice's message");
                bob.send(&msg(42, 6));
                bob.send(&Message::empty());
            });
            alice.send(&msg(257, 9));
            assert_eq!(alice.recv().reader().read_uint(6), 42);
            assert!(alice.recv().is_empty(), "empty messages survive framing");
            handle.join().expect("bob ok");
        }
    }

    #[test]
    fn frame_codec_round_trips_exact_bit_lengths() {
        for bits in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let mut w = BitWriter::new();
            for i in 0..bits {
                w.write_bit(i % 3 == 0);
            }
            let original = w.finish();
            let mut buf = Vec::new();
            write_frame(&mut buf, &original).expect("encode");
            assert_eq!(
                buf.len(),
                4 + 4 + bits.div_ceil(8),
                "header + checksum + payload bytes"
            );
            let decoded = read_frame(&mut Cursor::new(&buf)).expect("decode");
            assert_eq!(decoded, original, "{bits} bits");
            assert_eq!(decoded.len_bits(), bits);
        }
    }

    #[test]
    fn unflagged_frame_headers_are_refused() {
        // A header without the flag carries no checksum, so nothing
        // after it can be trusted: refused after the header alone.
        for bits in [0u32, 1, 8, 13, 200] {
            let mut buf = bits.to_le_bytes().to_vec();
            buf.extend_from_slice(&[0xA5; 32]);
            let mut cursor = Cursor::new(&buf);
            let err = read_frame(&mut cursor).expect_err("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bits} bits");
            assert_eq!(cursor.position(), 4, "only the header was read");
        }
    }

    #[test]
    fn corrupted_v2_frames_are_detected_never_delivered() {
        let original = msg(0xDEAD, 16);
        let mut clean = Vec::new();
        write_frame(&mut clean, &original).expect("encode");
        // Flip every single bit of the frame in turn — header flag,
        // length, checksum and payload alike: every corruption must
        // surface as an error.
        for bit in 0..clean.len() * 8 {
            let mut corrupted = clean.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            match read_frame(&mut Cursor::new(&corrupted)) {
                Err(_) => {}
                Ok(decoded) => panic!(
                    "flipping bit {bit} was silently accepted (decoded {} bits)",
                    decoded.len_bits()
                ),
            }
        }
        assert_eq!(
            read_frame(&mut Cursor::new(&clean)).expect("clean decodes"),
            original
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926, "split input");
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn torn_frames_are_reported_not_misread() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg(77, 20)).expect("encode");
        // Every strict prefix is a torn frame: inside the header,
        // checksum, or payload, the decode must fail cleanly.
        for cut in 0..buf.len() {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).expect_err("torn");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // The full frame still decodes.
        assert_eq!(
            read_frame(&mut Cursor::new(&buf))
                .expect("whole")
                .reader()
                .read_uint(20),
            77
        );
    }

    #[test]
    fn oversized_frame_headers_are_refused_without_allocating() {
        for flag in [0, FRAME_V2_FLAG] {
            let mut buf = (((MAX_FRAME_BITS as u32) + 1) | flag)
                .to_le_bytes()
                .to_vec();
            buf.extend_from_slice(&[0u8; 16]);
            let err = read_frame(&mut Cursor::new(&buf)).expect_err("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("refusing"), "{err}");
        }
        // The cap itself is still legal on the write side.
        let mut sink = Vec::new();
        let fit = Message::from_raw_parts(vec![0u8; MAX_FRAME_BITS / 8], MAX_FRAME_BITS);
        write_frame(&mut sink, &fit).expect("at-cap frame encodes");
    }

    #[test]
    fn dead_inproc_peer_is_a_typed_error_not_a_hang() {
        let (alice, mut bob) = InProc
            .pair_with(InProcRecvConfig {
                yield_rounds: 2,
                park_timeout: Duration::from_millis(50),
            })
            .expect("pair");
        drop(alice);
        match bob.try_recv() {
            Err(TransportError::PeerGone(_)) => {}
            other => panic!("expected PeerGone, got {other:?}"),
        }
        match bob.try_send(&msg(1, 1)) {
            Err(TransportError::PeerGone(_)) => {}
            other => panic!("expected PeerGone, got {other:?}"),
        }
    }

    #[test]
    fn silent_inproc_peer_times_out_with_a_typed_error() {
        let (_alice, mut bob) = InProc
            .pair_with(InProcRecvConfig {
                yield_rounds: 1,
                park_timeout: Duration::from_millis(20),
            })
            .expect("pair");
        // Alice is alive (her link half is still in scope) but silent:
        // the parked receive must surface Timeout at the deadline
        // instead of hanging forever.
        match bob.try_recv() {
            Err(TransportError::Timeout(_)) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn inproc_recv_configuration_round_trips() {
        let prev = inproc_recv_config();
        assert_eq!(prev, InProcRecvConfig::default());
        let custom = InProcRecvConfig {
            yield_rounds: 3,
            park_timeout: Duration::from_secs(7),
        };
        configure_inproc_recv(custom);
        assert_eq!(inproc_recv_config(), custom);
        configure_inproc_recv(prev);
        assert_eq!(inproc_recv_config(), prev);
    }

    #[test]
    fn ambient_transport_scopes_nest_and_restore() {
        assert_eq!(session_transport(), TransportKind::InProc);
        with_session_transport(TransportKind::Tcp, || {
            assert_eq!(session_transport(), TransportKind::Tcp);
            with_session_transport(TransportKind::Pipe, || {
                assert_eq!(session_transport(), TransportKind::Pipe);
            });
            assert_eq!(
                session_transport(),
                TransportKind::Tcp,
                "inner scope restored"
            );
        });
        assert_eq!(session_transport(), TransportKind::InProc);
        // A panicking scope must restore too.
        let caught = std::panic::catch_unwind(|| {
            with_session_transport(TransportKind::Pipe, || panic!("boom"))
        });
        assert!(caught.is_err());
        assert_eq!(session_transport(), TransportKind::InProc);
    }
}
