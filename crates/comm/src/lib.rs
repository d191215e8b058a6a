//! Two-party communication substrate for the `bichrome` workspace.
//!
//! This crate simulates Yao's two-party communication model (§3.1 of
//! the paper) faithfully enough to *measure* protocols, not just run
//! them:
//!
//! * [`wire`] — bit-level message encoding. Communication is counted
//!   in bits, exactly as in the model; no byte padding sneaks into the
//!   accounting.
//! * [`meter`] — shared accounting of bits per direction, rounds, and
//!   per-phase breakdowns.
//! * [`coin`] — public randomness both parties derive from a shared
//!   seed without communication (costless in the model; Newman's
//!   theorem \[New91\] converts it to private randomness with an
//!   additive `O(log n + log 1/δ)` bits, which we note but do not pay).
//! * [`channel`] — the round-synchronous duplex link: in one *round*
//!   Alice and Bob each send one message to the other simultaneously
//!   (footnote 1 of the paper).
//! * [`session`] — runs Alice's protocol code on the calling thread
//!   and Bob's on one new thread, talking over the chosen
//!   [`transport`].
//! * [`transport`] — pluggable wires under the session: the in-process
//!   exchange, OS pipes, or loopback TCP with length-prefixed,
//!   checksummed frames. The meter counts bits and rounds *above* the
//!   transport, so the recorded `CommStats` are identical whichever
//!   wire carries them.
//! * [`fault`] — deterministic fault injection below the meter:
//!   seed-reproducible severed connections, corrupted frames
//!   (detected, never delivered), delays, and short reads/writes,
//!   with transparent recovery — reports stay byte-identical to the
//!   fault-free run.
//! * [`machine`] — sans-io round machines plus a lock-step driver, so
//!   many per-vertex subprotocols can share each round's message, the
//!   way Algorithm 1 runs all `Color-Sample` instances "in parallel".
//!
//! Protocol code groups its costs with RAII phase labels
//! ([`meter::Meter::phase_scope`]), and the per-phase breakdown rides
//! along in every [`CommStats`]. To *run* whole protocols uniformly
//! (configure → execute → repeat → report), use the `bichrome-runner`
//! crate: its `Protocol` trait and `Campaign` builder wrap this
//! substrate, and its `json` module encodes [`CommStats`]
//! round-trippably.
//!
//! # Example
//!
//! ```
//! use bichrome_comm::session::run_two_party;
//! use bichrome_comm::wire::BitWriter;
//!
//! // Alice sends Bob a 7-bit number; Bob replies with its parity.
//! let ((), (x, odd), stats) = run_two_party(42, |ep| {
//!     let mut w = BitWriter::new();
//!     w.write_uint(97, 7);
//!     ep.send(w.finish());        // round 1: Alice talks
//!     let reply = ep.recv();      // round 2: Bob talks
//!     assert!(reply.reader().read_bit());
//! }, |ep| {
//!     let msg = ep.recv();
//!     let x = msg.reader().read_uint(7);
//!     let mut w = BitWriter::new();
//!     w.write_bit(x % 2 == 1);
//!     ep.send(w.finish());
//!     (x, x % 2 == 1)
//! });
//! assert_eq!((x, odd), (97, true));
//! assert_eq!(stats.total_bits(), 8);
//! assert_eq!(stats.rounds, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod coin;
pub mod fault;
pub mod machine;
pub mod meter;
pub mod newman;
pub mod session;
pub mod transport;
pub mod wire;

pub use channel::Endpoint;
pub use coin::PublicCoin;
pub use fault::{with_session_faults, FaultPlan};
pub use meter::CommStats;
pub use transport::{with_session_transport, TransportError, TransportKind};
pub use wire::{BitReader, BitWriter, Message};

/// Calls `f` and returns its result; the thread count is ignored.
///
/// A pass-through kept for callers written when a trial carried an
/// ambient intra-trial thread budget. Every protocol now runs one
/// serial code path per party, so there is nothing left to budget.
pub fn with_intra_budget<R>(_threads: usize, f: impl FnOnce() -> R) -> R {
    f()
}

/// Which party an endpoint belongs to.
///
/// Mirrors `bichrome_graph::partition::Party`; kept separate so this
/// crate has no graph dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The first party (by convention the one that "speaks first" in
    /// sequential protocols).
    Alice,
    /// The second party.
    Bob,
}

impl Side {
    /// The opposite side.
    #[inline]
    pub fn other(self) -> Side {
        match self {
            Side::Alice => Side::Bob,
            Side::Bob => Side::Alice,
        }
    }
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Side::Alice => write!(f, "Alice"),
            Side::Bob => write!(f, "Bob"),
        }
    }
}
