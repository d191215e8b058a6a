//! The round-synchronous duplex link between the parties.

use crate::meter::Meter;
use crate::transport::{LinkBox, TransportKind};
use crate::wire::Message;
use crate::Side;
use std::cell::RefCell;

/// One party's end of the two-party link.
///
/// The fundamental operation is [`Endpoint::exchange`]: both parties
/// send one message simultaneously and receive the other's — exactly
/// one *round* of the model (footnote 1 of the paper). One-directional
/// messages are exchanges where the other side sends
/// [`Message::empty`].
///
/// The bytes underneath travel over whichever [`TransportKind`] built
/// the endpoint pair (in-process channels by default; OS pipes or
/// loopback TCP via [`endpoint_pair_on`]). Metering happens here,
/// *before* the message reaches the link, so the recorded bits and
/// rounds are identical across transports.
///
/// Protocols must be written so both parties perform the same number
/// of exchanges; a mismatch deadlocks (and is a protocol bug, not a
/// substrate bug).
pub struct Endpoint {
    side: Side,
    link: RefCell<LinkBox>,
    meter: Meter,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("side", &self.side)
            .finish_non_exhaustive()
    }
}

impl Endpoint {
    /// Which side this endpoint belongs to.
    pub fn side(&self) -> Side {
        self.side
    }

    /// The shared meter (e.g. to name phases from protocol code).
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// Sends `msg` and receives the peer's message for this round.
    ///
    /// Counts `msg.len_bits()` toward this side's sent bits and one
    /// round (rounds are counted once per exchange, from Alice's side).
    ///
    /// # Panics
    ///
    /// Panics if the peer disconnected (its thread panicked).
    pub fn exchange(&self, msg: Message) -> Message {
        self.meter.on_message(self.side, msg.len_bits() as u64);
        if self.side == Side::Alice {
            self.meter.on_round();
        }
        let mut link = self.link.borrow_mut();
        link.send(&msg);
        link.recv()
    }

    /// Sends `msg` expecting no payload back: sugar for an exchange
    /// where this side talks and the peer must send an empty message
    /// (asserted).
    ///
    /// # Panics
    ///
    /// Panics if the peer's simultaneous message is nonempty, or if the
    /// peer disconnected.
    pub fn send(&self, msg: Message) {
        let reply = self.exchange(msg);
        assert!(
            reply.is_empty(),
            "peer sent {} unexpected bits",
            reply.len_bits()
        );
    }

    /// Receives the peer's message while sending nothing.
    ///
    /// # Panics
    ///
    /// Panics if the peer disconnected.
    pub fn recv(&self) -> Message {
        self.exchange(Message::empty())
    }
}

/// Creates a connected pair of endpoints sharing `meter` over the
/// default in-process transport.
pub fn endpoint_pair(meter: Meter) -> (Endpoint, Endpoint) {
    endpoint_pair_on(TransportKind::InProc, meter)
}

/// Creates a connected pair of endpoints sharing `meter` over the
/// given transport.
///
/// # Panics
///
/// Panics if the transport cannot be set up (OS pipe / socket
/// resource failure).
pub fn endpoint_pair_on(kind: TransportKind, meter: Meter) -> (Endpoint, Endpoint) {
    let (a_link, b_link) = kind
        .pair()
        .unwrap_or_else(|e| panic!("cannot set up {kind} transport: {e}"));
    endpoint_pair_from_links(a_link, b_link, meter)
}

/// Creates a connected pair of endpoints over pre-built link halves —
/// the constructor the fault-injection layer uses to slide a
/// [`FaultyLink`](crate::fault::FaultyLink) pair under a session.
/// Metering is unchanged: it happens in [`Endpoint::exchange`] above
/// whatever links are supplied.
pub fn endpoint_pair_from_links(
    a_link: LinkBox,
    b_link: LinkBox,
    meter: Meter,
) -> (Endpoint, Endpoint) {
    let alice = Endpoint {
        side: Side::Alice,
        link: RefCell::new(a_link),
        meter: meter.clone(),
    };
    let bob = Endpoint {
        side: Side::Bob,
        link: RefCell::new(b_link),
        meter,
    };
    (alice, bob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::BitWriter;

    #[test]
    fn exchange_swaps_messages_and_meters() {
        let meter = Meter::new();
        let (alice, bob) = endpoint_pair(meter.clone());
        let handle = std::thread::spawn(move || {
            let mut w = BitWriter::new();
            w.write_uint(9, 4);
            let got = bob.exchange(w.finish());
            got.reader().read_uint(3)
        });
        let mut w = BitWriter::new();
        w.write_uint(5, 3);
        let got = alice.exchange(w.finish());
        assert_eq!(got.reader().read_uint(4), 9);
        assert_eq!(handle.join().expect("bob ok"), 5);
        let s = meter.snapshot();
        assert_eq!(s.bits_alice_to_bob, 3);
        assert_eq!(s.bits_bob_to_alice, 4);
        assert_eq!(s.rounds, 1);
    }

    #[test]
    fn send_and_recv_are_one_round() {
        let meter = Meter::new();
        let (alice, bob) = endpoint_pair(meter.clone());
        let handle = std::thread::spawn(move || bob.recv());
        let mut w = BitWriter::new();
        w.write_uint(1, 1);
        alice.send(w.finish());
        let got = handle.join().expect("bob ok");
        assert_eq!(got.len_bits(), 1);
        assert_eq!(meter.snapshot().rounds, 1);
        assert_eq!(meter.snapshot().total_bits(), 1);
    }

    #[test]
    fn sides_are_labelled() {
        let (alice, bob) = endpoint_pair(Meter::new());
        assert_eq!(alice.side(), Side::Alice);
        assert_eq!(bob.side(), Side::Bob);
        assert_eq!(alice.side().other(), Side::Bob);
    }

    #[test]
    fn empty_exchanges_cost_rounds_but_no_bits() {
        let meter = Meter::new();
        let (alice, bob) = endpoint_pair(meter.clone());
        let handle = std::thread::spawn(move || {
            for _ in 0..3 {
                bob.exchange(Message::empty());
            }
        });
        for _ in 0..3 {
            alice.exchange(Message::empty());
        }
        handle.join().expect("bob ok");
        let s = meter.snapshot();
        assert_eq!(s.rounds, 3);
        assert_eq!(s.total_bits(), 0);
    }

    #[test]
    fn metering_is_identical_across_transports() {
        // The same exchange script must produce the same CommStats on
        // every transport: bits and rounds are counted above the link.
        let mut snapshots = Vec::new();
        for kind in TransportKind::ALL {
            let meter = Meter::new();
            let (alice, bob) = endpoint_pair_on(kind, meter.clone());
            let handle = std::thread::spawn(move || {
                let got = bob.recv();
                let x = got.reader().read_uint(11);
                let mut w = BitWriter::new();
                w.write_uint(x * 2, 12);
                bob.send(w.finish());
                bob.exchange(Message::empty());
            });
            let mut w = BitWriter::new();
            w.write_uint(1027, 11);
            alice.send(w.finish());
            assert_eq!(alice.recv().reader().read_uint(12), 2054, "{kind}");
            alice.exchange(Message::empty());
            handle.join().expect("bob ok");
            snapshots.push(meter.snapshot());
        }
        assert_eq!(snapshots[0], snapshots[1], "inproc == pipe");
        assert_eq!(snapshots[0], snapshots[2], "inproc == tcp");
        assert_eq!(snapshots[0].rounds, 3);
        assert_eq!(snapshots[0].total_bits(), 23);
    }
}
