//! Running both parties on two OS threads.

use crate::channel::{endpoint_pair_from_links, endpoint_pair_on, Endpoint};
use crate::coin::PublicCoin;
use crate::fault;
use crate::meter::{CommStats, Meter};
use crate::transport::{self, TransportKind};

/// Everything a party's protocol code receives: its channel endpoint
/// and the shared public coin.
#[derive(Debug)]
pub struct PartyCtx {
    /// This party's end of the link.
    pub endpoint: Endpoint,
    /// The shared public randomness.
    pub coin: PublicCoin,
}

/// Runs Alice's and Bob's closures on two threads connected by a
/// round-synchronous channel, with shared public randomness derived
/// from `seed`.
///
/// The wire between the parties is this thread's ambient session
/// transport — in-process channels unless the caller is inside a
/// [`transport::with_session_transport`] scope. Use
/// [`run_two_party_ctx_on`] to name the transport explicitly.
///
/// Returns both outputs and the communication statistics.
///
/// # Panics
///
/// Propagates a panic from either party's thread.
///
/// # Example
///
/// ```
/// use bichrome_comm::session::run_two_party_ctx;
/// use rand::Rng;
///
/// // Both parties sample the same public random number for free.
/// let (a, b, stats) = run_two_party_ctx(9, |ctx| {
///     ctx.coin.stream(&[0]).gen::<u32>()
/// }, |ctx| {
///     ctx.coin.stream(&[0]).gen::<u32>()
/// });
/// assert_eq!(a, b);
/// assert_eq!(stats.total_bits(), 0);
/// ```
pub fn run_two_party_ctx<RA, RB>(
    seed: u64,
    alice: impl FnOnce(PartyCtx) -> RA + Send,
    bob: impl FnOnce(PartyCtx) -> RB + Send,
) -> (RA, RB, CommStats)
where
    RA: Send,
    RB: Send,
{
    run_two_party_ctx_on(transport::session_transport(), seed, alice, bob)
}

/// Like [`run_two_party_ctx`] but over an explicitly chosen
/// transport, ignoring the ambient default.
///
/// # Panics
///
/// Propagates a panic from either party's thread, and panics if the
/// transport cannot be set up (OS resource failure).
pub fn run_two_party_ctx_on<RA, RB>(
    kind: TransportKind,
    seed: u64,
    alice: impl FnOnce(PartyCtx) -> RA + Send,
    bob: impl FnOnce(PartyCtx) -> RB + Send,
) -> (RA, RB, CommStats)
where
    RA: Send,
    RB: Send,
{
    let meter = Meter::new();
    // An ambient fault plan slides a FaultyLink pair under the
    // endpoints; metering sits above either way, so CommStats (and
    // every report derived from them) are identical with faults on
    // or off. Corruption positions derive from the trial seed, so
    // the injected faults are as reproducible as the trial itself.
    let plan = fault::session_faults();
    let (a_ep, b_ep) = if plan.is_noop() {
        endpoint_pair_on(kind, meter.clone())
    } else {
        let (a_link, b_link) = fault::faulty_pair(kind, &plan, seed)
            .unwrap_or_else(|e| panic!("cannot set up faulty {kind} transport: {e}"));
        endpoint_pair_from_links(a_link, b_link, meter.clone())
    };
    let coin = PublicCoin::new(seed);
    let a_ctx = PartyCtx {
        endpoint: a_ep,
        coin,
    };
    let b_ctx = PartyCtx {
        endpoint: b_ep,
        coin,
    };
    // Only Bob gets a fresh thread; Alice runs on the calling worker.
    // This halves the per-session spawn cost, which matters when the
    // executor runs thousands of short trials. If Alice panics, the
    // scope joins Bob (his next channel op sees the hangup and
    // panics too) and then propagates Alice's panic.
    let (ra, rb) = std::thread::scope(|s| {
        let hb = s.spawn(move || bob(b_ctx));
        let ra = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || alice(a_ctx)));
        let rb = hb.join();
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(p), _) | (_, Err(p)) => std::panic::resume_unwind(p),
        }
    });
    (ra, rb, meter.snapshot())
}

/// Like [`run_two_party_ctx`] but hands each closure only the
/// [`Endpoint`], for protocols that need no randomness.
pub fn run_two_party<RA, RB>(
    seed: u64,
    alice: impl FnOnce(Endpoint) -> RA + Send,
    bob: impl FnOnce(Endpoint) -> RB + Send,
) -> (RA, RB, CommStats)
where
    RA: Send,
    RB: Send,
{
    run_two_party_ctx(seed, |ctx| alice(ctx.endpoint), |ctx| bob(ctx.endpoint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::BitWriter;

    #[test]
    fn two_party_ping_pong() {
        let (a, b, stats) = run_two_party(
            0,
            |ep| {
                let mut w = BitWriter::new();
                w.write_uint(42, 6);
                ep.send(w.finish()); // round 1: Alice talks
                let reply = ep.recv(); // round 2: Bob talks
                reply.reader().read_uint(7)
            },
            |ep| {
                let got = ep.recv();
                let x = got.reader().read_uint(6);
                let mut w = BitWriter::new();
                w.write_uint(x + 1, 7);
                ep.send(w.finish());
                x
            },
        );
        assert_eq!(a, 43);
        assert_eq!(b, 42);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.total_bits(), 13);
    }

    #[test]
    fn public_coin_agrees_across_threads() {
        use rand::Rng;
        let (a, b, stats) = run_two_party_ctx(
            7,
            |ctx| ctx.coin.stream(&[3, 1]).gen::<u64>(),
            |ctx| ctx.coin.stream(&[3, 1]).gen::<u64>(),
        );
        assert_eq!(a, b);
        assert_eq!(stats.total_bits(), 0);
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    #[should_panic]
    fn party_panic_propagates() {
        let _ = run_two_party(0, |_ep| panic!("alice exploded"), |_ep| ());
    }

    #[test]
    fn outputs_can_differ_in_type() {
        let (a, b, _) = run_two_party(0, |_| "alice", |_| 5usize);
        assert_eq!(a, "alice");
        assert_eq!(b, 5);
    }

    #[test]
    fn sessions_report_identical_stats_on_every_transport() {
        fn ping_pong(kind: TransportKind) -> (u64, CommStats) {
            let (a, _, stats) = run_two_party_ctx_on(
                kind,
                11,
                |ctx| {
                    let mut w = BitWriter::new();
                    w.write_uint(99, 7);
                    ctx.endpoint.send(w.finish());
                    ctx.endpoint.recv().reader().read_uint(8)
                },
                |ctx| {
                    let x = ctx.endpoint.recv().reader().read_uint(7);
                    let mut w = BitWriter::new();
                    w.write_uint(x + 1, 8);
                    ctx.endpoint.send(w.finish());
                },
            );
            (a, stats)
        }
        let baseline = ping_pong(TransportKind::InProc);
        assert_eq!(baseline.0, 100);
        assert_eq!(baseline.1.rounds, 2);
        assert_eq!(baseline.1.total_bits(), 15);
        for kind in [TransportKind::Pipe, TransportKind::Tcp] {
            assert_eq!(ping_pong(kind), baseline, "{kind}");
        }
    }

    #[test]
    fn ambient_transport_scope_reaches_plain_sessions() {
        use crate::transport::with_session_transport;
        // A session started inside the scope uses the scoped
        // transport; the observable contract (outputs, stats) is
        // unchanged, which is exactly what the campaign runner relies
        // on when it wraps trials in this scope.
        let (a, b, stats) = with_session_transport(TransportKind::Tcp, || {
            run_two_party(
                3,
                |ep| {
                    let mut w = BitWriter::new();
                    w.write_uint(6, 3);
                    ep.send(w.finish());
                },
                |ep| ep.recv().reader().read_uint(3),
            )
        });
        assert_eq!((a, b), ((), 6));
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.total_bits(), 3);
    }
}
