//! Newman's theorem \[New91\], executable: converting a public-coin
//! protocol into a private-coin one.
//!
//! The paper's model grants free public randomness and notes (§3.1)
//! that private randomness suffices at an additive
//! `O(log n + log(1/δ))` bits. The classical construction fixes a
//! small multiset of candidate seeds *in the protocol description*
//! (both parties know it; no communication), Alice samples one index
//! with her private coins, announces it (`⌈log K⌉` bits, one round),
//! and both parties run the public-coin protocol with the selected
//! seed. Newman's probabilistic argument shows `K = O(n/δ²)`
//! candidates suffice to keep the failure probability within `2δ`;
//! here the candidates are derived from a fixed generator, which is
//! the standard heuristic instantiation.

use crate::channel::endpoint_pair;
use crate::coin::{private_rng, PublicCoin};
use crate::meter::{CommStats, Meter};
use crate::session::PartyCtx;
use crate::wire::{width_for, BitWriter, Message};
use rand::Rng;

/// Derives the `idx`-th candidate seed of a Newman seed family
/// identified by `family`.
///
/// Deterministic and known to both parties — part of the protocol
/// description, hence free.
pub fn candidate_seed(family: u64, idx: u64) -> u64 {
    // Reuse the public coin's stream derivation for high-quality
    // mixing.
    PublicCoin::new(family)
        .subcoin(0x4E57_4D41)
        .subcoin(idx)
        .seed()
}

/// Runs a public-coin two-party protocol using only *private*
/// randomness plus Newman's one-round seed announcement.
///
/// `num_candidates` is Newman's `K`; `alice_private_seed` models
/// Alice's private coins; `family` identifies the (publicly known)
/// candidate family. The announcement costs exactly
/// `⌈log₂ K⌉` bits and one round, which the meter records along with
/// the protocol's own cost.
///
/// # Panics
///
/// Panics if `num_candidates == 0` or a party panics.
pub fn run_newman<RA, RB>(
    family: u64,
    num_candidates: u64,
    alice_private_seed: u64,
    alice: impl FnOnce(PartyCtx) -> RA + Send,
    bob: impl FnOnce(PartyCtx) -> RB + Send,
) -> (RA, RB, CommStats)
where
    RA: Send,
    RB: Send,
{
    assert!(
        num_candidates >= 1,
        "Newman needs at least one candidate seed"
    );
    let meter = Meter::new();
    let (a_ep, b_ep) = endpoint_pair(meter.clone());
    let width = width_for(num_candidates - 1);
    let (ra, rb) = std::thread::scope(|s| {
        let ha = s.spawn(move || {
            // Alice draws the index with her private coins and
            // announces it.
            let idx = private_rng(alice_private_seed, 0xA11CE).gen_range(0..num_candidates);
            let mut w = BitWriter::new();
            w.write_uint(idx, width);
            a_ep.send(w.finish());
            let coin = PublicCoin::new(candidate_seed(family, idx));
            alice(PartyCtx {
                endpoint: a_ep,
                coin,
            })
        });
        let hb = s.spawn(move || {
            let msg = b_ep.exchange(Message::empty());
            let idx = msg.reader().read_uint(width);
            let coin = PublicCoin::new(candidate_seed(family, idx));
            bob(PartyCtx {
                endpoint: b_ep,
                coin,
            })
        });
        let ra = match ha.join() {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        };
        let rb = match hb.join() {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        };
        (ra, rb)
    });
    (ra, rb, meter.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_seeds_are_deterministic_and_distinct() {
        assert_eq!(candidate_seed(1, 5), candidate_seed(1, 5));
        assert_ne!(candidate_seed(1, 5), candidate_seed(1, 6));
        assert_ne!(candidate_seed(1, 5), candidate_seed(2, 5));
    }

    #[test]
    fn parties_agree_on_the_sampled_coin() {
        let (a, b, stats) = run_newman(
            7,
            64,
            12345,
            |ctx| ctx.coin.stream(&[1]).gen::<u64>(),
            |ctx| ctx.coin.stream(&[1]).gen::<u64>(),
        );
        assert_eq!(a, b, "both parties must derive the same public coin");
        // Announcement: ⌈log₂ 64⌉ = 6 bits, one round; nothing else.
        assert_eq!(stats.total_bits(), 6);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn different_private_seeds_select_different_coins() {
        let run = |priv_seed: u64| {
            let (a, _, _) = run_newman(
                7,
                1 << 16,
                priv_seed,
                |ctx| ctx.coin.seed(),
                |ctx| ctx.coin.seed(),
            );
            a
        };
        // With 2^16 candidates, two random draws collide with
        // probability 2^-16; distinct seeds should differ.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn protocol_continues_after_announcement() {
        // The protocol body can keep using the endpoint afterwards.
        let (a, b, stats) = run_newman(
            3,
            4,
            9,
            |ctx| {
                let mut w = BitWriter::new();
                w.write_uint(5, 3);
                ctx.endpoint.send(w.finish());
                5u64
            },
            |ctx| {
                let msg = ctx.endpoint.recv();
                msg.reader().read_uint(3)
            },
        );
        assert_eq!(a, b);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.total_bits(), 2 + 3);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn zero_candidates_rejected() {
        let _ = run_newman(0, 0, 0, |_| (), |_| ());
    }
}
