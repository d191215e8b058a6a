//! Shared accounting of communication cost.

use crate::Side;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Immutable snapshot of a session's communication cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Bits sent by Alice to Bob.
    pub bits_alice_to_bob: u64,
    /// Bits sent by Bob to Alice.
    pub bits_bob_to_alice: u64,
    /// Number of communication rounds (one round = both parties send
    /// one message simultaneously).
    pub rounds: u64,
    /// Total bits per protocol phase, in phase-name order.
    pub bits_by_phase: BTreeMap<String, u64>,
    /// Rounds per protocol phase.
    pub rounds_by_phase: BTreeMap<String, u64>,
}

impl CommStats {
    /// Total bits exchanged in both directions.
    pub fn total_bits(&self) -> u64 {
        self.bits_alice_to_bob + self.bits_bob_to_alice
    }
}

impl std::fmt::Display for CommStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} bits ({} A→B, {} B→A) in {} rounds",
            self.total_bits(),
            self.bits_alice_to_bob,
            self.bits_bob_to_alice,
            self.rounds
        )
    }
}

/// One entry of the phase stack.
#[derive(Debug)]
struct PhaseEntry {
    label: String,
    /// Open [`PhaseScope`] guards sharing this entry.
    refs: usize,
    /// Installed by [`Meter::set_phase`]: never popped by guards.
    pinned: bool,
}

#[derive(Debug, Default)]
struct MeterInner {
    stats: CommStats,
    /// Stack of active phase labels. The top entry is the current
    /// phase; identical labels installed concurrently (both parties
    /// run the same script) share one reference-counted entry.
    /// [`Meter::set_phase`] replaces the whole stack with a pinned
    /// entry; [`Meter::phase_scope`] pushes/pops unpinned ones.
    phases: Vec<PhaseEntry>,
}

impl MeterInner {
    fn current_phase(&self) -> Option<&str> {
        self.phases.last().map(|e| e.label.as_str())
    }
}

/// Thread-shared communication meter.
///
/// Cloning shares the underlying counters. The channel layer calls
/// [`Meter::on_message`] and [`Meter::on_round`]; protocol code may
/// group costs with [`Meter::set_phase`].
#[derive(Debug, Clone, Default)]
pub struct Meter {
    inner: Arc<Mutex<MeterInner>>,
}

impl Meter {
    /// A fresh meter with all counters zero and an unnamed phase.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the interior, shrugging off poisoning: the counters are
    /// plain integers and stay consistent even if a party thread
    /// panicked mid-protocol.
    fn lock(&self) -> MutexGuard<'_, MeterInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Records `bits` sent by `from`.
    pub fn on_message(&self, from: Side, bits: u64) {
        let mut inner = self.lock();
        match from {
            Side::Alice => inner.stats.bits_alice_to_bob += bits,
            Side::Bob => inner.stats.bits_bob_to_alice += bits,
        }
        if let Some(phase) = inner.current_phase() {
            let phase = phase.to_owned();
            *inner.stats.bits_by_phase.entry(phase).or_insert(0) += bits;
        }
    }

    /// Records one completed round.
    pub fn on_round(&self) {
        let mut inner = self.lock();
        inner.stats.rounds += 1;
        if let Some(phase) = inner.current_phase() {
            let phase = phase.to_owned();
            *inner.stats.rounds_by_phase.entry(phase).or_insert(0) += 1;
        }
    }

    /// Names the current phase; subsequent costs accrue to it until
    /// the next `set_phase` (the label never pops on its own — prefer
    /// [`Meter::phase_scope`]).
    ///
    /// Either party may call this (they run the same protocol script,
    /// so the phase labels agree); setting the same phase twice is
    /// harmless. Any phase scopes still open when `set_phase` runs are
    /// discarded: their guards become no-ops.
    pub fn set_phase(&self, phase: &str) {
        let mut inner = self.lock();
        inner.phases.clear();
        if !phase.is_empty() {
            inner.phases.push(PhaseEntry {
                label: phase.to_owned(),
                refs: 1,
                pinned: true,
            });
        }
    }

    /// Names the current phase for the lifetime of the returned guard;
    /// when the guard drops, the label is removed and the enclosing
    /// phase (if any) becomes current again.
    ///
    /// Prefer this over [`Meter::set_phase`] in protocol code: a
    /// scoped phase cannot leak past the code it labels, so a
    /// subprotocol's costs never silently accrue to its caller's
    /// phase (or vice versa) after an early return.
    ///
    /// Phases form a reference-counted stack. Both parties share one
    /// meter and run the same script, so both typically install the
    /// same label concurrently: the second install joins the first's
    /// stack entry instead of shadowing it, and the entry pops only
    /// when *both* guards have dropped. Once every guard is gone the
    /// stack is empty again regardless of how the two threads'
    /// installs and drops interleaved — an ended phase can never be
    /// left installed.
    ///
    /// # Example
    ///
    /// ```
    /// use bichrome_comm::meter::Meter;
    /// use bichrome_comm::Side;
    ///
    /// let meter = Meter::new();
    /// {
    ///     let _phase = meter.phase_scope("rct");
    ///     meter.on_message(Side::Alice, 5);
    /// } // "rct" ends here, even on early return or panic
    /// meter.on_message(Side::Alice, 2);
    /// let stats = meter.snapshot();
    /// assert_eq!(stats.bits_by_phase["rct"], 5);
    /// assert_eq!(stats.total_bits(), 7);
    /// ```
    #[must_use = "the phase ends when the returned guard is dropped"]
    pub fn phase_scope(&self, phase: &str) -> PhaseScope {
        let mut inner = self.lock();
        match inner.phases.last_mut() {
            Some(e) if e.label == phase && !e.pinned => e.refs += 1,
            _ => inner.phases.push(PhaseEntry {
                label: phase.to_owned(),
                refs: 1,
                pinned: false,
            }),
        }
        drop(inner);
        PhaseScope {
            meter: self.clone(),
            installed: phase.to_owned(),
            started: Instant::now(),
        }
    }

    /// A snapshot of the counters so far.
    pub fn snapshot(&self) -> CommStats {
        self.lock().stats.clone()
    }
}

/// RAII guard returned by [`Meter::phase_scope`]; removes one
/// reference to its label from the phase stack when dropped (see
/// [`Meter::phase_scope`] for the shared-meter semantics), and
/// observes the phase's wall time into the process-wide
/// `bichrome_comm_phase_nanos{phase=...}` histogram — phases have
/// always tracked bits and rounds, this adds the time dimension.
#[derive(Debug)]
pub struct PhaseScope {
    meter: Meter,
    installed: String,
    started: Instant,
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        bichrome_obs::histogram_labeled("bichrome_comm_phase_nanos", &[("phase", &self.installed)])
            .observe(self.started.elapsed().as_nanos() as u64);
        let mut inner = self.meter.lock();
        // Release the topmost unpinned entry carrying our label. It
        // may not be the very top if the peer thread's installs
        // interleaved with ours; it may be absent entirely if
        // set_phase cleared the stack — then there is nothing to
        // release (and a pinned set_phase label, even an identical
        // one, is never ours to pop).
        if let Some(idx) = inner
            .phases
            .iter()
            .rposition(|e| e.label == self.installed && !e.pinned)
        {
            inner.phases[idx].refs -= 1;
            if inner.phases[idx].refs == 0 {
                inner.phases.remove(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_directions_separately() {
        let m = Meter::new();
        m.on_message(Side::Alice, 10);
        m.on_message(Side::Bob, 3);
        m.on_message(Side::Alice, 1);
        let s = m.snapshot();
        assert_eq!(s.bits_alice_to_bob, 11);
        assert_eq!(s.bits_bob_to_alice, 3);
        assert_eq!(s.total_bits(), 14);
    }

    #[test]
    fn counts_rounds() {
        let m = Meter::new();
        m.on_round();
        m.on_round();
        assert_eq!(m.snapshot().rounds, 2);
    }

    #[test]
    fn phases_accumulate() {
        let m = Meter::new();
        m.set_phase("rct");
        m.on_message(Side::Alice, 5);
        m.on_round();
        m.set_phase("d1lc");
        m.on_message(Side::Bob, 7);
        m.on_round();
        m.on_round();
        let s = m.snapshot();
        assert_eq!(s.bits_by_phase["rct"], 5);
        assert_eq!(s.bits_by_phase["d1lc"], 7);
        assert_eq!(s.rounds_by_phase["rct"], 1);
        assert_eq!(s.rounds_by_phase["d1lc"], 2);
    }

    #[test]
    fn phase_scope_restores_previous_phase() {
        let m = Meter::new();
        m.set_phase("outer");
        {
            let _guard = m.phase_scope("inner");
            m.on_message(Side::Alice, 3);
        }
        m.on_message(Side::Alice, 4);
        let s = m.snapshot();
        assert_eq!(s.bits_by_phase["inner"], 3);
        assert_eq!(s.bits_by_phase["outer"], 4);
    }

    #[test]
    fn phase_scopes_nest() {
        let m = Meter::new();
        let _a = m.phase_scope("a");
        m.on_round();
        {
            let _b = m.phase_scope("b");
            m.on_round();
            m.on_round();
        }
        m.on_round();
        let s = m.snapshot();
        assert_eq!(s.rounds_by_phase["a"], 2);
        assert_eq!(s.rounds_by_phase["b"], 2);
    }

    #[test]
    fn concurrent_identical_scopes_never_leak_the_label() {
        // Both parties install the same label on the shared meter, in
        // every drop order: the label must be gone once both guards
        // are dropped.
        for first_dropper in 0..2 {
            let m = Meter::new();
            let g0 = m.phase_scope("shared");
            let g1 = m.phase_scope("shared");
            m.on_message(Side::Alice, 1);
            if first_dropper == 0 {
                drop(g0);
                drop(g1);
            } else {
                drop(g1);
                drop(g0);
            }
            m.on_message(Side::Bob, 2);
            let s = m.snapshot();
            assert_eq!(
                s.bits_by_phase["shared"], 1,
                "post-scope bits leaked into the ended phase (order {first_dropper})"
            );
        }
    }

    #[test]
    fn interleaved_nested_scopes_from_two_parties_fully_unwind() {
        // The adversarial interleaving: A opens rct then d1lc, B's
        // identical opens land after A's, and the drops come in the
        // order A:d1lc, B:d1lc, B:rct, A:rct. Whatever the transient
        // attribution, the stack must be empty at the end.
        let m = Meter::new();
        let a_rct = m.phase_scope("rct");
        let a_d1lc = m.phase_scope("d1lc");
        let b_rct = m.phase_scope("rct");
        let b_d1lc = m.phase_scope("d1lc");
        drop(a_d1lc);
        drop(b_d1lc);
        drop(b_rct);
        drop(a_rct);
        m.on_message(Side::Alice, 7);
        let s = m.snapshot();
        assert!(
            !s.bits_by_phase.contains_key("rct") && !s.bits_by_phase.contains_key("d1lc"),
            "ended phases must not collect post-scope bits: {:?}",
            s.bits_by_phase
        );
    }

    #[test]
    fn set_phase_discards_open_scopes() {
        let m = Meter::new();
        let guard = m.phase_scope("scoped");
        m.set_phase("flat");
        drop(guard); // must not disturb the set_phase label
        m.on_round();
        let s = m.snapshot();
        assert_eq!(s.rounds_by_phase["flat"], 1);
        assert!(!s.rounds_by_phase.contains_key("scoped"));
    }

    #[test]
    fn stale_guard_cannot_pop_a_same_label_set_phase() {
        let m = Meter::new();
        let guard = m.phase_scope("rct");
        m.set_phase("rct"); // pinned; the stale guard must not pop it
        drop(guard);
        m.on_message(Side::Alice, 3);
        let s = m.snapshot();
        assert_eq!(
            s.bits_by_phase["rct"], 3,
            "set_phase label must survive the stale guard"
        );
    }

    #[test]
    fn phase_scope_restores_on_panic() {
        let m = Meter::new();
        let m2 = m.clone();
        let result = std::panic::catch_unwind(move || {
            let _guard = m2.phase_scope("doomed");
            panic!("protocol bug");
        });
        assert!(result.is_err());
        m.on_message(Side::Bob, 9);
        let s = m.snapshot();
        assert!(!s.bits_by_phase.contains_key("doomed"));
    }

    #[test]
    fn phase_scope_wall_time_lands_in_the_obs_histogram() {
        let h = bichrome_obs::histogram_labeled(
            "bichrome_comm_phase_nanos",
            &[("phase", "meter-test-phase")],
        );
        let before = h.count();
        let m = Meter::new();
        {
            let _guard = m.phase_scope("meter-test-phase");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(h.count(), before + 1, "one observation per scope");
        assert!(h.sum() >= 1_000_000, "covers the 1ms the phase was open");
    }

    #[test]
    fn clones_share_state() {
        let m = Meter::new();
        let m2 = m.clone();
        m2.on_message(Side::Alice, 4);
        assert_eq!(m.snapshot().bits_alice_to_bob, 4);
    }

    #[test]
    fn display_is_informative() {
        let m = Meter::new();
        m.on_message(Side::Alice, 2);
        m.on_round();
        let text = m.snapshot().to_string();
        assert!(text.contains("2 bits"));
        assert!(text.contains("1 rounds"));
    }
}
