//! Per-worker validation scratch.
//!
//! Every trial the executor runs ends in a validator pass
//! ([`crate::Outcome::edge`] / [`crate::Outcome::vertex`]). The
//! scratch those validators need — the timestamp-marked
//! [`ColorMarks`] buffers — lives here in one thread-local slot, so
//! it is allocated **once per worker thread** and reused by every
//! trial that worker executes, not rebuilt per trial. Serial and
//! parallel execution both route through it: `exec::run_item` runs on
//! whichever thread owns the work item, and that thread's scratch
//! services the validation.
//!
//! `exec`'s `validator_scratch_is_reused_across_trials` test pins the
//! contract: after a warm-up run, a whole second run of the queue
//! must leave the scratch's allocation counter untouched.

use bichrome_graph::coloring::ColorMarks;
use std::cell::RefCell;

/// The buffers a worker reuses across the trials it executes.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Edge-coloring validator scratch (one slot per color).
    pub marks: ColorMarks,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with the calling worker's scratch.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_stable_per_thread() {
        // Growing in one closure is visible in the next: same slot.
        let before = with_scratch(|s| s.marks.allocations());
        let g = bichrome_graph::gen::cycle(6);
        let c = bichrome_graph::greedy::greedy_edge_coloring(&g);
        with_scratch(|s| {
            s.marks
                .check_edge_coloring(&g, &c)
                .expect("cycle coloring valid");
        });
        let after = with_scratch(|s| s.marks.allocations());
        assert!(after >= before);
    }
}
