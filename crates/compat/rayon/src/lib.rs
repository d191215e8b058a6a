//! Offline stand-in for `rayon`.
//!
//! The build environment cannot reach crates.io, so this crate
//! provides the two shapes the workspace uses, implemented on
//! `std::thread::scope`:
//!
//! * [`current_num_threads`] — the number of available cores;
//! * `par_iter().map(..).collect()` — the input slice is cut into one
//!   contiguous chunk per available core, each chunk is mapped on its
//!   own OS thread, and results are stitched back in input order.
//!
//! The campaign runner parallelizes *across* trials with these; each
//! trial itself runs serially.
//!
//! Semantics match rayon for pure `Fn` closures: same output order,
//! real parallelism, panics propagate.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;

/// Number of worker threads available to parallel maps — rayon's
/// `current_num_threads`.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Conversion of `&collection` into a parallel iterator, mirroring
/// `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    /// The parallel iterator type.
    type Iter;

    /// A parallel iterator over references to the elements.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = ParIter<'a, T>;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = ParIter<'a, T>;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Parallel iterator over `&[T]`.
#[derive(Debug)]
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every element through `f`, in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The result of [`ParIter::map`], awaiting a `collect`.
#[derive(Debug)]
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    /// Runs the map on a scoped thread pool and collects results in
    /// input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let n = self.items.len();
        if n == 0 {
            return std::iter::empty().collect();
        }
        let workers = current_num_threads().min(n);
        if workers <= 1 {
            return self.items.iter().map(&self.f).collect();
        }
        let chunk = n.div_ceil(workers);
        let f = &self.f;
        let mut per_chunk: Vec<Vec<R>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .items
                .chunks(chunk)
                .map(|items| s.spawn(move || items.iter().map(f).collect::<Vec<R>>()))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(p) => std::panic::resume_unwind(p),
                })
                .collect()
        });
        per_chunk.drain(..).flatten().collect()
    }
}

/// The customary glob-import surface.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn preserves_input_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(ys, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = Vec::new();
        let out: Vec<u32> = none.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one[..].par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let xs: Vec<u32> = (0..256).collect();
        let _: Vec<()> = xs
            .par_iter()
            .map(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::yield_now();
            })
            .collect();
        // With >1 core this runs on >1 thread; with 1 core, 1 is fine.
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        let used = seen.lock().unwrap().len();
        assert!(used >= 1 && used <= cores.max(1));
        if cores > 1 {
            assert!(used > 1, "expected parallel execution, used {used} threads");
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate() {
        let xs: Vec<u32> = (0..64).collect();
        let _: Vec<u32> = xs
            .par_iter()
            .map(|&x| if x == 33 { panic!("boom") } else { x })
            .collect();
    }
}
