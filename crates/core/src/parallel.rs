//! Deterministic parallel execution for the estimation pipeline.
//!
//! This is the core-crate face of [`bmf_stats::parallel`]: the same
//! scoped-thread work splitter and per-task seed derivation, with worker
//! panics surfaced as [`BmfError::Worker`] so pipeline callers compose
//! with `?` instead of aborting.
//!
//! # The seed-derivation contract
//!
//! Every parallel stage derives one seed per unit of work with
//! [`derive_seed`]`(root, stream, index)`:
//!
//! * `root` — the user-facing seed (CLI `--seed`, `SweepConfig::seed`, a
//!   value drawn once from a caller's `&mut Rng`);
//! * `stream` — a constant distinguishing independent consumers under the
//!   same root (see [`streams`]);
//! * `index` — the stable task index (grid-candidate number, repetition
//!   number, sample row, …).
//!
//! A task's random stream therefore depends only on *which task it is*,
//! never on thread count or scheduling order, which is what makes every
//! parallel entry point in this workspace **bit-identical** at every
//! thread count, including 1. Floating-point reductions preserve this by
//! keeping each task's accumulation inside one task and combining task
//! results in index order.

pub use bmf_stats::parallel::{
    available_threads, derive_seed, resolve_threads, scoped_map_range, WorkerPanic,
};

use crate::{BmfError, Result};

/// Logical stream constants for [`derive_seed`] used by `bmf-core`.
///
/// Streams must be distinct per independent consumer of one root seed;
/// the values themselves are arbitrary but frozen — changing one changes
/// every seeded result downstream.
pub mod streams {
    /// Per-repeat fold shuffles of one CV search
    /// ([`crate::cv::CrossValidation::select_seeded`]).
    pub const CV_FOLD_SHUFFLE: u64 = 0x0CF5;
}

/// [`scoped_map_range`] with worker panics converted to
/// [`BmfError::Worker`].
///
/// # Errors
///
/// Returns [`BmfError::Worker`] when a worker thread panics.
pub fn map_range<U, F>(len: usize, threads: usize, f: F) -> Result<Vec<U>>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    scoped_map_range(len, threads, f).map_err(BmfError::from)
}

impl From<WorkerPanic> for BmfError {
    fn from(p: WorkerPanic) -> Self {
        BmfError::Worker {
            reason: p.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_range_is_order_preserving_and_deterministic() {
        let serial = map_range(23, 1, |i| derive_seed(7, 1, i as u64)).unwrap();
        for threads in [2, 3, 7, 32] {
            let par = map_range(23, threads, |i| derive_seed(7, 1, i as u64)).unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn worker_panic_becomes_bmf_error() {
        let err = map_range(4, 2, |i| {
            assert!(i != 3, "bad repetition");
            i
        })
        .unwrap_err();
        match err {
            BmfError::Worker { reason } => assert!(reason.contains("bad repetition")),
            other => panic!("expected Worker error, got {other:?}"),
        }
    }
}
