//! Deterministic scoped-thread work splitting with per-task seed derivation.
//!
//! Every parallel stage in the workspace (CV grid scoring, Monte Carlo
//! generation, the error-vs-n sweep) follows the same contract: each unit
//! of work owns an RNG seeded from a **root seed plus a stable task
//! index**, so the random stream a task consumes is a function of *what*
//! the task is, never of *which thread* runs it or in what order. Results
//! are therefore bit-identical for any thread count, including 1. This
//! module is the single implementation of that contract:
//!
//! * [`derive_seed`] — mixes `(root, stream, index)` into a task seed;
//! * [`scoped_map`] / [`scoped_map_range`] — run an indexed map over
//!   `std::thread::scope` workers (or, with one worker, on the calling
//!   thread), returning results in task order and converting worker
//!   panics into a [`WorkerPanic`] error instead of aborting the caller;
//! * [`available_threads`] / [`resolve_threads`] — the `--threads`
//!   default policy shared by every binary.
//!
//! No work-stealing: task `i` is statically assigned to worker
//! `i % threads` (round-robin striding). The workloads here are uniform
//! enough that static assignment wastes little, and it keeps the
//! scheduling — like the seeding — trivially deterministic.

/// Derives the seed of task `index` on logical stream `stream` from a
/// root seed, with SplitMix64-style avalanche mixing.
///
/// `stream` separates independent consumers under one root (e.g. the
/// early vs. late Monte Carlo stage, or the per-repeat fold shuffles of
/// one CV search) so that equal indices on different streams never
/// collide. The mix is bijective in `root` for fixed `(stream, index)`
/// and avalanches well enough that consecutive indices produce unrelated
/// seeds.
#[must_use]
pub fn derive_seed(root: u64, stream: u64, index: u64) -> u64 {
    let mut z = root
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The machine's available parallelism (1 when it cannot be queried).
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a `--threads` request: an explicit positive count wins,
/// otherwise the machine's available parallelism.
#[must_use]
pub fn resolve_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(t) if t > 0 => t,
        _ => available_threads(),
    }
}

/// A worker thread panicked while executing [`scoped_map`] /
/// [`scoped_map_range`].
///
/// The panic is contained (joined, not propagated), its payload captured
/// here so callers can degrade gracefully instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the panicking worker (not task).
    pub worker: usize,
    /// The panic payload, when it was a string; a placeholder otherwise.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker {} panicked: {}", self.worker, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f(index)` for every `index in 0..len` across at most `threads`
/// worker threads and returns the results in index order.
///
/// Task `i` runs on worker `i % threads`; `threads` is clamped to
/// `[1, len]` so requesting more workers than tasks (or 0) is safe. With
/// one effective worker the tasks run in order on the calling thread
/// under `catch_unwind`, which saves a thread spawn and join (tens of
/// microseconds) per map and contains a panic the same way, so the
/// contract below holds at every thread count.
///
/// # Errors
///
/// Returns [`WorkerPanic`] if any worker panics; the first panicking
/// worker (by worker index) is reported and the panics of others are
/// contained.
pub fn scoped_map_range<U, F>(len: usize, threads: usize, f: F) -> Result<Vec<U>, WorkerPanic>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = threads.clamp(1, len.max(1));
    if threads == 1 {
        return std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = bmf_obs::span("parallel.worker");
            (0..len).map(&f).collect()
        }))
        .map_err(|payload| WorkerPanic {
            worker: 0,
            message: panic_message(payload.as_ref()),
        });
    }
    let mut slots: Vec<Option<U>> = Vec::with_capacity(len);
    slots.resize_with(len, || None);
    let mut first_panic: Option<WorkerPanic> = None;

    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    // Worker span closes before the thread exits, so its
                    // event rides the TLS-buffer merge at scope join.
                    let _span = bmf_obs::span("parallel.worker");
                    (worker..len)
                        .step_by(threads)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<(usize, U)>>()
                })
            })
            .collect();
        for (worker, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(pairs) => {
                    for (i, value) in pairs {
                        slots[i] = Some(value);
                    }
                }
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(WorkerPanic {
                            worker,
                            message: panic_message(payload.as_ref()),
                        });
                    }
                }
            }
        }
    });

    if let Some(p) = first_panic {
        return Err(p);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every task index was assigned to exactly one worker"))
        .collect())
}

/// Runs `f(index, &items[index])` over `items` across at most `threads`
/// workers and returns the results in item order.
///
/// Convenience wrapper over [`scoped_map_range`]; the same determinism
/// and clamping rules apply.
///
/// # Errors
///
/// Returns [`WorkerPanic`] if any worker panics.
pub fn scoped_map<T, U, F>(items: &[T], threads: usize, f: F) -> Result<Vec<U>, WorkerPanic>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    scoped_map_range(items.len(), threads, |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_stable_and_collision_free_locally() {
        // Pinned values: the sweep's historical per-(n, rep) streams are
        // derive_seed(base, n, rep) and must never drift.
        assert_eq!(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
        let mut seen = std::collections::HashSet::new();
        for stream in 0..64u64 {
            for index in 0..256u64 {
                assert!(seen.insert(derive_seed(2015, stream, index)));
            }
        }
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
    }

    #[test]
    fn scoped_map_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [0, 1, 2, 3, 7, 64] {
            let par = scoped_map(&items, threads, |_, &x| x * x).unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn scoped_map_range_handles_empty_input() {
        let out = scoped_map_range(0, 4, |i| i).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_is_converted_to_error() {
        let err = scoped_map_range(8, 3, |i| {
            assert!(i != 5, "task 5 exploded");
            i
        })
        .unwrap_err();
        assert!(err.message.contains("task 5 exploded"), "{err}");
        assert_eq!(err.worker, 5 % 3);
    }

    #[test]
    fn single_thread_panics_are_contained_too() {
        let out = scoped_map_range(5, 1, |i| i + 1).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        let err = scoped_map_range(5, 1, |i| {
            assert!(i != 4, "boom");
            i
        })
        .unwrap_err();
        assert_eq!(err.worker, 0);
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (len, threads) in [(5, 1), (1, 4), (3, 0)] {
            let ids = scoped_map_range(len, threads, |_| std::thread::current().id()).unwrap();
            assert!(
                ids.iter().all(|&id| id == caller),
                "len = {len}, threads = {threads}"
            );
        }
        let ids = scoped_map_range(4, 2, |_| std::thread::current().id()).unwrap();
        assert!(ids.iter().all(|&id| id != caller));
    }

    #[test]
    fn resolve_threads_policy() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(0)) >= 1);
        assert!(available_threads() >= 1);
    }
}
