//! The workspace's one worker pool.
//!
//! Everything that fans independent, deterministic work out over cores
//! runs on [`try_par_map`]: campaigns (one flow per index), the chaos
//! fuzzer (one case per index) and the repetition experiments (one ride
//! per index). Each result is a pure function of its index and lands in
//! that index's slot, so the output is bit-identical for any worker count.
//!
//! Each worker first executes a small round-robin *reserved prefix* of
//! indices it alone owns, then pulls the rest from a shared atomic
//! counter (idle workers take over remaining work). The reserved prefix
//! exists for warm campaign replays: cache hits return in microseconds,
//! so with a bare shared counter the first worker to spin up drained the
//! entire campaign before the rest of the pool finished spawning — every
//! warm `worker_flows` histogram read `[n, 0, 0, ...]`. Reserving the
//! first few rounds per worker guarantees each worker a slice of the
//! work regardless of spawn order, without giving up work-stealing for
//! the (expensive, uneven) simulated remainder.

use crate::error::EngineError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Rounds of the per-worker reserved prefix (see the module docs): each
/// worker owns this many indices before the pool falls back to the
/// shared counter. Large enough to pin a visible slice of warm replays
/// on every worker, small enough that an unlucky reserved assignment of
/// expensive flows cannot meaningfully unbalance a cold campaign.
pub const RESERVED_ROUNDS: usize = 8;

/// The worker count used when the caller does not choose one: every
/// available core (4 when the platform cannot say).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(4)
}

/// What one worker of a [`try_par_map`] call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerLoad {
    /// Indices the worker executed.
    pub items: usize,
    /// Seconds the worker spent inside `f`.
    pub busy_s: f64,
}

/// Maps `f` over `0..n` on `workers` scoped threads (clamped to
/// `1..=n`), returning the values in index order plus each worker's load.
///
/// Each worker calls `init()` once and passes the state to every index it
/// claims, so per-worker scratch (a simulation engine, a capture slab) is
/// reused across its indices instead of rebuilt per index.
///
/// Each result is written straight into its index's pre-allocated slot —
/// the worker claiming index `i` is the only writer of slot `i` — so the
/// output is assembled in order without a channel or a final sort. (A
/// per-slot mutex rather than a write-once cell keeps the bound at
/// `T: Send`; the lock is uncontended by construction.)
///
/// Once index `i` has failed, workers skip every index above `i` (the
/// *fail floor*) but keep executing those below it, so every index up to
/// the final floor has a filled slot and the lowest failure is exact. A
/// panic inside `f` is caught: that worker's slot stays empty and the
/// other workers stop claiming work. The panic is never re-raised in the
/// calling thread.
///
/// # Errors
///
/// Returns the lowest-index `Err` that `f` produced; otherwise
/// [`EngineError::WorkerLost`] when a slot ends up unfilled (a worker
/// panicked in `init` or `f`).
pub fn try_par_map<S, T: Send, E: Send + From<EngineError>>(
    n: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> Result<T, E> + Sync,
) -> Result<(Vec<T>, Vec<WorkerLoad>), E> {
    let workers = workers.clamp(1, n.max(1));
    // Round-robin reserved prefix: worker `w` alone owns indices
    // `{w, w + workers, ...}` for the first `reserved` rounds.
    let reserved = (n / workers).min(RESERVED_ROUNDS);
    let next = AtomicUsize::new(reserved * workers);
    let abort = AtomicBool::new(false);
    // Lowest failed index seen so far (`usize::MAX` = none).
    let fail_floor = AtomicUsize::new(usize::MAX);
    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();

    let loads: Vec<WorkerLoad> = std::thread::scope(|scope| {
        let (init, f, next, abort, fail_floor, slots) =
            (&init, &f, &next, &abort, &fail_floor, &slots);
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                scope.spawn(move || {
                    let mut state = init();
                    let mut load = WorkerLoad::default();
                    for round in 0.. {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = if round < reserved {
                            worker + round * workers
                        } else {
                            next.fetch_add(1, Ordering::Relaxed)
                        };
                        if i >= n {
                            break;
                        }
                        if i > fail_floor.load(Ordering::Relaxed) {
                            // A lower index already failed; this result
                            // could never surface.
                            continue;
                        }
                        let t0 = Instant::now();
                        let out = catch_unwind(AssertUnwindSafe(|| f(&mut state, i)));
                        load.busy_s += t0.elapsed().as_secs_f64();
                        let Ok(out) = out else {
                            abort.store(true, Ordering::Relaxed);
                            break;
                        };
                        load.items += 1;
                        if out.is_err() {
                            fail_floor.fetch_min(i, Ordering::Relaxed);
                        }
                        *slots[i].lock().expect("slot lock") = Some(out);
                    }
                    load
                })
            })
            .collect();
        // A worker whose `init` panicked reports no load; its unfilled
        // slots surface as `WorkerLost` below.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    let mut values = Vec::with_capacity(n);
    let mut lost = false;
    for slot in slots {
        match slot.into_inner().expect("slot lock") {
            Some(Ok(value)) => values.push(value),
            // Every index below the final fail floor was executed, so the
            // first error met in slot order is the lowest on every
            // interleaving.
            Some(Err(e)) => return Err(e),
            None => lost = true,
        }
    }
    if lost {
        return Err(EngineError::WorkerLost.into());
    }
    Ok((values, loads))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f` for tests that cannot fail.
    fn ok<T>(value: T) -> Result<T, EngineError> {
        Ok(value)
    }

    #[test]
    fn preserves_order_and_values() {
        let (out, _) = try_par_map(100, available_workers(), || (), |_, i| ok(i * i)).unwrap();
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn succeeds_on_the_happy_path() {
        let (out, _) = try_par_map(10, 3, || (), |_, i| ok(i + 1)).expect("no worker loss");
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    /// A panic on the *last* slot: every other slot is already filled, so
    /// only the unfilled-slot path can catch this — and it must, as a
    /// structured error rather than a propagated panic.
    #[test]
    fn panic_on_the_last_slot_surfaces_as_worker_lost() {
        let err = try_par_map(
            8,
            3,
            || (),
            |_, i| {
                if i == 7 {
                    panic!("chaos: worker death on the last slot");
                }
                ok(i)
            },
        )
        .unwrap_err();
        assert_eq!(err, EngineError::WorkerLost);
    }

    /// Two workers dying concurrently (different indices, racing abort
    /// stores) must still collapse to the same structured error on every
    /// interleaving.
    #[test]
    fn two_workers_panicking_concurrently_is_deterministically_lost() {
        for round in 0..20 {
            let err = try_par_map(
                16,
                4,
                || (),
                |_, i| {
                    if i == 2 || i == 11 {
                        panic!("chaos: concurrent worker death");
                    }
                    ok(i)
                },
            )
            .unwrap_err();
            assert_eq!(err, EngineError::WorkerLost, "round {round}");
        }
    }

    /// Two workers erroring concurrently: the call reports the lowest
    /// failing index regardless of which racing worker stored its error
    /// first.
    #[test]
    fn concurrent_worker_errors_resolve_lowest_index_first() {
        let failure = |index| EngineError::FlowFailed {
            index,
            source: hsm_scenario::runner::ScenarioError::ZeroWindow,
        };
        for round in 0..20 {
            let err = try_par_map(
                16,
                4,
                || (),
                |_, i| {
                    if i == 3 || i == 12 {
                        Err(failure(i))
                    } else {
                        Ok(i)
                    }
                },
            )
            .unwrap_err();
            assert_eq!(err, failure(3), "round {round}");
        }
    }

    /// Each worker builds its state once and keeps it across every index
    /// it claims.
    #[test]
    fn init_runs_once_per_worker_and_its_state_persists() {
        let workers = 4;
        let inits = AtomicUsize::new(0);
        let (out, loads) = try_par_map(
            64,
            workers,
            || (inits.fetch_add(1, Ordering::Relaxed), 0usize),
            |(id, seen), _| {
                *seen += 1;
                ok((*id, *seen))
            },
        )
        .unwrap();
        let inits = inits.into_inner();
        assert!(
            (1..=workers).contains(&inits),
            "{inits} inits for {workers} workers"
        );
        // Within one state the counter runs 1, 2, ..., k without a restart,
        // so no index ever saw a fresh state after the worker's first.
        for id in 0..inits {
            let mut seen: Vec<usize> = out
                .iter()
                .filter(|(o, _)| *o == id)
                .map(|(_, s)| *s)
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (1..=seen.len()).collect::<Vec<_>>(), "state {id}");
        }
        let mut per_state: Vec<usize> = (0..inits)
            .map(|id| out.iter().filter(|(o, _)| *o == id).count())
            .collect();
        let mut per_worker: Vec<usize> = loads.iter().map(|l| l.items).collect();
        per_state.sort_unstable();
        per_worker.sort_unstable();
        assert_eq!(per_state, per_worker);
    }

    /// Instant work cannot starve a worker: each owns its reserved prefix.
    #[test]
    fn every_worker_gets_its_reserved_prefix() {
        for workers in [2usize, 3, 4] {
            let n = workers * RESERVED_ROUNDS + 5;
            let (_, loads) = try_par_map(n, workers, || (), |_, i| ok(i)).unwrap();
            assert_eq!(loads.len(), workers);
            for (w, load) in loads.iter().enumerate() {
                assert!(
                    load.items >= RESERVED_ROUNDS,
                    "worker {w} of {workers} ran {} items: {loads:?}",
                    load.items
                );
            }
        }
    }

    #[test]
    fn loads_account_for_every_index() {
        for (n, workers) in [(0usize, 3usize), (1, 4), (7, 3), (100, 4)] {
            let (out, loads) = try_par_map(n, workers, || (), |_, i| ok(i)).unwrap();
            assert_eq!(out.len(), n);
            assert_eq!(loads.iter().map(|l| l.items).sum::<usize>(), n, "n = {n}");
        }
    }
}
