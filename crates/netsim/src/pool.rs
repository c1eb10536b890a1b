//! Persistent worker pool for the sharded engine's parallel phase 1.
//!
//! The first threaded sharded engine spawned a fresh `std::thread::scope` per
//! tick — correct, but the spawn/join cost put a floor under the per-tick
//! overhead and welded the worker count to the shard count. This module
//! replaces it with N **long-lived** threads created once per run and fed work
//! over channels, so K shards can round-robin over W ≤ K workers and the two
//! knobs decouple (`ShardedOptions::shards` vs `ShardedOptions::workers`).
//!
//! The rendezvous protocol per tick is a strict barrier:
//!
//! 1. the coordinator moves each participating shard's [`ShardWork`] into the
//!    pool with [`WorkerPool::dispatch`] — task `slot` goes to worker
//!    `slot % workers`, a fixed assignment so no scheduling decision ever
//!    depends on thread timing;
//! 2. each worker runs the shared work function over the tasks it receives, in
//!    arrival order, catching panics so a poisoned task cannot wedge the run;
//! 3. the coordinator calls [`WorkerPool::collect`] exactly once per dispatch
//!    and does not proceed to the serial merge until every task is back.
//!
//! Workers never touch shared engine state: a task is owned exclusively by one
//! worker between `dispatch` and `collect`, and the work function only sees
//! `&mut` of that task (the shard/merge contract of [`crate::sharded`]). All
//! cross-thread communication is the two `mpsc` channel hops, which is what
//! the ThreadSanitizer CI job instruments.
//!
//! Panic discipline: a panicking work function is caught on the worker and
//! handed back as the [`PanicPayload`] of its `collect` result, so the
//! coordinator can keep collecting the remaining outstanding tasks (instead of
//! deadlocking on a dead worker) and then re-raise the first payload with
//! `std::panic::resume_unwind` — the engine's tests pin that protocol panics
//! surface with their original message.
//!
//! This module is the only place in the workspace allowed to create threads
//! (enforced by ds-lint's thread-spawn rule; see `ds-verify`).
//!
//! [`ShardWork`]: crate::sharded

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;

/// What a worker catches when the work function panics on a task: the payload
/// `std::panic::resume_unwind` re-raises.
pub type PanicPayload = Box<dyn Any + Send + 'static>;

/// Handle to a running pool, valid inside the closure passed to
/// [`WorkerPool::run`]. `T` is the task type (the engine's per-shard work
/// unit); tasks move into the pool on dispatch and come back on collect.
pub struct WorkerPool<T> {
    /// One task channel per worker; task `slot` goes to `task_txs[slot % W]`.
    task_txs: Vec<mpsc::Sender<(usize, T)>>,
    /// Completed tasks, in per-worker completion order (the coordinator
    /// re-indexes by slot, so cross-worker arrival order carries no meaning).
    done_rx: mpsc::Receiver<(usize, T, Option<PanicPayload>)>,
}

impl<T> WorkerPool<T> {
    /// Spawns `workers` long-lived threads running `work` over dispatched
    /// tasks and hands a pool handle to `f`; returns `f`'s result after every
    /// worker has drained its queue and joined. The worker threads live
    /// exactly as long as the closure (they are scoped), so `work` and `T` may
    /// borrow from the caller's stack. Only this constructor needs `T: Send` —
    /// a handle that is merely mentioned (the engine's sequential path) does
    /// not.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` (a pool with no workers cannot make
    /// progress), or propagates a panic of `f` itself after joining the
    /// workers.
    pub fn run<R>(
        workers: usize,
        work: impl Fn(&mut T) + Clone + Send,
        f: impl FnOnce(&mut WorkerPool<T>) -> R,
    ) -> R
    where
        T: Send,
    {
        assert!(workers > 0, "a worker pool needs at least one worker");
        std::thread::scope(|scope| {
            let (done_tx, done_rx) = mpsc::channel();
            let mut task_txs = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (task_tx, task_rx) = mpsc::channel::<(usize, T)>();
                task_txs.push(task_tx);
                let done_tx = done_tx.clone();
                let work = work.clone();
                scope.spawn(move || {
                    for (slot, mut task) in task_rx {
                        let panic = catch_unwind(AssertUnwindSafe(|| work(&mut task))).err();
                        // A send error means the coordinator is already gone
                        // (it panicked and dropped the handle); nothing left
                        // to hand the task back to.
                        let _ = done_tx.send((slot, task, panic));
                    }
                });
            }
            let mut pool = WorkerPool { task_txs, done_rx };
            let result = f(&mut pool);
            // Dropping the task senders ends every worker's receive loop; the
            // scope then joins them before `run` returns.
            drop(pool);
            result
        })
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.task_txs.len()
    }

    /// Sends `task` (identified by `slot`, typically the shard index) to
    /// worker `slot % workers`. Every dispatch must be matched by exactly one
    /// [`WorkerPool::collect`] before the barrier completes.
    pub fn dispatch(&mut self, slot: usize, task: T) {
        let w = slot % self.task_txs.len();
        self.task_txs[w].send((slot, task)).expect("worker threads outlive the handle");
    }

    /// Receives one completed task: its slot, the task itself (with the work
    /// function applied), and the panic payload if the work function panicked
    /// on it. Blocks until a worker finishes something; callers must not call
    /// it more times than they dispatched.
    pub fn collect(&mut self) -> (usize, T, Option<PanicPayload>) {
        self.done_rx.recv().expect("outstanding dispatches keep a worker alive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_round_robin_and_come_back_transformed() {
        // 7 tasks over 3 workers: each task records which slot it was and the
        // work function doubles its value; collect must return every task
        // exactly once with the transform applied.
        let results = WorkerPool::run(
            3,
            |task: &mut (usize, u64)| task.1 *= 2,
            |pool| {
                assert_eq!(pool.workers(), 3);
                for slot in 0..7 {
                    pool.dispatch(slot, (slot, slot as u64 + 10));
                }
                let mut out = vec![None; 7];
                for _ in 0..7 {
                    let (slot, task, panic) = pool.collect();
                    assert!(panic.is_none());
                    assert_eq!(task.0, slot, "tasks must come back under their own slot");
                    out[slot] = Some(task.1);
                }
                out
            },
        );
        let expected: Vec<Option<u64>> = (0..7).map(|s| Some((s + 10) * 2)).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn a_single_worker_serves_every_slot_in_dispatch_order() {
        let order = WorkerPool::run(
            1,
            |task: &mut Vec<usize>| task.push(99),
            |pool| {
                for slot in 0..4 {
                    pool.dispatch(slot, vec![slot]);
                }
                (0..4).map(|_| pool.collect().1).collect::<Vec<_>>()
            },
        );
        // One worker processes its queue in arrival order, so completion order
        // is dispatch order.
        assert_eq!(order, vec![vec![0, 99], vec![1, 99], vec![2, 99], vec![3, 99]]);
    }

    #[test]
    fn panics_are_handed_back_not_propagated_by_workers() {
        // One of three tasks panics: the other two still come back completed,
        // and the payload carries the original message for resume_unwind.
        let payload = WorkerPool::run(
            2,
            |task: &mut u64| {
                if *task == 13 {
                    panic!("task 13 is cursed");
                }
                *task += 1;
            },
            |pool| {
                pool.dispatch(0, 13u64);
                pool.dispatch(1, 20);
                pool.dispatch(2, 30);
                let mut cursed = None;
                for _ in 0..3 {
                    let (_, task, panic) = pool.collect();
                    match panic {
                        Some(p) => cursed = Some(p),
                        None => assert!(task == 21 || task == 31),
                    }
                }
                cursed.expect("the cursed task must report its panic")
            },
        );
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task 13 is cursed");
    }

    #[test]
    fn borrowed_work_functions_are_allowed() {
        // The scoped lifetime lets the work function close over the caller's
        // stack — the engine's work function borrows the delay model this way.
        let offset = 5u64;
        let total = WorkerPool::run(
            2,
            |task: &mut u64| *task += offset,
            |pool| {
                for slot in 0..4 {
                    pool.dispatch(slot, slot as u64);
                }
                (0..4).map(|_| pool.collect().1).sum::<u64>()
            },
        );
        assert_eq!(total, 6 + 4 * offset);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        WorkerPool::run(0, |_: &mut u64| {}, |_| {});
    }
}
