//! Persistent worker pool: the sharded engine's phase 1 (a dense tick's
//! activations, one task per shard with deliveries due) and the request
//! batches of `ds-sync`'s `SessionPool`. `N` long-lived threads, created
//! once per run (a per-tick `thread::scope` spawn put a floor under every
//! parallel tick), take tasks from one shared queue, so `K` tasks spread
//! over `W ≤ K` workers. A task owns what its work needs by value — a
//! shard's nodes and inbox, never a view into the engine's wheel, link
//! table or arena, which stay with the coordinator.
//!
//! The protocol is ship-and-collect: the coordinator queues tasks with
//! [`WorkerPool::dispatch`]; the first idle worker takes the oldest one and
//! runs the shared work function on it, catching panics; the coordinator
//! calls [`WorkerPool::collect`] once per dispatch and re-indexes the
//! completions by their `slot`. The pool is **work-conserving**: no worker
//! idles while a task waits, so tasks of unequal cost end when the work runs
//! out, not when the worker that drew the heaviest fixed share does.
//!
//! Which worker runs a task depends on thread timing, and nothing a task
//! computes does: a task is owned by one worker between `dispatch` and
//! `collect`, and the work function sees only `&mut` of it (the shard/merge
//! contract of [`crate::sharded`]). All cross-thread communication is the two
//! `mpsc` hops (workers take turns receiving through a mutex), which is what
//! the ThreadSanitizer CI job instruments.
//!
//! A caught panic comes back as the [`PanicPayload`] of its `collect` result,
//! so the coordinator collects every outstanding task before re-raising it
//! with `std::panic::resume_unwind`, instead of deadlocking on a dead worker;
//! the engine's tests pin that protocol panics keep their original message.
//!
//! This module is the only place in the workspace allowed to create threads
//! (enforced by ds-lint's thread-spawn rule; see `ds-verify`).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

/// What a worker catches when the work function panics on a task: the payload
/// `std::panic::resume_unwind` re-raises.
pub type PanicPayload = Box<dyn Any + Send + 'static>;

/// Handle to a running pool, valid inside the closure passed to
/// [`WorkerPool::run`]. Tasks `T` (a shard's work unit, or one request of a
/// batch) move in on dispatch and come back on collect.
pub struct WorkerPool<T> {
    /// The shared task queue; idle workers take tasks in dispatch order.
    task_tx: mpsc::Sender<(usize, T)>,
    /// Completed tasks, in completion order (re-indexed by slot).
    done_rx: mpsc::Receiver<(usize, T, Option<PanicPayload>)>,
}

impl<T> WorkerPool<T> {
    /// Spawns `workers` threads running `work` over dispatched tasks, hands a
    /// pool handle to `f`, and returns `f`'s result once every worker has
    /// drained the queue and joined. The threads are scoped, so `work` and `T`
    /// may borrow from the caller's stack. Only this constructor needs
    /// `T: Send`; a merely mentioned handle (the sequential engine) does not.
    ///
    /// # Panics
    ///
    /// If `workers == 0`, or with `f`'s own panic after joining the workers.
    pub fn run<R>(
        workers: usize,
        work: impl Fn(&mut T) + Sync,
        f: impl FnOnce(&mut WorkerPool<T>) -> R,
    ) -> R
    where
        T: Send,
    {
        assert!(workers > 0, "a worker pool needs at least one worker");
        let (task_tx, task_rx) = mpsc::channel::<(usize, T)>();
        let (done_tx, done_rx) = mpsc::channel();
        let task_rx = Mutex::new(task_rx);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (task_rx, work, done_tx) = (&task_rx, &work, done_tx.clone());
                scope.spawn(move || loop {
                    // The guard is this statement's temporary: a worker holds
                    // the queue only while it waits, and `recv` cannot panic.
                    let next = task_rx.lock().expect("queue lock is never poisoned").recv();
                    let Ok((slot, mut task)) = next else { break }; // queue closed
                    let panic = catch_unwind(AssertUnwindSafe(|| work(&mut task))).err();
                    // A send error means the coordinator already panicked and
                    // dropped the handle; nothing left to hand the task to.
                    let _ = done_tx.send((slot, task, panic));
                });
            }
            let mut pool = WorkerPool { task_tx, done_rx };
            let result = f(&mut pool);
            // Closing the queue ends every worker's loop; the scope joins them.
            drop(pool);
            result
        })
    }

    /// Queues `task`, identified by `slot` (a shard index or a submission
    /// index), for the first idle worker. Every dispatch must be matched by
    /// exactly one [`WorkerPool::collect`] before the barrier completes.
    pub fn dispatch(&mut self, slot: usize, task: T) {
        self.task_tx.send((slot, task)).expect("worker threads outlive the handle");
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
    fn tasks_come_back_transformed_under_their_own_slot() {
        // 7 tasks over 3 workers: each comes back once, doubled, under its slot.
        let results = WorkerPool::run(
            3,
            |task: &mut (usize, u64)| task.1 *= 2,
            |pool| {
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
        // One worker takes the queue in dispatch order, so it completes in it.
        assert_eq!(order, vec![vec![0, 99], vec![1, 99], vec![2, 99], vec![3, 99]]);
    }

    #[test]
    fn an_idle_worker_takes_the_next_task_while_another_is_busy() {
        // Task 0 blocks until task 2 has run, so two workers finish the batch
        // only if the one not stuck on task 0 takes both 1 and 2. Pinning task
        // `slot` to worker `slot % 2` would queue task 2 behind task 0.
        let (signal, wait) = mpsc::channel::<()>();
        let (signal, wait) = (Mutex::new(signal), Mutex::new(wait));
        let completed = WorkerPool::run(
            2,
            |slot: &mut usize| match *slot {
                0 => wait
                    .lock()
                    .expect("only task 0 waits")
                    .recv_timeout(std::time::Duration::from_secs(5))
                    .expect("task 2 must run while task 0 waits"),
                2 => signal.lock().expect("only task 2 signals").send(()).expect("task 0 waits"),
                _ => {}
            },
            |pool| {
                for slot in 0..3 {
                    pool.dispatch(slot, slot);
                }
                (0..3).filter(|_| pool.collect().2.is_none()).count()
            },
        );
        assert_eq!(completed, 3, "every task must complete without panicking");
    }

    #[test]
    fn panics_are_handed_back_not_propagated_by_workers() {
        // The other two tasks still complete; the payload keeps the message.
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
        // The scoped lifetime lets the work function borrow the caller's stack.
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
