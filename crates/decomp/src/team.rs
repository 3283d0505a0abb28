//! A long-lived fork-join worker team for the workspace's one parallel
//! phase, the level-synchronous peel ([`crate::par`]), which the
//! maintenance planner also runs as its parallel recompute.
//!
//! An earlier fork-join ran each job inside its own `std::thread::scope`,
//! paying a spawn + join per call — fine for one decomposition over a
//! 50k-vertex graph, a real tax when the ingest writer recomputes per
//! micro-batch. This team spawns its workers **once** (lazily, growing
//! up to [`MAX_WORKERS`]) and parks them on a condvar between jobs, so a
//! job submission costs a mutex round-trip and a wake, not a
//! `clone(2)`.
//!
//! ## Protocol
//!
//! [`run`]`(tasks, f)` executes `f(0)` on the calling thread and
//! `f(1) .. f(tasks-1)` on the team, returning only when every call has
//! finished. One job runs at a time (a submit lock serialises callers —
//! the workspace's parallel phases are themselves serialised behind
//! `&mut` engines, so contention is not a real shape). Task indices are
//! claimed greedily: a woken worker keeps claiming indices of the
//! current job until none remain, so stragglers cannot strand a task
//! and the job completes even if the OS wakes fewer workers than tasks.
//!
//! Panics in any task are caught, the job is drained to completion, and
//! the panic is re-raised on the submitting thread — same observable
//! behaviour as the scoped-join version. Calls from *inside* a team
//! task (accidental nesting) degrade to inline sequential execution
//! instead of deadlocking on the submit lock.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Hard cap on spawned workers. Jobs may ask for more tasks than this;
/// greedy index claiming lets fewer workers drain them.
pub const MAX_WORKERS: usize = 32;

/// A job is a borrowed closure; [`run`] transmutes the borrow to
/// `'static` for the slot and guarantees (by blocking until `done ==
/// tasks - 1`) that no worker touches it after `run` returns.
type Job = &'static (dyn Fn(usize) + Sync);

struct Slot {
    /// Monotone job counter; a worker sleeps until it advances past the
    /// last job it helped with.
    seq: u64,
    job: Option<Job>,
    /// Next unclaimed task index of the current job.
    next_index: usize,
    /// Task count of the current job (worker indices are `1..tasks`).
    tasks: usize,
    /// Worker tasks finished (target: `tasks - 1`).
    done: usize,
    panicked: bool,
    spawned: usize,
}

struct Team {
    slot: Mutex<Slot>,
    work_cv: Condvar,
    done_cv: Condvar,
    submit: Mutex<()>,
}

fn team() -> &'static Team {
    static TEAM: OnceLock<&'static Team> = OnceLock::new();
    TEAM.get_or_init(|| {
        Box::leak(Box::new(Team {
            slot: Mutex::new(Slot {
                seq: 0,
                job: None,
                next_index: 0,
                tasks: 0,
                done: 0,
                panicked: false,
                spawned: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            submit: Mutex::new(()),
        }))
    })
}

thread_local! {
    /// Set while this thread is executing a team task — nested [`run`]
    /// calls fall back to inline execution instead of self-deadlocking.
    static IN_TEAM_TASK: Cell<bool> = const { Cell::new(false) };
}

// Lifetime counters for the process-wide team, exported through
// [`stats`]. Relaxed: they are observability, not synchronisation.
static JOBS: AtomicU64 = AtomicU64::new(0);
static TASKS: AtomicU64 = AtomicU64::new(0);
static INLINE_JOBS: AtomicU64 = AtomicU64::new(0);
static NESTED_INLINE: AtomicU64 = AtomicU64::new(0);

/// A point-in-time view of the worker team, for gauges and logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TeamStats {
    /// Jobs dispatched to the team (`tasks > 1`, not nested).
    pub jobs: u64,
    /// Total task invocations across all jobs (including inline ones).
    pub tasks: u64,
    /// Jobs that ran inline because `tasks <= 1`.
    pub inline_jobs: u64,
    /// Jobs that ran inline because they were submitted from inside a
    /// team task (nesting fallback).
    pub nested_inline: u64,
    /// Workers spawned so far (monotone, ≤ [`MAX_WORKERS`]).
    pub workers_spawned: u64,
    /// Whether a job is occupying the team right now.
    pub busy: bool,
}

/// Lifetime team statistics — queue/occupancy gauges for the
/// observability layer. Cheap: four relaxed loads plus one short lock.
pub fn stats() -> TeamStats {
    let (spawned, busy) = {
        let slot = team().slot.lock().unwrap();
        (slot.spawned as u64, slot.job.is_some())
    };
    TeamStats {
        jobs: JOBS.load(Ordering::Relaxed),
        tasks: TASKS.load(Ordering::Relaxed),
        inline_jobs: INLINE_JOBS.load(Ordering::Relaxed),
        nested_inline: NESTED_INLINE.load(Ordering::Relaxed),
        workers_spawned: spawned,
        busy,
    }
}

fn worker_loop(team: &'static Team) {
    let mut last_seen = 0u64;
    let mut slot = team.slot.lock().unwrap();
    loop {
        if slot.seq != last_seen && slot.job.is_some() {
            if slot.next_index < slot.tasks {
                let i = slot.next_index;
                slot.next_index += 1;
                let job = slot.job.unwrap();
                drop(slot);
                let ok = panic::catch_unwind(AssertUnwindSafe(|| {
                    IN_TEAM_TASK.with(|f| f.set(true));
                    job(i);
                }))
                .is_ok();
                IN_TEAM_TASK.with(|f| f.set(false));
                slot = team.slot.lock().unwrap();
                if !ok {
                    slot.panicked = true;
                }
                slot.done += 1;
                if slot.done + 1 >= slot.tasks {
                    team.done_cv.notify_all();
                }
                continue; // greedily claim another index of this job
            }
            // Every index claimed: this job needs nothing more from us.
            last_seen = slot.seq;
        }
        slot = team.work_cv.wait(slot).unwrap();
    }
}

/// Runs `f(i)` for every `i in 0..tasks` — `f(0)` on the calling
/// thread, the rest on the worker team — and returns when all calls
/// have finished. Panics (from any task) are re-raised here after the
/// job has fully drained, so borrowed captures stay valid for the
/// job's whole lifetime.
pub fn run(tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    if tasks <= 1 {
        INLINE_JOBS.fetch_add(1, Ordering::Relaxed);
        TASKS.fetch_add(1, Ordering::Relaxed);
        f(0);
        return;
    }
    if IN_TEAM_TASK.with(|flag| flag.get()) {
        // Nested submission from inside a task: run inline rather than
        // deadlock on the submit lock the outer job's caller holds.
        NESTED_INLINE.fetch_add(1, Ordering::Relaxed);
        TASKS.fetch_add(tasks as u64, Ordering::Relaxed);
        for i in 0..tasks {
            f(i);
        }
        return;
    }
    JOBS.fetch_add(1, Ordering::Relaxed);
    TASKS.fetch_add(tasks as u64, Ordering::Relaxed);
    let team = team();
    let _guard = team
        .submit
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());

    // SAFETY: the slot's borrow of `f` is cleared below, and we do not
    // return (or unwind) before `done == tasks - 1` confirms no worker
    // still holds it.
    let job: Job = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
    };
    {
        let mut slot = team.slot.lock().unwrap();
        let want = (tasks - 1).min(MAX_WORKERS);
        while slot.spawned < want {
            let t = slot.spawned;
            std::thread::Builder::new()
                .name(format!("kcore-team-{t}"))
                .spawn(move || worker_loop(self::team()))
                .expect("spawn team worker");
            slot.spawned += 1;
        }
        slot.seq += 1;
        slot.job = Some(job);
        slot.next_index = 1;
        slot.tasks = tasks;
        slot.done = 0;
        slot.panicked = false;
        team.work_cv.notify_all();
    }

    // Task 0 runs on this thread while the submit lock is held, so it
    // must take the same inline-nesting fallback as worker tasks — a
    // nested `run` here would self-deadlock on the non-reentrant lock.
    let caller = panic::catch_unwind(AssertUnwindSafe(|| {
        IN_TEAM_TASK.with(|flag| flag.set(true));
        f(0)
    }));
    IN_TEAM_TASK.with(|flag| flag.set(false));

    let mut slot = team.slot.lock().unwrap();
    while slot.done < slot.tasks - 1 {
        slot = team.done_cv.wait(slot).unwrap();
    }
    slot.job = None;
    let worker_panicked = slot.panicked;
    drop(slot);

    match caller {
        Err(payload) => panic::resume_unwind(payload),
        Ok(()) if worker_panicked => panic!("worker team task panicked"),
        Ok(()) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        for tasks in [1usize, 2, 3, 8, 40] {
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            run(tasks, &|i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "task {i} of {tasks}");
            }
        }
    }

    #[test]
    fn jobs_reuse_the_team_across_submissions() {
        let total = AtomicUsize::new(0);
        for round in 1..=20usize {
            run(4, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(total.load(Ordering::SeqCst), round * 4);
        }
    }

    #[test]
    fn worker_panic_propagates_and_team_survives() {
        let boom = panic::catch_unwind(AssertUnwindSafe(|| {
            run(4, &|i| {
                if i == 2 {
                    panic!("scripted task failure");
                }
            });
        }));
        assert!(boom.is_err(), "worker panic must reach the submitter");
        // The team is still serviceable afterwards.
        let n = AtomicUsize::new(0);
        run(4, &|_| {
            n.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(n.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn caller_task_panic_propagates_after_drain() {
        let others = AtomicUsize::new(0);
        let boom = panic::catch_unwind(AssertUnwindSafe(|| {
            run(3, &|i| {
                if i == 0 {
                    panic!("caller task failure");
                }
                others.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(boom.is_err());
        // Both worker tasks finished before the panic resumed.
        assert_eq!(others.load(Ordering::SeqCst), 2);
        let n = AtomicUsize::new(0);
        run(2, &|_| {
            n.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(n.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn nested_run_degrades_to_inline() {
        let inner_total = AtomicUsize::new(0);
        run(3, &|_| {
            run(4, &|_| {
                inner_total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(inner_total.load(Ordering::SeqCst), 12);
    }
}
