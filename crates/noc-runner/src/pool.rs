//! A minimal deterministic worker pool over indexed tasks.
//!
//! The pool executes a vector of items on `jobs` OS threads and returns
//! the results **in item order**, regardless of which worker finished
//! which item when. Determinism therefore reduces to each item's
//! computation being a pure function of the item itself — which
//! [`CampaignTask`](rlnoc_core::campaign::CampaignTask) guarantees by
//! carrying its own derived seed.
//!
//! The design is a shared injector queue (a mutex around a `VecDeque`)
//! drained by the workers, with results flowing back over an mpsc
//! channel tagged by item index. A mutex-guarded deque is deliberately
//! chosen over a lock-free deque: campaign tasks run for seconds, so
//! queue contention is unmeasurable and the simple structure keeps this
//! crate dependency-free (the build environment has no registry access).

use rlnoc_telemetry::Telemetry;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Runs `f` over every `(index, item)` pair on `jobs` worker threads and
/// returns the results in item order.
///
/// * `jobs == 0` is treated as 1.
/// * With `jobs == 1` the items run inline on the calling thread, in
///   order — the serial baseline the parallel runs must match.
/// * `telemetry` (when enabled) records a `runner.queue_depth` gauge,
///   a `runner.tasks_completed` counter, and one
///   `runner.worker.<i>.tasks` counter per worker.
///
/// # Panics
///
/// Panics if a worker thread panics (the panic is propagated) or if an
/// internal channel disconnects early, which only happens on such a
/// panic.
pub fn run_indexed<T, R, F>(items: Vec<T>, jobs: usize, telemetry: &Telemetry, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let jobs = jobs.max(1);
    let total = items.len();
    let completed = telemetry.counter("runner.tasks_completed");
    if jobs == 1 || total <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let r = f(i, item);
                completed.add(1);
                r
            })
            .collect();
    }

    let queue_depth = telemetry.gauge("runner.queue_depth");
    queue_depth.set(total as f64);
    let injector: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let (tx, rx) = mpsc::channel::<(usize, R)>();

    let mut slots: Vec<Option<R>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    std::thread::scope(|scope| {
        for worker in 0..jobs.min(total) {
            let tx = tx.clone();
            let injector = &injector;
            let f = &f;
            let queue_depth = queue_depth.clone();
            let worker_tasks = telemetry.counter(&format!("runner.worker.{worker}.tasks"));
            scope.spawn(move || loop {
                let job = injector.lock().expect("injector poisoned").pop_front();
                let Some((index, item)) = job else { break };
                queue_depth.add(-1.0);
                let result = f(index, item);
                worker_tasks.add(1);
                if tx.send((index, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for _ in 0..total {
            let (index, result) = rx.recv().expect("worker pool ended early");
            completed.add(1);
            slots[index] = Some(result);
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("every index produced a result"))
        .collect()
}

/// A unit of work pulled by a [`ServicePool`] worker.
pub type Job = Box<dyn FnOnce() + Send>;

/// Where a long-lived pool pulls its work from.
///
/// Unlike [`run_indexed`]'s one-shot item vector, a job source is
/// *submission-reentrant*: new work can be enqueued behind it at any
/// time (from other threads, from running jobs, from network handlers)
/// and idle workers pick it up. Implementations typically wrap a
/// mutex/condvar pair around a scheduling structure — `rlnoc-serve`
/// uses a deficit-round-robin queue over tenants.
pub trait JobSource: Send + Sync {
    /// Blocks until a job is available and returns it; returns `None`
    /// to tell the calling worker to exit (shutdown).
    fn next_job(&self) -> Option<Job>;
}

/// A long-lived worker pool draining a [`JobSource`].
///
/// Complements [`run_indexed`] for always-on services: the pool owns
/// its threads for the lifetime of the service rather than one campaign
/// invocation, so submissions can arrive while earlier work is still
/// running. Determinism is unchanged — jobs are pure functions of their
/// captured task, so pull order never leaks into results.
///
/// `telemetry` records the same instruments as [`run_indexed`]
/// (`runner.tasks_completed`, `runner.worker.<i>.tasks`).
///
/// A job that panics ends only itself: the worker catches the unwind
/// and pulls the next job, so one failing task cannot stall the
/// service behind it.
#[derive(Debug)]
pub struct ServicePool {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ServicePool {
    /// Spawns `jobs` workers (0 is treated as 1) pulling from `source`
    /// until it returns `None`.
    pub fn start(jobs: usize, source: Arc<dyn JobSource>, telemetry: &Telemetry) -> Self {
        let jobs = jobs.max(1);
        let mut handles = Vec::with_capacity(jobs);
        for worker in 0..jobs {
            let source = Arc::clone(&source);
            let worker_tasks = telemetry.counter(&format!("runner.worker.{worker}.tasks"));
            let completed = telemetry.counter("runner.tasks_completed");
            let handle = std::thread::Builder::new()
                .name(format!("rlnoc-worker-{worker}"))
                .spawn(move || {
                    while let Some(job) = source.next_job() {
                        // A panicking job is its own failure, not the
                        // pool's: the worker lives on to take the next
                        // one. Jobs report their own outcome, so the
                        // payload has nowhere to go.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        worker_tasks.add(1);
                        completed.add(1);
                    }
                })
                .expect("spawn pool worker");
            handles.push(handle);
        }
        Self { handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Waits for every worker to observe shutdown (`None` from the
    /// source) and exit.
    ///
    /// # Panics
    ///
    /// Propagates a worker panic.
    pub fn join(self) {
        for handle in self.handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;

    /// A plain FIFO job source with a closed flag, for pool tests.
    struct FifoSource {
        state: Mutex<(VecDeque<Job>, bool)>,
        cv: Condvar,
    }

    impl FifoSource {
        fn new() -> Self {
            Self {
                state: Mutex::new((VecDeque::new(), false)),
                cv: Condvar::new(),
            }
        }

        fn push(&self, job: Job) {
            self.state.lock().expect("lock").0.push_back(job);
            self.cv.notify_one();
        }

        fn close(&self) {
            self.state.lock().expect("lock").1 = true;
            self.cv.notify_all();
        }
    }

    impl JobSource for FifoSource {
        fn next_job(&self) -> Option<Job> {
            let mut state = self.state.lock().expect("lock");
            loop {
                if let Some(job) = state.0.pop_front() {
                    return Some(job);
                }
                if state.1 {
                    return None;
                }
                state = self.cv.wait(state).expect("wait");
            }
        }
    }

    #[test]
    fn service_pool_runs_jobs_submitted_after_start() {
        let source = Arc::new(FifoSource::new());
        let telemetry = Telemetry::enabled();
        let pool = ServicePool::start(3, source.clone(), &telemetry);
        assert_eq!(pool.workers(), 3);
        let ran = Arc::new(AtomicUsize::new(0));
        // Submit in waves — the reentrancy run_indexed cannot offer.
        for _ in 0..2 {
            for _ in 0..10 {
                let ran = ran.clone();
                source.push(Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                }));
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        source.close();
        pool.join();
        assert_eq!(ran.load(Ordering::SeqCst), 20);
        assert_eq!(telemetry.counter("runner.tasks_completed").get(), 20);
    }

    #[test]
    fn a_panicking_job_does_not_take_its_worker_down() {
        let source = Arc::new(FifoSource::new());
        let pool = ServicePool::start(1, source.clone(), &Telemetry::disabled());
        let (tx, rx) = mpsc::channel();
        source.push(Box::new(|| panic!("job failed")));
        source.push(Box::new(move || tx.send(()).expect("test is listening")));
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the job queued behind a panic runs");
        source.close();
        pool.join();
    }

    #[test]
    fn service_pool_join_returns_when_source_closes_empty() {
        let source = Arc::new(FifoSource::new());
        let pool = ServicePool::start(2, source.clone(), &Telemetry::disabled());
        source.close();
        pool.join();
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 2, 4, 7] {
            let out = run_indexed(items.clone(), jobs, &Telemetry::disabled(), |i, item| {
                assert_eq!(i, item);
                // Stagger finishing order: later items finish earlier.
                std::thread::sleep(std::time::Duration::from_micros((64 - item as u64) * 10));
                item * 3
            });
            assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_indexed(
            (0..100).collect::<Vec<i32>>(),
            8,
            &Telemetry::disabled(),
            |_, item| {
                counter.fetch_add(1, Ordering::SeqCst);
                item
            },
        );
        assert_eq!(out.len(), 100);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = run_indexed(vec![10, 20], 16, &Telemetry::disabled(), |_, x| x + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn empty_input_returns_empty() {
        let out: Vec<i32> = run_indexed(Vec::<i32>::new(), 4, &Telemetry::disabled(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_behaves_as_serial() {
        let out = run_indexed(vec![1, 2, 3], 0, &Telemetry::disabled(), |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn telemetry_counts_tasks_and_drains_queue() {
        let telemetry = Telemetry::enabled();
        let _ = run_indexed((0..20).collect::<Vec<_>>(), 4, &telemetry, |_, x| x);
        assert_eq!(telemetry.counter("runner.tasks_completed").get(), 20);
        let per_worker: u64 = (0..4)
            .map(|w| telemetry.counter(&format!("runner.worker.{w}.tasks")).get())
            .sum();
        assert_eq!(per_worker, 20, "every task attributed to some worker");
        assert_eq!(
            telemetry.gauge("runner.queue_depth").get(),
            0.0,
            "queue fully drained"
        );
    }

    #[test]
    fn parallel_matches_serial_for_seeded_work() {
        // The property the whole crate rests on: order of execution does
        // not leak into results when each item derives its own stream.
        let items: Vec<u64> = (0..40).collect();
        let work = |_: usize, i: u64| {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(rand::seed_stream(99, i));
            (0..100).map(|_| rng.gen_range(0..1000u64)).sum::<u64>()
        };
        let serial = run_indexed(items.clone(), 1, &Telemetry::disabled(), work);
        let parallel = run_indexed(items, 6, &Telemetry::disabled(), work);
        assert_eq!(serial, parallel);
    }
}
