//! A real multithreaded work-stealing executor.
//!
//! The simulation engine executes DAGs in virtual time for controlled energy
//! experiments; this module is the complementary proof that the runtime's
//! task/DAG machinery works on actual OS threads. It implements the classic
//! work-stealing loop (local deque, global injector, random-victim stealing
//! — the GRWS baseline of the paper) with dependency counting, and executes
//! a user-supplied closure for every task.
//!
//! No DVFS is exercised here: commodity hosts expose neither a memory-DVFS
//! knob nor per-rail power telemetry, which is exactly why the experiments
//! run on the simulated platform (see DESIGN.md).

use crossbeam::deque::{Injector, Stealer, Worker};
use joss_dag::{TaskGraph, TaskId};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::Instant;

/// Outcome of a native DAG execution.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeStats {
    /// Tasks executed per worker.
    pub per_worker: Vec<usize>,
    /// Successful steals per worker.
    pub steals: Vec<usize>,
    /// Wall-clock execution time, seconds.
    pub wall_s: f64,
}

impl NativeStats {
    /// Total executed tasks.
    pub fn total_tasks(&self) -> usize {
        self.per_worker.iter().sum()
    }
}

/// Work-stealing executor over OS threads.
#[derive(Debug, Clone)]
pub struct NativeExecutor {
    n_workers: usize,
}

impl NativeExecutor {
    /// New executor with `n_workers` threads (>= 1).
    pub fn new(n_workers: usize) -> Self {
        assert!(n_workers >= 1);
        NativeExecutor { n_workers }
    }

    /// Execute every task of `graph` exactly once, respecting dependencies.
    /// `work` runs on worker threads and must be thread-safe.
    pub fn execute<F>(&self, graph: &TaskGraph, work: F) -> NativeStats
    where
        F: Fn(TaskId) + Sync,
    {
        let n = graph.n_tasks();
        let indegree: Vec<AtomicU32> = graph
            .indegrees()
            .iter()
            .map(|&d| AtomicU32::new(d))
            .collect();
        let completed = AtomicUsize::new(0);
        let injector = Injector::new();
        for t in graph.roots() {
            injector.push(t);
        }

        let workers: Vec<Worker<TaskId>> =
            (0..self.n_workers).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<TaskId>> = workers.iter().map(|w| w.stealer()).collect();
        let start = Instant::now();

        let mut per_worker = vec![0usize; self.n_workers];
        let mut steals = vec![0usize; self.n_workers];

        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (wid, local) in workers.into_iter().enumerate() {
                let injector = &injector;
                let stealers = &stealers;
                let indegree = &indegree;
                let completed = &completed;
                let work = &work;
                handles.push(scope.spawn(move || {
                    let mut executed = 0usize;
                    let mut stolen = 0usize;
                    let mut spins = 0u32;
                    loop {
                        let task = local.pop().or_else(|| {
                            // Global queue first, then other workers.
                            std::iter::repeat_with(|| injector.steal_batch_and_pop(&local))
                                .find(|s| !s.is_retry())
                                .and_then(|s| s.success())
                                .or_else(|| {
                                    for (vid, st) in stealers.iter().enumerate() {
                                        if vid == wid {
                                            continue;
                                        }
                                        loop {
                                            match st.steal() {
                                                crossbeam::deque::Steal::Success(t) => {
                                                    stolen += 1;
                                                    return Some(t);
                                                }
                                                crossbeam::deque::Steal::Retry => continue,
                                                crossbeam::deque::Steal::Empty => break,
                                            }
                                        }
                                    }
                                    None
                                })
                        });
                        match task {
                            Some(t) => {
                                spins = 0;
                                work(t);
                                for &s in graph.successors(t) {
                                    if indegree[s.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                                        local.push(s);
                                    }
                                }
                                executed += 1;
                                completed.fetch_add(1, Ordering::Release);
                            }
                            None => {
                                if completed.load(Ordering::Acquire) >= n {
                                    break;
                                }
                                // Exponential backoff before re-probing.
                                spins = (spins + 1).min(10);
                                if spins > 6 {
                                    std::thread::yield_now();
                                } else {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                    (wid, executed, stolen)
                }));
            }
            for h in handles {
                let (wid, executed, stolen) = h.join().expect("worker panicked");
                per_worker[wid] = executed;
                steals[wid] = stolen;
            }
        });

        NativeStats {
            per_worker,
            steals,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joss_dag::{generators, KernelSpec};
    use joss_platform::TaskShape;
    use std::sync::atomic::AtomicU64;

    fn kernel() -> KernelSpec {
        KernelSpec::new("k", TaskShape::new(0.001, 0.0))
    }

    #[test]
    fn executes_every_task_once() {
        let g = generators::random_layered("r", kernel(), 20, 8, 7);
        let n = g.n_tasks();
        let counter = AtomicU64::new(0);
        let stats = NativeExecutor::new(4).execute(&g, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed) as usize, n);
        assert_eq!(stats.total_tasks(), n);
    }

    #[test]
    fn respects_dependency_order() {
        // A chain must execute strictly in order regardless of worker count.
        let g = generators::chain("c", kernel(), 50);
        let order = parking_lot::Mutex::new(Vec::new());
        NativeExecutor::new(4).execute(&g, |t| {
            order.lock().push(t.0);
        });
        let order = order.into_inner();
        assert_eq!(order.len(), 50);
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "chain executed out of order"
        );
    }

    #[test]
    fn parallel_workers_share_independent_load() {
        let g = generators::independent("i", kernel(), 1000);
        let stats = NativeExecutor::new(4).execute(&g, |_| {
            // Enough work per task (~10 us) that workers spin up before the
            // first worker drains the whole injector. The opaque loop bound
            // and accumulator keep an optimized build from replacing the
            // loop with its closed-form sum.
            let n = std::hint::black_box(50_000u64);
            (0..n).fold(0u64, |a, b| std::hint::black_box(a.wrapping_add(b * b)));
        });
        assert_eq!(stats.total_tasks(), 1000);
        // With 1000 independent tasks, at least two workers should get work —
        // but only when the host can actually run two workers at once. On a
        // single-CPU machine the first worker routinely drains the whole
        // injector before the OS ever schedules a second one.
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let active = stats.per_worker.iter().filter(|&&c| c > 0).count();
        let want = if host_cores >= 2 { 2 } else { 1 };
        assert!(
            active >= want,
            "stealing failed to spread load: {:?}",
            stats.per_worker
        );
    }

    #[test]
    fn single_worker_works() {
        let g = generators::fork_join("fj", &[kernel()], kernel(), 4, 8);
        let stats = NativeExecutor::new(1).execute(&g, |_| {});
        assert_eq!(stats.total_tasks(), g.n_tasks());
        assert_eq!(stats.steals.iter().sum::<usize>(), 0);
    }
}
