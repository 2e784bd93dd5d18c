//! A zero-dependency dynamic-scheduling thread pool for embarrassingly
//! parallel, index-addressed simulation work.
//!
//! The Monte Carlo engines in this workspace evaluate many independent
//! tasks (pages of a simulated memory, block trials) whose cost varies by
//! an order of magnitude: a page whose blocks die early is cheap, a page
//! that survives tens of thousands of writes is expensive. Static
//! chunking (`pages / threads` contiguous slices per worker) therefore
//! leaves tail threads idle while the unlucky worker grinds through the
//! long-lived pages. This crate replaces those static chunks with
//! *dynamic scheduling*: workers repeatedly pull small index batches from
//! a shared atomic counter until the range is exhausted, so a worker that
//! finishes early simply steals the batches a slower worker would have
//! received under a static split.
//!
//! Determinism is preserved by construction:
//!
//! - The pool never decides *what* a task computes, only *which worker*
//!   runs it. Each task must derive all randomness from its own index
//!   (the engines seed a per-page RNG from `(seed, page_idx)`).
//! - Results are written into index-keyed slots, so the output order is
//!   independent of scheduling order.
//! - Workers get private scratch state from a caller-supplied factory;
//!   scratch never migrates between tasks of different workers except
//!   through the task-local reset the caller already performs. The Monte
//!   Carlo engine's factory hands each worker one policy arena
//!   (`pcm_sim::policy::PolicyScratch`), and one task evaluates one whole
//!   page, its blocks in a fixed order on that worker, so what a page
//!   computes never depends on which worker ran it.
//!
//! The only observable scheduling artefacts are the [`PoolStats`]
//! counters, which are explicitly *not* deterministic and are reported
//! through the telemetry layer's volatile channel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Environment variable consulted by [`resolve_threads`] when no explicit
/// thread count is given.
pub const THREADS_ENV: &str = "SIM_THREADS";

/// Scheduling statistics for one [`run_indexed`] invocation.
///
/// `threads` and `tasks` are deterministic; `batches` and `stolen` depend
/// on OS scheduling and must only be reported through channels that are
/// excluded from determinism checks (see `sim-telemetry`'s volatile
/// counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Number of worker threads used.
    pub threads: usize,
    /// Total number of tasks executed.
    pub tasks: usize,
    /// Number of successful batch pulls from the shared counter.
    pub batches: u64,
    /// Tasks executed beyond the fair static share `ceil(tasks/threads)`,
    /// summed over workers — a measure of how much dynamic scheduling
    /// rebalanced the load. Always 0 for a single worker.
    pub stolen: u64,
}

/// Resolves the effective worker count.
///
/// Priority: `explicit` argument, then the [`THREADS_ENV`] environment
/// variable, then [`std::thread::available_parallelism`]. Zero and
/// unparseable values are ignored at each level; the result is always at
/// least 1.
#[must_use]
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// Batch size for the shared-counter pulls: small enough to rebalance
/// (8 pulls per worker under a uniform load), large enough to keep
/// counter contention negligible.
fn batch_size(tasks: usize, threads: usize) -> usize {
    (tasks / (threads * 8)).max(1)
}

/// Per-worker utilization sample from one [`run_indexed_stats`] run.
///
/// All timing fields are wall-clock and therefore *volatile*: like
/// [`PoolStats::batches`], they must only be reported through channels
/// excluded from determinism checks (the telemetry trace sidecar).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Worker index within this run (0-based; worker 0 is the caller's
    /// thread when the run was inline).
    pub worker: usize,
    /// Tasks this worker executed.
    pub tasks: usize,
    /// Successful batch pulls from the shared counter.
    pub batches: u64,
    /// Nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Nanoseconds of the worker's wall time not spent executing tasks
    /// (spawn-to-first-pull, counter pulls, final empty pull). Always 0
    /// for an inline single-threaded run.
    pub idle_ns: u64,
    /// Latency of each successful batch pull, nanoseconds, in pull order.
    pub pull_ns: Vec<u64>,
}

impl WorkerStats {
    /// Fraction of this worker's wall time spent executing tasks,
    /// 0..=1 (0.0 when no time was observed at all).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let wall = self.busy_ns + self.idle_ns;
        if wall == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.busy_ns as f64 / wall as f64
        }
    }
}

/// Pool-wide busy fraction: total busy nanoseconds over total observed
/// wall nanoseconds across the sampled workers (0.0 for an empty or
/// unobserved sample). This is the utilization figure surfaced in live
/// status heartbeats.
#[must_use]
pub fn busy_fraction(workers: &[WorkerStats]) -> f64 {
    let busy: u64 = workers.iter().map(|w| w.busy_ns).sum();
    let wall: u64 = workers.iter().map(|w| w.busy_ns + w.idle_ns).sum();
    if wall == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        busy as f64 / wall as f64
    }
}

#[allow(clippy::cast_possible_truncation)]
fn nanos(from: Instant) -> u64 {
    from.elapsed().as_nanos() as u64
}

/// Runs `tasks` index-addressed tasks on `threads` workers and returns
/// the results in index order together with scheduling statistics.
///
/// `make_scratch` is called once per worker to build private scratch
/// state; `work(&mut scratch, index)` computes task `index`. The result
/// vector satisfies `result[i] == work(_, i)` regardless of thread count
/// or scheduling order, provided `work` derives everything from `index`
/// and the (reset) scratch.
///
/// With `threads <= 1` everything runs inline on the caller's thread and
/// no threads are spawned.
///
/// # Panics
/// Propagates panics from `work` and panics if a worker thread cannot be
/// joined.
pub fn run_indexed<T, S, MS, W>(
    threads: usize,
    tasks: usize,
    make_scratch: MS,
    work: W,
) -> (Vec<T>, PoolStats)
where
    T: Send,
    MS: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    let (out, stats, _) = run_indexed_impl::<false, _, _, _, _>(threads, tasks, make_scratch, work);
    (out, stats)
}

/// Like [`run_indexed`], but additionally measures per-worker wall-clock
/// utilization ([`WorkerStats`], ascending worker index). Identical
/// scheduling and results; the extra `Instant` reads cost a few tens of
/// nanoseconds per batch and per task, so reserve this variant for
/// instrumented runs.
///
/// # Panics
/// Propagates panics from `work` and panics if a worker thread cannot be
/// joined.
pub fn run_indexed_stats<T, S, MS, W>(
    threads: usize,
    tasks: usize,
    make_scratch: MS,
    work: W,
) -> (Vec<T>, PoolStats, Vec<WorkerStats>)
where
    T: Send,
    MS: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    run_indexed_impl::<true, _, _, _, _>(threads, tasks, make_scratch, work)
}

fn run_indexed_impl<const TIMED: bool, T, S, MS, W>(
    threads: usize,
    tasks: usize,
    make_scratch: MS,
    work: W,
) -> (Vec<T>, PoolStats, Vec<WorkerStats>)
where
    T: Send,
    MS: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.max(1).min(tasks.max(1));
    let mut stats = PoolStats {
        threads,
        tasks,
        batches: 0,
        stolen: 0,
    };
    if tasks == 0 {
        return (Vec::new(), stats, Vec::new());
    }
    let chunk = batch_size(tasks, threads);

    if threads == 1 {
        let started = TIMED.then(Instant::now);
        let mut scratch = make_scratch();
        let mut out = Vec::with_capacity(tasks);
        for idx in 0..tasks {
            out.push(work(&mut scratch, idx));
        }
        stats.batches = tasks.div_ceil(chunk) as u64;
        let workers = match started {
            Some(started) => vec![WorkerStats {
                worker: 0,
                tasks,
                batches: stats.batches,
                busy_ns: nanos(started),
                idle_ns: 0,
                pull_ns: Vec::new(),
            }],
            None => Vec::new(),
        };
        return (out, stats, workers);
    }

    let next = AtomicUsize::new(0);
    let fair_share = tasks.div_ceil(threads);
    let mut per_worker: Vec<(WorkerStats, Vec<(usize, T)>)> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let next = &next;
            let make_scratch = &make_scratch;
            let work = &work;
            handles.push(scope.spawn(move || {
                let spawned = TIMED.then(Instant::now);
                let mut scratch = make_scratch();
                let mut local: Vec<(usize, T)> = Vec::new();
                let mut timing = WorkerStats {
                    worker,
                    ..WorkerStats::default()
                };
                loop {
                    let pull_started = TIMED.then(Instant::now);
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= tasks {
                        break;
                    }
                    if let Some(pull_started) = pull_started {
                        timing.pull_ns.push(nanos(pull_started));
                    }
                    timing.batches += 1;
                    let end = (start + chunk).min(tasks);
                    let batch_started = TIMED.then(Instant::now);
                    for idx in start..end {
                        local.push((idx, work(&mut scratch, idx)));
                    }
                    if let Some(batch_started) = batch_started {
                        timing.busy_ns += nanos(batch_started);
                    }
                }
                timing.tasks = local.len();
                if let Some(spawned) = spawned {
                    timing.idle_ns = nanos(spawned).saturating_sub(timing.busy_ns);
                }
                (timing, local)
            }));
        }
        for handle in handles {
            per_worker.push(handle.join().expect("sim-pool worker panicked"));
        }
    });

    let mut slots: Vec<Option<T>> = Vec::with_capacity(tasks);
    slots.resize_with(tasks, || None);
    let mut workers = Vec::with_capacity(if TIMED { threads } else { 0 });
    for (timing, local) in per_worker {
        stats.batches += timing.batches;
        stats.stolen += (local.len().saturating_sub(fair_share)) as u64;
        if TIMED {
            workers.push(timing);
        }
        for (idx, value) in local {
            debug_assert!(slots[idx].is_none(), "task {idx} produced twice");
            slots[idx] = Some(value);
        }
    }
    workers.sort_by_key(|w| w.worker);
    let out: Vec<T> = slots
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| slot.unwrap_or_else(|| panic!("task {idx} was never executed")))
        .collect();
    (out, stats, workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_prefers_explicit() {
        assert_eq!(resolve_threads(Some(3)), 3);
        // Zero is ignored, falling through to env/parallelism (>= 1).
        assert!(resolve_threads(Some(0)) >= 1);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn results_are_index_ordered_for_any_thread_count() {
        let expected: Vec<u64> = (0..257u64).map(|i| i * i + 7).collect();
        for threads in [1, 2, 3, 8, 300] {
            let (got, stats) =
                run_indexed(threads, 257, || (), |(), i| (i as u64) * (i as u64) + 7);
            assert_eq!(got, expected, "threads={threads}");
            assert_eq!(stats.tasks, 257);
            assert!(stats.threads >= 1 && stats.threads <= 257);
            assert!(stats.batches >= 1);
        }
    }

    #[test]
    fn empty_task_range_returns_empty() {
        let (got, stats) = run_indexed(4, 0, || (), |(), i| i);
        assert!(got.is_empty());
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.stolen, 0);
    }

    #[test]
    fn single_thread_runs_inline_with_zero_steals() {
        let (got, stats) = run_indexed(
            1,
            100,
            || 0u64,
            |acc, i| {
                *acc += 1;
                (i, *acc)
            },
        );
        // Scratch persists across tasks on the same worker.
        assert_eq!(got.last(), Some(&(99, 100)));
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.stolen, 0);
    }

    #[test]
    fn scratch_factory_runs_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let made = AtomicUsize::new(0);
        let threads = 4;
        let (_, stats) = run_indexed(
            threads,
            64,
            || made.fetch_add(1, Ordering::Relaxed),
            |_, i| i,
        );
        assert_eq!(made.load(Ordering::Relaxed), stats.threads);
    }

    #[test]
    fn uneven_work_is_rebalanced() {
        // One pathological slow index; dynamic pulls let other workers
        // absorb the rest of the range. We only assert correctness and
        // that the stats fields are coherent (stolen is scheduling
        // dependent, so no exact value).
        let (got, stats) = run_indexed(
            4,
            128,
            || (),
            |(), i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i * 2
            },
        );
        assert_eq!(got[127], 254);
        assert!(stats.batches as usize >= stats.threads.min(128 / batch_size(128, stats.threads)));
    }

    #[test]
    fn threads_are_clamped_to_tasks() {
        let (got, stats) = run_indexed(64, 3, || (), |(), i| i);
        assert_eq!(got, vec![0, 1, 2]);
        assert!(stats.threads <= 3);
    }

    #[test]
    fn stats_variant_reports_coherent_worker_utilization() {
        let (got, stats, workers) = run_indexed_stats(
            3,
            120,
            || (),
            |(), i| {
                std::hint::black_box(i);
                i * 3
            },
        );
        assert_eq!(got[119], 357);
        assert_eq!(workers.len(), stats.threads);
        // Workers are sorted and their per-worker figures sum to the
        // pool totals.
        for (i, w) in workers.iter().enumerate() {
            assert_eq!(w.worker, i);
            assert_eq!(w.pull_ns.len() as u64, w.batches);
        }
        assert_eq!(workers.iter().map(|w| w.tasks).sum::<usize>(), stats.tasks);
        assert_eq!(
            workers.iter().map(|w| w.batches).sum::<u64>(),
            stats.batches
        );
    }

    #[test]
    fn inline_stats_have_zero_idle_and_no_pulls() {
        let (got, stats, workers) = run_indexed_stats(1, 10, || (), |(), i| i);
        assert_eq!(got.len(), 10);
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].worker, 0);
        assert_eq!(workers[0].tasks, 10);
        assert_eq!(workers[0].batches, stats.batches);
        assert_eq!(workers[0].idle_ns, 0);
        assert!(workers[0].pull_ns.is_empty());
    }

    #[test]
    fn busy_fraction_weights_workers_by_wall_time() {
        let workers = vec![
            WorkerStats {
                worker: 0,
                busy_ns: 300,
                idle_ns: 100,
                ..WorkerStats::default()
            },
            WorkerStats {
                worker: 1,
                busy_ns: 100,
                idle_ns: 500,
                ..WorkerStats::default()
            },
        ];
        assert!((workers[0].occupancy() - 0.75).abs() < 1e-12);
        // Pool-wide: 400 busy of 1000 observed wall nanoseconds.
        assert!((busy_fraction(&workers) - 0.4).abs() < 1e-12);
        assert_eq!(busy_fraction(&[]), 0.0);
        assert_eq!(WorkerStats::default().occupancy(), 0.0);
    }

    #[test]
    fn stats_variant_matches_untimed_results() {
        let (plain, _) = run_indexed(4, 99, || (), |(), i| i * i);
        let (timed, _, _) = run_indexed_stats(4, 99, || (), |(), i| i * i);
        assert_eq!(plain, timed);
    }
}
