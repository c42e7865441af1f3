//! A persistent, thread-affine worker team for sharded engines.
//!
//! The free functions in the crate root spin up scoped workers per
//! call, and any worker may take any item. Neither fits a *sharded*
//! engine, where shard `i` must always run on worker `i` (thread-affine
//! state, and a merge step that consumes results in worker-index
//! order). `WorkerTeam` keeps one channel **per worker**:
//! [`WorkerTeam::scatter`] sends job `i` to worker `i` and returns
//! results in slot order, so a worker-index-order merge is just
//! iterating the slots.
//!
//! Workers are spawned once in [`WorkerTeam::new`] and live until the
//! team is dropped; a scatter never spawns. [`crate::threads_spawned`]
//! counts every thread this crate ever creates, which is how the
//! no-per-flush-spawn property tests verify that claim.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed team of worker threads with per-worker queues: job `i` of a
/// [`WorkerTeam::scatter`] always runs on worker `i`.
///
/// Because the job→worker mapping is static, any state a caller keys by
/// worker index (shard books, scratch buffers shipped through the job
/// closures) is touched by exactly one thread per scatter, and the
/// results come back in worker-index order — the serial-merge half of
/// the propose-∥/commit-serial discipline falls out of the slot order.
///
/// ```
/// let team = dve_par::WorkerTeam::new(3);
/// let jobs: Vec<_> = (0..3).map(|i| move |w: usize| (i, w)).collect();
/// let mut slots = Vec::new();
/// team.scatter(jobs, &mut slots);
/// let out: Vec<_> = slots.into_iter().map(|s| s.unwrap().0).collect();
/// assert_eq!(out, vec![(0, 0), (1, 1), (2, 2)]);
/// ```
pub struct WorkerTeam {
    senders: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerTeam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerTeam")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkerTeam {
    /// Spawns a team of `threads` workers (clamped to at least 1). This
    /// is the only place a team creates threads.
    pub fn new(threads: usize) -> WorkerTeam {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let (sender, receiver): (Sender<Job>, Receiver<Job>) = unbounded();
            senders.push(sender);
            crate::note_spawn();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dve-team-{i}"))
                    .spawn(move || {
                        while let Ok(job) = receiver.recv() {
                            job();
                        }
                    })
                    .expect("failed to spawn dve-par team worker"),
            );
        }
        WorkerTeam { senders, workers }
    }

    /// Number of workers on the team.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `jobs[i]` on worker `i` (each receives its worker index)
    /// and blocks until all complete. `slots` is cleared and refilled
    /// with one `Some((result, ns))` per job, in slot order, where `ns`
    /// is the wall-clock the job spent on its worker (queue wait
    /// excluded: the clock starts when the job actually runs). A caller
    /// that keeps `slots` across scatters pays no per-scatter result
    /// allocation once its capacity settles. The slots are filled on
    /// the *calling* thread (the merge half of the discipline), never
    /// by the workers.
    ///
    /// At most [`WorkerTeam::threads`] jobs per scatter — the mapping is
    /// the point, so excess jobs are a caller bug, not queued work.
    /// Panics if a worker dies mid-scatter (a panicking job kills its
    /// worker; the team is not repaired).
    pub fn scatter<R, F>(&self, jobs: Vec<F>, slots: &mut Vec<Option<(R, u64)>>)
    where
        R: Send + 'static,
        F: FnOnce(usize) -> R + Send + 'static,
    {
        let n = jobs.len();
        assert!(
            n <= self.threads(),
            "scatter of {n} jobs onto {} workers",
            self.threads()
        );
        let (done, results) = unbounded::<(usize, R, u64)>();
        for (i, job) in jobs.into_iter().enumerate() {
            let done = done.clone();
            self.senders[i]
                .send(Box::new(move || {
                    let t = Instant::now();
                    let r = job(i);
                    let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    let _ = done.send((i, r, ns));
                }))
                .expect("dve-par team worker channel closed");
        }
        drop(done);
        slots.clear();
        slots.resize_with(n, || None);
        for _ in 0..n {
            let (i, r, ns) = results
                .recv()
                .expect("dve-par team worker died mid-scatter");
            debug_assert!(slots[i].is_none(), "slot {i} produced twice");
            slots[i] = Some((r, ns));
        }
    }
}

impl Drop for WorkerTeam {
    fn drop(&mut self) {
        // Closing the per-worker channels lets each worker drain and exit.
        self.senders.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// One scatter's results in slot order, timings dropped.
    fn results<R, F>(team: &WorkerTeam, jobs: Vec<F>) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce(usize) -> R + Send + 'static,
    {
        let mut slots = Vec::new();
        team.scatter(jobs, &mut slots);
        slots
            .into_iter()
            .map(|s| s.expect("scatter filled every slot").0)
            .collect()
    }

    #[test]
    fn scatter_returns_results_in_slot_order() {
        let team = WorkerTeam::new(4);
        let jobs: Vec<_> = (0..4)
            .map(|i| {
                move |w: usize| {
                    // Stagger completion so slot order must come from the
                    // merge, not from completion order.
                    std::thread::sleep(std::time::Duration::from_millis(4 - i as u64));
                    (i * 10, w)
                }
            })
            .collect();
        assert_eq!(
            results(&team, jobs),
            vec![(0, 0), (10, 1), (20, 2), (30, 3)]
        );
    }

    #[test]
    fn jobs_are_thread_affine() {
        // The same slot must land on the same OS thread across scatters.
        let team = WorkerTeam::new(3);
        let names: Vec<Vec<String>> = (0..5)
            .map(|_| {
                let jobs: Vec<_> = (0..3)
                    .map(|_| {
                        |_w: usize| {
                            std::thread::current()
                                .name()
                                .unwrap_or_default()
                                .to_string()
                        }
                    })
                    .collect();
                results(&team, jobs)
            })
            .collect();
        for round in &names[1..] {
            assert_eq!(round, &names[0]);
        }
        assert_eq!(names[0][0], "dve-team-0");
        assert_eq!(names[0][2], "dve-team-2");
    }

    #[test]
    fn partial_scatter_uses_leading_workers() {
        let team = WorkerTeam::new(4);
        let jobs: Vec<_> = (0..2).map(|_| |w: usize| w).collect();
        assert_eq!(results(&team, jobs), vec![0, 1]);
    }

    #[test]
    fn scatter_spawns_no_threads() {
        // Other tests in this binary spawn concurrently, so the global
        // count is not attributable: count the spawns made from every
        // thread a scatter runs on, the caller and each worker.
        let spawns = |team: &WorkerTeam| {
            let here = || crate::SPAWNED_HERE.with(std::cell::Cell::get);
            let mut counts = results(team, (0..4).map(|_| move |_: usize| here()).collect());
            counts.push(here());
            counts
        };
        let team = WorkerTeam::new(4);
        let before = spawns(&team);
        let mut slots = Vec::new();
        for _ in 0..100 {
            let jobs: Vec<_> = (0..4).map(|_| |w: usize| w).collect();
            team.scatter(jobs, &mut slots);
        }
        assert_eq!(spawns(&team), before);
    }

    #[test]
    fn thread_count_clamped() {
        let team = WorkerTeam::new(0);
        assert_eq!(team.threads(), 1);
    }

    #[test]
    fn reusable_across_scatters() {
        let team = WorkerTeam::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let jobs: Vec<_> = (0..2)
                .map(|_| {
                    let hits = Arc::clone(&hits);
                    move |_w: usize| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .collect();
            results(&team, jobs);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_scatter_is_a_no_op() {
        let team = WorkerTeam::new(2);
        let out: Vec<u32> = results(&team, Vec::<fn(usize) -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn scatter_into_reuses_caller_slots_and_matches_scatter() {
        let team = WorkerTeam::new(3);
        // Dirty, over-long recycled slots: must be cleared and refilled.
        let mut slots: Vec<Option<(usize, u64)>> = vec![Some((99, 99)); 7];
        for round in 0..4 {
            let jobs: Vec<_> = (0..3).map(|i| move |_w: usize| round * 10 + i).collect();
            let expected = {
                let jobs: Vec<_> = (0..3).map(|i| move |_w: usize| round * 10 + i).collect();
                results(&team, jobs)
            };
            team.scatter(jobs, &mut slots);
            assert_eq!(slots.len(), 3);
            let got: Vec<usize> = slots.iter().map(|s| s.unwrap().0).collect();
            assert_eq!(got, expected);
        }
        // A shrinking scatter shrinks the slot list, not just overwrites.
        let jobs: Vec<_> = (0..1).map(|_| |w: usize| w).collect();
        team.scatter(jobs, &mut slots);
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].unwrap().0, 0);
    }

    #[test]
    fn timed_scatter_into_matches_timed_scatter() {
        let team = WorkerTeam::new(2);
        // Empty, over-long recycled slots: truncated to the job count.
        let mut slots: Vec<Option<(u64, u64)>> = vec![None; 5];
        let jobs: Vec<_> = (0..2).map(|i| move |w: usize| (i + w) as u64).collect();
        team.scatter(jobs, &mut slots);
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].unwrap().0, 0);
        assert_eq!(slots[1].unwrap().0, 2);
    }

    #[test]
    fn timed_scatter_matches_plain_results() {
        let team = WorkerTeam::new(3);
        let jobs: Vec<_> = (0..3)
            .map(|i| {
                move |w: usize| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    i * 100 + w
                }
            })
            .collect();
        let mut slots = Vec::new();
        team.scatter(jobs, &mut slots);
        let out: Vec<(usize, u64)> = slots.into_iter().map(Option::unwrap).collect();
        assert_eq!(
            out.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
            vec![0, 101, 202]
        );
        for &(_, ns) in &out {
            assert!(ns >= 1_000_000, "job slept 1 ms but clocked {ns} ns");
        }
    }
}
