//! # dve-par — minimal data-parallel runtime
//!
//! The simulation harness in this workspace repeats every experiment over
//! many seeded replications (the paper averages 50 runs) and computes
//! all-pairs shortest paths over 500-node topologies. Both are
//! embarrassingly parallel, so this crate provides exactly what they need
//! and nothing more:
//!
//! * [`par_map`] / [`par_map_with`] — map a function over a slice on a
//!   scoped worker team, returning results **in input order** regardless of
//!   completion order (deterministic output for deterministic `f`).
//! * [`par_map_reduce`] / [`par_map_reduce_with`] — the deterministic
//!   reduce seam: contiguous chunks folded into per-worker accumulators,
//!   merged in worker-index order (bit-identical at any width for exact
//!   accumulations — the seam every sharded compute layer rides).
//! * [`par_for_each_mut`] — in-place parallel mutation of disjoint elements.
//! * [`WorkerTeam`] — a persistent **thread-affine** team: job `i` of a
//!   scatter always runs on worker `i`, results return in worker-index
//!   order. This is the substrate of the zone-sharded serving flush.
//!
//! The free functions use dynamic work stealing via a shared atomic index
//! (fine-grained enough for the heterogeneous run times of simulation
//! replications) and `crossbeam::scope` so borrowed inputs need no `Arc`.
//! Scoped spawns are per-call — fine for coarse batches, wrong for
//! µs-scale micro-batches, which is what the persistent team exists
//! for. Every thread this crate ever creates is counted by
//! [`threads_spawned`], so callers can assert their hot path spawns
//! nothing.
//!
//! ## When bit-identity holds
//!
//! The reduce seam ([`par_map_reduce_with`]) splits items into contiguous
//! chunks and merges per-worker accumulators in worker-index order. The
//! schedule is a pure function of `(threads, items.len())`, so a run is
//! bit-reproducible at a fixed width; the result is bit-identical at
//! **any** width exactly when the accumulation is exactly associative —
//! integer counters, `u32`/`u64` sums, index-keyed concatenation.
//! Floating-point sums are only reproducible per width: reassociating
//! them across chunk boundaries changes rounding. Compute layers that
//! promise width-invariance (the sharded solve and serve paths) keep
//! floats out of this seam or derive them after the exact merge.
//!
//! ```
//! let squares = dve_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod team;

pub use team::WorkerTeam;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Process-wide count of OS threads spawned by this crate, ever.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Records one thread spawn; every spawn site in this crate calls this.
pub(crate) fn note_spawn() {
    SPAWNED.fetch_add(1, Ordering::Relaxed);
}

/// Total OS threads this crate has spawned since process start — scoped
/// workers of the free functions and [`WorkerTeam`] workers alike.
///
/// This is the observable behind the "no per-flush spawns" contract:
/// tests snapshot it, drive a hot path, and assert the delta is zero.
/// The counter is process-global, so such assertions must run in their
/// own test binary (the default harness runs tests concurrently).
pub fn threads_spawned() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

/// Returns the worker count used by the free parallel functions: the value
/// of the `DVE_THREADS` environment variable if set and positive, otherwise
/// [`std::thread::available_parallelism`], otherwise 1.
///
/// Not free: every call reads the environment and, without
/// `DVE_THREADS`, asks the OS (`available_parallelism` reads cgroup and
/// affinity state, about 16 µs on a 2-vCPU Linux VM). Coarse batches
/// can afford that per call; a µs-scale hot path takes its width once,
/// at construction, and passes it down explicitly.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("DVE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` in parallel with [`default_threads`] workers.
///
/// Results are returned in input order. Panics in `f` propagate.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(default_threads(), items, |_, t| f(t))
}

/// Maps `f(index, item)` over `items` using exactly `threads` workers
/// (clamped to `[1, items.len()]`).
///
/// Work is distributed dynamically: each worker repeatedly claims the next
/// unprocessed index, so heterogeneous per-item costs balance naturally.
/// Results are assembled in input order.
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let buckets: Vec<Vec<(usize, R)>> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                note_spawn();
                scope.spawn(move |_| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dve-par worker panicked"))
            .collect()
    })
    .expect("dve-par scope panicked");

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (i, r) in bucket {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("dve-par lost a result slot"))
        .collect()
}

/// Maps-and-reduces `items` on [`default_threads`] workers through the
/// deterministic reduce seam: see [`par_map_reduce_with`].
pub fn par_map_reduce<T, A, I, F, M>(items: &[T], init: I, fold: F, merge: M) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize, &T) + Sync,
    M: Fn(A, A) -> A,
{
    par_map_reduce_with(default_threads(), items, init, fold, merge)
}

/// The deterministic reduce seam of the sharded execution engine: folds
/// `items` into per-worker accumulators and merges them **in
/// worker-index order**.
///
/// `items` is split into `threads` *contiguous* chunks (worker `w` owns
/// indices `[w·⌈n/threads⌉, (w+1)·⌈n/threads⌉)`); each worker starts
/// from `init()` and applies `fold(acc, index, item)` over its chunk in
/// ascending index order; the accumulators are then combined
/// left-to-right with `merge`, worker 0 first. The whole schedule is a
/// pure function of `(threads, items.len())` — no work stealing — so a
/// run is bit-reproducible at a fixed width, and when `fold`/`merge`
/// form an **exactly associative** accumulation (integer counters,
/// `u32`/`u64` sums, list concatenation keyed by index) the result is
/// bit-identical at *any* thread count, which is what the
/// thread-invariance property tests of the compute layers assert.
/// Floating-point sums are only reproducible per width, not across
/// widths — keep those out of this seam or make them exact.
pub fn par_map_reduce_with<T, A, I, F, M>(
    threads: usize,
    items: &[T],
    init: I,
    fold: F,
    merge: M,
) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize, &T) + Sync,
    M: Fn(A, A) -> A,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n == 0 {
        let mut acc = init();
        for (i, t) in items.iter().enumerate() {
            fold(&mut acc, i, t);
        }
        return acc;
    }

    let per = n.div_ceil(threads);
    let init = &init;
    let fold = &fold;
    let accs: Vec<A> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                note_spawn();
                scope.spawn(move |_| {
                    let lo = w * per;
                    let hi = ((w + 1) * per).min(n);
                    let mut acc = init();
                    for i in lo..hi {
                        fold(&mut acc, i, &items[i]);
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dve-par worker panicked"))
            .collect()
    })
    .expect("dve-par scope panicked");

    let mut accs = accs.into_iter();
    let first = accs.next().expect("at least one worker");
    accs.fold(first, merge)
}

/// Applies `f` to every element of `items` in parallel, mutating in place.
///
/// Each element is visited exactly once; elements are disjoint so no
/// synchronisation beyond work distribution is needed.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    par_for_each_mut_with(default_threads(), items, f)
}

/// [`par_for_each_mut`] with an explicit worker count (tests and benches
/// pin widths; the default reads `DVE_THREADS`).
pub fn par_for_each_mut_with<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        for (i, t) in items.iter_mut().enumerate() {
            f(i, t);
        }
        return;
    }
    // Split into contiguous chunks, one batch of chunks per worker. Chunk
    // granularity of 1 keeps balancing fine-grained without unsafe index
    // tricks: we hand each worker an iterator of (index, &mut T) pairs by
    // striding over chunks_mut.
    let n = items.len();
    let f = &f;
    crossbeam::scope(|scope| {
        let mut rest = &mut items[..];
        let mut start = 0usize;
        let per = n.div_ceil(threads);
        for _ in 0..threads {
            if rest.is_empty() {
                break;
            }
            let take = per.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let base = start;
            start += take;
            rest = tail;
            note_spawn();
            scope.spawn(move |_| {
                for (off, t) in head.iter_mut().enumerate() {
                    f(base + off, t);
                }
            });
        }
    })
    .expect("dve-par scope panicked");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_empty() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_single() {
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let out = par_map(&input, |&x| x * 2);
        let expected: Vec<u64> = input.iter().map(|&x| x * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_with_explicit_threads() {
        for threads in [1, 2, 3, 7, 64] {
            let input: Vec<u32> = (0..257).collect();
            let out = par_map_with(threads, &input, |i, &x| (i as u32) + x);
            let expected: Vec<u32> = input.iter().map(|&x| x * 2).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_visits_each_item_exactly_once() {
        let counters: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        let input: Vec<usize> = (0..1000).collect();
        par_map_with(8, &input, |_, &i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn par_map_reduce_matches_serial_fold_at_any_width() {
        let items: Vec<u64> = (0..10_000).collect();
        let serial: u64 = items.iter().map(|&x| x * 3 + 1).sum();
        for threads in [1usize, 2, 3, 8, 64] {
            let total = par_map_reduce_with(
                threads,
                &items,
                || 0u64,
                |acc, _, &x| *acc += x * 3 + 1,
                |a, b| a + b,
            );
            assert_eq!(total, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_reduce_merges_in_worker_index_order() {
        // Concatenation is order-sensitive: worker-index merging must
        // reproduce the input order exactly, at every width.
        let items: Vec<u32> = (0..257).collect();
        for threads in [1usize, 2, 5, 16] {
            let out = par_map_reduce_with(
                threads,
                &items,
                Vec::new,
                |acc: &mut Vec<u32>, i, &x| acc.push(x + i as u32),
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
            let expected: Vec<u32> = items.iter().map(|&x| 2 * x).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_reduce_empty_and_single() {
        let out: u32 = par_map_reduce(&[] as &[u32], || 7, |acc, _, &x| *acc += x, |a, b| a + b);
        assert_eq!(out, 7, "empty input returns init()");
        let out = par_map_reduce_with(8, &[5u32], || 0, |acc, _, &x| *acc += x, |a, b| a + b);
        assert_eq!(out, 5);
    }

    #[test]
    fn par_map_reduce_visits_each_item_exactly_once() {
        let counters: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        let input: Vec<usize> = (0..1000).collect();
        par_map_reduce_with(
            8,
            &input,
            || (),
            |_, _, &i| {
                counters[i].fetch_add(1, Ordering::Relaxed);
            },
            |_, _| (),
        );
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn par_for_each_mut_applies_everywhere() {
        let mut v: Vec<u64> = (0..4096).collect();
        par_for_each_mut(&mut v, |i, x| *x += i as u64);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, 2 * i as u64);
        }
    }

    #[test]
    fn par_for_each_mut_small_inputs() {
        let mut empty: Vec<u8> = vec![];
        par_for_each_mut(&mut empty, |_, _| {});
        let mut one = vec![5u8];
        par_for_each_mut(&mut one, |_, x| *x = 9);
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
