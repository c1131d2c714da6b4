//! A fixed-size scoped-thread worker pool with order-preserving
//! results.
//!
//! The pool has no long-lived threads: each [`parallel_map`] call
//! spawns scoped workers, bounded by a process-wide permit pool so
//! nested parallelism (scenarios running parallel Monte Carlo loops
//! inside a parallel sweep) cannot oversubscribe the machine. The
//! calling thread always participates, so work completes even when no
//! permits are available.
//!
//! Determinism: work items are claimed by index from an atomic counter
//! and results are written into positional slots, so the output order
//! equals the input order for any worker count. Reductions offered
//! here ([`parallel_count`], [`parallel_tally`]) are integer sums,
//! which are associative and commutative — their results are
//! bit-identical regardless of how items land on workers.

use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// Configured job count; 0 means "auto" (available parallelism).
static CONFIGURED_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Extra worker permits beyond the calling threads. `isize::MIN` until
/// first use ([`permit_pool`] initializes it from [`jobs`]).
static PERMITS: AtomicIsize = AtomicIsize::new(isize::MIN);
static PERMITS_INIT: Once = Once::new();

/// Sets the process-wide worker budget. `0` restores the default
/// (available parallelism). Call once at startup, before parallel
/// work begins; the budget applies to every pool user in the process.
pub fn set_jobs(n: usize) {
    CONFIGURED_JOBS.store(n, Ordering::SeqCst);
    permit_pool(); // force initialization, then overwrite
    PERMITS.store(extra_permits(jobs()), Ordering::SeqCst);
}

/// The resolved worker budget: the configured value, or the machine's
/// available parallelism when unset.
pub fn jobs() -> usize {
    match CONFIGURED_JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Worker permits beyond the calling thread for a budget of `jobs`:
/// `jobs - 1`, saturating at 0 below and at `isize::MAX` above.
fn extra_permits(jobs: usize) -> isize {
    isize::try_from(jobs.saturating_sub(1)).unwrap_or(isize::MAX)
}

fn permit_pool() -> &'static AtomicIsize {
    PERMITS_INIT.call_once(|| {
        PERMITS.store(extra_permits(jobs()), Ordering::SeqCst);
    });
    &PERMITS
}

/// RAII over borrowed permits so panics release them too.
struct Permits(usize);

impl Permits {
    fn take(want: usize) -> Permits {
        let pool = permit_pool();
        let mut got = 0usize;
        while got < want {
            let cur = pool.load(Ordering::SeqCst);
            if cur <= 0 {
                break;
            }
            let take = cur.min((want - got) as isize);
            if pool
                .compare_exchange(cur, cur - take, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                got += take as usize;
            }
        }
        Permits(got)
    }
}

impl Drop for Permits {
    fn drop(&mut self) {
        if self.0 > 0 {
            permit_pool().fetch_add(self.0 as isize, Ordering::SeqCst);
        }
    }
}

/// Applies `f` to every item, in parallel, returning results in input
/// order. `f` receives `(index, item)` so callers can derive
/// counter-based seeds from the position rather than the worker.
///
/// # Panics
///
/// Propagates the first panic raised by `f` (after joining every
/// worker). Callers that need per-task panic isolation catch the
/// unwind inside `f`.
pub fn parallel_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let permits = Permits::take(n.saturating_sub(1).min(jobs().saturating_sub(1)));
    if permits.0 == 0 {
        // Serial fast path: no threads, no slot overhead.
        return items
            .into_iter()
            .enumerate()
            .map(|(i, it)| f(i, it))
            .collect();
    }

    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::SeqCst);
        if i >= n {
            break;
        }
        let item = slots[i].lock().unwrap().take().expect("item claimed once");
        let out = f(i, item);
        *results[i].lock().unwrap() = Some(out);
    };
    std::thread::scope(|s| {
        for _ in 0..permits.0 {
            s.spawn(worker);
        }
        worker();
    });
    drop(permits);
    results
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

/// The number of chunks to split `n` items into for a reduction: a few
/// per worker so stragglers balance, never more than the items.
fn chunk_count(n: usize) -> usize {
    jobs().saturating_mul(4).clamp(1, n.max(1))
}

/// Counts `i in 0..n` for which `pred(i)` holds, in parallel. The
/// result is exactly the serial count for any worker budget.
pub fn parallel_count<F>(n: usize, pred: F) -> u64
where
    F: Fn(usize) -> bool + Sync,
{
    parallel_tally::<2, _>(n, |i| usize::from(pred(i)))[1]
}

/// Classifies `i in 0..n` into `K` buckets via `class` and returns the
/// per-bucket totals. Integer sums over fixed per-index work make the
/// result independent of chunking and worker count.
///
/// # Panics
///
/// Panics when `class` returns an index `>= K`.
pub fn parallel_tally<const K: usize, F>(n: usize, class: F) -> [u64; K]
where
    F: Fn(usize) -> usize + Sync,
{
    let chunks = chunk_count(n);
    let size = n.div_ceil(chunks.max(1)).max(1);
    let ranges: Vec<(usize, usize)> = (0..chunks)
        .map(|c| (c * size, ((c + 1) * size).min(n)))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    let partials = parallel_map(ranges, |_, (lo, hi)| {
        let mut counts = [0u64; K];
        for i in lo..hi {
            counts[class(i)] += 1;
        }
        counts
    });
    let mut total = [0u64; K];
    for part in partials {
        for (t, p) in total.iter_mut().zip(part) {
            *t += p;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(items.clone(), |i, v| {
            assert_eq!(i as u64, v);
            v * 3
        });
        assert_eq!(out, items.iter().map(|v| v * 3).collect::<Vec<_>>());
        assert!(parallel_map(Vec::<u8>::new(), |_, v| v).is_empty());
    }

    #[test]
    fn tally_matches_serial_for_any_budget() {
        let class = |i: usize| i % 3;
        let mut serial = [0u64; 3];
        for i in 0..10_001 {
            serial[class(i)] += 1;
        }
        assert_eq!(parallel_tally::<3, _>(10_001, class), serial);
    }

    /// Budgets beyond `isize` saturate instead of wrapping the permit
    /// pool negative (which would run everything serially).
    #[test]
    fn extra_permits_saturate() {
        for (jobs, permits) in [
            (0, 0),
            (1, 0),
            (2, 1),
            (1usize << 63, isize::MAX),
            (usize::MAX, isize::MAX),
        ] {
            assert_eq!(extra_permits(jobs), permits, "jobs {jobs}");
        }
    }

    #[test]
    fn count_matches_serial() {
        assert_eq!(parallel_count(10_000, |i| i % 7 == 0), 1429);
        assert_eq!(parallel_count(0, |_| true), 0);
    }

    #[test]
    fn nested_maps_complete() {
        // Inner maps run while the outer map holds most permits; the
        // caller-participates rule keeps everything moving.
        let out = parallel_map((0..8u64).collect(), |_, v| {
            parallel_tally::<2, _>(100, |i| usize::from(i as u64 % 2 == v % 2))[1]
        });
        assert_eq!(out, vec![50; 8]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate() {
        // Force the threaded path with more items than workers.
        let _ = parallel_map((0..64).collect::<Vec<i32>>(), |_, v| {
            if v == 13 {
                panic!("boom");
            }
            v
        });
    }
}
