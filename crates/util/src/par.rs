//! Order-preserving parallel map over scoped threads.
//!
//! The phase-database build and the campaign executor both need the same
//! shape of parallelism: N independent, CPU-bound tasks whose results must
//! come back *in input order* so downstream output is deterministic
//! regardless of scheduling. Worker threads pull task indices from a shared
//! atomic counter (simple work stealing), write results into their own
//! slots, and the caller reassembles the ordered vector.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolve a thread-count request: `0` means available parallelism,
/// capped by the task count.
pub fn resolve_threads(requested: usize, n_tasks: usize) -> usize {
    let hw = if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    };
    hw.clamp(1, n_tasks.max(1))
}

/// Apply `f` to every item in parallel on `threads` workers (0 = available
/// parallelism) and return results in input order.
///
/// Panics in `f` propagate to the caller once all workers have stopped.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, threads, |_, item| f(item))
}

/// [`par_map`] variant with per-worker scratch state: each worker thread
/// calls `init()` once and threads the resulting value through every task
/// it claims. Results still come back in input order, and because tasks
/// are pure functions of `(scratch, item)` with scratch reset/overwritten
/// per task by convention, the output is deterministic regardless of which
/// worker claims which task — the phase-database build asserts this across
/// thread counts.
pub fn par_map_with<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = resolve_threads(threads, n);
    if threads == 1 {
        let mut scratch = init();
        return items.iter().map(|t| f(&mut scratch, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            workers.push(s.spawn(|| {
                let mut scratch = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&mut scratch, &items[i]);
                    *slots[i].lock().unwrap() = Some(r);
                }
            }));
        }
        join_all(workers);
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker completed every claimed task"))
        .collect()
}

/// [`par_map`] variant that also hands `f` the item's index.
pub fn par_map_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = resolve_threads(threads, n);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            workers.push(s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().unwrap() = Some(r);
            }));
        }
        join_all(workers);
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker completed every claimed task"))
        .collect()
}

/// Join every worker, then re-raise the first worker panic. The scope's
/// implicit wait returns as soon as each closure has finished, before the
/// thread's thread-local destructors run; an explicit `join` waits for
/// the thread to exit, so per-thread state flushed by those destructors
/// (telemetry shards) is complete when the map returns.
fn join_all(workers: Vec<std::thread::ScopedJoinHandle<'_, ()>>) {
    let mut panic = None;
    for w in workers {
        if let Err(p) = w.join() {
            panic.get_or_insert(p);
        }
    }
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 7, 0] {
            let out = par_map(&items, threads, |&x| x * x);
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let count = AtomicU64::new(0);
        let items: Vec<u32> = (0..57).collect();
        let out = par_map(&items, 4, |&x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 57);
        assert_eq!(count.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = par_map(&Vec::<u32>::new(), 4, |&x| x);
        assert!(out.is_empty());
        let out: Vec<u32> = par_map_with(&Vec::<u32>::new(), 4, || 0u64, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn scratch_variant_preserves_order_and_reuses_state() {
        let items: Vec<usize> = (0..200).collect();
        for threads in [1, 2, 5, 0] {
            // Scratch counts tasks this worker ran; the result must not
            // depend on it (determinism convention), only prove reuse.
            let out = par_map_with(
                &items,
                threads,
                || 0usize,
                |seen, &x| {
                    *seen += 1;
                    assert!(*seen <= items.len());
                    x * 3
                },
            );
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn thread_resolution() {
        assert_eq!(resolve_threads(3, 100), 3);
        assert_eq!(resolve_threads(8, 2), 2);
        assert!(resolve_threads(0, 100) >= 1);
        assert_eq!(resolve_threads(5, 0), 1);
    }
}
