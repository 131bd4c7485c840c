//! The workspace's one fork-join helper: [`map`] runs a closure over a list
//! of items on scoped threads and returns the results in item order.
//!
//! Workers claim items one at a time through a shared counter, so uneven
//! items (skewed rows, matrices of different sizes) balance themselves. The
//! calling thread is one of the workers — it would otherwise only wait — so
//! a call spawns one thread fewer than it has workers. A call made from
//! inside a worker runs inline on that worker: the outer loop already owns
//! every core, and nesting would only oversubscribe them.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Set while the thread is a worker of [`map`]: for the lifetime of a
    /// spawned one, and for the caller while it works its share.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Clears the current thread's worker mark when dropped (on unwind too: a
/// panic in the caller's share must not leave its thread running inline for
/// good).
struct WorkerMark;

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.set(false);
    }
}

/// The host's available parallelism, read once. The same inside a worker
/// as outside, so work split by it (merge-path partitions) does not depend
/// on where the call was made.
pub fn threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// `items.enumerate().map(|(i, item)| f(i, item)).collect()`, fanned out
/// over [`threads`] workers: the caller and scoped threads for the rest. A
/// panic in `f` resumes on the caller once every worker has stopped.
pub fn map<I, T, F>(items: impl IntoIterator<Item = I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let items: Vec<I> = items.into_iter().collect();
    let workers = if IN_WORKER.get() { 1 } else { threads().min(items.len()) };
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    // Relaxed: the counter only hands out tickets. The slots were filled
    // before the spawn and the results travel back through `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        IN_WORKER.set(true);
        let _mark = WorkerMark;
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { return done };
            // Each ticket is issued once, so the lock is uncontended and a
            // poisoned one still holds its untouched item.
            let item = slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
            done.push((i, f(i, item.expect("ticket issued once"))));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in handles {
            done.extend(h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_and_every_item_runs_once() {
        let hits = AtomicUsize::new(0);
        let out = map(0..1000usize, |i, item| {
            assert_eq!(i, item);
            hits.fetch_add(1, Ordering::Relaxed);
            item * item
        });
        assert_eq!(out, (0..1000).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert!(map(Vec::<u8>::new(), |_, b| b).is_empty());
    }

    #[test]
    fn items_may_be_disjoint_mutable_borrows() {
        let mut y = vec![0usize; 1000];
        map(y.chunks_mut(7), |chunk, ys| ys.iter_mut().for_each(|v| *v = chunk));
        assert!(y.iter().enumerate().all(|(i, &v)| v == i / 7));
    }

    #[test]
    fn a_nested_call_runs_inline_on_its_worker() {
        let nested = map(0..4usize, |_, _| {
            let me = std::thread::current().id();
            map(0..8usize, |_, _| std::thread::current().id() == me)
        });
        assert!(nested.iter().flatten().all(|&same_thread| same_thread));
    }

    #[test]
    fn the_caller_works_a_share_itself() {
        // As many items as workers, each waiting for all of them to have
        // started: only a call whose every worker takes one item returns.
        let (n, started) = (threads(), AtomicUsize::new(0));
        let ids = map(0..n, |_, _| {
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) < n {
                std::thread::yield_now();
            }
            std::thread::current().id()
        });
        assert!(ids.contains(&std::thread::current().id()), "the caller is a worker");
        assert!(!IN_WORKER.get(), "and stops being one when the call returns");
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        let caught = std::panic::catch_unwind(|| {
            map(0..64usize, |_, i| assert!(i != 17, "item {i} refused"));
        });
        let msg = caught.expect_err("the panic must propagate");
        assert!(msg.downcast_ref::<String>().is_some_and(|m| m.contains("item 17 refused")));
    }
}
