//! Parallel experiment execution over the local cores.
//!
//! The paper's artifact farms ~500 Ramulator jobs onto a Slurm cluster;
//! here a `std::thread::scope` worker pool runs the (workload × mechanism ×
//! N_RH) grid on the local machine. The workers share one queue of the
//! items in index order and each takes the next item whenever it is free,
//! so a grid that mixes heavy and light cells keeps every worker busy
//! until the queue is empty, and items start in index order. Workers stream
//! `(index, result)` pairs back over an mpsc channel; the queue lock is
//! held only while an item is taken, never while it runs, and input order
//! is preserved in the output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

/// Renders a panic payload as text for error reporting.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Applies `f` to every item on `threads` worker threads, preserving input
/// order in the output. A panicking `f` aborts the whole call — callers
/// that must survive per-item panics use [`try_run_parallel`].
pub fn run_parallel<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    try_run_parallel(items, threads, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("parallel worker panicked: {msg}")))
        .collect()
}

/// Panic-isolated [`run_parallel`]: each item's `f` runs under
/// `catch_unwind`, so one panicking item becomes `Err(panic message)` in
/// its output slot while every other item still completes. Input order is
/// preserved.
pub fn try_run_parallel<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let guarded = |item: T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(panic_text);
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return items.into_iter().map(guarded).collect();
    }

    // One queue, index order: no worker idles while an item is unclaimed,
    // however unevenly the items' costs are spread over the indices.
    let queue = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
    let (guarded, queue) = (&guarded, &queue);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            s.spawn(move || loop {
                let next = queue
                    .lock()
                    .expect("items run outside the queue lock, so it cannot be poisoned")
                    .next();
                let Some((i, item)) = next else { return };
                if tx.send((i, guarded(item))).is_err() {
                    // Receiver gone: the main thread is unwinding.
                    return;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            debug_assert!(out[i].is_none(), "result {i} delivered twice");
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("worker delivered every result"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = run_parallel((0..100).collect(), 8, |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_single_threaded() {
        let out = run_parallel(vec!["a", "bb", "ccc"], 1, |s: &str| s.len());
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = run_parallel(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = run_parallel(vec![1, 2], 16, |x: i32| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn uneven_items_balance_across_workers() {
        let out = run_parallel((0..37).collect(), 5, |x: u64| x * x);
        assert_eq!(out, (0..37).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn a_free_worker_takes_the_next_item_whatever_its_index() {
        // Item 0 holds its worker until every other item has run. Dealing
        // `i % threads` queues items 2 and 4 behind item 0 on the same
        // worker and never finishes; a shared queue lets the other worker
        // drain them.
        use std::sync::Condvar;
        use std::time::Duration;
        const ITEMS: usize = 6;
        let done = (Mutex::new(0usize), Condvar::new());
        let out = run_parallel((0..ITEMS).collect(), 2, |i: usize| {
            let (count, changed) = &done;
            if i == 0 {
                let wait = changed
                    .wait_timeout_while(count.lock().unwrap(), Duration::from_secs(10), |c| {
                        *c < ITEMS - 1
                    })
                    .unwrap();
                !wait.1.timed_out()
            } else {
                *count.lock().unwrap() += 1;
                changed.notify_all();
                true
            }
        });
        assert!(
            out[0],
            "items behind item 0 never ran: workers are not work-conserving"
        );
        assert_eq!(out, vec![true; ITEMS]);
    }

    #[test]
    fn try_variant_isolates_panics_per_item() {
        let out = try_run_parallel((0..10).collect(), 4, |x: i32| {
            if x % 3 == 0 {
                panic!("boom at {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), 10);
        for (i, slot) in out.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(slot.as_ref().unwrap_err(), &format!("boom at {i}"));
            } else {
                assert_eq!(slot.as_ref().unwrap(), &(i as i32 * 2));
            }
        }
    }

    #[test]
    fn try_variant_isolates_panics_single_threaded() {
        let out = try_run_parallel(vec![1, 2, 3], 1, |x: i32| {
            if x == 2 {
                panic!("two");
            }
            x
        });
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1], Err("two".to_string()));
        assert_eq!(out[2], Ok(3));
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked: unlucky")]
    fn plain_variant_propagates_panics() {
        let _ = run_parallel(vec![0, 7], 2, |x: i32| {
            if x == 7 {
                panic!("unlucky");
            }
            x
        });
    }
}
