//! One indexed thread fan-out for every parallel batch in the stack.
//!
//! `.mnl` parsing ([`crate::mnl::parse_design_parallel`]) and the
//! estimation pipeline's sharded batches both run "task `i` for every
//! `i`, on a few scoped workers, results in index order". [`fan_out`] is
//! that loop, written once.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `task(i)` for every `i` in `0..n` on `min(workers, n)` scoped
/// threads (at least one when `n > 0`) and returns the results in index
/// order.
///
/// Workers pull indices from one shared counter, so cheap and expensive
/// tasks interleave. Each worker first calls `setup` with its worker
/// number and holds the returned guard until it runs out of indices —
/// the hook where a worker labels its thread and opens its trace span.
/// A panicking task propagates to the caller once every worker has
/// stopped.
///
/// # Examples
///
/// ```
/// let squares = maestro_netlist::fan_out(5, 2, |_worker| (), |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn fan_out<T, G>(
    n: usize,
    workers: usize,
    setup: impl Fn(usize) -> G + Sync,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<T>
where
    T: Send,
{
    let next = AtomicUsize::new(0);
    let (next, setup, task) = (&next, &setup, &task);
    let done: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1).min(n))
            .map(|w| {
                scope.spawn(move || {
                    let _guard = setup(w);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break out;
                        }
                        out.push((i, task(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut results: Vec<(usize, T)> = done.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn results_come_back_in_index_order_for_any_worker_count() {
        for workers in [0, 1, 2, 3, 8, 100] {
            let out = fan_out(37, workers, |_| (), |i| i * 3);
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>());
        }
        assert!(fan_out(0, 4, |_| (), |i| i).is_empty());
    }

    #[test]
    fn spawns_min_of_workers_and_tasks_and_sets_each_up_once() {
        let set_up = Mutex::new(Vec::new());
        fan_out(3, 8, |w| set_up.lock().expect("lock").push(w), |i| i);
        let mut workers = set_up.into_inner().expect("lock");
        workers.sort_unstable();
        assert_eq!(workers, [0, 1, 2]);
    }

    #[test]
    fn a_panicking_task_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            fan_out(4, 2, |_| (), |i| assert_ne!(i, 2, "task 2 fails"))
        });
        assert!(caught.is_err());
    }
}
