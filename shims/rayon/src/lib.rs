//! Offline stand-in for `rayon`, reduced to the one primitive this workspace
//! uses: [`parallel_map_slice`], an in-order parallel map over a slice. Real
//! rayon has no such function, so swapping it back in means rewriting the two
//! `SweepRunner` call sites, not only the manifest.
//!
//! Work is distributed over `std::thread::scope` workers pulling indices from
//! an atomic counter, and results are returned in input order, so a map is
//! deterministic regardless of the thread count — the property the
//! `SweepRunner` determinism tests rely on. A panic in any closure propagates
//! to the caller, as with real rayon.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps every item through `f` on up to `threads` scoped worker threads and
/// returns the results in input order. `threads` of 0 or 1, and inputs of at
/// most one item, run on the calling thread.
pub fn parallel_map_slice<'a, T: Sync, R: Send>(
    items: &'a [T],
    threads: usize,
    f: impl Fn(&'a T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.clamp(1, items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let gathered: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= items.len() {
                        break;
                    }
                    local.push((index, f(&items[index])));
                }
                gathered.lock().unwrap().extend(local);
            });
        }
    });
    let mut pairs = gathered.into_inner().unwrap();
    pairs.sort_by_key(|&(index, _)| index);
    pairs.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let parallel = parallel_map_slice(&items, threads, |x| x * x);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_slice(&empty, 4, |x| x + 1).is_empty());
        assert_eq!(parallel_map_slice(&[41u32], 4, |x| x + 1), vec![42]);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map_slice(&items, 4, |x| if *x == 7 { panic!("boom") } else { *x })
        });
        assert!(result.is_err());
    }
}
