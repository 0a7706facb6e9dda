//! Offline stand-in for `rayon` implementing the subset this workspace uses:
//! `slice.par_iter().map(f).collect::<Vec<_>>()` plus
//! `ThreadPoolBuilder::new().num_threads(n).build()?.install(..)`.
//!
//! Work is distributed over `std::thread::scope` workers pulling indices from
//! an atomic counter, and results are returned in input order, so a map is
//! deterministic regardless of the thread count — the property the
//! `SweepRunner` determinism tests rely on. A panic in any closure propagates
//! to the caller, as with real rayon.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Thread count installed on the current thread by [`ThreadPool::install`].
    static INSTALLED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of worker threads parallel operations on this thread will use.
pub fn current_num_threads() -> usize {
    INSTALLED_THREADS.with(|installed| {
        installed.get().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Error type returned by [`ThreadPoolBuilder::build`] (never produced here).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (host parallelism) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker thread count; `0` means the host default, like rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool. Infallible in this shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let default = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let n = match self.num_threads {
            Some(0) | None => default,
            Some(n) => n,
        };
        Ok(ThreadPool {
            num_threads: n.max(1),
        })
    }
}

/// A logical thread pool: workers are spawned per operation (scoped threads),
/// the pool only carries the configured width.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count installed for parallel
    /// operations performed inside it. The previous value is restored even
    /// when `f` panics.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let previous = self.0;
                INSTALLED_THREADS.with(|installed| installed.set(previous));
            }
        }
        let _restore =
            INSTALLED_THREADS.with(|installed| Restore(installed.replace(Some(self.num_threads))));
        f()
    }

    /// The configured width of the pool.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// In-order parallel map: the core primitive behind the iterator facade.
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

/// Parallel iterator over a slice, created by
/// [`IntoParallelRefIterator::par_iter`].
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every element through `f` (lazily; runs on `collect`).
    pub fn map<R, F: Fn(&'a T) -> R + Sync>(self, f: F) -> ParMap<'a, T, F> {
        ParMap {
            slice: self.slice,
            f,
        }
    }
}

/// The `par_iter().map(..)` adapter.
pub struct ParMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    /// Executes the map across [`current_num_threads`] workers, preserving
    /// input order, and collects the results.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(parallel_map_slice(
            self.slice,
            current_num_threads(),
            self.f,
        ))
    }
}

/// Extension trait adding `par_iter` to slices and vectors.
pub trait IntoParallelRefIterator<'a> {
    /// Element type.
    type Item: 'a;
    /// Returns a parallel iterator over references.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

/// The usual rayon prelude import.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.par_iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let parallel: Vec<u64> =
                pool.install(|| items.par_iter().map(|x| x * x).collect::<Vec<_>>());
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn install_scopes_the_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let outside = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        let mapped: Vec<u32> = empty.par_iter().map(|x| x + 1).collect();
        assert!(mapped.is_empty());
        let one = [41u32];
        let mapped: Vec<u32> = one.par_iter().map(|x| x + 1).collect();
        assert_eq!(mapped, vec![42]);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let result = std::panic::catch_unwind(|| {
            pool.install(|| {
                items
                    .par_iter()
                    .map(|x| if *x == 7 { panic!("boom") } else { *x })
                    .collect::<Vec<_>>()
            })
        });
        assert!(result.is_err());
    }
}
