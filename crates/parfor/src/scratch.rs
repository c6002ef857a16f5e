//! Per-worker scratch slots.
//!
//! Dynamic and guided schedules hand a worker many chunks per loop, but
//! the `parallel_for` body closure is `Fn` — it cannot own mutable
//! per-worker state, so anything a worker wants to carry *across* chunk
//! boundaries (an unranker's specialization cache, a tuple buffer, a
//! statistics accumulator) previously had to hide behind a
//! `Mutex<T>` per thread, paying an uncontended-but-real lock per chunk
//! and defeating inlining of the cached fast path.
//!
//! [`WorkerLocal`] is the lock-free replacement: one cache-padded slot
//! per pool thread, indexed by the `tid` the pool already passes to
//! every body. Exclusive access is enforced dynamically with a per-slot
//! borrow flag (a single relaxed atomic swap — no mutex, no poisoning),
//! which makes the API safe even if a caller passes the wrong `tid`:
//! misuse panics instead of racing.
//!
//! Every collapsed executor in `nrl_core` runs on this design: the
//! chunked modes and the warp simulator carry their per-worker
//! unranker caches here, the reductions their partial lists, and the
//! partial-collapse executor its full-tuple walk buffers — one scratch
//! discipline, no per-chunk allocation.

use crate::sync::CachePadded;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

struct Slot<T> {
    borrowed: AtomicBool,
    value: UnsafeCell<T>,
}

/// A fixed array of per-worker values: slot `tid` belongs to pool
/// thread `tid` for the duration of a loop, and survives across chunks
/// *and* across successive `parallel_for` calls on the same pool.
///
/// See the [module docs](self) for the motivation.
///
/// # Example
///
/// ```
/// use nrl_parfor::{Schedule, ThreadPool, WorkerLocal};
///
/// let pool = ThreadPool::new(4);
/// // One persistent counter per worker — no locks in the loop body.
/// let scratch = WorkerLocal::new(pool.nthreads(), |_tid| 0u64);
/// pool.parallel_for(1000, Schedule::Dynamic(16), &|tid, s, e| {
///     scratch.with(tid, |count| *count += e - s);
/// });
/// assert_eq!(scratch.into_iter().sum::<u64>(), 1000);
/// ```
pub struct WorkerLocal<T> {
    slots: Vec<CachePadded<Slot<T>>>,
}

// SAFETY: a slot's value is only reachable through `with`, which
// enforces exclusive access via the borrow flag; distinct slots are
// independent. `T: Send` because values are created on the constructing
// thread and used on workers.
unsafe impl<T: Send> Sync for WorkerLocal<T> {}

impl<T> WorkerLocal<T> {
    /// Creates `n` slots, initializing slot `tid` with `init(tid)`.
    pub fn new(n: usize, init: impl FnMut(usize) -> T) -> Self {
        let mut init = init;
        WorkerLocal {
            slots: (0..n)
                .map(|tid| {
                    CachePadded::new(Slot {
                        borrowed: AtomicBool::new(false),
                        value: UnsafeCell::new(init(tid)),
                    })
                })
                .collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates the slots mutably in `tid` order — for post-loop
    /// inspection or reuse across loops without consuming the scratch.
    /// Exclusive access comes from `&mut self` (the loop has joined),
    /// so no borrow flags are touched.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|padded| {
            debug_assert!(!*padded.borrowed.get_mut(), "slot still borrowed");
            padded.value.get_mut()
        })
    }

    /// Runs `f` with exclusive mutable access to worker `tid`'s slot.
    ///
    /// # Panics
    /// Panics if `tid` is out of range or the slot is already borrowed
    /// (two threads claiming the same `tid`, or a re-entrant call).
    #[inline]
    pub fn with<R>(&self, tid: usize, f: impl FnOnce(&mut T) -> R) -> R {
        let slot = &self.slots[tid];
        assert!(
            !slot.borrowed.swap(true, Ordering::Acquire),
            "WorkerLocal slot {tid} is already borrowed"
        );
        // Release the flag even if `f` panics, so a caught panic (e.g.
        // in tests) cannot wedge the slot.
        struct Reset<'a>(&'a AtomicBool);
        impl Drop for Reset<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _reset = Reset(&slot.borrowed);
        // SAFETY: the borrow flag guarantees no other reference to this
        // slot's value exists for the duration of `f`.
        f(unsafe { &mut *slot.value.get() })
    }
}

impl<T> IntoIterator for WorkerLocal<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    /// Consumes the slots in `tid` order (for post-loop reduction).
    fn into_iter(self) -> Self::IntoIter {
        self.slots
            .into_iter()
            .map(|padded| padded.into_inner().value.into_inner())
            .collect::<Vec<_>>()
            .into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use crate::schedule::Schedule;

    #[test]
    fn slots_accumulate_across_chunks_and_loops() {
        let pool = ThreadPool::new(3);
        let scratch = WorkerLocal::new(pool.nthreads(), |_| 0u64);
        for _ in 0..2 {
            pool.parallel_for(500, Schedule::Dynamic(7), &|tid, s, e| {
                scratch.with(tid, |acc| *acc += e - s);
            });
        }
        let total: u64 = scratch.into_iter().sum();
        assert_eq!(total, 1000, "state must persist across chunks and loops");
    }

    #[test]
    fn init_sees_tid() {
        let scratch = WorkerLocal::new(4, |tid| tid * 10);
        for tid in 0..4 {
            assert_eq!(scratch.with(tid, |v| *v), tid * 10);
        }
        assert_eq!(scratch.len(), 4);
        assert!(!scratch.is_empty());
    }

    #[test]
    fn reentrant_borrow_panics() {
        let scratch = WorkerLocal::new(1, |_| 0u8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scratch.with(0, |_| scratch.with(0, |_| {}));
        }));
        assert!(result.is_err(), "re-entrant borrow must be rejected");
        // The flag was reset by the panic guard: the slot is usable.
        scratch.with(0, |v| *v = 7);
        assert_eq!(scratch.with(0, |v| *v), 7);
    }

    #[test]
    fn iter_mut_visits_slots_in_tid_order() {
        let pool = ThreadPool::new(3);
        let mut scratch = WorkerLocal::new(pool.nthreads(), |tid| tid as u64);
        pool.parallel_for(300, Schedule::Static, &|tid, s, e| {
            scratch.with(tid, |acc| *acc += e - s);
        });
        // Post-loop mutable sweep without consuming: reset for reuse.
        let mut seen = 0u64;
        for slot in scratch.iter_mut() {
            seen += *slot;
            *slot = 0;
        }
        assert!(seen >= 300, "every iteration counted somewhere: {seen}");
        assert_eq!(scratch.into_iter().sum::<u64>(), 0, "slots were reset");
    }

    #[test]
    fn non_copy_values_are_supported() {
        let scratch = WorkerLocal::new(2, |tid| vec![tid]);
        scratch.with(1, |v| v.push(99));
        let collected: Vec<Vec<usize>> = scratch.into_iter().collect();
        assert_eq!(collected, vec![vec![0], vec![1, 99]]);
    }
}
