//! Poisoning-tolerant lock helpers, shared by the serving stack
//! (`noble-serve` and the `noble-net` edge).
//!
//! `std`'s `Mutex` poisons when a holder panics, and every subsequent
//! `.lock().unwrap()` then panics too — one worker panic cascades
//! through every thread that touches the same lock. The serving stack's
//! robustness contract is the opposite: a panic must stay contained and
//! the process must keep serving. These helpers adopt parking_lot-style
//! semantics: poisoning is ignored and the guard is recovered with
//! [`std::sync::PoisonError::into_inner`].
//!
//! That is sound here because every critical section in both crates
//! leaves its protected state consistent at every await/panic point:
//! state transitions are single assignments or collection ops, never
//! multi-step invariants that a mid-section unwind could tear. (The
//! `noble-lint` `panic-path` lint keeps it that way — a new `.unwrap()`
//! inside a critical section fails `--check`.)

use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
use std::time::Duration;

/// Locks `mutex`, recovering the guard from a poisoned lock instead of
/// propagating the panic to this thread.
pub fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`Condvar::wait`] with the same poisoning recovery as [`relock`].
pub fn rewait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar
        .wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`Condvar::wait_timeout`] with the same poisoning recovery as
/// [`relock`].
pub fn rewait_timeout<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    condvar
        .wait_timeout(guard, timeout)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn relock_recovers_a_poisoned_mutex() {
        let mutex = Arc::new(Mutex::new(7u32));
        let clone = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(mutex.is_poisoned());
        assert_eq!(*relock(&mutex), 7);
    }
}
