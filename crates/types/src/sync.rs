//! Poison-recovering lock helpers.
//!
//! A thread that panics while holding a lock poisons it; with bare
//! `.lock().expect(...)` every later holder would panic too, so one bad
//! daemon session or one panicking metrics writer would wedge every
//! caller after it. Each state these helpers guard is left consistent at
//! release (transitions are single assignments, pushes or map inserts),
//! so recovering the guard is safe; these helpers do that uniformly.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// Locks `m`, recovering the guard if a previous holder panicked.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait that recovers a poisoned guard.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait of at most `timeout` that recovers a poisoned guard;
/// the caller rechecks its condition and its own deadline.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// Shared access to `l`, recovering the guard if a writer panicked.
pub fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access to `l`, recovering the guard if a writer panicked.
pub fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_recovers_after_a_panicking_holder() {
        let m = Arc::new(Mutex::new(7u32));
        let l = Arc::new(RwLock::new(7u32));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let _ = std::thread::spawn(move || {
            let _held = (m2.lock().unwrap(), l2.write().unwrap());
            panic!("poison both");
        })
        .join();
        assert!(m.is_poisoned() && l.is_poisoned());
        *lock(&m) += 1;
        *write(&l) += 1;
        assert_eq!((*lock(&m), *read(&l)), (8, 8));
    }
}
