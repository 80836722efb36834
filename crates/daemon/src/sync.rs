//! Poison-recovering lock helpers.
//!
//! A worker that panics while holding a daemon mutex poisons it; with
//! bare `.lock().expect(...)` every later `status`/`journal`/submit on
//! that mutex would then panic too, wedging the whole control surface
//! because of one bad session. Daemon state is always left consistent
//! at lock release (transitions are single assignments, pushes, or map
//! inserts), so recovering the guard is safe — these helpers do that
//! uniformly.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a previous holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait that recovers a poisoned guard.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_recovers_after_a_panicking_holder() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7);
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
    }
}
