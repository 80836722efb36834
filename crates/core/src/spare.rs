//! [`Spare`]: a per-leg working set one migration lends to the next.

use std::fmt;
use std::sync::Mutex;

/// A value one migration hands to the next — the engine's dedup table,
/// the session's recycling index — so a leg refills it in place instead
/// of allocating its own. A clone starts empty, so clones never share
/// one. A busy or poisoned lock means the caller makes a fresh value:
/// correctness never depends on the spare.
#[derive(Default)]
pub(crate) struct Spare<T>(Mutex<Option<T>>);

impl<T> Spare<T> {
    /// The spare, if one is held and the lock is free.
    pub(crate) fn take(&self) -> Option<T> {
        self.0.try_lock().ok()?.take()
    }

    /// Keeps `value` for the next [`Spare::take`], unless the lock is
    /// busy, when it is dropped.
    pub(crate) fn put(&self, value: T) {
        if let Ok(mut slot) = self.0.try_lock() {
            *slot = Some(value);
        }
    }
}

impl<T: Default> Clone for Spare<T> {
    fn clone(&self) -> Self {
        Spare::default()
    }
}

impl<T> fmt::Debug for Spare<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Spare")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_starts_empty_and_a_busy_lock_means_fresh() {
        let spare = Spare::default();
        spare.put(vec![1u8]);
        assert_eq!(spare.clone().take(), None);
        let held = spare.0.lock().unwrap();
        assert_eq!(spare.take(), None);
        spare.put(vec![2]);
        drop(held);
        assert_eq!(spare.take(), Some(vec![1]));
        assert_eq!(spare.take(), None);
    }
}
