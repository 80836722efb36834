//! Per-host claim locks for serializing concurrent migrations.
//!
//! A migration occupies both its source and destination host; the
//! daemon's work queue must never run two migrations that share a host
//! (mirroring [`Cluster`](crate::Cluster)'s admission rule that a host
//! participates in one migration at a time). [`HostLocks::claim`]
//! acquires *all* requested hosts atomically under one table mutex —
//! either every host is free and the whole set is taken, or the caller
//! blocks. All-or-nothing acquisition makes lock-ordering deadlocks
//! structurally impossible: no thread ever holds one host of a set
//! while waiting for another.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

use vecycle_types::{sync, HostId};

/// A table of per-host binary locks. Cheap to clone; clones share the
/// table.
#[derive(Clone, Default)]
pub struct HostLocks {
    inner: Arc<Table>,
}

#[derive(Default)]
struct Table {
    held: Mutex<HashSet<u32>>,
    freed: Condvar,
}

impl HostLocks {
    /// Creates an empty lock table.
    pub fn new() -> HostLocks {
        HostLocks::default()
    }

    /// Blocks until every host in `hosts` is free, then claims them all
    /// atomically. Duplicate ids in the slice are allowed (a set is
    /// claimed). Dropping the returned [`HostClaim`] releases the hosts
    /// and wakes all waiters.
    pub fn claim(&self, hosts: &[HostId]) -> HostClaim {
        let ids: HashSet<u32> = hosts.iter().map(|h| h.as_u32()).collect();
        // Poison-recovering locks: the held-set is a plain id set, so a
        // panicking holder of the *table mutex* cannot leave it
        // half-updated in a way release would not fix. Recovering keeps
        // the whole daemon's admission alive after one worker panic.
        let mut held = sync::lock(&self.inner.held);
        while !held.is_disjoint(&ids) {
            held = sync::wait(&self.inner.freed, held);
        }
        held.extend(ids.iter().copied());
        HostClaim {
            table: Arc::clone(&self.inner),
            ids,
        }
    }

    /// Claims the hosts if all are free right now; `None` otherwise.
    pub fn try_claim(&self, hosts: &[HostId]) -> Option<HostClaim> {
        let ids: HashSet<u32> = hosts.iter().map(|h| h.as_u32()).collect();
        let mut held = sync::lock(&self.inner.held);
        if !held.is_disjoint(&ids) {
            return None;
        }
        held.extend(ids.iter().copied());
        Some(HostClaim {
            table: Arc::clone(&self.inner),
            ids,
        })
    }

    /// Whether `host` is currently claimed.
    pub fn is_held(&self, host: HostId) -> bool {
        sync::lock(&self.inner.held).contains(&host.as_u32())
    }
}

impl fmt::Debug for HostLocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut held: Vec<u32> = sync::lock(&self.inner.held).iter().copied().collect();
        held.sort_unstable();
        f.debug_struct("HostLocks").field("held", &held).finish()
    }
}

/// RAII claim over a set of hosts; releases on drop.
#[must_use = "dropping the claim releases the hosts"]
pub struct HostClaim {
    table: Arc<Table>,
    ids: HashSet<u32>,
}

impl fmt::Debug for HostClaim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ids: Vec<u32> = self.ids.iter().copied().collect();
        ids.sort_unstable();
        f.debug_struct("HostClaim").field("ids", &ids).finish()
    }
}

impl Drop for HostClaim {
    fn drop(&mut self) {
        // Runs during unwinds too (a panicking worker must release its
        // hosts, and must not double-panic on a poisoned table).
        let mut held = sync::lock(&self.table.held);
        for id in &self.ids {
            held.remove(id);
        }
        drop(held);
        self.table.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::thread;
    use std::time::Duration;

    fn h(n: u32) -> HostId {
        HostId::new(n)
    }

    #[test]
    fn overlapping_claims_are_mutually_exclusive() {
        let locks = HostLocks::new();
        let busy = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        // Pairs (0,1), (1,2), (2,0) all overlap pairwise: at most one
        // may hold its claim at any instant.
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            let locks = locks.clone();
            let busy = Arc::clone(&busy);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    let _claim = locks.claim(&[h(a), h(b)]);
                    assert_eq!(busy.fetch_add(1, Ordering::SeqCst), 0);
                    busy.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for hd in handles {
            hd.join().unwrap();
        }
    }

    #[test]
    fn disjoint_claims_run_concurrently() {
        let locks = HostLocks::new();
        let _a = locks.claim(&[h(0), h(1)]);
        // A disjoint pair must be claimable immediately.
        let b = locks.try_claim(&[h(2), h(3)]).expect("disjoint set free");
        assert!(locks.is_held(h(0)));
        assert!(locks.is_held(h(2)));
        drop(b);
        assert!(!locks.is_held(h(2)));
    }

    #[test]
    fn try_claim_fails_on_any_overlap_and_claims_nothing() {
        let locks = HostLocks::new();
        let _a = locks.claim(&[h(1)]);
        assert!(locks.try_claim(&[h(1), h(2)]).is_none());
        // The failed attempt must not have leaked a partial claim.
        assert!(!locks.is_held(h(2)));
    }

    #[test]
    fn storm_of_random_pairs_never_deadlocks() {
        let locks = HostLocks::new();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let locks = locks.clone();
            handles.push(thread::spawn(move || {
                let mut draw = vecycle_types::rng::Xorshift::new(t);
                for _ in 0..100 {
                    let x = draw.next();
                    let a = (x % 4) as u32;
                    let b = ((x >> 8) % 4) as u32;
                    let _claim = locks.claim(&[h(a), h(b)]);
                    std::hint::black_box(());
                }
            }));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        for hd in handles {
            assert!(std::time::Instant::now() < deadline, "deadlock suspected");
            hd.join().unwrap();
        }
    }
}
