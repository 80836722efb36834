//! [`CheckpointStore`]: the checkpoints one host keeps, and the one
//! place that keeps their files and their catalog in step.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use vecycle_types::{sync, Bytes, Error, SimTime, VmId};

use crate::lifecycle::{
    CheckpointFetch, EvictionPolicy, EvictionReason, EvictionRecord, GoneReason, SaveOutcome,
    ScrubReport,
};
use crate::{Checkpoint, DiskStore};

/// The checkpoints a host keeps on its local disk: one per VM, replaced
/// on every outgoing migration of that VM (§3 of the paper).
///
/// "Local storage is cheap" but not infinite: an optional byte quota
/// turns every save into an admission decision, with victims chosen by a
/// deterministic [`EvictionPolicy`]. A VM whose checkpoint was evicted
/// (or quarantined by a restart's scrub) leaves a [`GoneReason`]
/// tombstone, so a later migration can tell "never had one" from "had
/// one and lost it" and degrade with the right cause.
///
/// The catalog lives in memory; an optional [`DiskStore`] mirror
/// ([`CheckpointStore::with_disk`]) holds the files. Every path that
/// changes one changes the other here — [`save`](CheckpointStore::save),
/// [`fetch`](CheckpointStore::fetch), [`discard`](CheckpointStore::discard)
/// and [`restart`](CheckpointStore::restart) — so after each of them the
/// set of `vm-<id>.ckpt` files equals [`vm_ids`](CheckpointStore::vm_ids).
///
/// The catalog is internally synchronized — hosts are shared between
/// the scenario driver and the migration engine.
///
/// # Examples
///
/// ```
/// use vecycle_checkpoint::{Checkpoint, CheckpointStore};
/// use vecycle_mem::DigestMemory;
/// use vecycle_types::{PageCount, SimTime, VmId};
///
/// # fn main() -> vecycle_types::Result<()> {
/// let store = CheckpointStore::new();
/// let vm = VmId::new(3);
/// let mem = DigestMemory::with_distinct_content(PageCount::new(8), 1);
/// store.save(Checkpoint::capture(vm, SimTime::EPOCH, &mem))?;
/// assert!(store.latest(vm).is_some());
/// assert!(store.latest(VmId::new(9)).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct CheckpointStore {
    inner: RwLock<Inner>,
    disk: Option<Arc<DiskStore>>,
}

/// One stored checkpoint plus the bookkeeping eviction policies need.
#[derive(Debug)]
struct Entry {
    checkpoint: Arc<Checkpoint>,
    /// Monotonic insertion sequence — the final, always-distinct
    /// tie-breaker for every policy.
    seq: u64,
    /// Monotonic touch sequence of the last recycle hit (0 = never
    /// recycled), driving [`EvictionPolicy::LruByRecycle`].
    recycled: u64,
}

/// Running estimate of how often a VM's checkpoints land on this host —
/// the "return period" of workload-cycle studies. A plain mean of
/// save-to-save gaps in nanoseconds; deterministic because simulated
/// time is.
#[derive(Debug, Clone, Copy)]
struct ReturnPeriod {
    last_save: SimTime,
    mean_nanos: f64,
    gaps: u64,
}

#[derive(Debug, Default)]
struct Inner {
    // BTreeMaps keep every iteration (victim scans, catalog listings)
    // in VmId order — eviction must be deterministic.
    by_vm: BTreeMap<VmId, Entry>,
    used: Bytes,
    quota: Option<Bytes>,
    policy: EvictionPolicy,
    gone: BTreeMap<VmId, GoneReason>,
    periods: BTreeMap<VmId, ReturnPeriod>,
    next_seq: u64,
    next_touch: u64,
}

impl Inner {
    /// Picks the next eviction victim under `policy`, never the
    /// just-saved `protect`.
    ///
    /// Scores are built so that the *maximum* wins and ties break
    /// deterministically: every comparison ends in the unique insertion
    /// `seq`.
    fn pick_victim(&self, protect: VmId, now: SimTime) -> Option<VmId> {
        self.by_vm
            .iter()
            .filter(|(&vm, _)| vm != protect)
            .max_by_key(|(&vm, entry)| self.victim_score(vm, entry, now))
            .map(|(&vm, _)| vm)
    }

    /// Lexicographic score: higher evicts first. The last component is
    /// "older insertion wins", encoded as `u64::MAX - seq` so it still
    /// sorts under "maximum wins".
    fn victim_score(&self, vm: VmId, entry: &Entry, now: SimTime) -> (u64, u64, u64) {
        let age = now
            .checked_duration_since(entry.checkpoint.taken_at())
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let older = u64::MAX - entry.seq;
        match self.policy {
            EvictionPolicy::OldestFirst => (age, older, 0),
            // Never-recycled entries have recycled == 0, so
            // `MAX - recycled` puts them first; among equals, oldest.
            EvictionPolicy::LruByRecycle => (u64::MAX - entry.recycled, age, older),
            EvictionPolicy::LargestFirst => (entry.checkpoint.storage_size().as_u64(), age, older),
            EvictionPolicy::StalenessScore => {
                let period = self
                    .periods
                    .get(&vm)
                    .filter(|p| p.gaps > 0)
                    .map(|p| p.mean_nanos)
                    .unwrap_or(EvictionPolicy::DEFAULT_RETURN_PERIOD.as_nanos() as f64)
                    .max(1.0);
                // Fixed-point age/period ratio (millionths) keeps the
                // score integral and totally ordered.
                let score = (age as f64 / period * 1e6) as u64;
                (score, age, older)
            }
        }
    }

    /// Drops `vm`'s entry, if any, and gives its bytes back.
    fn take(&mut self, vm: VmId) -> Option<Entry> {
        let entry = self.by_vm.remove(&vm)?;
        self.used = self.used.saturating_sub(entry.checkpoint.storage_size());
        Some(entry)
    }

    /// Drops whatever `vm` has and leaves a tombstone saying why.
    fn bury(&mut self, vm: VmId, why: GoneReason) {
        self.take(vm);
        self.gone.insert(vm, why);
    }

    /// Returns `vm`'s checkpoint and marks it as just recycled by a
    /// migration, feeding [`EvictionPolicy::LruByRecycle`].
    fn recycle(&mut self, vm: VmId) -> Option<Arc<Checkpoint>> {
        let entry = self.by_vm.get_mut(&vm)?;
        self.next_touch += 1;
        entry.recycled = self.next_touch;
        Some(Arc::clone(&entry.checkpoint))
    }

    /// Inserts an admitted checkpoint: replaces the VM's previous one
    /// ([`EvictionReason::Version`]), then evicts victims under the
    /// policy until the catalog fits its quota
    /// ([`EvictionReason::Quota`]) — never the checkpoint just inserted.
    fn insert(&mut self, checkpoint: Checkpoint) -> Vec<EvictionRecord> {
        let (vm, now) = (checkpoint.vm(), checkpoint.taken_at());
        self.note_save_time(vm, now);
        self.gone.remove(&vm);
        let mut evicted = Vec::new();
        if let Some(old) = self.take(vm) {
            evicted.push(record(&old.checkpoint, EvictionReason::Version));
        }
        self.used += checkpoint.storage_size();
        let entry = Entry {
            checkpoint: Arc::new(checkpoint),
            seq: self.next_seq,
            recycled: 0,
        };
        self.next_seq += 1;
        self.by_vm.insert(vm, entry);
        while self.quota.is_some_and(|q| self.used > q) {
            let victim = self
                .pick_victim(vm, now)
                .expect("admission guaranteed the new checkpoint fits alone");
            let gone = self.take(victim).expect("victim exists");
            self.gone.insert(victim, GoneReason::Evicted);
            evicted.push(record(&gone.checkpoint, EvictionReason::Quota));
        }
        evicted
    }

    fn note_save_time(&mut self, vm: VmId, at: SimTime) {
        match self.periods.get_mut(&vm) {
            Some(p) => {
                if let Some(gap) = at.checked_duration_since(p.last_save) {
                    let gap = gap.as_nanos() as f64;
                    p.gaps += 1;
                    p.mean_nanos += (gap - p.mean_nanos) / p.gaps as f64;
                }
                p.last_save = at;
            }
            None => {
                self.periods.insert(
                    vm,
                    ReturnPeriod {
                        last_save: at,
                        mean_nanos: 0.0,
                        gaps: 0,
                    },
                );
            }
        }
    }
}

fn record(checkpoint: &Checkpoint, reason: EvictionReason) -> EvictionRecord {
    EvictionRecord {
        vm: checkpoint.vm(),
        taken_at: checkpoint.taken_at(),
        reason,
    }
}

impl CheckpointStore {
    /// Creates a store with no byte quota and no mirror.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Caps the store at `quota` bytes, evicting under `policy` when a
    /// save would exceed it.
    #[must_use]
    pub fn with_quota(self, quota: Bytes, policy: EvictionPolicy) -> Self {
        {
            let mut inner = sync::write(&self.inner);
            inner.quota = Some(quota);
            inner.policy = policy;
        }
        self
    }

    /// Mirrors the store to `disk`: saves write through to it, and a cold
    /// catalog (a fresh process, a host restart) is re-warmed from it.
    #[must_use]
    pub fn with_disk(mut self, disk: Arc<DiskStore>) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The configured byte quota, if any.
    pub fn quota(&self) -> Option<Bytes> {
        sync::read(&self.inner).quota
    }

    /// The eviction policy applied under quota pressure.
    pub fn policy(&self) -> EvictionPolicy {
        sync::read(&self.inner).policy
    }

    /// The mirror, if one is attached.
    pub fn disk(&self) -> Option<&Arc<DiskStore>> {
        self.disk.as_ref()
    }

    /// Saves a checkpoint through admission + eviction.
    ///
    /// A checkpoint larger than the whole quota is refused outright
    /// (`stored == false`, nothing written, nothing evicted). Otherwise
    /// it replaces the VM's previous checkpoint and victims are evicted
    /// until the store fits its quota; see [`EvictionReason`]. Saving
    /// clears any tombstone for the VM.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the mirror; the catalog is
    /// untouched when the file write fails.
    pub fn save(&self, checkpoint: Checkpoint) -> vecycle_types::Result<SaveOutcome> {
        self.admit(checkpoint, false)
    }

    /// The one admission path. `on_disk` says the checkpoint was just
    /// read back from the mirror (a re-warm), so its file already exists.
    ///
    /// Mirror protocol: the file is written *before* the catalog insert,
    /// and the file of every VM the insert evicted is deleted after it.
    /// A re-warmed checkpoint the quota no longer admits loses its file
    /// and leaves an [`Evicted`](GoneReason::Evicted) tombstone, reported
    /// as one quota eviction.
    fn admit(&self, checkpoint: Checkpoint, on_disk: bool) -> vecycle_types::Result<SaveOutcome> {
        let vm = checkpoint.vm();
        if self.quota().is_some_and(|q| checkpoint.storage_size() > q) {
            if !on_disk {
                return Ok(SaveOutcome::default());
            }
            if let Some(disk) = &self.disk {
                disk.remove(vm)?;
            }
            sync::write(&self.inner).bury(vm, GoneReason::Evicted);
            return Ok(SaveOutcome {
                stored: false,
                evicted: vec![record(&checkpoint, EvictionReason::Quota)],
            });
        }
        if let (Some(disk), false) = (&self.disk, on_disk) {
            disk.save(&checkpoint)?;
        }
        let evicted = sync::write(&self.inner).insert(checkpoint);
        if let Some(disk) = &self.disk {
            for gone in evicted.iter().filter(|r| r.reason == EvictionReason::Quota) {
                disk.remove(gone.vm)?;
            }
        }
        Ok(SaveOutcome {
            stored: true,
            evicted,
        })
    }

    /// Finds a recyclable checkpoint of `vm` for an incoming migration.
    ///
    /// A warm catalog entry is a hit (and is marked recycled for
    /// [`EvictionPolicy::LruByRecycle`]). A tombstone beats the mirror:
    /// eviction and quarantine already deleted the file, and the
    /// tombstone remembers *why* there is nothing to recycle. Otherwise
    /// a cold catalog falls back to the mirror's file: a clean one is
    /// re-admitted through the quota like any save — the second value is
    /// that warm-up's outcome, `None` on every other path — and a file
    /// that fails validation is deleted and reported as
    /// [`CheckpointFetch::Corrupt`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the mirror other than
    /// validation failures.
    pub fn fetch(&self, vm: VmId) -> vecycle_types::Result<(CheckpointFetch, Option<SaveOutcome>)> {
        if let Some(cp) = sync::write(&self.inner).recycle(vm) {
            return Ok((CheckpointFetch::Usable(cp), None));
        }
        if let Some(why) = self.gone(vm) {
            return Ok((CheckpointFetch::Gone(why), None));
        }
        let Some(disk) = &self.disk else {
            return Ok((CheckpointFetch::Missing, None));
        };
        match disk.load(vm) {
            Ok(Some(cp)) => {
                let warmed = self.admit(cp, true)?;
                let fetch = match sync::write(&self.inner).recycle(vm) {
                    Some(cp) => CheckpointFetch::Usable(cp),
                    None => CheckpointFetch::Gone(GoneReason::Evicted),
                };
                Ok((fetch, Some(warmed)))
            }
            Ok(None) => Ok((CheckpointFetch::Missing, None)),
            Err(Error::Corrupt { .. }) => {
                disk.remove(vm)?;
                Ok((CheckpointFetch::Corrupt, None))
            }
            Err(e) => Err(e),
        }
    }

    /// Throws away whatever checkpoint of `vm` the host holds, in the
    /// catalog and in the mirror, without reading it — a caller that
    /// knows the stored bytes are bad. Returns whether there was
    /// anything to throw away. Leaves no tombstone.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the mirror.
    pub fn discard(&self, vm: VmId) -> vecycle_types::Result<bool> {
        let in_catalog = self.remove(vm);
        let on_disk = match &self.disk {
            Some(disk) => disk.remove(vm)?,
            None => false,
        };
        Ok(in_catalog || on_disk)
    }

    /// What a host does when it comes back after a crash: forgets the
    /// catalog (tombstones and return periods were in RAM too), then
    /// re-verifies every file in the mirror. Clean checkpoints re-warm
    /// the catalog through normal quota admission, in VM-id order;
    /// files that fail validation are *quarantined* — deleted, never
    /// restored from, tombstoned.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than validation failures
    /// (those are quarantines, not errors).
    pub fn restart(&self) -> vecycle_types::Result<ScrubReport> {
        self.clear();
        let mut report = ScrubReport::default();
        let Some(disk) = &self.disk else {
            return Ok(report);
        };
        for vm in disk.list()? {
            match disk.load(vm) {
                Ok(Some(cp)) => {
                    report.verified += 1;
                    report.clean_pages += cp.page_count().as_u64();
                    report.evicted.extend(self.admit(cp, true)?.evicted);
                }
                Ok(None) => {} // raced away; nothing to verify
                Err(Error::Corrupt { .. }) => {
                    report.corrupt_pages += disk.estimated_pages(vm);
                    disk.remove(vm)?;
                    sync::write(&self.inner).bury(vm, GoneReason::Quarantined);
                    report.quarantined.push(vm);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// The checkpoint stored for `vm`, if any.
    pub fn latest(&self, vm: VmId) -> Option<Arc<Checkpoint>> {
        let inner = sync::read(&self.inner);
        Some(Arc::clone(&inner.by_vm.get(&vm)?.checkpoint))
    }

    /// Drops `vm`'s catalog entry, returning whether it had one. Leaves
    /// no tombstone and does not touch the mirror — see
    /// [`CheckpointStore::discard`] for that.
    pub fn remove(&self, vm: VmId) -> bool {
        sync::write(&self.inner).take(vm).is_some()
    }

    /// Drops the entire in-memory catalog — what a host crash does to
    /// RAM-resident state. Tombstones and return-period estimates die
    /// with it; only the mirror survives.
    pub fn clear(&self) {
        let mut inner = sync::write(&self.inner);
        inner.by_vm.clear();
        inner.gone.clear();
        inner.periods.clear();
        inner.used = Bytes::ZERO;
    }

    /// The tombstone for `vm`, if its checkpoint was evicted or
    /// quarantined since the last successful save.
    pub fn gone(&self, vm: VmId) -> Option<GoneReason> {
        sync::read(&self.inner).gone.get(&vm).copied()
    }

    /// Total bytes of checkpoint data currently stored.
    pub fn used(&self) -> Bytes {
        sync::read(&self.inner).used
    }

    /// Number of VMs with a checkpoint.
    pub fn vm_count(&self) -> usize {
        sync::read(&self.inner).by_vm.len()
    }

    /// The VMs with a checkpoint, in id order — the catalog, for
    /// comparison against [`DiskStore::list`].
    pub fn vm_ids(&self) -> Vec<VmId> {
        sync::read(&self.inner).by_vm.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_mem::DigestMemory;
    use vecycle_types::{PageCount, SimDuration};

    fn cp(vm: u32, hour: u64, seed: u64) -> Checkpoint {
        cp_pages(vm, hour, seed, 8)
    }

    fn cp_pages(vm: u32, hour: u64, seed: u64, pages: u64) -> Checkpoint {
        let mem = DigestMemory::with_distinct_content(PageCount::new(pages), seed);
        Checkpoint::capture(
            VmId::new(vm),
            SimTime::EPOCH + SimDuration::from_hours(hour),
            &mem,
        )
    }

    #[test]
    fn resave_replaces_the_previous_checkpoint() {
        let store = CheckpointStore::new();
        store.save(cp(1, 0, 10)).unwrap();
        let used_one = store.used();
        let outcome = store.save(cp(1, 5, 11)).unwrap();
        assert_eq!(store.used(), used_one); // replaced, not accumulated
        assert!(outcome.stored);
        assert_eq!(outcome.evicted.len(), 1);
        assert_eq!(outcome.evicted[0].reason, EvictionReason::Version);
        assert_eq!(outcome.evicted[0].taken_at, SimTime::EPOCH);
        assert_eq!(store.gone(VmId::new(1)), None);
        let latest = store.latest(VmId::new(1)).unwrap();
        assert_eq!(
            latest.taken_at(),
            SimTime::EPOCH + SimDuration::from_hours(5)
        );
    }

    #[test]
    fn remove_frees_bytes() {
        let store = CheckpointStore::new();
        store.save(cp(1, 0, 10)).unwrap();
        store.save(cp(2, 0, 20)).unwrap();
        assert_eq!(store.vm_count(), 2);
        assert!(store.remove(VmId::new(1)));
        assert!(!store.remove(VmId::new(1)));
        assert_eq!(store.vm_count(), 1);
        store.remove(VmId::new(2));
        assert_eq!(store.used(), Bytes::ZERO);
    }

    #[test]
    fn vms_are_isolated() {
        let store = CheckpointStore::new();
        store.save(cp(1, 0, 10)).unwrap();
        store.save(cp(2, 3, 20)).unwrap();
        assert_eq!(store.latest(VmId::new(1)).unwrap().vm(), VmId::new(1));
        assert_eq!(store.latest(VmId::new(2)).unwrap().vm(), VmId::new(2));
    }

    /// Quota for exactly `n` eight-page digest checkpoints.
    fn quota_for(n: u64) -> Bytes {
        let one = cp(0, 0, 1).storage_size();
        Bytes::new(one.as_u64() * n)
    }

    #[test]
    fn quota_evicts_oldest_first() {
        let store = CheckpointStore::new().with_quota(quota_for(2), EvictionPolicy::OldestFirst);
        store.save(cp(1, 0, 10)).unwrap();
        store.save(cp(2, 1, 20)).unwrap();
        let outcome = store.save(cp(3, 2, 30)).unwrap();
        assert!(outcome.stored);
        assert_eq!(outcome.evicted.len(), 1);
        let record = &outcome.evicted[0];
        assert_eq!(record.vm, VmId::new(1));
        assert_eq!(record.reason, EvictionReason::Quota);
        assert_eq!(store.gone(VmId::new(1)), Some(GoneReason::Evicted));
        assert!(store.used() <= quota_for(2));
        // A later save for vm 1 clears the tombstone.
        store.save(cp(1, 3, 11)).unwrap();
        assert_eq!(store.gone(VmId::new(1)), None);
    }

    #[test]
    fn oversized_checkpoint_is_refused() {
        let store = CheckpointStore::new().with_quota(Bytes::new(16), EvictionPolicy::OldestFirst);
        // 8 pages * 16 bytes = 128 > 16
        let outcome = store.save(cp(7, 1, 2)).unwrap();
        assert!(!outcome.stored);
        assert!(outcome.evicted.is_empty());
        assert_eq!(store.vm_count(), 0);
        assert_eq!(store.used(), Bytes::ZERO);
    }

    #[test]
    fn lru_by_recycle_protects_the_hot_checkpoint() {
        let store = CheckpointStore::new().with_quota(quota_for(2), EvictionPolicy::LruByRecycle);
        store.save(cp(1, 0, 10)).unwrap();
        store.save(cp(2, 1, 20)).unwrap();
        // A fetch is a recycle hit: vm 1 is hot, vm 2 is cold.
        let (fetch, _) = store.fetch(VmId::new(1)).unwrap();
        assert_eq!(fetch.label(), "hit");
        let outcome = store.save(cp(3, 2, 30)).unwrap();
        assert_eq!(outcome.evicted[0].vm, VmId::new(2));
        assert!(store.latest(VmId::new(1)).is_some());
    }

    #[test]
    fn largest_first_evicts_the_big_one() {
        let big = cp_pages(1, 5, 10, 64);
        let quota = Bytes::new(big.storage_size().as_u64() + 2 * quota_for(1).as_u64());
        let store = CheckpointStore::new().with_quota(quota, EvictionPolicy::LargestFirst);
        store.save(big).unwrap();
        store.save(cp(2, 6, 20)).unwrap();
        store.save(cp(3, 7, 30)).unwrap();
        // One more small save overflows; the big (and oldest) vm-1
        // checkpoint goes first under LargestFirst.
        let outcome = store.save(cp(4, 8, 40)).unwrap();
        assert_eq!(outcome.evicted[0].vm, VmId::new(1));
    }

    #[test]
    fn staleness_score_weighs_age_against_return_period() {
        let store = CheckpointStore::new().with_quota(quota_for(2), EvictionPolicy::StalenessScore);
        // vm 1 returns hourly (period ~1h); vm 2 has no observed period
        // (assumed 24h). At hour 30, vm 1's checkpoint is 2h ≈ 2 periods
        // stale; vm 2's is 25h ≈ 1.04 periods stale. The cycle-aware
        // policy evicts vm 1 even though vm 2 is older.
        for h in 0..=28 {
            store.save(cp(1, h, h)).unwrap();
        }
        store.save(cp(2, 5, 99)).unwrap();
        let outcome = store.save(cp(3, 30, 42)).unwrap();
        assert_eq!(outcome.evicted[0].vm, VmId::new(1));
        // OldestFirst would have picked vm 2's hour-5 checkpoint.
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let store =
                CheckpointStore::new().with_quota(quota_for(3), EvictionPolicy::OldestFirst);
            let mut order = Vec::new();
            for i in 0..12u32 {
                let outcome = store.save(cp(i % 5, i as u64, i as u64)).unwrap();
                order.extend(outcome.evicted.iter().map(|r| (r.vm, r.taken_at)));
            }
            order
        };
        assert_eq!(run(), run());
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vecycle-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mirrored(dir: &std::path::Path) -> CheckpointStore {
        CheckpointStore::new().with_disk(Arc::new(DiskStore::open(dir).unwrap()))
    }

    /// XORs `mask` into the byte `from_end` before the end of `vm`'s file.
    fn rot(dir: &std::path::Path, vm: u32, from_end: Option<usize>, mask: u8) {
        let path = dir.join(format!("vm-{vm}.ckpt"));
        let mut bytes = std::fs::read(&path).unwrap();
        let at = from_end.map_or(bytes.len() / 2, |n| bytes.len() - n);
        bytes[at] ^= mask;
        std::fs::write(&path, bytes).unwrap();
    }

    #[test]
    fn restart_quarantines_corrupt_keeps_clean() {
        let dir = tmpdir("scrub");
        let store = mirrored(&dir);
        store.save(cp(1, 0, 10)).unwrap();
        store.save(cp(2, 0, 20)).unwrap();
        store.save(cp(3, 0, 30)).unwrap();
        rot(&dir, 2, None, 0x40);

        let report = store.restart().unwrap();
        assert_eq!(report.quarantined, vec![VmId::new(2)]);
        assert_eq!(report.verified, 2);
        assert_eq!(report.clean_pages, 16);
        // corrupt_pages is estimated from the file length.
        assert_eq!(report.corrupt_pages, 8);
        // The quarantined file is gone with its entry; clean ones survive.
        let survivors = vec![VmId::new(1), VmId::new(3)];
        assert_eq!(store.disk().unwrap().list().unwrap(), survivors);
        assert_eq!(store.vm_ids(), survivors);
        assert_eq!(store.used(), quota_for(2));
        assert_eq!(store.gone(VmId::new(2)), Some(GoneReason::Quarantined));
        assert_eq!(store.fetch(VmId::new(2)).unwrap().0.label(), "quarantined");
        // A second restart finds nothing to quarantine — and, the
        // tombstone having been in RAM, no longer knows why vm 2 is gone.
        let again = store.restart().unwrap();
        assert!(again.quarantined.is_empty());
        assert_eq!(store.gone(VmId::new(2)), None);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A quarantined file is counted by the kind its header declares: a
    /// page file is not mistaken for 257 digests a page, whatever its
    /// version.
    #[test]
    fn restart_counts_corrupt_page_files_by_their_layout() {
        use vecycle_mem::ByteMemory;
        let dir = tmpdir("scrub-pages");
        let store = mirrored(&dir);
        let mem = ByteMemory::with_distinct_content(PageCount::new(4), 9);
        store
            .save(Checkpoint::capture_bytes(
                VmId::new(1),
                SimTime::EPOCH,
                &mem,
            ))
            .unwrap();
        store.save(cp_pages(2, 0, 20, 16)).unwrap();
        // The 8-page table-less file an older release wrote for vm 7 is
        // refused by its version, and counted as 7 tabled pages.
        let v1 = include_bytes!("../../../tests/fixtures/vm-pages-v1.ckpt");
        std::fs::write(dir.join("vm-7.ckpt"), v1).unwrap();
        let report = store.restart().unwrap();
        assert_eq!(report.clean_pages, 4 + 16);
        assert_eq!(report.quarantined, vec![VmId::new(7)]);
        assert_eq!(report.corrupt_pages, 7);

        for vm in [1, 2] {
            rot(&dir, vm, Some(9), 0x01); // the last payload byte
        }
        let report = store.restart().unwrap();
        assert_eq!(report.quarantined, vec![VmId::new(1), VmId::new(2)]);
        assert_eq!(report.corrupt_pages, 4 + 16);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
