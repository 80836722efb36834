//! [`Host`] and [`Cluster`].

use std::sync::Arc;

use vecycle_checkpoint::{
    Checkpoint, CheckpointStore, DiskStore, EvictionPolicy, EvictionRecord, SaveOutcome,
};
use vecycle_net::LinkSpec;
use vecycle_types::{Bytes, HostId, VmId};

use crate::{CpuSpec, DiskSpec};

/// What a simulated host restart found while scrubbing its disk store —
/// the input for re-warming the in-memory catalog and for the
/// `host_restarts_total` / `scrub_pages_total` metrics.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Checkpoints that re-verified clean and were re-admitted.
    pub verified: u64,
    /// Pages across the clean checkpoints.
    pub clean_pages: u64,
    /// VMs whose checkpoint files failed the wire trailer check and
    /// were quarantined (file deleted, tombstone left).
    pub quarantined: Vec<VmId>,
    /// Estimated pages across the quarantined files.
    pub corrupt_pages: u64,
    /// Checkpoints the re-warm pass itself evicted (the quota also
    /// applies when reloading from disk).
    pub evicted: Vec<EvictionRecord>,
}

/// A physical host: CPU, checkpoint disk and checkpoint store.
///
/// # Examples
///
/// ```
/// use vecycle_host::Host;
/// use vecycle_types::HostId;
///
/// let host = Host::benchmark_default(HostId::new(0));
/// assert_eq!(host.id(), HostId::new(0));
/// assert_eq!(host.store().vm_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Host {
    id: HostId,
    cpu: CpuSpec,
    disk: DiskSpec,
    store: Arc<CheckpointStore>,
    disk_store: Option<Arc<DiskStore>>,
}

impl Host {
    /// Creates a host from explicit components.
    pub fn new(id: HostId, cpu: CpuSpec, disk: DiskSpec) -> Self {
        Host {
            id,
            cpu,
            disk,
            store: Arc::new(CheckpointStore::new()),
            disk_store: None,
        }
    }

    /// A host configured like the paper's benchmark machines (§4.1):
    /// Phenom II CPU, checkpoints on the spinning disk.
    pub fn benchmark_default(id: HostId) -> Self {
        Host::new(id, CpuSpec::phenom_ii(), DiskSpec::hdd_samsung_hd204ui())
    }

    /// The host's identifier.
    pub fn id(&self) -> HostId {
        self.id
    }

    /// The host's CPU model.
    pub fn cpu(&self) -> &CpuSpec {
        &self.cpu
    }

    /// The host's checkpoint disk model.
    pub fn disk(&self) -> &DiskSpec {
        &self.disk
    }

    /// The host's checkpoint store (shared; hosts are cheaply cloneable).
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Replaces the disk model (for the HDD-vs-SSD ablation).
    #[must_use]
    pub fn with_disk(mut self, disk: DiskSpec) -> Self {
        self.disk = disk;
        self
    }

    /// Attaches a durable on-disk checkpoint store. The in-memory
    /// [`CheckpointStore`] stays the fast path; sessions write through to
    /// this store and fall back to it when the in-memory one is cold
    /// (e.g. after a simulated host restart).
    #[must_use]
    pub fn with_disk_store(mut self, store: Arc<DiskStore>) -> Self {
        self.disk_store = Some(store);
        self
    }

    /// The durable checkpoint store, if one is attached.
    pub fn disk_store(&self) -> Option<&Arc<DiskStore>> {
        self.disk_store.as_ref()
    }

    /// Caps this host's checkpoint bytes at `quota`, evicting under
    /// `policy` — the byte budget is clamped to the disk's nominal
    /// capacity, since no budget can exceed the platter.
    ///
    /// Replaces the store, so apply before sharing the host.
    #[must_use]
    pub fn with_checkpoint_quota(mut self, quota: Bytes, policy: EvictionPolicy) -> Self {
        let quota = quota.min(self.disk.capacity());
        self.store = Arc::new(CheckpointStore::new().with_quota(quota, policy));
        self
    }

    /// Saves a checkpoint through quota admission, mirroring the result
    /// to the durable [`DiskStore`]: the file is written *before* the
    /// in-memory insert (write-through), and every VM whose last version
    /// was evicted has its file deleted — disk and memory never
    /// disagree about which VMs have a checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the disk store; the in-memory
    /// catalog is untouched when the disk write fails.
    pub fn save_checkpoint(&self, checkpoint: Checkpoint) -> vecycle_types::Result<SaveOutcome> {
        if self
            .store
            .quota()
            .is_some_and(|q| checkpoint.storage_size() > q)
        {
            return Ok(SaveOutcome::refused());
        }
        if let Some(ds) = &self.disk_store {
            ds.save(&checkpoint)?;
        }
        let outcome = self.store.save_with_outcome(checkpoint);
        if let Some(ds) = &self.disk_store {
            for vm in outcome.fully_evicted_vms() {
                ds.remove(vm)?;
            }
        }
        Ok(outcome)
    }

    /// Simulates a host crash: the in-memory checkpoint catalog (and
    /// everything it knew — tombstones, return periods) is lost. The
    /// durable [`DiskStore`], if any, survives untouched; call
    /// [`Host::restart`] to recover from it.
    pub fn crash(&self) {
        self.store.clear();
    }

    /// Simulates the host coming back after a crash: re-opens the disk
    /// store and runs a scrub pass — every checkpoint file is
    /// re-verified against its wire trailer, corrupt ones are
    /// quarantined (deleted, tombstoned), and clean ones re-warm the
    /// in-memory catalog through normal quota admission.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than corruption (corruption is
    /// a quarantine, not an error).
    pub fn restart(&self) -> vecycle_types::Result<ScrubReport> {
        self.store.clear();
        let mut report = ScrubReport::default();
        let Some(ds) = &self.disk_store else {
            return Ok(report);
        };
        let scrub = ds.scrub()?;
        report.corrupt_pages = scrub.corrupt_pages;
        for cp in scrub.clean {
            report.verified += 1;
            report.clean_pages += cp.page_count().as_u64();
            let (vm, taken_at, size) = (cp.vm(), cp.taken_at(), cp.storage_size());
            let outcome = self.store.save_with_outcome(cp);
            if !outcome.stored {
                // The quota shrank below this checkpoint since it was
                // written: drop the file too, or disk and catalog would
                // disagree.
                ds.remove(vm)?;
                self.store.note_evicted(vm);
                report.evicted.push(EvictionRecord {
                    vm,
                    taken_at,
                    size,
                    reason: vecycle_checkpoint::EvictionReason::Quota,
                    last_version: true,
                });
                continue;
            }
            for vm in outcome.fully_evicted_vms() {
                ds.remove(vm)?;
            }
            report.evicted.extend(outcome.evicted);
        }
        for vm in scrub.quarantined {
            self.store.note_quarantined(vm);
            report.quarantined.push(vm);
        }
        Ok(report)
    }
}

/// A set of hosts joined by a network.
///
/// The paper's experiments use two hosts and one link; the IBM study's
/// patterns involve small host sets. One [`LinkSpec`] describes every
/// pair — adequate for a rack or an emulated WAN between two sites.
#[derive(Debug, Clone)]
pub struct Cluster {
    hosts: Vec<Host>,
    link: LinkSpec,
}

impl Cluster {
    /// Creates a cluster of `n` benchmark-default hosts joined by `link`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn homogeneous(n: u32, link: LinkSpec) -> Self {
        assert!(n > 0, "a cluster needs at least one host");
        Cluster {
            hosts: (0..n)
                .map(|i| Host::benchmark_default(HostId::new(i)))
                .collect(),
            link,
        }
    }

    /// The hosts.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Looks up a host by ID.
    pub fn host(&self, id: HostId) -> Option<&Host> {
        self.hosts.iter().find(|h| h.id() == id)
    }

    /// The link between any pair of hosts.
    pub fn link(&self) -> LinkSpec {
        self.link
    }

    /// Attaches a durable [`DiskStore`] to every host, rooted at
    /// `root/host-<id>` — the deployment shape of §3, where each host
    /// keeps its checkpoints on local storage that survives restarts.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the per-host directories.
    pub fn attach_disk_stores(
        mut self,
        root: impl AsRef<std::path::Path>,
    ) -> vecycle_types::Result<Self> {
        let root = root.as_ref();
        for host in &mut self.hosts {
            let store = DiskStore::open(root.join(format!("host-{}", host.id.as_u32())))?;
            host.disk_store = Some(Arc::new(store));
        }
        Ok(self)
    }

    /// Caps every host's checkpoint bytes at `quota` under `policy` —
    /// the cluster-wide disk-pressure knob of the quota sweep. Replaces
    /// each host's store, so apply before running migrations.
    #[must_use]
    pub fn with_checkpoint_quotas(mut self, quota: Bytes, policy: EvictionPolicy) -> Self {
        self.hosts = self
            .hosts
            .into_iter()
            .map(|h| h.with_checkpoint_quota(quota, policy))
            .collect();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_cluster_has_dense_ids() {
        let c = Cluster::homogeneous(3, LinkSpec::lan_gigabit());
        assert_eq!(c.hosts().len(), 3);
        for (i, h) in c.hosts().iter().enumerate() {
            assert_eq!(h.id().as_usize(), i);
        }
        assert!(c.host(HostId::new(2)).is_some());
        assert!(c.host(HostId::new(3)).is_none());
    }

    #[test]
    fn host_stores_are_independent() {
        use vecycle_checkpoint::Checkpoint;
        use vecycle_mem::DigestMemory;
        use vecycle_types::{PageCount, SimTime, VmId};

        let c = Cluster::homogeneous(2, LinkSpec::lan_gigabit());
        let mem = DigestMemory::with_distinct_content(PageCount::new(4), 1);
        c.hosts()[0]
            .store()
            .save(Checkpoint::capture(VmId::new(0), SimTime::EPOCH, &mem));
        assert_eq!(c.hosts()[0].store().vm_count(), 1);
        assert_eq!(c.hosts()[1].store().vm_count(), 0);
    }

    #[test]
    fn clones_share_the_store() {
        let h = Host::benchmark_default(HostId::new(0));
        let h2 = h.clone();
        use vecycle_checkpoint::Checkpoint;
        use vecycle_mem::DigestMemory;
        use vecycle_types::{PageCount, SimTime, VmId};
        let mem = DigestMemory::with_distinct_content(PageCount::new(4), 1);
        h.store()
            .save(Checkpoint::capture(VmId::new(0), SimTime::EPOCH, &mem));
        assert_eq!(h2.store().vm_count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn empty_cluster_panics() {
        let _ = Cluster::homogeneous(0, LinkSpec::lan_gigabit());
    }

    #[test]
    fn with_disk_swaps_model() {
        use crate::disk::DiskKind;
        let h = Host::benchmark_default(HostId::new(0)).with_disk(DiskSpec::ssd_intel_330());
        assert_eq!(h.disk().kind(), DiskKind::Ssd);
    }

    fn lifecycle_cp(vm: u32, seed: u64) -> vecycle_checkpoint::Checkpoint {
        use vecycle_mem::DigestMemory;
        use vecycle_types::{PageCount, SimTime, VmId};
        let mem = DigestMemory::with_distinct_content(PageCount::new(8), seed);
        vecycle_checkpoint::Checkpoint::capture(VmId::new(vm), SimTime::EPOCH, &mem)
    }

    #[test]
    fn save_checkpoint_mirrors_evictions_to_disk() {
        use vecycle_types::VmId;
        let dir =
            std::env::temp_dir().join(format!("vecycle-host-evict-mirror-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let host = Host::benchmark_default(HostId::new(0))
            .with_checkpoint_quota(Bytes::new(256), EvictionPolicy::OldestFirst)
            .with_disk_store(Arc::new(DiskStore::open(&dir).unwrap()));
        // 8-page digest checkpoints are 128 bytes: the quota holds two.
        host.save_checkpoint(lifecycle_cp(1, 10)).unwrap();
        host.save_checkpoint(lifecycle_cp(2, 20)).unwrap();
        let outcome = host.save_checkpoint(lifecycle_cp(3, 30)).unwrap();
        assert!(outcome.stored);
        assert_eq!(outcome.evicted.len(), 1);
        // Disk and catalog agree: vm-1's file is gone with its entry.
        assert_eq!(
            host.disk_store().unwrap().vm_ids().unwrap(),
            host.store().vm_ids()
        );
        assert_eq!(
            host.store().gone(VmId::new(1)),
            Some(vecycle_checkpoint::GoneReason::Evicted)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_then_restart_scrubs_and_rewarms() {
        use vecycle_types::VmId;
        let dir =
            std::env::temp_dir().join(format!("vecycle-host-crash-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let host = Host::benchmark_default(HostId::new(1))
            .with_disk_store(Arc::new(DiskStore::open(&dir).unwrap()));
        host.save_checkpoint(lifecycle_cp(1, 10)).unwrap();
        host.save_checkpoint(lifecycle_cp(2, 20)).unwrap();
        // Rot vm-2's file behind the host's back.
        let path = dir.join("vm-2.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, bytes).unwrap();

        host.crash();
        assert_eq!(host.store().vm_count(), 0);
        let report = host.restart().unwrap();
        assert_eq!(report.verified, 1);
        assert_eq!(report.quarantined, vec![VmId::new(2)]);
        assert!(host.store().latest(VmId::new(1)).is_some());
        assert_eq!(
            host.store().gone(VmId::new(2)),
            Some(vecycle_checkpoint::GoneReason::Quarantined)
        );
        // Disk matches catalog after the scrub deleted the corrupt file.
        assert_eq!(
            host.disk_store().unwrap().vm_ids().unwrap(),
            host.store().vm_ids()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quota_is_clamped_to_disk_capacity() {
        let tiny = DiskSpec::ssd_intel_330().with_capacity(Bytes::new(512));
        let host = Host::new(HostId::new(0), CpuSpec::phenom_ii(), tiny)
            .with_checkpoint_quota(Bytes::from_gib(1), EvictionPolicy::OldestFirst);
        assert_eq!(host.store().quota(), Some(Bytes::new(512)));
    }

    #[test]
    fn attach_disk_stores_gives_each_host_its_own_directory() {
        let dir = std::env::temp_dir().join("vecycle-cluster-diskstore-test");
        let _ = std::fs::remove_dir_all(&dir);
        let c = Cluster::homogeneous(2, LinkSpec::lan_gigabit())
            .attach_disk_stores(&dir)
            .unwrap();
        let roots: Vec<_> = c
            .hosts()
            .iter()
            .map(|h| h.disk_store().expect("attached").root().to_path_buf())
            .collect();
        assert_ne!(roots[0], roots[1]);
        assert!(roots.iter().all(|r| r.is_dir()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
