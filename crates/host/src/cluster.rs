//! [`Host`] and [`Cluster`].

use std::sync::Arc;

use vecycle_checkpoint::{
    Checkpoint, CheckpointStore, DiskStore, EvictionPolicy, SaveOutcome, ScrubReport,
};
use vecycle_net::LinkSpec;
use vecycle_types::{Bytes, HostId};

use crate::{CpuSpec, DiskSpec};

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
}

impl Host {
    /// Creates a host from explicit components.
    pub fn new(id: HostId, cpu: CpuSpec, disk: DiskSpec) -> Self {
        Host {
            id,
            cpu,
            disk,
            store: Arc::new(CheckpointStore::new()),
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

    /// Mirrors the host's checkpoints to a directory of files that
    /// survives restarts; see [`CheckpointStore::with_disk`].
    ///
    /// Replaces the store (keeping its quota), so apply before sharing
    /// the host.
    #[must_use]
    pub fn with_disk_store(mut self, disk: Arc<DiskStore>) -> Self {
        let mut store = CheckpointStore::new().with_disk(disk);
        if let Some(quota) = self.store.quota() {
            store = store.with_quota(quota, self.store.policy());
        }
        self.store = Arc::new(store);
        self
    }

    /// Caps this host's checkpoint bytes at `quota`, evicting under
    /// `policy` — the byte budget is clamped to the disk's nominal
    /// capacity, since no budget can exceed the platter.
    ///
    /// Replaces the store (keeping its mirror), so apply before sharing
    /// the host.
    #[must_use]
    pub fn with_checkpoint_quota(mut self, quota: Bytes, policy: EvictionPolicy) -> Self {
        let mut store = CheckpointStore::new().with_quota(quota.min(self.disk.capacity()), policy);
        if let Some(disk) = self.store.disk() {
            store = store.with_disk(Arc::clone(disk));
        }
        self.store = Arc::new(store);
        self
    }

    /// Saves a checkpoint of a departing VM: [`CheckpointStore::save`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the disk store.
    pub fn save_checkpoint(&self, checkpoint: Checkpoint) -> vecycle_types::Result<SaveOutcome> {
        self.store.save(checkpoint)
    }

    /// Simulates a host crash: the in-memory checkpoint catalog (and
    /// everything it knew — tombstones, return periods) is lost. The
    /// durable [`DiskStore`], if any, survives untouched; call
    /// [`Host::restart`] to recover from it.
    pub fn crash(&self) {
        self.store.clear();
    }

    /// Simulates the host coming back after a crash:
    /// [`CheckpointStore::restart`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than corruption (corruption is
    /// a quarantine, not an error).
    pub fn restart(&self) -> vecycle_types::Result<ScrubReport> {
        self.store.restart()
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

    /// Looks up a host by ID: an index, since host `i` is `hosts()[i]`
    /// ([`Cluster::homogeneous`] is the only constructor).
    pub fn host(&self, id: HostId) -> Option<&Host> {
        self.hosts.get(id.as_usize())
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
        self.hosts = self
            .hosts
            .into_iter()
            .map(|host| {
                let dir = root.join(format!("host-{}", host.id.as_u32()));
                Ok(host.with_disk_store(Arc::new(DiskStore::open(dir)?)))
            })
            .collect::<vecycle_types::Result<_>>()?;
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
            .save_checkpoint(Checkpoint::capture(VmId::new(0), SimTime::EPOCH, &mem))
            .unwrap();
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
        h.save_checkpoint(Checkpoint::capture(VmId::new(0), SimTime::EPOCH, &mem))
            .unwrap();
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
            .map(|h| h.store().disk().expect("attached").root().to_path_buf())
            .collect();
        assert_ne!(roots[0], roots[1]);
        assert!(roots.iter().all(|r| r.is_dir()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
