//! [`DiskSpec`]: the local disks that store checkpoints.

use serde::{Deserialize, Serialize};

use vecycle_types::{Bytes, BytesPerSec, SimDuration};

/// A local disk model: sequential throughput plus per-random-access
/// penalty.
///
/// §4.4: checkpoints live on either a Samsung HD204UI spinning disk or an
/// Intel SSD over SATA-2; the paper found the choice makes no difference
/// because checkpoint I/O overlaps the (slower) network — a claim the
/// disk ablation bench verifies with these models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskSpec {
    sequential: BytesPerSec,
    seek: SimDuration,
    label: DiskKind,
    capacity: Bytes,
}

/// Which physical disk a spec models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiskKind {
    /// Spinning disk.
    Hdd,
    /// Solid-state disk.
    Ssd,
}

impl DiskSpec {
    /// The benchmark HDD: Samsung HD204UI (2 TB, ~130 MiB/s sequential,
    /// ~12 ms average access).
    pub fn hdd_samsung_hd204ui() -> Self {
        DiskSpec {
            sequential: BytesPerSec::from_mib_per_sec(130),
            seek: SimDuration::from_millis(12),
            label: DiskKind::Hdd,
            capacity: Bytes::new(2_000_000_000_000), // 2 TB nominal
        }
    }

    /// The benchmark SSD: Intel 330-series 128 GB on SATA-2 (~250 MiB/s
    /// sequential, ~0.1 ms access).
    pub fn ssd_intel_330() -> Self {
        DiskSpec {
            sequential: BytesPerSec::from_mib_per_sec(250),
            seek: SimDuration::from_nanos(100_000),
            label: DiskKind::Ssd,
            capacity: Bytes::new(128_000_000_000), // 128 GB nominal
        }
    }

    /// Creates a custom disk model with a 1 TiB nominal capacity.
    pub fn new(sequential: BytesPerSec, seek: SimDuration, label: DiskKind) -> Self {
        DiskSpec {
            sequential,
            seek,
            label,
            capacity: Bytes::from_gib(1024),
        }
    }

    /// Overrides the nominal capacity — the hard ceiling on any
    /// checkpoint byte budget carved out of this disk.
    #[must_use]
    pub fn with_capacity(mut self, capacity: Bytes) -> Self {
        self.capacity = capacity;
        self
    }

    /// Nominal capacity of the disk.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Which kind of disk this is.
    pub fn kind(&self) -> DiskKind {
        self.label
    }

    /// Sequential throughput.
    pub fn sequential(&self) -> BytesPerSec {
        self.sequential
    }

    /// Time for a sequential read/write of `bytes` (one seek + stream).
    ///
    /// Sequential access "ensures optimal use of the disk's available I/O
    /// bandwidth" (§3.3) — the checkpoint file is read front to back.
    pub fn sequential_time(&self, bytes: Bytes) -> SimDuration {
        self.seek
            .saturating_add(self.sequential.time_to_transfer(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_reads_checkpoint_faster_than_gbe_moves_it() {
        // The premise of VeCycle: "reading from the local disk is
        // potentially faster than over a ... network link" — and even
        // when it is not, it overlaps.
        let hdd = DiskSpec::hdd_samsung_hd204ui();
        let gib = Bytes::from_gib(1);
        let t = hdd.sequential_time(gib).as_secs_f64();
        assert!(t > 7.0 && t < 9.0, "t = {t}");
    }

    #[test]
    fn ssd_is_faster_sequentially() {
        let hdd = DiskSpec::hdd_samsung_hd204ui();
        let ssd = DiskSpec::ssd_intel_330();
        let gib = Bytes::from_gib(1);
        assert!(ssd.sequential_time(gib) < hdd.sequential_time(gib));
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(DiskSpec::hdd_samsung_hd204ui().kind(), DiskKind::Hdd);
        assert_eq!(DiskSpec::ssd_intel_330().kind(), DiskKind::Ssd);
    }

    #[test]
    fn capacities_match_the_benchmark_hardware() {
        assert!(DiskSpec::hdd_samsung_hd204ui().capacity() > DiskSpec::ssd_intel_330().capacity());
        let small = DiskSpec::ssd_intel_330().with_capacity(Bytes::from_gib(4));
        assert_eq!(small.capacity(), Bytes::from_gib(4));
    }
}
