//! [`CpuSpec`]: checksum throughput of a host CPU.

use serde::{Deserialize, Serialize};

use vecycle_types::{Bytes, BytesPerSec, SimDuration};

/// Checksum-computation capability of a host.
///
/// §3.4: "Our benchmark machines can calculate MD5 checksums at a rate of
/// 350 MiB/s on a single core, roughly 3 times faster than the bandwidth
/// provided by gigabit Ethernet." The per-algorithm single-core rates
/// here are in that ballpark; `threads` models the multi-threaded
/// execution §3.4 suggests for faster links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    md5: BytesPerSec,
    sha1: BytesPerSec,
    sha256: BytesPerSec,
    fnv: BytesPerSec,
    threads: u32,
}

impl CpuSpec {
    /// The benchmark hosts' Phenom II-class CPU (§4.1), single-threaded
    /// checksumming as in the prototype.
    pub fn phenom_ii() -> Self {
        CpuSpec {
            md5: BytesPerSec::from_mib_per_sec(350),
            sha1: BytesPerSec::from_mib_per_sec(280),
            sha256: BytesPerSec::from_mib_per_sec(140),
            fnv: BytesPerSec::from_mib_per_sec(2000),
            threads: 1,
        }
    }

    /// A copy with `threads` checksum workers (§3.4's "multi-threaded
    /// execution" option).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: u32) -> Self {
        assert!(threads > 0, "at least one checksum thread required");
        self.threads = threads;
        self
    }

    /// The effective checksum rate for `algorithm`, across all threads.
    pub(crate) fn checksum_rate(&self, algorithm: vecycle_hash::ChecksumAlgorithm) -> BytesPerSec {
        use vecycle_hash::ChecksumAlgorithm as A;
        let single = match algorithm {
            A::Md5 => self.md5,
            A::Sha1 => self.sha1,
            A::Sha256 => self.sha256,
            A::Fnv1a => self.fnv,
            // `ChecksumAlgorithm` is non-exhaustive upstream; rate new
            // algorithms like MD5 until measured.
            _ => self.md5,
        };
        single * f64::from(self.threads)
    }

    /// Time to checksum `bytes` with `algorithm`.
    pub fn checksum_time(
        &self,
        algorithm: vecycle_hash::ChecksumAlgorithm,
        bytes: Bytes,
    ) -> SimDuration {
        self.checksum_rate(algorithm).time_to_transfer(bytes)
    }
}

impl Default for CpuSpec {
    fn default() -> Self {
        CpuSpec::phenom_ii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_hash::ChecksumAlgorithm;

    #[test]
    fn md5_is_3x_gigabit() {
        let cpu = CpuSpec::phenom_ii();
        let md5 = cpu.checksum_rate(ChecksumAlgorithm::Md5).as_mib_per_sec();
        assert!((md5 / 120.0 - 2.9).abs() < 0.3, "ratio = {}", md5 / 120.0);
    }

    #[test]
    fn checksum_time_scales_with_size() {
        let cpu = CpuSpec::phenom_ii();
        let t1 = cpu.checksum_time(ChecksumAlgorithm::Md5, Bytes::from_gib(1));
        let t6 = cpu.checksum_time(ChecksumAlgorithm::Md5, Bytes::from_gib(6));
        // Paper: "it takes only 3 seconds to migrate small VMs (1 GiB)".
        assert!((t1.as_secs_f64() - 2.93).abs() < 0.1);
        assert!((t6.as_secs_f64() - t1.as_secs_f64() * 6.0).abs() < 0.01);
    }

    #[test]
    fn threads_multiply_throughput() {
        let cpu = CpuSpec::phenom_ii().with_threads(4);
        assert!((cpu.checksum_rate(ChecksumAlgorithm::Md5).as_mib_per_sec() - 1400.0).abs() < 1.0);
    }

    #[test]
    fn algorithm_rates_are_ordered() {
        let cpu = CpuSpec::phenom_ii();
        let md5 = cpu.checksum_rate(ChecksumAlgorithm::Md5).as_f64();
        let sha1 = cpu.checksum_rate(ChecksumAlgorithm::Sha1).as_f64();
        let sha256 = cpu.checksum_rate(ChecksumAlgorithm::Sha256).as_f64();
        let fnv = cpu.checksum_rate(ChecksumAlgorithm::Fnv1a).as_f64();
        assert!(fnv > md5 && md5 > sha1 && sha1 > sha256);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_threads_panics() {
        let _ = CpuSpec::phenom_ii().with_threads(0);
    }
}
