//! [`LinkSpec`]: an analytic point-to-point link model.

use serde::{Deserialize, Serialize};

use vecycle_types::{Bytes, BytesPerSec, SimDuration};

/// A network link between migration source and destination.
///
/// Three parameters: raw bandwidth, one-way latency, and an optional TCP
/// receive-window cap. Effective throughput is
/// `min(bandwidth, window / rtt)` — the classic bandwidth-delay-product
/// limit, which is why the paper's 465 Mbit/s emulated WAN moves a 1 GiB
/// VM in 177 s (~5.9 MiB/s) rather than ~18 s.
///
/// # Examples
///
/// ```
/// use vecycle_net::LinkSpec;
/// use vecycle_types::Bytes;
///
/// let lan = LinkSpec::lan_gigabit();
/// let wan = LinkSpec::wan_cloudnet();
/// let gib = Bytes::from_gib(1);
/// let t_lan = lan.transfer_time(gib).as_secs_f64();
/// let t_wan = wan.transfer_time(gib).as_secs_f64();
/// assert!(t_lan > 8.0 && t_lan < 10.0);     // "about 10 seconds"
/// assert!(t_wan > 150.0 && t_wan < 200.0);  // paper: 177 s
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    bandwidth: BytesPerSec,
    latency: SimDuration,
    tcp_window: Option<Bytes>,
}

impl LinkSpec {
    /// Creates a link from raw parameters.
    pub fn new(bandwidth: BytesPerSec, latency: SimDuration, tcp_window: Option<Bytes>) -> Self {
        LinkSpec {
            bandwidth,
            latency,
            tcp_window,
        }
    }

    /// The benchmark LAN: dedicated gigabit Ethernet (§4.1).
    ///
    /// "Exclusive access to a gigabit Ethernet link allows the sender to
    /// transfer data at a rate of 120 MiB/s."
    pub fn lan_gigabit() -> Self {
        LinkSpec {
            bandwidth: BytesPerSec::from_mib_per_sec(120),
            latency: SimDuration::from_nanos(100_000), // 0.1 ms switch hop
            tcp_window: None,
        }
    }

    /// The emulated WAN of §4.4, after CloudNet: 465 Mbit/s capacity,
    /// 27 ms latency, with the TCP window sized so effective throughput
    /// matches the paper's measured ~5.9 MiB/s (1 GiB in 177 s).
    pub fn wan_cloudnet() -> Self {
        LinkSpec {
            bandwidth: BytesPerSec::from_mbit_per_sec(465.0),
            latency: SimDuration::from_millis(27),
            tcp_window: Some(Bytes::from_kib(320)),
        }
    }

    /// Raw link bandwidth.
    pub fn bandwidth(&self) -> BytesPerSec {
        self.bandwidth
    }

    /// One-way latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Effective sustained throughput after the window cap.
    pub fn effective_bandwidth(&self) -> BytesPerSec {
        match self.tcp_window {
            None => self.bandwidth,
            Some(window) => {
                let rtt = self.latency.as_secs_f64() * 2.0;
                if rtt <= 0.0 {
                    self.bandwidth
                } else {
                    self.bandwidth.min(BytesPerSec::new(window.as_f64() / rtt))
                }
            }
        }
    }

    /// Time for a bulk transfer of `bytes`: one latency plus streaming at
    /// the effective bandwidth.
    pub fn transfer_time(&self, bytes: Bytes) -> SimDuration {
        self.latency
            .saturating_add(self.effective_bandwidth().time_to_transfer(bytes))
    }

    /// Time for one request/response round trip carrying negligible data.
    pub fn round_trip(&self) -> SimDuration {
        self.latency * 2
    }

    /// A copy of this link with a different TCP window.
    #[must_use]
    pub(crate) fn with_tcp_window(mut self, window: Option<Bytes>) -> Self {
        self.tcp_window = window;
        self
    }

    /// A copy of this link with a different bandwidth.
    #[must_use]
    pub fn with_bandwidth(mut self, bandwidth: BytesPerSec) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// The configured TCP window cap, if any.
    pub(crate) fn tcp_window(&self) -> Option<Bytes> {
        self.tcp_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_matches_paper_rule_of_thumb() {
        let lan = LinkSpec::lan_gigabit();
        // 1 GiB in ~8.5 s; 6 GiB in ~51 s ("around 60 seconds" with
        // engine overheads on top).
        let t1 = lan.transfer_time(Bytes::from_gib(1)).as_secs_f64();
        assert!(t1 > 8.0 && t1 < 9.0, "t1 = {t1}");
        let t6 = lan.transfer_time(Bytes::from_gib(6)).as_secs_f64();
        assert!(t6 > 50.0 && t6 < 55.0, "t6 = {t6}");
    }

    #[test]
    fn wan_window_cap_dominates() {
        let wan = LinkSpec::wan_cloudnet();
        let eff = wan.effective_bandwidth().as_mib_per_sec();
        assert!(eff > 5.0 && eff < 7.0, "effective = {eff} MiB/s");
        // Paper: 1 GiB takes 177 s on average.
        let t = wan.transfer_time(Bytes::from_gib(1)).as_secs_f64();
        assert!((t - 177.0).abs() < 20.0, "t = {t}");
    }

    #[test]
    fn uncapped_wan_would_be_fast() {
        let wan = LinkSpec::wan_cloudnet().with_tcp_window(None);
        let t = wan.transfer_time(Bytes::from_gib(1)).as_secs_f64();
        assert!(t < 20.0, "t = {t}");
    }

    #[test]
    fn effective_bandwidth_never_exceeds_raw() {
        let l = LinkSpec::new(
            BytesPerSec::from_mib_per_sec(10),
            SimDuration::from_nanos(1),
            Some(Bytes::from_gib(1)),
        );
        assert!(l.effective_bandwidth().as_f64() <= l.bandwidth().as_f64());
    }

    #[test]
    fn zero_byte_transfer_costs_latency_only() {
        let wan = LinkSpec::wan_cloudnet();
        assert_eq!(wan.transfer_time(Bytes::ZERO), wan.latency());
    }

    #[test]
    fn round_trip_is_twice_latency() {
        let wan = LinkSpec::wan_cloudnet();
        assert_eq!(wan.round_trip(), SimDuration::from_millis(54));
    }
}
