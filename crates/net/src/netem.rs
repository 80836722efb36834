//! [`Netem`]: emulated network impairments, as the paper's testbed used.
//!
//! §4.4: "We used netem to emulate the wide area network in our Linux
//! benchmark environment." The WAN's delay and rate are the link's own
//! ([`LinkSpec::wan_cloudnet`]); this module models what netem's random
//! loss does to a TCP stream, analytically: sustained TCP throughput
//! follows the Mathis model,
//! `BW ≈ (MSS / RTT) · (C / √p)` with `C ≈ 1.22` — the reason a few
//! tenths of a percent of loss can hurt a WAN migration more than the
//! advertised bandwidth suggests.

use serde::{Deserialize, Serialize};

use vecycle_types::{Bytes, BytesPerSec, Error, SimDuration};

use crate::LinkSpec;

/// TCP maximum segment size assumed by the loss model.
const MSS: f64 = 1448.0;

/// The Mathis constant for Reno-style congestion control.
const MATHIS_C: f64 = 1.22;

/// A netem-style impairment specification applied to a base link.
///
/// # Examples
///
/// ```
/// use vecycle_net::{LinkSpec, Netem};
/// use vecycle_types::{Bytes, SimDuration};
///
/// // The paper's WAN: 465 Mbit/s with 27 ms delay...
/// let clean = LinkSpec::wan_cloudnet();
/// // ...now with 0.1% loss on top.
/// let lossy = Netem::new()
///     .loss(0.001)
///     .apply(clean);
/// let gib = Bytes::from_gib(1);
/// assert!(lossy.transfer_time(gib) > clean.transfer_time(gib));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Netem {
    loss: f64,
}

impl Netem {
    /// No impairment.
    pub fn new() -> Self {
        Netem::default()
    }

    /// Sets the random loss probability (netem `loss`), `0 ≤ p < 1`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range (including NaN).
    #[must_use]
    pub fn loss(self, p: f64) -> Self {
        match self.try_loss(p) {
            Ok(n) => n,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible version of [`Netem::loss`]: validates `p` into
    /// `[0.0, 1.0)` and rejects NaN, so the Mathis model can never be fed
    /// a probability that yields NaN or negative throughput (`√p` with
    /// `p < 0`, or division by `√0 = 0` at `p = 1`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `p` is NaN or outside
    /// `[0.0, 1.0)`.
    pub(crate) fn try_loss(mut self, p: f64) -> Result<Self, Error> {
        if !(0.0..1.0).contains(&p) {
            return Err(Error::InvalidConfig {
                reason: format!("loss probability {p} out of [0,1)"),
            });
        }
        self.loss = p;
        Ok(self)
    }

    /// The sustained TCP throughput under this impairment for a flow
    /// with round-trip time `rtt` (Mathis et al., CCR 1997).
    pub(crate) fn tcp_throughput(&self, rtt: SimDuration) -> Option<BytesPerSec> {
        if self.loss <= 0.0 {
            return None; // loss-free: the window/bandwidth cap governs
        }
        let rtt_s = rtt.as_secs_f64().max(1e-6);
        Some(BytesPerSec::new(MSS / rtt_s * MATHIS_C / self.loss.sqrt()))
    }

    /// Applies the impairment to a base link, producing the effective
    /// [`LinkSpec`] a migration experiences.
    pub fn apply(&self, base: LinkSpec) -> LinkSpec {
        let Some(tcp) = self.tcp_throughput(base.latency() * 2) else {
            return base;
        };
        // Encode the Mathis ceiling as an equivalent TCP window so the
        // LinkSpec arithmetic stays uniform.
        let window = Bytes::new((tcp.as_f64() * base.latency().as_secs_f64() * 2.0) as u64);
        let capped = match base.tcp_window() {
            Some(existing) => existing.min(window),
            None => window,
        };
        base.with_tcp_window(Some(capped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_impairment_is_identity() {
        let base = LinkSpec::lan_gigabit();
        assert_eq!(Netem::new().apply(base), base);
    }

    #[test]
    fn mathis_throughput_matches_formula() {
        // 54 ms RTT, 0.1% loss: 1448/0.054 * 1.22/sqrt(0.001) ≈ 1.03 MB/s.
        let tcp = Netem::new()
            .loss(0.001)
            .tcp_throughput(SimDuration::from_millis(54))
            .unwrap();
        let expected = 1448.0 / 0.054 * 1.22 / 0.001f64.sqrt();
        assert!((tcp.as_f64() - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn loss_dominates_a_fat_wan() {
        let clean = LinkSpec::wan_cloudnet();
        let lossy = Netem::new().loss(0.005).apply(clean);
        // 0.5% loss at 54 ms RTT caps TCP near 460 KB/s — far below the
        // clean link's ~6 MiB/s.
        let ratio = lossy.effective_bandwidth().as_f64() / clean.effective_bandwidth().as_f64();
        assert!(ratio < 0.15, "ratio = {ratio}");
    }

    #[test]
    fn tiny_loss_leaves_fast_lan_window_bound() {
        // On a 0.2 ms RTT LAN, even 0.01% loss allows ~10 GB/s Mathis
        // throughput: the base bandwidth still governs.
        let base = LinkSpec::lan_gigabit();
        let lossy = Netem::new().loss(0.0001).apply(base);
        assert!(
            (lossy.effective_bandwidth().as_f64() - base.effective_bandwidth().as_f64()).abs()
                / base.effective_bandwidth().as_f64()
                < 0.05
        );
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_panics() {
        let _ = Netem::new().loss(1.0);
    }

    #[test]
    fn try_loss_accepts_zero_boundary() {
        // p = 0.0 is valid: loss-free, Mathis model disabled.
        let n = Netem::new().try_loss(0.0).unwrap();
        assert!(n.tcp_throughput(SimDuration::from_millis(54)).is_none());
        assert_eq!(n.apply(LinkSpec::lan_gigabit()), LinkSpec::lan_gigabit());
    }

    #[test]
    fn try_loss_accepts_near_one_and_stays_finite() {
        // Just under 1.0 is valid and yields a tiny but positive,
        // finite Mathis throughput.
        let n = Netem::new().try_loss(0.999_999).unwrap();
        let tcp = n.tcp_throughput(SimDuration::from_millis(54)).unwrap();
        assert!(tcp.as_f64().is_finite() && tcp.as_f64() > 0.0);
        let link = n.apply(LinkSpec::wan_cloudnet());
        assert!(link.effective_bandwidth().as_f64() > 0.0);
    }

    #[test]
    fn try_loss_rejects_out_of_range() {
        for bad in [1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            let err = Netem::new().try_loss(bad).unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig { .. }),
                "p = {bad}: {err:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn nan_loss_panics_too() {
        let _ = Netem::new().loss(f64::NAN);
    }
}
