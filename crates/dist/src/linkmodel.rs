//! Fitted α/β link model: closing the loop between measured and modelled
//! `AllReduce` time.
//!
//! The paper's §5.1 scaling analysis charges communication with an
//! analytic `steps·α + volume/BW` cost (the [`Link`] model in
//! `bertscope-device`). This module goes the other direction: given
//! *measured* ring-AllReduce timings from the socket ring
//! ([`crate::proc`]), it least-squares fits the latency
//! term α (µs per pipeline hop) and the inverse-bandwidth term β (µs per
//! byte on the wire), producing a [`LinkModel`] that predicts step time for
//! unseen payload sizes and world sizes — and that converts back into a
//! [`Link`] so the fitted parameters flow straight into the Fig. 11
//! configuration profiles.

use bertscope_device::Link;

/// One observed collective: payload size, world size, and measured wall
/// time. The fit works on any ring collective whose hop/volume structure
/// matches [`Link::ring_allreduce_us`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSample {
    /// Total payload bytes per rank (the full gradient buffer, not the
    /// per-hop chunk).
    pub bytes: u64,
    /// Number of participating ranks.
    pub devices: usize,
    /// Measured wall time of the collective, in microseconds.
    pub measured_us: f64,
}

/// A fitted latency/bandwidth model of one ring link:
/// `t_us = alpha_us · steps + beta_us_per_byte · wire_bytes`, where
/// `steps = 2(D−1)` and `wire_bytes = 2(D−1)/D · bytes` (the ring
/// `AllReduce`'s per-device traffic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Per-hop latency in microseconds (the α term).
    pub alpha_us: f64,
    /// Per-byte wire time in microseconds (the β term, `1 / bandwidth`).
    pub beta_us_per_byte: f64,
    /// Coefficient of determination of the fit on its training samples
    /// (1.0 = the two-parameter model explains the timings exactly).
    pub r_squared: f64,
    /// Number of samples the fit consumed.
    pub samples: usize,
}

/// Ring pipeline steps for `d` devices: `2(d−1)`, zero for a lone rank.
#[must_use]
pub fn ring_steps(devices: usize) -> f64 {
    if devices < 2 {
        0.0
    } else {
        2.0 * (devices as f64 - 1.0)
    }
}

/// Per-device wire traffic of a ring `AllReduce` over `bytes` payload:
/// `2(d−1)/d · bytes`.
#[must_use]
pub fn ring_wire_bytes(bytes: u64, devices: usize) -> f64 {
    if devices < 2 {
        0.0
    } else {
        let d = devices as f64;
        2.0 * (d - 1.0) / d * bytes as f64
    }
}

impl LinkModel {
    /// Least-squares fit of α and β from measured collectives.
    ///
    /// Solves the 2×2 normal equations of
    /// `measured ≈ α·steps + β·wire_bytes` over all samples. Samples with
    /// fewer than two devices carry no signal (zero steps, zero traffic)
    /// and are ignored.
    ///
    /// Returns `None` when fewer than two informative samples remain or
    /// the system is singular (e.g. all samples share one
    /// steps:wire-bytes ratio, which cannot separate latency from
    /// bandwidth).
    #[must_use]
    pub fn fit(samples: &[LinkSample]) -> Option<LinkModel> {
        let pts: Vec<(f64, f64, f64)> = samples
            .iter()
            .filter(|s| s.devices >= 2)
            .map(|s| (ring_steps(s.devices), ring_wire_bytes(s.bytes, s.devices), s.measured_us))
            .collect();
        if pts.len() < 2 {
            return None;
        }
        // Normal equations for y = a·x1 + b·x2 (no intercept: a lone rank
        // communicates in zero time by construction).
        let (mut s11, mut s12, mut s22, mut sy1, mut sy2) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
        for &(x1, x2, y) in &pts {
            s11 += x1 * x1;
            s12 += x1 * x2;
            s22 += x2 * x2;
            sy1 += x1 * y;
            sy2 += x2 * y;
        }
        let det = s11 * s22 - s12 * s12;
        // Singular (or numerically so) when all samples are collinear.
        if det.abs() <= 1e-9 * (s11 * s22).max(1.0) {
            return None;
        }
        let alpha = (sy1 * s22 - sy2 * s12) / det;
        let beta = (s11 * sy2 - s12 * sy1) / det;
        // Clamp to the physical region: noise on tiny payloads can drive a
        // term slightly negative, which would make predictions nonsense.
        let alpha = alpha.max(0.0);
        let beta = beta.max(0.0);

        let mean_y = pts.iter().map(|p| p.2).sum::<f64>() / pts.len() as f64;
        let ss_tot: f64 = pts.iter().map(|p| (p.2 - mean_y).powi(2)).sum();
        let ss_res: f64 = pts.iter().map(|p| (p.2 - (alpha * p.0 + beta * p.1)).powi(2)).sum();
        let r_squared = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };

        Some(LinkModel { alpha_us: alpha, beta_us_per_byte: beta, r_squared, samples: pts.len() })
    }

    /// Predicted ring-AllReduce wall time (µs) for a payload of `bytes`
    /// across `devices` ranks.
    #[must_use]
    pub fn predict_us(&self, bytes: u64, devices: usize) -> f64 {
        self.alpha_us * ring_steps(devices)
            + self.beta_us_per_byte * ring_wire_bytes(bytes, devices)
    }

    /// Effective link bandwidth implied by the β term, in GB/s (the unit
    /// [`Link::bw_gbps`] speaks).
    #[must_use]
    pub fn bandwidth_gbps(&self) -> f64 {
        if self.beta_us_per_byte <= 0.0 {
            return f64::INFINITY;
        }
        // β is µs/byte → bytes/s = 1e6/β → GB/s = 1e-3/β.
        1.0e-3 / self.beta_us_per_byte
    }

    /// Convert the fit into the analytic [`Link`] the Fig. 11 profiles
    /// consume, feeding measured parameters back into the model.
    #[must_use]
    pub fn to_link(&self) -> Link {
        Link { bw_gbps: self.bandwidth_gbps(), latency_us: self.alpha_us }
    }

    /// The exact model a [`Link`] implies — useful for comparing an
    /// analytic link's predictions against a fitted one's.
    #[must_use]
    pub fn from_link(link: &Link) -> LinkModel {
        LinkModel {
            alpha_us: link.latency_us,
            beta_us_per_byte: 1.0e-3 / link.bw_gbps,
            r_squared: 1.0,
            samples: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(alpha: f64, beta: f64) -> Vec<LinkSample> {
        let mut out = Vec::new();
        for devices in [2usize, 4, 8] {
            for bytes in [1u64 << 10, 1 << 16, 1 << 20] {
                let t = alpha * ring_steps(devices) + beta * ring_wire_bytes(bytes, devices);
                out.push(LinkSample { bytes, devices, measured_us: t });
            }
        }
        out
    }

    #[test]
    fn fit_recovers_exact_parameters() {
        let (alpha, beta) = (42.0, 3.5e-3);
        let model = LinkModel::fit(&synthetic(alpha, beta)).expect("well-posed fit");
        assert!((model.alpha_us - alpha).abs() < 1e-6, "alpha {}", model.alpha_us);
        assert!((model.beta_us_per_byte - beta).abs() < 1e-9, "beta {}", model.beta_us_per_byte);
        assert!(model.r_squared > 0.999_999);
        assert_eq!(model.samples, 9);
    }

    #[test]
    fn fit_is_robust_to_noise() {
        // Deterministic ±5% multiplicative noise.
        let mut samples = synthetic(100.0, 1e-2);
        for (i, s) in samples.iter_mut().enumerate() {
            let wiggle = 1.0 + 0.05 * if i % 2 == 0 { 1.0 } else { -1.0 };
            s.measured_us *= wiggle;
        }
        let model = LinkModel::fit(&samples).expect("noisy but well-posed");
        assert!((model.alpha_us - 100.0).abs() / 100.0 < 0.5, "alpha {}", model.alpha_us);
        assert!((model.beta_us_per_byte - 1e-2).abs() / 1e-2 < 0.2);
        assert!(model.r_squared > 0.9);
    }

    #[test]
    fn degenerate_fits_are_refused() {
        // Too few points.
        assert!(LinkModel::fit(&[]).is_none());
        assert!(
            LinkModel::fit(&[LinkSample { bytes: 1024, devices: 4, measured_us: 10.0 }]).is_none()
        );
        // Single-device samples carry no signal.
        let lone = vec![
            LinkSample { bytes: 1024, devices: 1, measured_us: 1.0 },
            LinkSample { bytes: 4096, devices: 1, measured_us: 2.0 },
        ];
        assert!(LinkModel::fit(&lone).is_none());
        // Collinear: same device count and byte size repeated — steps and
        // wire bytes are proportional across all samples.
        let collinear = vec![
            LinkSample { bytes: 1024, devices: 4, measured_us: 10.0 },
            LinkSample { bytes: 1024, devices: 4, measured_us: 11.0 },
        ];
        assert!(LinkModel::fit(&collinear).is_none());
    }

    #[test]
    fn prediction_matches_device_link_closed_form() {
        // from_link's model must agree with Link::ring_allreduce_us.
        let link = Link::pcie4();
        let model = LinkModel::from_link(&link);
        for devices in [2usize, 4, 8, 16] {
            for bytes in [1u64 << 12, 1 << 20, 1 << 26] {
                let want = link.ring_allreduce_us(bytes, devices);
                let got = model.predict_us(bytes, devices);
                assert!(
                    (want - got).abs() <= 1e-6 * want.max(1.0),
                    "d={devices} bytes={bytes}: {want} vs {got}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_through_link_preserves_parameters() {
        let fitted = LinkModel::fit(&synthetic(12.0, 2.0e-3)).expect("fit");
        let back = LinkModel::from_link(&fitted.to_link());
        assert!((back.alpha_us - fitted.alpha_us).abs() < 1e-9);
        assert!((back.beta_us_per_byte - fitted.beta_us_per_byte).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_units_are_consistent() {
        // β of 1e-3 µs/byte is exactly 1 GB/s.
        let model =
            LinkModel { alpha_us: 0.0, beta_us_per_byte: 1.0e-3, r_squared: 1.0, samples: 0 };
        assert!((model.bandwidth_gbps() - 1.0).abs() < 1e-9);
    }
}
