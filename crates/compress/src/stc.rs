//! STC \[5\]: sparse ternary compression.
//!
//! Top-k magnitude selection, then ternarisation: every selected value is
//! transmitted as `sign · μ` where μ is the mean magnitude of the selected
//! set. Wire cost per value: 1 sign bit + one 64-bit position; plus one
//! shared 32-bit μ. Residual error feedback keeps the un-transmitted mass.

use crate::{bytes, ClientState, Compressed, Compressor};
use fedbiad_tensor::stats;
use rand::rngs::StdRng;

/// Sparse ternary compressor.
#[derive(Clone, Copy, Debug)]
pub struct Stc {
    /// Fraction of coordinates transmitted per round (e.g. 0.0033 ⇒
    /// ≈180-200× save ratio, the Table II STC row).
    pub keep_fraction: f32,
}

impl Stc {
    /// Configuration matching Table II's STC save ratios (≈177-206×).
    pub fn paper() -> Self {
        Self {
            keep_fraction: 1.0 / 330.0,
        }
    }
}

impl Compressor for Stc {
    fn name(&self) -> &str {
        "stc"
    }

    fn compress(
        &self,
        state: &mut ClientState,
        delta: &[f32],
        _round: usize,
        _rng: &mut StdRng,
    ) -> Compressed {
        let n = delta.len();
        state.ensure_len(n);
        // Error feedback: compress delta + residual.
        let corrected: Vec<f32> = delta
            .iter()
            .zip(&state.residual)
            .map(|(d, r)| d + r)
            .collect();
        let k = ((n as f64 * self.keep_fraction as f64).ceil() as usize).clamp(1, n);
        // μ is summed in descending-|v| order, so only here are the k keys
        // sorted (ascending key = descending magnitude).
        let mut keys = stats::top_k_keys(&corrected, k, stats::abs_rank);
        keys.sort_unstable();
        let idx: Vec<usize> = keys.iter().map(|&key| stats::key_pos(key)).collect();
        let mu = idx.iter().map(|&i| corrected[i].abs()).sum::<f32>() / k as f32;

        // Sign bit set ⇔ NOT (v ≥ 0.0), matching the pre-codec ternary
        // reconstruction bit for bit (NaN included).
        use std::cmp::Ordering;
        let pairs: Vec<(usize, bool)> = idx
            .iter()
            .map(|&i| {
                let neg = !matches!(
                    corrected[i].partial_cmp(&0.0),
                    Some(Ordering::Greater | Ordering::Equal)
                );
                (i, neg)
            })
            .collect();
        let c = Compressed::from_payload(crate::codec::Payload::sparse_sign(n, mu, pairs));
        for ((r, &cv), &d) in state.residual.iter_mut().zip(&corrected).zip(&c.decoded) {
            *r = cv - d;
        }
        debug_assert_eq!(c.wire_bytes, bytes::sparse_ternary_bytes(k));
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_tensor::rng::{stream, StreamTag};
    use rand::Rng;

    fn rng() -> StdRng {
        stream(4, StreamTag::Compress, 0, 0)
    }

    #[test]
    fn only_k_values_survive_with_shared_magnitude() {
        let delta = [5.0f32, -4.0, 0.1, 0.2, -0.1, 0.0];
        let mut st = ClientState::default();
        let c = Stc { keep_fraction: 0.3 }.compress(&mut st, &delta, 0, &mut rng());
        assert_eq!(c.sent_values, 2);
        let nz: Vec<f32> = c.decoded.iter().copied().filter(|&v| v != 0.0).collect();
        assert_eq!(nz.len(), 2);
        let mu = (5.0 + 4.0) / 2.0;
        assert!((c.decoded[0] - mu).abs() < 1e-6);
        assert!((c.decoded[1] + mu).abs() < 1e-6);
    }

    #[test]
    fn residual_holds_untransmitted_mass() {
        let delta = [5.0f32, -4.0, 0.1, 0.2, -0.1, 0.0];
        let mut st = ClientState::default();
        let c = Stc { keep_fraction: 0.3 }.compress(&mut st, &delta, 0, &mut rng());
        // Untransmitted coordinates keep full mass in the residual.
        assert!((st.residual[2] - 0.1).abs() < 1e-6);
        assert!((st.residual[3] - 0.2).abs() < 1e-6);
        // Transmitted coordinates keep the ternarisation error.
        assert!((st.residual[0] - (5.0 - c.decoded[0])).abs() < 1e-6);
    }

    #[test]
    fn paper_config_hits_expected_save_ratio() {
        let n = 1_000_000;
        let mut r = rng();
        let delta: Vec<f32> = (0..n).map(|_| r.gen_range(-1.0f32..1.0)).collect();
        let c = Stc::paper().compress(&mut ClientState::default(), &delta, 0, &mut rng());
        let ratio = bytes::dense_bytes(n) as f64 / c.wire_bytes as f64;
        assert!(ratio > 150.0 && ratio < 230.0, "STC save ratio {ratio}");
    }

    #[test]
    fn repeated_rounds_eventually_transmit_small_coords() {
        // A coordinate below the top-k threshold accumulates in the
        // residual and must eventually be selected.
        let delta = [1.0f32, 0.3, 0.0, 0.0];
        let comp = Stc {
            keep_fraction: 0.25,
        }; // k = 1
        let mut st = ClientState::default();
        let mut coord1_total = 0.0f32;
        for round in 0..12 {
            let c = comp.compress(&mut st, &delta, round, &mut rng());
            coord1_total += c.decoded[1];
        }
        assert!(coord1_total > 0.0, "residual feedback should flush coord 1");
    }
}
