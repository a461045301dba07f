//! DGC \[4\]: deep gradient compression.
//!
//! Per the original paper, the client keeps a momentum-corrected gradient
//! accumulator; each round it transmits the top-k coordinates of the
//! accumulator as full f32 values with 64-bit positions, zeroing what was
//! sent (the rest stays local — "gradient accumulation"). A warm-up
//! schedule ramps sparsity over the first rounds (75 % → 93.75 % → 98.4 %
//! → 99.6 % → final).

use crate::{bytes, ClientState, Compressed, Compressor};
use fedbiad_tensor::stats;
use rand::rngs::StdRng;

/// Deep gradient compression.
#[derive(Clone, Copy, Debug)]
pub struct Dgc {
    /// Final kept fraction (paper \[4\]: 0.001, i.e. 99.9 % sparsity).
    pub keep_fraction: f32,
    /// Momentum-correction factor m (velocity decay).
    pub momentum: f32,
    /// Warm-up length in rounds.
    pub warmup_rounds: usize,
}

impl Dgc {
    /// The configuration used for Table II (99.9 % sparsity, m = 0.9,
    /// 4-round exponential warm-up).
    pub fn paper() -> Self {
        Self {
            keep_fraction: 0.001,
            momentum: 0.9,
            warmup_rounds: 4,
        }
    }

    /// Kept fraction for `round` under the warm-up schedule.
    pub fn keep_at(&self, round: usize) -> f32 {
        if round >= self.warmup_rounds {
            return self.keep_fraction;
        }
        // Exponential ramp: keep 25% → 6.25% → … down to the target.
        let warm = 0.25f32.powi(round as i32 + 1);
        warm.max(self.keep_fraction)
    }
}

impl Compressor for Dgc {
    fn name(&self) -> &str {
        "dgc"
    }

    fn compress(
        &self,
        state: &mut ClientState,
        delta: &[f32],
        round: usize,
        _rng: &mut StdRng,
    ) -> Compressed {
        let n = delta.len();
        state.ensure_len(n);
        // Momentum correction: v = m·v + g ; accumulate u += v.
        for ((v, u), &g) in state
            .velocity
            .iter_mut()
            .zip(&mut state.residual)
            .zip(delta)
        {
            *v = self.momentum * *v + g;
            *u += *v;
        }
        let keep = self.keep_at(round);
        let k = ((n as f64 * keep as f64).ceil() as usize).clamp(1, n);
        // The top-k set by magnitude, then its positions ascending — the
        // payload's order. Which k go is all DGC reads of the ranking.
        let keys = stats::top_k_keys(&state.residual, k, stats::abs_rank);
        let (mut positions, mut values) = (Vec::with_capacity(k), Vec::with_capacity(k));
        for i in stats::ascending_positions(&keys, n) {
            positions.push(i as u64);
            // Sent mass leaves the accumulator *and* the velocity (the DGC
            // paper zeroes both at transmitted coordinates).
            values.push(std::mem::replace(&mut state.residual[i], 0.0));
            state.velocity[i] = 0.0;
        }
        let c = Compressed::from_payload(crate::codec::Payload::SparseF32 {
            len: n,
            positions,
            values,
        });
        debug_assert_eq!(c.wire_bytes, bytes::sparse_f32_bytes(k));
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_tensor::rng::{stream, StreamTag};
    use rand::Rng;

    fn rng() -> StdRng {
        stream(5, StreamTag::Compress, 0, 0)
    }

    #[test]
    fn warmup_schedule_descends_to_target() {
        let d = Dgc::paper();
        let seq: Vec<f32> = (0..6).map(|r| d.keep_at(r)).collect();
        assert!((seq[0] - 0.25).abs() < 1e-6);
        assert!((seq[1] - 0.0625).abs() < 1e-6);
        assert!(seq.windows(2).all(|w| w[1] <= w[0]));
        assert!((seq[5] - 0.001).abs() < 1e-9);
    }

    #[test]
    fn transmits_exact_values_at_topk() {
        let delta = [3.0f32, -0.1, 0.2, -5.0];
        let mut st = ClientState::default();
        let d = Dgc {
            keep_fraction: 0.5,
            momentum: 0.0,
            warmup_rounds: 0,
        };
        let c = d.compress(&mut st, &delta, 0, &mut rng());
        assert_eq!(c.sent_values, 2);
        assert_eq!(c.decoded[3], -5.0);
        assert_eq!(c.decoded[0], 3.0);
        assert_eq!(c.decoded[1], 0.0);
        // Accumulator keeps the rest.
        assert!((st.residual[1] + 0.1).abs() < 1e-6);
        assert_eq!(st.residual[3], 0.0);
    }

    #[test]
    fn non_finite_delta_compresses_instead_of_panicking() {
        // Regression: a diverged client's NaN coordinates hit
        // `.expect("NaN score")` in the top-k. They now rank below every
        // number, so they stay in the accumulator and finite (and ±∞)
        // mass is what goes on the wire.
        let delta = [f32::NAN, 3.0, f32::NEG_INFINITY, -0.5, f32::NAN, 1.0];
        let d = Dgc {
            keep_fraction: 0.5,
            momentum: 0.0,
            warmup_rounds: 0,
        };
        let mut st = ClientState::default();
        let c = d.compress(&mut st, &delta, 0, &mut rng());
        assert_eq!(c.sent_values, 3);
        assert_eq!(c.decoded[2], f32::NEG_INFINITY);
        assert_eq!((c.decoded[1], c.decoded[5]), (3.0, 1.0));
        assert!(c.decoded.iter().all(|v| !v.is_nan()));
        assert!(st.residual[0].is_nan() && st.residual[4].is_nan());
        // All-NaN: the lowest indices are sent, deterministically.
        let mut st = ClientState::default();
        let c = d.compress(&mut st, &[f32::NAN; 4], 0, &mut rng());
        assert!(c.decoded[0].is_nan() && c.decoded[1].is_nan());
        assert_eq!((c.decoded[2], c.decoded[3]), (0.0, 0.0));
    }

    #[test]
    fn momentum_amplifies_unsent_persistent_directions() {
        // A persistent direction that keeps losing the top-k race
        // accumulates super-linearly under momentum correction — the
        // mechanism DGC uses so small-but-consistent gradients are not
        // starved. Coordinate 0 always wins the single slot; coordinate 1
        // accumulates with momentum.
        let delta = [10.0f32, 1.0];
        let d = Dgc {
            keep_fraction: 0.5,
            momentum: 0.9,
            warmup_rounds: 0,
        };
        let mut st = ClientState::default();
        for round in 0..4 {
            let c = d.compress(&mut st, &delta, round, &mut rng());
            assert_eq!(c.decoded[0], 10.0, "round {round} sends coord 0");
        }
        // Without momentum the accumulator would hold exactly 4.0; with
        // m = 0.9 it holds 1 + 1.9 + 2.71 + 3.439 = 9.049.
        assert!(
            st.residual[1] > 4.0 + 1.0,
            "momentum-corrected accumulation {} should exceed linear 4.0",
            st.residual[1]
        );
    }

    #[test]
    fn paper_config_save_ratio_after_warmup() {
        let n = 500_000;
        let mut r = rng();
        let delta: Vec<f32> = (0..n).map(|_| r.gen_range(-1.0f32..1.0)).collect();
        let d = Dgc::paper();
        let mut st = ClientState::default();
        let c = d.compress(&mut st, &delta, 10, &mut rng());
        let ratio = bytes::dense_bytes(n) as f64 / c.wire_bytes as f64;
        assert!(ratio > 300.0 && ratio < 340.0, "DGC save ratio {ratio}");
    }

    #[test]
    fn nothing_is_lost_sum_conservation() {
        // With momentum 0, decoded + residual must always equal the running
        // sum of deltas (per coordinate).
        let d = Dgc {
            keep_fraction: 0.25,
            momentum: 0.0,
            warmup_rounds: 0,
        };
        let mut st = ClientState::default();
        let mut sent = [0.0f32; 4];
        let deltas = [[1.0f32, -2.0, 0.5, 0.1], [0.3, 0.3, -0.2, 0.9]];
        for (round, dvec) in deltas.iter().enumerate() {
            let c = d.compress(&mut st, dvec, round, &mut rng());
            for (s, &v) in sent.iter_mut().zip(&c.decoded) {
                *s += v;
            }
        }
        for (i, &s) in sent.iter().enumerate() {
            let total: f32 = deltas.iter().map(|d| d[i]).sum();
            assert!(
                (s + st.residual[i] - total).abs() < 1e-6,
                "coordinate {i} leaked mass"
            );
        }
    }
}
