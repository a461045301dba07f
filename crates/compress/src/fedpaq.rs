//! FedPAQ \[9\]: periodic averaging with uniform quantisation.
//!
//! The model delta is quantised with a `bits`-wide symmetric uniform
//! quantiser sharing one scale (max-|value|) per upload. The paper's
//! Table II uses the 8-bit variant (≈4× save ratio).

use crate::{bytes, ClientState, Compressed, Compressor};
use fedbiad_tensor::ops;
use rand::rngs::StdRng;

/// Uniform `bits`-wide quantiser.
#[derive(Clone, Copy, Debug)]
pub struct FedPaq {
    /// Quantisation width in bits (paper: 8).
    pub bits: u32,
}

impl FedPaq {
    /// Paper configuration (8-bit).
    pub fn paper() -> Self {
        Self { bits: 8 }
    }
}

impl Compressor for FedPaq {
    fn name(&self) -> &str {
        "fedpaq"
    }

    fn compress(
        &self,
        _state: &mut ClientState,
        delta: &[f32],
        _round: usize,
        _rng: &mut StdRng,
    ) -> Compressed {
        assert!(self.bits >= 2 && self.bits <= 16, "bits out of range");
        let levels = (1u16 << (self.bits - 1)) - 1; // symmetric: ±levels
        let scale = ops::max_abs(delta);
        // Codes stored offset-binary: code + levels ∈ [0, 2·levels]. The
        // decoder computes `code · (scale / levels)`, the exact expression
        // the pre-codec reconstruction used; a zero scale makes inv_q
        // +0.0 and every code 0, so all-zero inputs still decode to +0.0.
        // Each code is `v · q` rounded half away from zero and clamped to
        // ±levels, NaN to 0 (`ops::quant_code`, which needs no libm).
        let mut codes = vec![levels; delta.len()];
        if scale != 0.0 {
            ops::quantise(delta, f32::from(levels) / scale, levels, &mut codes);
        }
        let c = Compressed::from_payload(crate::codec::Payload::Quantized {
            len: delta.len(),
            bits: self.bits as u8,
            scale,
            codes,
        });
        debug_assert_eq!(c.wire_bytes, bytes::quantized_bytes(delta.len(), self.bits));
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_tensor::rng::{stream, StreamTag};
    use rand::Rng;

    fn rng() -> StdRng {
        stream(2, StreamTag::Compress, 0, 0)
    }

    #[test]
    fn quantisation_error_is_bounded_by_step() {
        let mut r = rng();
        let delta: Vec<f32> = (0..257).map(|_| r.gen_range(-1.0f32..1.0)).collect();
        let mut st = ClientState::default();
        let c = FedPaq::paper().compress(&mut st, &delta, 0, &mut rng());
        let scale = delta.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let step = scale / 127.0;
        for (d, o) in c.decoded.iter().zip(&delta) {
            assert!((d - o).abs() <= step / 2.0 + 1e-6);
        }
        assert_eq!(c.wire_bytes, 257 + 4);
    }

    #[test]
    fn save_ratio_is_about_4x() {
        let n = 4096;
        let c = FedPaq::paper().compress(&mut ClientState::default(), &vec![0.5; n], 0, &mut rng());
        let ratio = bytes::dense_bytes(n) as f64 / c.wire_bytes as f64;
        assert!((ratio - 4.0).abs() < 0.05, "{ratio}");
    }

    #[test]
    fn zero_delta_stays_zero() {
        let c = FedPaq::paper().compress(&mut ClientState::default(), &[0.0; 16], 0, &mut rng());
        assert!(c.decoded.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn extremes_map_to_themselves() {
        let delta = [1.0f32, -1.0, 0.0];
        let c = FedPaq::paper().compress(&mut ClientState::default(), &delta, 0, &mut rng());
        assert!((c.decoded[0] - 1.0).abs() < 1e-6);
        assert!((c.decoded[1] + 1.0).abs() < 1e-6);
        assert_eq!(c.decoded[2], 0.0);
    }
}
