//! The client write side's executable specification: the code each
//! production path replaced, kept verbatim so the property tests
//! (`tests/write_props.rs`) and `bench_perf`'s reference sides can hold
//! production to it bit for bit.
//!
//! * `quantise` — FedPAQ's scale and codes through libm's `roundf`.
//! * `pack_codes` — the bit-at-a-time code packer.
//! * `encode_body` — payload bodies written element by element.
//! * `gather_weights` — `encode_weights`' gather of the covered values.
//! * `dgc` / `stc` — the two top-k compressors over a comparator
//!   top-k (the caller passes `top_k_spec::top_k_abs_indices`), building
//!   their payloads through the sorting constructors.

#![allow(dead_code)]

use fedbiad_compress::codec::Payload;
use fedbiad_compress::dgc::Dgc;
use fedbiad_compress::stc::Stc;
use fedbiad_compress::ClientState;
use fedbiad_nn::{CoverageMask, ModelMask, ParamSet};

/// The comparator top-k by magnitude, in rank order.
pub type TopK = fn(&[f32], usize) -> Vec<usize>;

/// FedPAQ's `(scale, codes)` at width `bits`.
pub fn quantise(delta: &[f32], bits: u32) -> (f32, Vec<u16>) {
    let levels = (1i64 << (bits - 1)) - 1;
    let scale = delta.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let codes = if scale == 0.0 {
        vec![levels as u16; delta.len()]
    } else {
        let q = levels as f32 / scale;
        delta
            .iter()
            .map(|&v| {
                let code = (v * q).round().clamp(-(levels as f32), levels as f32);
                (code as i64 + levels) as u16
            })
            .collect()
    };
    (scale, codes)
}

/// Codes bit-packed little-endian, `bits` each.
pub fn pack_codes(codes: &[u16], bits: u8) -> Vec<u8> {
    let mut packed = vec![0u8; (codes.len() * bits as usize).div_ceil(8)];
    let mut bitpos = 0usize;
    for &c in codes {
        let mut v = c as u32;
        let mut left = bits as usize;
        while left > 0 {
            let byte = bitpos / 8;
            let off = bitpos % 8;
            let take = (8 - off).min(left);
            packed[byte] |= ((v & ((1u32 << take) - 1)) as u8) << off;
            v >>= take;
            bitpos += take;
            left -= take;
        }
    }
    packed
}

/// A payload's body bytes.
pub fn encode_body(payload: &Payload) -> Vec<u8> {
    let mut out = Vec::new();
    match payload {
        Payload::Dense { values } => {
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Payload::SparseF32 {
            positions, values, ..
        } => {
            for p in positions {
                out.extend_from_slice(&p.to_le_bytes());
            }
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Payload::SignDense { mu, negatives, .. } => {
            out.extend_from_slice(&mu.to_le_bytes());
            out.extend_from_slice(negatives);
        }
        Payload::SparseSign {
            mu,
            positions,
            negatives,
            ..
        } => {
            out.extend_from_slice(&mu.to_le_bytes());
            for p in positions {
                out.extend_from_slice(&p.to_le_bytes());
            }
            out.extend_from_slice(negatives);
        }
        Payload::Quantized {
            bits, scale, codes, ..
        } => {
            out.extend_from_slice(&scale.to_le_bytes());
            out.extend_from_slice(&pack_codes(codes, *bits));
        }
    }
    out
}

/// The covered values of a weights upload, in flatten order.
pub fn gather_weights(params: &ParamSet, mask: &ModelMask) -> Vec<f32> {
    let mut values = Vec::with_capacity(mask.kept_params(params));
    for e in 0..params.num_entries() {
        let m = params.mat(e);
        let cols = m.cols();
        let cov = &mask.per_entry[e];
        match cov {
            CoverageMask::Full => values.extend_from_slice(m.as_slice()),
            _ => {
                for r in 0..m.rows() {
                    let row = m.row(r);
                    match cov {
                        CoverageMask::Rows(rb) => {
                            if rb.get(r) {
                                values.extend_from_slice(row);
                            }
                        }
                        _ => {
                            for (c, &v) in row.iter().enumerate() {
                                if cov.covers(r, c, cols) {
                                    values.push(v);
                                }
                            }
                        }
                    }
                }
            }
        }
        for (r, &v) in params.bias(e).iter().enumerate() {
            if cov.covers_bias(r) {
                values.push(v);
            }
        }
    }
    values
}

/// One DGC round: momentum correction, the comparator top-k, the sent
/// coordinates zeroed in both accumulators.
pub fn dgc(d: &Dgc, state: &mut ClientState, delta: &[f32], round: usize, top_k: TopK) -> Payload {
    let n = delta.len();
    state.ensure_len(n);
    for ((v, u), &g) in state
        .velocity
        .iter_mut()
        .zip(&mut state.residual)
        .zip(delta)
    {
        *v = d.momentum * *v + g;
        *u += *v;
    }
    let k = ((n as f64 * d.keep_at(round) as f64).ceil() as usize).clamp(1, n);
    let idx = top_k(&state.residual, k);
    let pairs: Vec<(usize, f32)> = idx.iter().map(|&i| (i, state.residual[i])).collect();
    for &i in &idx {
        state.residual[i] = 0.0;
        state.velocity[i] = 0.0;
    }
    Payload::sparse_f32(n, pairs)
}

/// One STC round: error feedback, the comparator top-k, μ summed in rank
/// order, ternary signs; the residual keeps what was not sent.
pub fn stc(s: &Stc, state: &mut ClientState, delta: &[f32], top_k: TopK) -> Payload {
    use std::cmp::Ordering;
    let n = delta.len();
    state.ensure_len(n);
    let corrected: Vec<f32> = delta
        .iter()
        .zip(&state.residual)
        .map(|(d, r)| d + r)
        .collect();
    let k = ((n as f64 * s.keep_fraction as f64).ceil() as usize).clamp(1, n);
    let idx = top_k(&corrected, k);
    let mu = idx.iter().map(|&i| corrected[i].abs()).sum::<f32>() / k as f32;
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
    let payload = Payload::sparse_sign(n, mu, pairs);
    let decoded = payload.decode_dense();
    for ((r, &cv), &d) in state.residual.iter_mut().zip(&corrected).zip(&decoded) {
        *r = cv - d;
    }
    payload
}
