//! The client write side ≡ its executable specification
//! (`support/write_spec.rs`), bit for bit: FedPAQ's libm-free quantiser
//! against `(v·q).round().clamp(..)` at every width 2..=16, the code
//! packer against the bit-at-a-time one (codes wider than their field
//! included), the bulk body writers and `encode_weights`' direct write
//! against per-element writes, and DGC / STC over the keyed top-k against
//! the comparator top-k — at k = 1, n − 1, n and in between, over deltas
//! laced with ±0, ±∞, NaNs of both signs and |v| ties.
//!
//! Floats DGC and STC compute from a NaN (accumulators, DGC's sent
//! values, STC's µ) are compared NaN-as-NaN: which of two NaN operands an
//! add returns is the code generator's choice per build, not the write
//! side's. Positions, signs, codes and every finite value are exact.

#[path = "support/write_spec.rs"]
mod spec;
#[path = "../../tensor/tests/support/top_k_spec.rs"]
mod top_k_spec;

use fedbiad_compress::codec::HEADER_BYTES;
use fedbiad_compress::codec::{encode_delta, encode_weights, encode_weights_delta, Payload};
use fedbiad_compress::dgc::Dgc;
use fedbiad_compress::fedpaq::FedPaq;
use fedbiad_compress::stc::Stc;
use fedbiad_compress::{ClientState, Compressor};
use fedbiad_nn::mask::BitVec;
use fedbiad_nn::params::{EntryMeta, LayerKind};
use fedbiad_nn::{CoverageMask, ModelMask, ParamSet};
use fedbiad_tensor::rng::{stream, StreamTag};
use fedbiad_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

fn rng(seed: u64) -> StdRng {
    stream(seed, StreamTag::Compress, 28, 0)
}

/// A delta of `len` values. `mode` 0: uniform; 1: laced with ±0, NaNs
/// (both signs, varied payloads), subnormals and |v| ties; 2: laced and
/// ±∞; 3: half-integers in [−127, 127] with 127 present, so FedPAQ's
/// 8-bit step is exactly 1 and half of the codes are rounding ties.
fn delta(len: usize, mode: u32, seed: u64) -> Vec<f32> {
    let mut r = rng(seed);
    (0..len)
        .map(|i| {
            let sign = if r.gen::<bool>() { 0x8000_0000u32 } else { 0 };
            let bits = match (mode, r.gen_range(0u32..16)) {
                (0, _) => return r.gen_range(-2.0f32..2.0),
                (3, p) => {
                    if i == 0 {
                        return 127.0;
                    }
                    if p == 0 {
                        return f32::NAN;
                    }
                    return (r.gen_range(0u32..509) as f32 - 254.0) / 2.0;
                }
                (_, 0) => 0,
                (_, 1) => 0x7F80_0000 | r.gen_range(1u32..0x0080_0000),
                (_, 2) => 0x7FC0_0000,
                (_, 3) => r.gen_range(1u32..0x0080_0000),
                (_, 4 | 5) => [0.5f32, 1.0, 0.25][r.gen_range(0usize..3)].to_bits(),
                (2, 6) => 0x7F80_0000,
                _ => r.gen_range(1e-3f32..2.0).to_bits(),
            };
            f32::from_bits(sign | bits)
        })
        .collect()
}

fn nan_as_nan(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() })
        .collect()
}

fn body(payload: &Payload) -> Vec<u8> {
    encode_delta(payload).as_bytes()[HEADER_BYTES..].to_vec()
}

/// A payload, compared field by field, floats NaN-as-NaN.
fn assert_payloads_match(got: &Payload, want: &Payload) {
    match (got, want) {
        (
            Payload::SparseF32 {
                len: a,
                positions: pa,
                values: va,
            },
            Payload::SparseF32 {
                len: b,
                positions: pb,
                values: vb,
            },
        ) => {
            assert_eq!((a, pa), (b, pb));
            assert_eq!(nan_as_nan(va), nan_as_nan(vb));
        }
        (
            Payload::SparseSign {
                len: a,
                mu: ma,
                positions: pa,
                negatives: na,
            },
            Payload::SparseSign {
                len: b,
                mu: mb,
                positions: pb,
                negatives: nb,
            },
        ) => {
            assert_eq!((a, pa, na), (b, pb, nb));
            assert_eq!(nan_as_nan(&[*ma]), nan_as_nan(&[*mb]));
        }
        _ => panic!("payload kinds differ: {got:?} vs {want:?}"),
    }
}

/// Keep fractions that give k = 1, n − 1, n and two in between.
fn keep_fraction(pick: u32, n: usize) -> f32 {
    match pick {
        0 => 1e-9,
        1 => (n.saturating_sub(1)) as f32 / n as f32,
        2 => 1.0,
        3 => 0.25,
        _ => 0.05,
    }
}

/// A small model with biases and an odd shape, and a mask of `kind` per
/// entry (0 full, 1 rows, 2 rows × cols, 3 elements).
fn model_and_mask(rows: usize, cols: usize, kind: u32, seed: u64) -> (ParamSet, ModelMask) {
    let mut p = ParamSet::new();
    let vals = delta(rows * cols + rows + 6 + 3, 2, seed);
    p.push_entry(
        Matrix::from_vec(rows, cols, vals[..rows * cols].to_vec()),
        Some(vals[rows * cols..rows * cols + rows].to_vec()),
        EntryMeta::new("w", LayerKind::DenseHidden, true, true),
    );
    p.push_entry(
        Matrix::from_vec(3, 2, vals[rows * cols + rows..][..6].to_vec()),
        None,
        EntryMeta::new("e", LayerKind::Embedding, false, true),
    );
    let mut r = rng(seed ^ 0x55);
    let mut bits = |len: usize| {
        let mut b = BitVec::new(len, false);
        for i in 0..len {
            b.set(i, r.gen_range(0u32..3) != 0);
        }
        b
    };
    let per_entry = (0..p.num_entries())
        .map(|e| {
            let m = p.mat(e);
            match kind {
                0 => CoverageMask::Full,
                1 => CoverageMask::Rows(bits(m.rows())),
                2 => CoverageMask::RowsCols {
                    rows: bits(m.rows()),
                    cols: bits(m.cols()),
                },
                _ => CoverageMask::Elements(bits(m.len())),
            }
        })
        .collect();
    (p, ModelMask { per_entry })
}

proptest! {
    #[test]
    fn fedpaq_codes_equal_the_libm_round_clamp_at_every_width(
        len in 0usize..300,
        bits in 2u32..17,
        mode in 0u32..4,
        seed in 0u64..1_000_000,
    ) {
        let d = delta(len, mode, seed);
        let c = FedPaq { bits }.compress(&mut ClientState::default(), &d, 0, &mut rng(1));
        let (scale, codes) = spec::quantise(&d, bits);
        let want = Payload::Quantized { len, bits: bits as u8, scale, codes };
        prop_assert_eq!(&c.payload, &want);
        prop_assert_eq!(body(&c.payload), spec::encode_body(&want));
        prop_assert!(c.decoded.iter().zip(want.decode_dense()).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn packed_codes_equal_the_bit_at_a_time_packer(
        codes in prop::collection::vec(0u16..u16::MAX, 0..200),
        bits in 2u8..17,
        narrow in 0u32..2,
    ) {
        // Half the cases hold every code inside its field; the rest pin
        // that bits above the width are cut, as the old packer cut them.
        let codes: Vec<u16> = if narrow == 1 {
            codes.iter().map(|&c| (u32::from(c) % (1u32 << bits)) as u16).collect()
        } else {
            codes
        };
        let payload = Payload::Quantized { len: codes.len(), bits, scale: 0.5, codes };
        prop_assert_eq!(body(&payload), spec::encode_body(&payload));
    }

    #[test]
    fn bulk_body_writers_equal_per_element_writes(
        len in 0usize..200,
        kind in 0u32..4,
        seed in 0u64..1_000_000,
    ) {
        let d = delta(len, 2, seed);
        let sparse = |i: &usize| i % 3 != 1;
        let payload = match kind {
            0 => Payload::Dense { values: d },
            1 => Payload::sparse_f32(len, (0..len).filter(sparse).map(|i| (i, d[i])).collect()),
            2 => Payload::sign_dense(d.first().copied().unwrap_or(0.5), d.iter().map(|v| *v < 0.0)),
            _ => Payload::sparse_sign(len, 0.75, (0..len).filter(sparse).map(|i| (i, d[i] < 0.0)).collect()),
        };
        prop_assert_eq!(body(&payload), spec::encode_body(&payload));
    }

    #[test]
    fn weights_frames_equal_the_gathered_dense_frame(
        rows in 1usize..20,
        cols in 1usize..40,
        kind in 0u32..4,
        seed in 0u64..1_000_000,
    ) {
        let (p, mask) = model_and_mask(rows, cols, kind, seed);
        let got = encode_weights(&p, &mask);
        let dense = Payload::Dense { values: spec::gather_weights(&p, &mask) };
        // The same frame as a sketched upload of the gathered values, but
        // for the body-kind byte.
        let mut want = encode_weights_delta(&mask, &dense).as_bytes().to_vec();
        want[5] = 0;
        prop_assert_eq!(got.as_bytes(), &want[..]);
        prop_assert_eq!(got.body_bytes(), mask.wire_bytes(&p));
    }

    #[test]
    fn dgc_equals_the_comparator_top_k_through_warm_up(
        len in 1usize..300,
        keep in 0u32..5,
        momentum in 0u32..2,
        mode in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        let d = Dgc {
            keep_fraction: keep_fraction(keep, len),
            momentum: if momentum == 0 { 0.0 } else { 0.9 },
            warmup_rounds: 2,
        };
        let (mut got_st, mut want_st) = (ClientState::default(), ClientState::default());
        for round in 0..4 {
            let delta = delta(len, mode, seed + round as u64);
            let got = d.compress(&mut got_st, &delta, round, &mut rng(2)).payload;
            let want = spec::dgc(&d, &mut want_st, &delta, round, top_k_spec::top_k_abs_indices);
            assert_payloads_match(&got, &want);
            prop_assert_eq!(nan_as_nan(&got_st.residual), nan_as_nan(&want_st.residual));
            prop_assert_eq!(nan_as_nan(&got_st.velocity), nan_as_nan(&want_st.velocity));
        }
    }

    #[test]
    fn stc_equals_the_comparator_top_k_and_sums_mu_in_rank_order(
        len in 1usize..300,
        keep in 0u32..5,
        mode in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        let s = Stc { keep_fraction: keep_fraction(keep, len) };
        let (mut got_st, mut want_st) = (ClientState::default(), ClientState::default());
        for round in 0..3 {
            let delta = delta(len, mode, seed + round as u64);
            let got = s.compress(&mut got_st, &delta, round, &mut rng(3)).payload;
            let want = spec::stc(&s, &mut want_st, &delta, top_k_spec::top_k_abs_indices);
            assert_payloads_match(&got, &want);
            prop_assert_eq!(nan_as_nan(&got_st.residual), nan_as_nan(&want_st.residual));
        }
    }
}

/// μ's sum is order-sensitive: on these magnitudes a sum in index order
/// differs from the rank-order sum the spec takes, so a change that
/// stopped sorting STC's keys fails here.
#[test]
fn stc_mu_is_summed_in_descending_magnitude_order() {
    // Rank order adds 2 + 1 first and then absorbs every 1e-7; index
    // order lets the eight 1e-7 add up before they meet 1 and 2.
    let mut delta = [1.0e-7f32; 10];
    delta[8] = 1.0;
    delta[9] = 2.0;
    let s = Stc { keep_fraction: 1.0 };
    let got = s
        .compress(&mut ClientState::default(), &delta, 0, &mut rng(4))
        .payload;
    let want = spec::stc(
        &s,
        &mut ClientState::default(),
        &delta,
        top_k_spec::top_k_abs_indices,
    );
    let in_index_order = delta.iter().map(|v| v.abs()).sum::<f32>() / delta.len() as f32;
    let (Payload::SparseSign { mu: got_mu, .. }, Payload::SparseSign { mu: want_mu, .. }) =
        (&got, &want)
    else {
        panic!("STC sends sparse signs");
    };
    assert_eq!(got_mu.to_bits(), want_mu.to_bits());
    assert_ne!(got_mu.to_bits(), in_index_order.to_bits());
}
