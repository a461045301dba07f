//! Combining row dropout with sketched compression (paper Fig. 5):
//! the client (1) drops rows, (2) compresses the variational parameters of
//! the remaining rows, (3) uploads the compressed payload + the 1-bit/row
//! pattern; the server decompresses and reconstructs β∘U before
//! aggregating.
//!
//! Implementation detail (DESIGN.md §4): the compressor operates on the
//! *delta* of the kept-row parameters against the received global (that is
//! what DGC-style accumulators are defined over), gathered into a compact
//! vector indexed by the kept flat positions. The client's residual /
//! velocity state lives at full length; only the kept positions are
//! gathered, updated, and scattered back — so mass parked on a dropped row
//! is transmitted when that row is next kept, and no error-feedback mass is
//! ever discarded.

use fedbiad_compress::codec::encode_weights_delta;
use fedbiad_compress::{ClientState as SketchState, Compressor};
use fedbiad_fl::algorithm::RoundInfo;
use fedbiad_fl::upload::{Upload, UploadKind};
use fedbiad_nn::mask::{walk_runs, FlatLayout, Run};
use fedbiad_nn::{ModelMask, ParamSet};
use fedbiad_tensor::rng::{stream, StreamTag};
use rand::rngs::StdRng;

/// Flat indices (in [`ParamSet::flatten`] order) covered by `mask`.
pub fn kept_flat_indices(params: &ParamSet, mask: &ModelMask) -> Vec<usize> {
    let layout = FlatLayout::of(params);
    let mut out = Vec::new();
    walk_runs(&mask.per_entry, &layout, 0, layout.total(), |run| {
        if let Run::Covered { local, n, .. } = run {
            out.extend(local..local + n);
        }
    });
    out
}

/// Result of sketching a masked-weights upload.
pub struct SketchOutcome {
    /// The compressor's payload over the covered-subvector delta — what
    /// the upload puts on the wire
    /// (`fedbiad_compress::codec::encode_weights_delta`); the server
    /// reconstructs β∘U as masked global + decoded delta.
    pub payload: fedbiad_compress::codec::Payload,
    /// Compressed payload bytes (excluding the dropping-pattern bits,
    /// which the caller adds).
    pub payload_bytes: u64,
}

/// Compress the kept-row delta of `masked_u` against `global`. Only the
/// positions `mask` covers are read.
pub fn sketch_masked_weights(
    comp: &dyn Compressor,
    state: &mut SketchState,
    masked_u: &ParamSet,
    global: &ParamSet,
    mask: &ModelMask,
    round: usize,
    rng: &mut StdRng,
) -> SketchOutcome {
    let fu = masked_u.flatten();
    let fg = global.flatten();
    let kept = kept_flat_indices(masked_u, mask);
    state.ensure_len(fu.len());

    // Gather the compact delta and the compact compressor state.
    let delta: Vec<f32> = kept.iter().map(|&i| fu[i] - fg[i]).collect();
    let mut tmp = SketchState {
        residual: kept.iter().map(|&i| state.residual[i]).collect(),
        velocity: kept.iter().map(|&i| state.velocity[i]).collect(),
    };
    let compressed = comp.compress(&mut tmp, &delta, round, rng);

    // Scatter state back; untouched (dropped) positions keep their mass.
    for (pos, &i) in kept.iter().enumerate() {
        state.residual[i] = tmp.residual[pos];
        state.velocity[i] = tmp.velocity[pos];
    }

    SketchOutcome {
        payload: compressed.payload,
        payload_bytes: compressed.wire_bytes,
    }
}

/// What a client that trained `u` under `mask` puts on the wire — the
/// one upload tail of every dropout method, FedBIAD included: the kept
/// values as they are, or, with a `sketch`, its payload over their delta
/// against `global` plus the pattern bits. Values of `u` that `mask`
/// drops are never read, so the caller need not zero them.
pub(crate) fn masked_upload(
    info: RoundInfo,
    client_id: usize,
    u: ParamSet,
    global: &ParamSet,
    mask: ModelMask,
    sketch: Option<&dyn Compressor>,
    state: &mut SketchState,
) -> Upload {
    let Some(comp) = sketch else {
        return Upload::masked_weights(u, mask);
    };
    let mut crng = stream(
        info.seed,
        StreamTag::Compress,
        info.round as u64,
        client_id as u64,
    );
    let out = sketch_masked_weights(comp, state, &u, global, &mask, info.round, &mut crng);
    // Wire = compressed payload + the dropping pattern's bitmaps, as
    // real bytes; no dense reconstruction anywhere.
    let pattern_overhead = mask.wire_bytes(&u) - mask.kept_params(&u) as u64 * 4;
    let wire_bytes = out.payload_bytes + pattern_overhead;
    let msg = encode_weights_delta(&mask, &out.payload);
    debug_assert_eq!(msg.body_bytes(), wire_bytes);
    Upload::wire(UploadKind::Weights, msg, mask, wire_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_compress::none::NoCompression;
    use fedbiad_nn::mask::BitVec;
    use fedbiad_nn::params::{EntryMeta, LayerKind};
    use fedbiad_tensor::rng::{stream, StreamTag};
    use fedbiad_tensor::Matrix;

    fn params(v: f32) -> ParamSet {
        let mut p = ParamSet::new();
        p.push_entry(
            Matrix::full(3, 2, v),
            Some(vec![v; 3]),
            EntryMeta::new("w", LayerKind::DenseHidden, true, true),
        );
        p
    }

    /// What the server reconstructs from the sketched upload: β∘U as
    /// masked global + decoded delta.
    fn server_side(out: &SketchOutcome, mask: &ModelMask, global: &ParamSet) -> ParamSet {
        use fedbiad_fl::upload::{Upload, UploadKind};
        let msg = fedbiad_compress::codec::encode_weights_delta(mask, &out.payload);
        let u = Upload::wire(UploadKind::Weights, msg, mask.clone(), out.payload_bytes);
        fedbiad_fl::aggregate::decode_dense(global, &u).unwrap()
    }

    fn row_mask(p: &ParamSet, kept: [bool; 3]) -> ModelMask {
        let mut beta = BitVec::new(3, true);
        for (r, &k) in kept.iter().enumerate() {
            beta.set(r, k);
        }
        ModelMask::from_row_pattern(p, &beta)
    }

    #[test]
    fn kept_indices_follow_flatten_order() {
        let p = params(1.0);
        let mask = row_mask(&p, [true, false, true]);
        let idx = kept_flat_indices(&p, &mask);
        // Rows 0 and 2 of the 3×2 matrix: flat 0,1,4,5; biases 0 and 2:
        // flat 6 and 8.
        assert_eq!(idx, vec![0, 1, 4, 5, 6, 8]);
    }

    #[test]
    fn identity_compressor_reconstructs_masked_u_exactly() {
        let global = params(1.0);
        let mut u = params(1.0);
        u.mat_mut(0).set(0, 0, 5.0);
        u.mat_mut(0).set(2, 1, -3.0);
        let mask = row_mask(&global, [true, false, true]);
        let mut masked_u = u.clone();
        mask.apply(&mut masked_u);
        let mut st = SketchState::default();
        let mut rng = stream(1, StreamTag::Compress, 0, 0);
        let out = sketch_masked_weights(
            &NoCompression,
            &mut st,
            &masked_u,
            &global,
            &mask,
            0,
            &mut rng,
        );
        let rec = server_side(&out, &mask, &global);
        assert_eq!(rec.flatten(), masked_u.flatten());
        // Payload covers exactly the kept scalars.
        assert_eq!(out.payload.sent_values(), 6);
        assert_eq!(out.payload_bytes, 6 * 4);
    }

    #[test]
    fn dropped_row_state_survives_until_rekept() {
        use fedbiad_compress::stc::Stc;
        let global = params(0.0);
        let mut u = params(0.0);
        u.mat_mut(0).set(1, 0, 4.0); // mass on row 1
        u.mat_mut(0).set(0, 0, 8.0);
        let comp = Stc { keep_fraction: 0.2 }; // k = 2 of 6-ish kept values
        let mut st = SketchState::default();
        let mut rng = stream(2, StreamTag::Compress, 0, 0);

        // Round 0: row 1 dropped — its delta must NOT touch the residual.
        let mask0 = row_mask(&global, [true, false, true]);
        let mut mu0 = u.clone();
        mask0.apply(&mut mu0);
        let _ = sketch_masked_weights(&comp, &mut st, &mu0, &global, &mask0, 0, &mut rng);
        // Flat index of (row1, col0) is 2.
        assert_eq!(st.residual[2], 0.0, "dropped row has no residual yet");

        // Round 1: row 1 kept — its delta flows through the compressor and
        // (with top-k selection) the residual/decoded split conserves it.
        let mask1 = row_mask(&global, [false, true, true]);
        let mut mu1 = u.clone();
        mask1.apply(&mut mu1);
        let out = sketch_masked_weights(&comp, &mut st, &mu1, &global, &mask1, 1, &mut rng);
        let recon = server_side(&out, &mask1, &global).mat(0).get(1, 0);
        let resid = st.residual[2];
        assert!(
            (recon + resid - 4.0).abs() < 1e-5,
            "mass conservation: recon {recon} + residual {resid} ≠ 4"
        );
    }
}
