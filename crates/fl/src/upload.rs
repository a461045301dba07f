//! What a client sends to the server each round.
//!
//! **One path:** every upload a client produces carries real encoded
//! bytes ([`UploadBody::Wire`], a [`WireMsg`] of the `fedbiad-compress`
//! codec) — FedBIAD's contribution is what travels on the uplink (eq. (7):
//! only the non-dropped rows), so the bytes are made, not merely counted.
//! The server decodes them shard by shard during aggregation and never
//! materialises a dense per-client `ParamSet`.
//!
//! **One oracle:** [`UploadBody::Dense`] is the decoded twin of a wire
//! body ([`crate::aggregate::dense_twin`]). No client produces it; it
//! exists so the equivalence suites and the benchmark's `server_reduce`
//! oracle can hand the retained dense reference engine the same cohort
//! and demand the same bits. Which engine aggregates is decided by the
//! bodies a cohort carries, never by an option (see [`crate::aggregate`]).

use fedbiad_compress::codec::{encode_delta, encode_weights, Payload, WireMsg};
use fedbiad_nn::{ModelMask, ParamSet};

/// Payload semantics of an upload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UploadKind {
    /// Masked *weights* β∘U (federated-dropout methods; aggregated by
    /// weighted averaging per eq. (10) or holders-only).
    Weights,
    /// A model *delta* U_local − U_global (sketched-compression methods;
    /// the server adds the weighted mean of deltas to the global model).
    Delta,
}

/// The payload representation an [`Upload`] carries.
#[derive(Clone, Debug)]
pub enum UploadBody {
    /// Decoded dense twin of a wire body — the reference engine's input,
    /// built by tests and oracles only.
    Dense(ParamSet),
    /// Encoded wire bytes — what every client sends.
    Wire(WireMsg),
}

/// A client's per-round upload: payload + coverage + the exact bytes it
/// occupies on the wire.
#[derive(Clone, Debug)]
pub struct Upload {
    /// Payload semantics.
    pub kind: UploadKind,
    /// The payload. For `Weights` the dense form is β∘U (non-covered
    /// entries zero); for `Delta` it is the (decoded) delta.
    pub body: UploadBody,
    /// Which parameters the client actually trained/transmitted.
    pub coverage: ModelMask,
    /// Exact uplink bytes, including pattern/position overhead. For an
    /// honest client this equals the encoded body length
    /// (`tests/byte_accounting.rs`).
    pub wire_bytes: u64,
}

impl Upload {
    /// Full-model weights upload (FedAvg).
    pub fn full_weights(params: ParamSet) -> Self {
        let coverage = ModelMask::full(&params);
        Self::masked_weights(params, coverage)
    }

    /// Masked weights upload: the values of `params` that `coverage`
    /// keeps, encoded. Dropped values are never read (the encoder gathers
    /// covered values only), so the caller need not zero them.
    pub fn masked_weights(params: ParamSet, coverage: ModelMask) -> Self {
        let wire_bytes = coverage.wire_bytes(&params);
        let msg = encode_weights(&params, &coverage);
        debug_assert_eq!(msg.body_bytes(), wire_bytes);
        Self::wire(UploadKind::Weights, msg, coverage, wire_bytes)
    }

    /// An upload built directly from encoded bytes (sketched deltas and
    /// the Fig. 5 dropout + compression combos).
    pub fn wire(kind: UploadKind, msg: WireMsg, coverage: ModelMask, wire_bytes: u64) -> Self {
        Self {
            kind,
            body: UploadBody::Wire(msg),
            coverage,
            wire_bytes,
        }
    }

    /// This upload's kind, coverage and byte accounting around new
    /// `values`, re-encoded as a dense-f32 frame (which carries NaN/Inf
    /// bit patterns verbatim): the covered values of a `Weights` upload,
    /// every value of a `Delta`. What a byzantine client puts on the wire
    /// and what norm clipping hands on — both change values, neither the
    /// bytes the honest upload was charged for.
    pub(crate) fn with_values(&self, values: &ParamSet) -> Self {
        let msg = match self.kind {
            UploadKind::Weights => encode_weights(values, &self.coverage),
            UploadKind::Delta => encode_delta(&Payload::Dense {
                values: values.flatten(),
            }),
        };
        Self::wire(self.kind, msg, self.coverage.clone(), self.wire_bytes)
    }

    /// The encoded bytes, when this upload travels in wire form.
    pub fn wire_msg(&self) -> Option<&WireMsg> {
        match &self.body {
            UploadBody::Wire(m) => Some(m),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{decode_dense, dense_twin};
    use fedbiad_nn::mask::BitVec;
    use fedbiad_nn::params::{EntryMeta, LayerKind};
    use fedbiad_tensor::Matrix;

    fn params() -> ParamSet {
        let mut p = ParamSet::new();
        p.push_entry(
            Matrix::full(4, 2, 1.0),
            None,
            EntryMeta::new("w", LayerKind::DenseHidden, false, true),
        );
        p
    }

    #[test]
    fn full_upload_bytes_match_paramset() {
        let p = params();
        let u = Upload::full_weights(p.clone());
        assert_eq!(u.wire_bytes, p.total_bytes());
        assert_eq!(u.kind, UploadKind::Weights);
        assert_eq!(u.wire_msg().expect("wire body").body_bytes(), u.wire_bytes);
    }

    #[test]
    fn masked_upload_zeroes_and_discounts() {
        let p = params();
        let mut beta = BitVec::new(4, true);
        beta.set(1, false);
        beta.set(3, false);
        let mask = fedbiad_nn::ModelMask::from_row_pattern(&p, &beta);
        // No caller-side zeroing: the dropped rows still hold 1.0 here,
        // and the server still reconstructs them as zeros.
        let u = Upload::masked_weights(p.clone(), mask);
        let twin = decode_dense(&p, &u).unwrap();
        assert_eq!(twin.mat(0).row(1), &[0.0, 0.0]);
        assert_eq!(twin.mat(0).row(0), &[1.0, 1.0]);
        // 4 kept weights × 4 B + 1 pattern byte.
        assert_eq!(u.wire_bytes, 16 + 1);
        assert!(u.wire_bytes < p.total_bytes());
    }

    #[test]
    fn streaming_constructor_encodes_with_matching_bytes() {
        let p = params();
        let mut beta = BitVec::new(4, true);
        beta.set(2, false);
        let mask = fedbiad_nn::ModelMask::from_row_pattern(&p, &beta);
        let u = Upload::masked_weights(p.clone(), mask.clone());
        let msg = u.wire_msg().expect("clients always put bytes on the wire");
        assert_eq!(msg.body_bytes(), u.wire_bytes);
        assert_eq!(u.wire_bytes, mask.wire_bytes(&p));
        // The oracle's dense twin reports identical bytes.
        let d = dense_twin(&p, &u).unwrap();
        assert_eq!(d.wire_bytes, u.wire_bytes);
        assert!(d.wire_msg().is_none());
    }
}
