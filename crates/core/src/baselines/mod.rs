//! Baseline FL algorithms compared against FedBIAD in the paper's
//! evaluation (§V-A): FedAvg \[1\], FedDrop \[12\], AFD \[15\], FedMP \[27\],
//! FjORD \[14\] and HeteroFL \[43\].
//!
//! All of the dropout baselines share one client skeleton — fix a coverage
//! mask for the round, train the masked sub-model, upload it — and differ
//! only in *how the mask is chosen* and *where they are allowed to drop*
//! (none of them can touch recurrent connections except the width-scaling
//! pair FjORD/HeteroFL; none can drop output-vocabulary rows). They all
//! aggregate holders-only (each parameter averaged over the clients that
//! trained it), which is the aggregation those papers define.

mod afd;
mod fedavg;
mod feddrop;
mod fedmp;
mod fjord;
mod heterofl;

pub use afd::Afd;
pub use fedavg::FedAvg;
pub use feddrop::FedDrop;
pub use fedmp::FedMp;
pub use fjord::Fjord;
pub use heterofl::HeteroFl;

use crate::combo;
use fedbiad_compress::{ClientState as SketchState, Compressor};
use fedbiad_data::ClientData;
use fedbiad_fl::algorithm::{LocalResult, RoundInfo, TrainConfig};
use fedbiad_fl::client::{run_local_training, LocalHooks, LocalRunId};
use fedbiad_fl::upload::{Upload, UploadKind};
use fedbiad_nn::{Model, ModelMask, ParamSet};
use fedbiad_tensor::rng::{stream, StreamTag};

/// Hooks that keep gradients inside a fixed coverage mask.
pub(crate) struct MaskHooks<'a> {
    pub mask: &'a ModelMask,
}

impl LocalHooks for MaskHooks<'_> {
    fn mask_grads(&mut self, _v: usize, grads: &mut ParamSet) {
        self.mask.apply(grads);
    }
}

/// Shared client skeleton for the dropout baselines: mask the received
/// global, train the sub-model, upload it (optionally sketch-compressed).
#[allow(clippy::too_many_arguments)]
pub(crate) fn masked_local_update(
    info: RoundInfo,
    client_id: usize,
    global: &ParamSet,
    data: &ClientData,
    model: &dyn Model,
    cfg: &TrainConfig,
    mask: ModelMask,
    sketch: Option<&dyn Compressor>,
    sketch_state: &mut SketchState,
) -> LocalResult {
    let mut u = global.clone();
    mask.apply(&mut u);
    let id = LocalRunId {
        seed: info.seed,
        round: info.round,
        client: client_id,
    };
    let stats = run_local_training(id, model, data, cfg, &mut u, &mut MaskHooks { mask: &mask });

    let upload = match sketch {
        None => Upload::masked_weights(u, mask),
        Some(comp) => {
            let mut masked_u = u;
            mask.apply(&mut masked_u);
            let mut crng = stream(
                info.seed,
                StreamTag::Compress,
                info.round as u64,
                client_id as u64,
            );
            let out = combo::sketch_masked_weights(
                comp,
                sketch_state,
                &masked_u,
                global,
                &mask,
                info.round,
                &mut crng,
            );
            let overhead = mask.wire_bytes(&masked_u) - mask.kept_params(&masked_u) as u64 * 4;
            let wire_bytes = out.payload_bytes + overhead;
            // Mask bitmaps + compressed payload travel as real bytes; no
            // dense reconstruction anywhere.
            let msg = fedbiad_compress::codec::encode_weights_delta(&mask, &out.payload);
            debug_assert_eq!(msg.body_bytes(), wire_bytes);
            Upload::wire(UploadKind::Weights, msg, mask, wire_bytes)
        }
    };

    LocalResult {
        upload,
        train_loss: stats.mean_loss,
        loss_improvement: stats.improvement(),
        local_seconds: stats.seconds,
        num_samples: data.num_samples(),
    }
}

/// Round `rate · count` with a floor of 0 and ceiling `count − 1` (always
/// keep at least one unit per group).
pub(crate) fn units_to_drop(count: usize, rate: f32) -> usize {
    (((count as f64) * rate as f64).round() as usize).min(count.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_to_drop_rounds_and_clamps() {
        assert_eq!(units_to_drop(10, 0.2), 2);
        assert_eq!(units_to_drop(10, 0.55), 6);
        assert_eq!(units_to_drop(1, 0.9), 0);
        assert_eq!(units_to_drop(3, 0.99), 2);
    }
}
