//! The adversary and churn models for robustness experiments.
//!
//! ## Threat model
//!
//! A **static** byzantine fraction: each registered client is drawn once
//! as honest or adversarial from [`StreamTag::Adversary`] (round index 0 —
//! membership never rotates, matching the classical byzantine-FL setting
//! where the attacker controls a fixed set of devices). An adversarial
//! client trains honestly and then *corrupts the upload it sends*: the
//! attack surface is the wire, not the local optimiser, so every attack
//! mode composes with every method, compressor, and engine unchanged.
//!
//! Corruption decodes the upload to its dense values
//! ([`crate::aggregate::decode_dense`]), maps every payload value through
//! the attack, and puts the result back on the wire as a dense-f32 frame
//! (which carries NaN/Inf bit patterns verbatim; uncovered positions are
//! not transmitted, so they stay exact zeros server-side) with the
//! **original** coverage and wire-byte accounting — a byzantine client
//! lies about values, not about how many bytes it transmitted, so byte
//! metrics and virtual link timings are unchanged.
//!
//! ## Churn model
//!
//! Mid-round client churn is drawn per `(round, client)` from
//! [`StreamTag::Churn`] in a fixed two-draw order: *offline* first (the
//! client never starts the round), *dropout* second (the client trains
//! but its upload is lost in transit). One function, [`churn_fate`],
//! makes both draws so the lock-step runner and the discrete-event
//! simulator can never disagree on a client's fate.

use crate::aggregate::{decode_dense, AggError};
use crate::upload::Upload;
use fedbiad_nn::ParamSet;
use fedbiad_tensor::rng::{stream, StreamTag};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What an adversarial client does to its upload values.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AttackMode {
    /// `v → −v`: the classical sign-flip (inner-product inversion) attack.
    SignFlip,
    /// `v → factor·v`: scaled-update attack (model-boosting for large
    /// factors, stealthy drift for factors near 1).
    Scale {
        /// The multiplier applied to every covered value.
        factor: f32,
    },
    /// Replace every covered value with garbage ([`GarbageKind`]).
    Garbage {
        /// Which garbage value is transmitted.
        kind: GarbageKind,
    },
}

/// The garbage value a [`AttackMode::Garbage`] client transmits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GarbageKind {
    /// NaN — caught by the value-finiteness screen
    /// ([`crate::aggregate::screen_upload_values`]), never by estimators.
    Nan,
    /// +∞ — likewise caught by the screen.
    Inf,
    /// A huge *finite* value (10³⁰): sails through the finiteness screen
    /// by construction, so only a robust estimator can absorb it.
    Huge,
}

impl AttackMode {
    /// The value map this attack applies to every covered payload value.
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            AttackMode::SignFlip => -v,
            AttackMode::Scale { factor } => factor * v,
            AttackMode::Garbage { kind } => match kind {
                GarbageKind::Nan => f32::NAN,
                GarbageKind::Inf => f32::INFINITY,
                GarbageKind::Huge => 1e30,
            },
        }
    }
}

/// The static byzantine adversary configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdversarySpec {
    /// Probability that a registered client is adversarial (drawn once
    /// per client, never per round).
    pub fraction: f32,
    /// What adversarial clients transmit.
    pub mode: AttackMode,
}

/// Mid-round churn configuration. Probabilities are independent
/// per `(round, client)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Probability a selected client is offline for the round (never
    /// starts; consumes no compute, transmits nothing).
    pub offline: f32,
    /// Probability a participating client's upload is lost mid-round
    /// (the client did the work; the server never sees the bytes).
    pub dropout: f32,
}

/// A selected client's churn fate for one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnFate {
    /// Participates normally.
    Healthy,
    /// Never starts the round.
    Offline,
    /// Trains, but the upload is lost in transit.
    Dropout,
}

/// Whether `client` is in the static adversarial set. Drawn from
/// [`StreamTag::Adversary`] at round 0 regardless of the current round,
/// so membership is a property of the client, not of the round.
pub fn is_adversary(seed: u64, fraction: f32, client: usize) -> bool {
    if fraction <= 0.0 {
        return false;
    }
    stream(seed, StreamTag::Adversary, 0, client as u64).gen_bool(f64::from(fraction).min(1.0))
}

/// The churn fate of `client` in `round`: two `gen_bool` draws from one
/// [`StreamTag::Churn`] stream in fixed order (offline first, dropout
/// second), so the runner and the simulator — which consult the fate at
/// different times — always agree.
pub fn churn_fate(seed: u64, round: usize, client: usize, spec: ChurnSpec) -> ChurnFate {
    let mut rng = stream(seed, StreamTag::Churn, round as u64, client as u64);
    let offline = spec.offline > 0.0 && rng.gen_bool(f64::from(spec.offline).min(1.0));
    let dropout = spec.dropout > 0.0 && rng.gen_bool(f64::from(spec.dropout).min(1.0));
    if offline {
        ChurnFate::Offline
    } else if dropout {
        ChurnFate::Dropout
    } else {
        ChurnFate::Healthy
    }
}

/// Corrupt one upload: decode its values against `base` (the global the
/// client trained from), map every value through the attack, and re-encode
/// with the original kind, coverage, and wire-byte accounting. The attack
/// owns covered values only: the frame does not carry dropped positions.
pub fn corrupt_upload(base: &ParamSet, u: &Upload, mode: AttackMode) -> Result<Upload, AggError> {
    let mut p = decode_dense(base, u)?;
    for e in 0..p.num_entries() {
        for v in p.mat_mut(e).as_mut_slice() {
            *v = mode.apply(*v);
        }
        for v in p.bias_mut(e) {
            *v = mode.apply(*v);
        }
    }
    Ok(u.with_values(&p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::upload_has_non_finite;
    use fedbiad_nn::mask::BitVec;
    use fedbiad_nn::params::{EntryMeta, LayerKind};
    use fedbiad_nn::ModelMask;
    use fedbiad_tensor::Matrix;

    fn params(v: f32) -> ParamSet {
        let mut p = ParamSet::new();
        p.push_entry(
            Matrix::full(4, 2, v),
            Some(vec![v; 4]),
            EntryMeta::new("w", LayerKind::DenseHidden, true, true),
        );
        p
    }

    #[test]
    fn membership_is_static_and_tracks_the_fraction() {
        let hit =
            |frac: f32| (0..2000).filter(|&c| is_adversary(7, frac, c)).count() as f64 / 2000.0;
        assert_eq!(hit(0.0), 0.0);
        let h = hit(0.2);
        assert!((0.15..0.25).contains(&h), "20% fraction drew {h}");
        // Static: the same client answers the same way every time.
        for c in 0..64 {
            assert_eq!(is_adversary(7, 0.2, c), is_adversary(7, 0.2, c));
        }
        // Seed-sensitive: a different seed draws a different set.
        let a: Vec<bool> = (0..256).map(|c| is_adversary(7, 0.3, c)).collect();
        let b: Vec<bool> = (0..256).map(|c| is_adversary(8, 0.3, c)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn churn_fates_are_deterministic_and_offline_wins() {
        let spec = ChurnSpec {
            offline: 1.0,
            dropout: 1.0,
        };
        // offline = 1 forces Offline even though dropout would also draw.
        assert_eq!(churn_fate(3, 0, 5, spec), ChurnFate::Offline);
        let spec = ChurnSpec {
            offline: 0.0,
            dropout: 1.0,
        };
        assert_eq!(churn_fate(3, 0, 5, spec), ChurnFate::Dropout);
        let spec = ChurnSpec {
            offline: 0.0,
            dropout: 0.0,
        };
        assert_eq!(churn_fate(3, 0, 5, spec), ChurnFate::Healthy);
        // Per-(round, client) independence: fates vary across rounds.
        let spec = ChurnSpec {
            offline: 0.5,
            dropout: 0.0,
        };
        let fates: Vec<ChurnFate> = (0..64).map(|r| churn_fate(3, r, 5, spec)).collect();
        assert!(fates.contains(&ChurnFate::Offline));
        assert!(fates.contains(&ChurnFate::Healthy));
    }

    #[test]
    fn sign_flip_corrupts_covered_values_only() {
        let base = params(0.5);
        let p = params(2.0);
        let mut beta = BitVec::new(4, true);
        beta.set(1, false);
        let mask = ModelMask::from_row_pattern(&p, &beta);
        let u = Upload::masked_weights(p, mask);
        let c = corrupt_upload(&base, &u, AttackMode::SignFlip).unwrap();
        assert!(c.wire_msg().is_some(), "an attacker sends bytes too");
        let got = decode_dense(&base, &c).unwrap();
        assert_eq!(got.mat(0).row(0), &[-2.0, -2.0]);
        // The dropped row stays exact zero — "not transmitted", not −0.
        let zero = 0.0f32.to_bits();
        assert!(got.mat(0).row(1).iter().all(|v| v.to_bits() == zero));
        assert_eq!(c.wire_bytes, u.wire_bytes);
        assert_eq!(c.kind, u.kind);
        assert_eq!(c.coverage, u.coverage);
    }

    /// What the server decodes from a corrupted upload is the attack
    /// applied to what it would have decoded from the honest one, bit for
    /// bit — on a sketched `WeightsDelta` frame (values are `base + δ`)
    /// and on a sparse `Delta` frame (unsent positions are attackable
    /// zeros), for finite and non-finite attacks alike.
    #[test]
    fn corruption_decodes_wire_bodies_against_the_broadcast_base() {
        use crate::upload::UploadKind;
        use fedbiad_compress::codec::{encode_delta, encode_weights_delta, Payload};
        let base = params(0.5);
        let mut beta = BitVec::new(4, true);
        beta.set(2, false);
        let mask = ModelMask::from_row_pattern(&base, &beta);
        // 3 kept rows × 2 + 3 kept biases = 9 covered scalars.
        let sketched = Upload::wire(
            UploadKind::Weights,
            encode_weights_delta(
                &mask,
                &Payload::Dense {
                    values: (0..9).map(|i| 0.25 * i as f32 - 1.0).collect(),
                },
            ),
            mask.clone(),
            77,
        );
        let delta = Upload::wire(
            UploadKind::Delta,
            encode_delta(&Payload::SparseF32 {
                len: 12,
                positions: vec![1, 7, 11],
                values: vec![3.0, -0.5, 8.0],
            }),
            ModelMask::full(&base),
            31,
        );
        let modes = [
            AttackMode::SignFlip,
            AttackMode::Scale { factor: 10.0 },
            AttackMode::Garbage {
                kind: GarbageKind::Nan,
            },
            AttackMode::Garbage {
                kind: GarbageKind::Inf,
            },
        ];
        for u in [&sketched, &delta] {
            for mode in modes {
                let c = corrupt_upload(&base, u, mode).unwrap();
                assert!(c.wire_msg().is_some(), "{mode:?}");
                assert_eq!((c.kind, c.wire_bytes), (u.kind, u.wire_bytes));
                assert_eq!(c.coverage, u.coverage);
                let mut want = decode_dense(&base, u).unwrap();
                for v in want.mat_mut(0).as_mut_slice() {
                    *v = mode.apply(*v);
                }
                for v in want.bias_mut(0) {
                    *v = mode.apply(*v);
                }
                u.coverage.apply(&mut want);
                let bits = |p: &ParamSet| -> Vec<u32> {
                    p.flatten().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(
                    bits(&decode_dense(&base, &c).unwrap()),
                    bits(&want),
                    "{:?} under {mode:?}",
                    u.kind
                );
            }
        }
    }

    #[test]
    fn garbage_kinds_split_on_the_finiteness_screen() {
        let base = params(0.0);
        let u = Upload::full_weights(params(1.0));
        for (kind, caught) in [
            (GarbageKind::Nan, true),
            (GarbageKind::Inf, true),
            (GarbageKind::Huge, false),
        ] {
            let c = corrupt_upload(&base, &u, AttackMode::Garbage { kind }).unwrap();
            assert_eq!(
                upload_has_non_finite(&base, &c).unwrap(),
                caught,
                "{kind:?}"
            );
        }
    }
}
