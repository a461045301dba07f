//! Deterministic RNG streams.
//!
//! Every stochastic component of the reproduction — data synthesis,
//! partitioning, client sampling, dropping-pattern sampling, spike-and-slab
//! reparameterisation noise — owns the randomness of one
//! `(seed, tag, round, client)` tuple, mixed into a 64-bit [`stream_key`].
//! Two consequences:
//!
//! 1. experiments are bit-reproducible regardless of rayon scheduling,
//!    because no RNG is shared across threads, and
//! 2. changing one component's draw count cannot perturb another component
//!    (no accidental stream coupling).
//!
//! A key is read in one of two ways:
//!
//! * **sequentially** — [`stream`] seeds a [`StdRng`] with it. Every
//!   *discrete* draw goes this way (cohort sampling, partitioning, batch
//!   indices, dropping patterns, churn, simulator profiles): each consumes
//!   a data-dependent number of words (rejection, shuffles), and nobody
//!   skips part of one.
//! * **by index** — [`counter_word`]`(key, i)` is a pure function of the
//!   key and an element index. The Gaussian fields
//!   ([`math::gaussian`](crate::math::gaussian): FedBIAD's θ noise, the
//!   synthetic pixels) go this way, because their readers want element
//!   `i` without paying for `0..i`: a dropped row or a sample nobody reads
//!   costs nothing, and any evaluation order gives the same values.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Component tags for RNG stream separation. The numeric values are part of
/// the reproducibility contract — do not reorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamTag {
    /// Dataset synthesis.
    Data = 1,
    /// Partitioning data across clients.
    Partition = 2,
    /// Server-side client sampling per round.
    ClientSampling = 3,
    /// Dropping-pattern sampling (Z_S^N draws).
    Pattern = 4,
    /// Spike-and-slab reparameterisation noise θ = U + s̃·ε.
    PosteriorNoise = 5,
    /// Model weight initialisation.
    Init = 6,
    /// Mini-batch shuffling during local training.
    Batch = 7,
    /// Baseline-specific randomness (e.g. FedDrop unit choice).
    Baseline = 8,
    /// Compressor-internal randomness (e.g. DGC threshold sampling).
    Compress = 9,
    /// Static per-client heterogeneity sampling in the discrete-event
    /// simulator (compute-speed multiplier, link class).
    SimProfile = 10,
    /// Server-policy-internal randomness in the simulator (e.g. FedBuff
    /// replacement-client sampling).
    SimPolicy = 11,
    /// Per-dispatch compute-time jitter in the simulator.
    SimJitter = 12,
    /// Per-run seed derivation in the declarative scenario engine
    /// (`fedbiad-scenario`): `round` carries the run index, `client` the
    /// replicate index.
    Scenario = 13,
    /// Static byzantine-membership draw (`round` is always 0 — adversaries
    /// do not rotate between rounds).
    Adversary = 14,
    /// Per-`(round, client)` churn draws: offline first, mid-round dropout
    /// second, in that fixed order.
    Churn = 15,
}

/// SplitMix64's Weyl increment (the odd integer nearest 2⁶⁴/φ).
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// SplitMix64's two multipliers (Stafford's "Mix13").
const MIX_1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX_2: u64 = 0x94D0_49BB_1331_11EB;

/// SplitMix64 finaliser: scrambles a 64-bit state into a well-mixed output.
/// Used to turn structured `(seed, tag, round, client)` tuples into
/// independent-looking seeds.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(MIX_1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_2);
    z ^ (z >> 31)
}

/// The 64-bit key of stream `(seed, tag, round, client)`: the seed of
/// [`stream`]'s generator, and the address of the stream's index-addressed
/// values ([`counter_word`], [`math::gaussian`](crate::math::gaussian)).
///
/// `round`/`client` may be 0 for components that are not per-round or
/// per-client.
pub fn stream_key(seed: u64, tag: StreamTag, round: u64, client: u64) -> u64 {
    let mut s = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    s = splitmix64(s ^ (tag as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
    s = splitmix64(s ^ round.wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
    splitmix64(s ^ client.wrapping_mul(0x5899_65CC_7537_4CC3))
}

/// Word `i` of the stream `key`, with no word before it computed: a
/// counter-based generator in the sense of Salmon et al., "Parallel Random
/// Numbers: As Easy as 1, 2, 3" (SC'11).
///
/// The counter is SplitMix64's Weyl sequence `key + i·γ` and the two mixing
/// rounds are its finaliser; between them the key is injected a second time
/// (rotated by half a word). Without that every stream would be a window
/// onto one 2⁶⁴-cycle — keys `k` and `k + d·γ` the same words `d` apart;
/// with it that relation needs the rotated keys to agree as well, i.e.
/// `d = 0`.
///
/// ```
/// use fedbiad_tensor::rng::{counter_word, stream_key, StreamTag};
///
/// let key = stream_key(42, StreamTag::Data, 1, 7);
/// // Any order, any subset: element 1000 does not need elements 0..1000.
/// assert_eq!(counter_word(key, 1000), counter_word(key, 1000));
/// assert_ne!(counter_word(key, 1000), counter_word(key, 1001));
/// assert_ne!(counter_word(key, 1000), counter_word(key ^ 1, 1000));
/// ```
#[inline]
pub fn counter_word(key: u64, i: u64) -> u64 {
    counter_mix(key, key.wrapping_add(i.wrapping_mul(GAMMA)))
}

/// [`counter_word`] of the element whose counter `key + i·γ` is `z`: the
/// mixing rounds alone. The next element's counter is `z + GAMMA`, so a
/// loop over consecutive elements steps it with one add
/// (`math::gaussian_slice`).
#[inline(always)]
pub(crate) fn counter_mix(key: u64, mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MIX_1);
    z ^= key.rotate_left(32);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_2);
    z ^ (z >> 31)
}

/// Derive an independent sequential RNG stream for
/// `(seed, tag, round, client)`: a generator seeded with the tuple's
/// [`stream_key`].
///
/// ```
/// use fedbiad_tensor::rng::{stream, StreamTag};
/// use rand::Rng;
///
/// // Same tuple ⇒ same stream (bit-reproducible anywhere)…
/// let a: u64 = stream(42, StreamTag::Pattern, 3, 7).gen();
/// assert_eq!(a, stream(42, StreamTag::Pattern, 3, 7).gen());
/// // …different component ⇒ decoupled stream.
/// let b: u64 = stream(42, StreamTag::Batch, 3, 7).gen();
/// assert_ne!(a, b);
/// ```
pub fn stream(seed: u64, tag: StreamTag, round: u64, client: u64) -> StdRng {
    StdRng::seed_from_u64(stream_key(seed, tag, round, client))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_tuple_same_stream() {
        let mut a = stream(42, StreamTag::Pattern, 3, 7);
        let mut b = stream(42, StreamTag::Pattern, 3, 7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_components_decouple() {
        let mut a = stream(42, StreamTag::Pattern, 3, 7);
        let mut b = stream(42, StreamTag::PosteriorNoise, 3, 7);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_clients_decouple() {
        let mut a = stream(42, StreamTag::Batch, 1, 0);
        let mut b = stream(42, StreamTag::Batch, 1, 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn splitmix_avalanche_smoke() {
        // One-bit input changes should flip roughly half the output bits.
        let x = splitmix64(0);
        let y = splitmix64(1);
        let flipped = (x ^ y).count_ones();
        assert!((16..=48).contains(&flipped), "poor avalanche: {flipped}");
    }
}
