//! Federated partitioners: how a global dataset is split across K clients.
//!
//! The paper uses 1000 clients with a non-IID label-skew partition for
//! MNIST/FMNIST (following its reference \[28\], the Dirichlet strategy),
//! IID random splits for PTB/WikiText-2 (100 clients, "randomly sample data
//! without overlap"), and a natural per-user partition for Reddit with
//! unequal sample counts.

use crate::dataset::{ImageSet, TextSet};
use fedbiad_tensor::rng::{stream, StreamTag};
use fedbiad_tensor::{init, math};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Image partition strategies.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ImagePartition {
    /// Uniform random split.
    Iid,
    /// McMahan-style shards: sort by label, slice into
    /// `clients * shards_per_client` shards, deal each client
    /// `shards_per_client` shards (each client sees few classes).
    Shards {
        /// Shards dealt to each client (2 in the original FedAvg paper).
        shards_per_client: usize,
    },
    /// Dirichlet label-skew: for each class, split its samples across
    /// clients with proportions drawn from Dir(α). Small α = more skew.
    Dirichlet {
        /// Concentration parameter α.
        alpha: f32,
    },
}

/// Split an image set into `clients` shards.
///
/// ```
/// use fedbiad_data::partition::{partition_images, ImagePartition};
/// use fedbiad_data::synth_image::SyntheticImageSpec;
///
/// let mut spec = SyntheticImageSpec::mnist_like();
/// spec.side = 8;
/// spec.train_n = 64;
/// spec.test_n = 16;
/// let (train, _test) = spec.generate(42);
/// let shards = partition_images(&train, 4, &ImagePartition::Dirichlet { alpha: 0.3 }, 42);
/// assert_eq!(shards.len(), 4);
/// assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), 64);
/// ```
pub fn partition_images(
    set: &ImageSet,
    clients: usize,
    strategy: &ImagePartition,
    seed: u64,
) -> Vec<ImageSet> {
    assert!(clients > 0, "need at least one client");
    let mut rng = stream(seed, StreamTag::Partition, 0, 0);
    let assignment: Vec<usize> = match strategy {
        ImagePartition::Iid => {
            let mut idx: Vec<usize> = (0..set.len()).collect();
            idx.shuffle(&mut rng);
            let mut owner = vec![0usize; set.len()];
            for (pos, &i) in idx.iter().enumerate() {
                owner[i] = pos % clients;
            }
            owner
        }
        ImagePartition::Shards { shards_per_client } => {
            let total_shards = clients * shards_per_client;
            let mut idx: Vec<usize> = (0..set.len()).collect();
            // Sort by label (stable on index for determinism).
            idx.sort_by_key(|&i| (set.y[i], i));
            // Deal shards to clients in shuffled order.
            let mut shard_ids: Vec<usize> = (0..total_shards).collect();
            shard_ids.shuffle(&mut rng);
            let shard_len = set.len().div_ceil(total_shards);
            let mut owner = vec![0usize; set.len()];
            for (pos, &i) in idx.iter().enumerate() {
                let shard = (pos / shard_len).min(total_shards - 1);
                owner[i] = shard_ids[shard] % clients;
            }
            owner
        }
        ImagePartition::Dirichlet { alpha } => {
            let classes = set.y.iter().map(|&y| y as usize + 1).max().unwrap_or(1);
            let mut owner = vec![0usize; set.len()];
            for c in 0..classes {
                let members: Vec<usize> =
                    (0..set.len()).filter(|&i| set.y[i] as usize == c).collect();
                if members.is_empty() {
                    continue;
                }
                let props = dirichlet(clients, *alpha, &mut rng);
                // Convert proportions to cumulative boundaries over the
                // shuffled member list.
                let mut shuffled = members.clone();
                shuffled.shuffle(&mut rng);
                let mut start = 0usize;
                for (k, &p) in props.iter().enumerate() {
                    let take = if k + 1 == clients {
                        shuffled.len() - start
                    } else {
                        ((p as f64) * shuffled.len() as f64).round() as usize
                    };
                    let end = (start + take).min(shuffled.len());
                    for &i in &shuffled[start..end] {
                        owner[i] = k;
                    }
                    start = end;
                }
            }
            owner
        }
    };

    let mut shards: Vec<ImageSet> = (0..clients).map(|_| ImageSet::empty(set.dim)).collect();
    for i in 0..set.len() {
        shards[assignment[i]].push(set.sample(i), set.y[i]);
    }
    shards
}

/// Sample from Dir(α, …, α) via normalised Gamma(α, 1) draws
/// (Marsaglia–Tsang for α ≥ 1, boost trick for α < 1).
fn dirichlet(k: usize, alpha: f32, rng: &mut impl Rng) -> Vec<f32> {
    let mut g: Vec<f32> = (0..k).map(|_| gamma_sample(alpha, rng)).collect();
    let sum: f32 = g.iter().sum::<f32>().max(1e-12);
    for v in &mut g {
        *v /= sum;
    }
    g
}

fn gamma_sample(alpha: f32, rng: &mut impl Rng) -> f32 {
    if alpha < 1.0 {
        // Boost: Gamma(α) = Gamma(α+1) · U^(1/α).
        let u: f32 = rng.gen::<f32>().max(1e-12);
        return gamma_sample(alpha + 1.0, rng) * u.powf(1.0 / alpha);
    }
    // Marsaglia–Tsang squeeze.
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = init::gaussian(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f32 = rng.gen::<f32>().max(1e-12);
        if math::ln(u) < 0.5 * x * x + d - d * v + d * math::ln(v) {
            return d * v;
        }
    }
}

/// Split a token stream into `clients` contiguous chunks ("randomly sample
/// data without overlap and allocate to 100 clients", §V-A — contiguous
/// chunks of a stationary stream are exchangeable, i.e. IID across
/// clients).
pub fn partition_text_contiguous(set: &TextSet, clients: usize) -> Vec<TextSet> {
    assert!(clients > 0);
    let per = set.tokens.len() / clients;
    assert!(per > set.seq_len, "not enough tokens per client");
    (0..clients)
        .map(|k| TextSet {
            tokens: set.tokens[k * per..(k + 1) * per].to_vec(),
            seq_len: set.seq_len,
        })
        .collect()
}

/// Per-user token counts for the Reddit-like dataset: "the top 100 users
/// with more data are chosen as clients, so that different clients have
/// different sample sizes" — a truncated Zipf profile over users.
pub fn reddit_user_sizes(users: usize, total_tokens: usize, seq_len: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..users)
        .map(|u| 1.0 / (1.0 + u as f64).powf(0.7))
        .collect();
    let sum: f64 = weights.iter().sum();
    let min_tokens = (seq_len + 1) * 2; // every user must yield ≥ 2 windows
    weights
        .iter()
        .map(|w| ((w / sum) * total_tokens as f64) as usize)
        .map(|n| n.max(min_tokens))
        .collect()
}

/// Label-distribution skew measure used in tests and experiment logs:
/// mean over clients of the total-variation distance between the client's
/// label histogram and the global histogram. 0 = perfectly IID.
pub fn label_skew(shards: &[ImageSet], classes: usize) -> f32 {
    let mut global = vec![0f64; classes];
    let mut total = 0f64;
    for s in shards {
        for &y in &s.y {
            global[y as usize] += 1.0;
            total += 1.0;
        }
    }
    for g in &mut global {
        *g /= total.max(1.0);
    }
    let mut skew = 0f64;
    let mut counted = 0usize;
    for s in shards {
        if s.is_empty() {
            continue;
        }
        let mut h = vec![0f64; classes];
        for &y in &s.y {
            h[y as usize] += 1.0;
        }
        let n = s.len() as f64;
        let tv: f64 = h
            .iter()
            .zip(&global)
            .map(|(a, g)| (a / n - g).abs())
            .sum::<f64>()
            / 2.0;
        skew += tv;
        counted += 1;
    }
    (skew / counted.max(1) as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labelled_set(n: usize, classes: usize) -> ImageSet {
        let mut s = ImageSet::empty(2);
        for i in 0..n {
            s.push(&[i as f32, 0.0], (i % classes) as u32);
        }
        s
    }

    #[test]
    fn iid_partition_conserves_samples_and_balances() {
        let set = labelled_set(1000, 10);
        let shards = partition_images(&set, 10, &ImagePartition::Iid, 1);
        assert_eq!(shards.iter().map(ImageSet::len).sum::<usize>(), 1000);
        for s in &shards {
            assert_eq!(s.len(), 100);
        }
        assert!(label_skew(&shards, 10) < 0.15);
    }

    #[test]
    fn shards_partition_is_more_skewed_than_iid() {
        let set = labelled_set(2000, 10);
        let iid = partition_images(&set, 20, &ImagePartition::Iid, 2);
        let sh = partition_images(
            &set,
            20,
            &ImagePartition::Shards {
                shards_per_client: 2,
            },
            2,
        );
        assert_eq!(sh.iter().map(ImageSet::len).sum::<usize>(), 2000);
        assert!(
            label_skew(&sh, 10) > 2.0 * label_skew(&iid, 10),
            "shards {} vs iid {}",
            label_skew(&sh, 10),
            label_skew(&iid, 10)
        );
    }

    #[test]
    fn dirichlet_small_alpha_is_very_skewed() {
        let set = labelled_set(2000, 10);
        let lo = partition_images(&set, 20, &ImagePartition::Dirichlet { alpha: 0.1 }, 3);
        let hi = partition_images(&set, 20, &ImagePartition::Dirichlet { alpha: 100.0 }, 3);
        assert_eq!(lo.iter().map(ImageSet::len).sum::<usize>(), 2000);
        assert_eq!(hi.iter().map(ImageSet::len).sum::<usize>(), 2000);
        assert!(label_skew(&lo, 10) > label_skew(&hi, 10));
    }

    #[test]
    fn partition_is_deterministic() {
        let set = labelled_set(500, 5);
        let a = partition_images(&set, 7, &ImagePartition::Dirichlet { alpha: 0.5 }, 9);
        let b = partition_images(&set, 7, &ImagePartition::Dirichlet { alpha: 0.5 }, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.y, y.y);
            assert_eq!(x.x, y.x);
        }
    }

    #[test]
    fn text_contiguous_split_covers_stream() {
        let t = TextSet {
            tokens: (0..1000).collect(),
            seq_len: 10,
        };
        let parts = partition_text_contiguous(&t, 8);
        assert_eq!(parts.len(), 8);
        assert!(parts.iter().all(|p| p.tokens.len() == 125));
        assert_eq!(parts[0].tokens[0], 0);
        assert_eq!(parts[1].tokens[0], 125);
    }

    #[test]
    fn reddit_sizes_are_unequal_and_positive() {
        let sizes = reddit_user_sizes(50, 100_000, 20);
        assert_eq!(sizes.len(), 50);
        assert!(sizes[0] > sizes[49], "head user should have more data");
        assert!(sizes.iter().all(|&s| s >= 42));
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = stream(1, StreamTag::Partition, 0, 9);
        for alpha in [0.1f32, 0.5, 1.0, 10.0] {
            let d = dirichlet(16, alpha, &mut rng);
            let s: f32 = d.iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "alpha {alpha}: sum {s}");
            assert!(d.iter().all(|&v| v >= 0.0));
        }
    }
}
