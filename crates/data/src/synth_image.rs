//! Class-conditional synthetic image generator ("MNIST-like" /
//! "FMNIST-like").
//!
//! Each class owns a few smooth prototypes built from random Gaussian
//! bumps; a sample is a randomly chosen prototype, randomly translated,
//! plus pixel noise. A `distinctiveness` knob blends class-specific bumps
//! with bumps shared across classes:
//!
//! * MNIST-like: high distinctiveness, low noise → easy (a 1-hidden-layer
//!   MLP reaches high-90s accuracy, as on real MNIST);
//! * FMNIST-like: low distinctiveness, higher noise → measurably harder
//!   (low-80s), matching the paper's ordering (Table I: 95% vs 81-83%).

use crate::dataset::{ClientData, ImageSet};
use fedbiad_tensor::init::{box_muller, gaussian_uniforms};
use fedbiad_tensor::rng::{stream, StreamTag};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Class prototypes, `[class][prototype]` → image.
pub(crate) type Prototypes = Vec<Vec<Vec<f32>>>;

/// Parameters of the synthetic image distribution.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SyntheticImageSpec {
    /// Number of classes (paper datasets: 10).
    pub classes: usize,
    /// Image side length (28 → 784 features).
    pub side: usize,
    /// Training samples to generate (split across classes uniformly).
    pub train_n: usize,
    /// Test samples to generate.
    pub test_n: usize,
    /// Prototypes per class (intra-class variation).
    pub prototypes_per_class: usize,
    /// Gaussian bumps per prototype.
    pub bumps: usize,
    /// Blend of class-specific vs shared structure in \[0,1\]; 1 = fully
    /// class-specific (easy), 0 = classes indistinguishable.
    pub distinctiveness: f32,
    /// Std-dev of additive pixel noise.
    pub noise: f32,
    /// Maximum random translation in pixels.
    pub shift_max: usize,
}

impl SyntheticImageSpec {
    /// Easy 10-class task standing in for MNIST. Tuned so a 128-hidden MLP
    /// under 100-client non-IID FL lands in the paper's mid-90s band
    /// (Table I: 94.5–95.2 %) rather than saturating.
    pub fn mnist_like() -> Self {
        Self {
            classes: 10,
            side: 28,
            train_n: 6_000,
            test_n: 1_000,
            prototypes_per_class: 4,
            bumps: 6,
            distinctiveness: 0.82,
            noise: 0.25,
            shift_max: 2,
        }
    }

    /// Harder 10-class task standing in for Fashion-MNIST: prototypes share
    /// most structure across classes and noise is higher (paper band:
    /// low 80s, clearly below the MNIST band).
    pub fn fmnist_like() -> Self {
        Self {
            classes: 10,
            side: 28,
            train_n: 6_000,
            test_n: 1_000,
            prototypes_per_class: 5,
            bumps: 6,
            distinctiveness: 0.62,
            noise: 0.30,
            shift_max: 3,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.side * self.side
    }

    /// Generate (train, test) deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> (ImageSet, ImageSet) {
        let mut rng = stream(seed, StreamTag::Data, 0, 0);
        let protos = self.build_prototypes(&mut rng);
        let train = self.sample_set(self.train_n, &protos, &mut rng);
        let test = self.sample_set(self.test_n, &protos, &mut rng);
        (train, test)
    }

    /// Prototype images per class (blend of shared and class bumps).
    pub(crate) fn build_prototypes(&self, rng: &mut impl Rng) -> Prototypes {
        let dim = self.dim();
        // Shared bumps: one pool reused by every class.
        let shared: Vec<Vec<f32>> = (0..self.prototypes_per_class)
            .map(|_| self.render_bumps(rng))
            .collect();
        (0..self.classes)
            .map(|_| {
                (0..self.prototypes_per_class)
                    .map(|p| {
                        let own = self.render_bumps(rng);
                        let mut img = vec![0.0f32; dim];
                        let d = self.distinctiveness;
                        for i in 0..dim {
                            img[i] = d * own[i] + (1.0 - d) * shared[p][i];
                        }
                        img
                    })
                    .collect()
            })
            .collect()
    }

    /// Render one smooth image from random Gaussian bumps, normalised to
    /// peak 1.0.
    fn render_bumps(&self, rng: &mut impl Rng) -> Vec<f32> {
        let s = self.side as f32;
        let mut img = vec![0.0f32; self.dim()];
        for _ in 0..self.bumps {
            let cx: f32 = rng.gen_range(0.15 * s..0.85 * s);
            let cy: f32 = rng.gen_range(0.15 * s..0.85 * s);
            let sigma: f32 = rng.gen_range(0.06 * s..0.16 * s);
            let amp: f32 = rng.gen_range(0.4..1.0);
            let inv2s2 = 1.0 / (2.0 * sigma * sigma);
            for yy in 0..self.side {
                for xx in 0..self.side {
                    let dx = xx as f32 - cx;
                    let dy = yy as f32 - cy;
                    img[yy * self.side + xx] += amp * (-(dx * dx + dy * dy) * inv2s2).exp();
                }
            }
        }
        let peak = img.iter().copied().fold(0.0f32, f32::max).max(1e-6);
        for v in &mut img {
            *v /= peak;
        }
        img
    }

    pub(crate) fn sample_set(&self, n: usize, protos: &Prototypes, rng: &mut impl Rng) -> ImageSet {
        let mut set = ImageSet::empty(self.dim());
        let mut buf = vec![0.0f32; self.dim()];
        for i in 0..n {
            self.sample::<true>(i, protos, rng, &mut buf);
            set.push(&buf, self.label(i));
        }
        set
    }

    /// Label of sample `i` of any set: classes are balanced round-robin.
    fn label(&self, i: usize) -> u32 {
        (i % self.classes) as u32
    }

    /// Sample `i` of a set — the draws [`sample_set`](Self::sample_set)
    /// makes for it, in order: prototype, x shift, y shift, then two
    /// uniforms per pixel. With `STORE` the pixels land in `out` (`dim`
    /// long). Without it `out` is not touched and the stream only
    /// *advances*: no Box–Muller, no clamp, no store. Both are this one
    /// body, so they leave `rng` in the same state by construction — which
    /// is what lets [`ShardReader`] step over a sample nobody reads and
    /// still hand the next one the stream a whole-shard pass would have.
    fn sample<const STORE: bool>(
        &self,
        i: usize,
        protos: &Prototypes,
        rng: &mut impl Rng,
        out: &mut [f32],
    ) {
        let proto = &protos[i % self.classes][rng.gen_range(0..self.prototypes_per_class)];
        let sx = rng.gen_range(-(self.shift_max as i32)..=self.shift_max as i32);
        let sy = rng.gen_range(-(self.shift_max as i32)..=self.shift_max as i32);
        for yy in 0..self.side {
            for xx in 0..self.side {
                let (u1, u2) = gaussian_uniforms(rng);
                if !STORE {
                    continue;
                }
                let ox = xx as i32 - sx;
                let oy = yy as i32 - sy;
                let base = if ox >= 0 && ox < self.side as i32 && oy >= 0 && oy < self.side as i32 {
                    proto[oy as usize * self.side + ox as usize]
                } else {
                    0.0
                };
                let noisy = base + self.noise * box_muller(u1, u2);
                out[yy * self.side + xx] = noisy.clamp(0.0, 1.0);
            }
        }
    }
}

/// Sub-stream of `StreamTag::Data` feeding lazy client `c`'s samples
/// (the eager `generate` path owns sub-stream 0).
const LAZY_CLIENT_STREAM: u64 = 1;

/// Sub-stream of `StreamTag::Data` feeding the lazy held-out test set.
const LAZY_TEST_STREAM: u64 = 2;

/// Lazily generated per-client image shards for huge registered
/// populations.
///
/// The eager path materializes every client's `ClientData` up front —
/// O(K · samples) memory, which is what caps the simulator at ~10^4
/// registered clients. `LazyClients` stores only the generator inputs
/// (spec + seed + the class prototypes, a few kB behind an `Arc`) and
/// hands out [`LazyShard`] views: a lookup is O(1), and a sample of
/// client `c` is derived from the client's dedicated RNG stream
/// `stream(seed, StreamTag::Data, 1, c)` when somebody reads it.
///
/// Every client holds `samples_per_client` samples with balanced classes
/// (`class = i % classes` inside the shard), so `num_samples` and
/// `min_client_samples` are analytic — no enumeration is ever needed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LazyClients {
    /// Generator parameters shared by every client.
    pub spec: SyntheticImageSpec,
    /// Seed feeding the per-client streams.
    pub seed: u64,
    /// Registered client count K.
    pub num_clients: usize,
    /// Samples per client (constant across clients by construction).
    pub samples_per_client: usize,
    /// Class prototypes, built once (classes × prototypes_per_class
    /// images — kilobytes, not gigabytes) and shared by every view.
    protos: Arc<Prototypes>,
}

impl LazyClients {
    /// Build the shared prototypes and the lazy handle; no per-client
    /// state is allocated.
    pub fn new(
        spec: SyntheticImageSpec,
        seed: u64,
        num_clients: usize,
        samples_per_client: usize,
    ) -> Self {
        let mut rng = stream(seed, StreamTag::Data, 0, 0);
        let protos = Arc::new(spec.build_prototypes(&mut rng));
        Self {
            spec,
            seed,
            num_clients,
            samples_per_client,
            protos,
        }
    }

    /// Client `c`'s shard as a view — O(1); nothing is derived until a
    /// [`ShardReader`] reads a sample or the view is materialised.
    pub fn shard(&self, c: usize) -> LazyShard {
        // An invariant, not input validation: ids come from the cohort
        // samplers (`fl::round::sample_clients_with`) and FedBuff's
        // replacement draw, all bounded by `num_clients`.
        assert!(
            c < self.num_clients,
            "client {c} out of range (K = {})",
            self.num_clients
        );
        LazyShard {
            clients: self.clone(),
            client: c,
        }
    }

    /// Client `c`'s whole shard in one sequential pass — a pure function
    /// of (spec, seed, c). This is the **specification** of a lazy
    /// shard's content: whatever a [`ShardReader`] derives must equal it
    /// bit for bit.
    pub fn client_data(&self, c: usize) -> ClientData {
        ClientData::Image(self.shard(c).materialize())
    }

    /// The held-out test set — its own sub-stream, disjoint from every
    /// client's.
    pub fn test_set(&self, test_n: usize) -> ClientData {
        let mut rng = stream(self.seed, StreamTag::Data, LAZY_TEST_STREAM, 0);
        ClientData::Image(self.spec.sample_set(test_n, &self.protos, &mut rng))
    }
}

/// One lazy client's shard as a **view**: the generator handle and a
/// client id. Size, feature dimension and labels are analytic; pixels
/// exist only once a [`ShardReader`] derives them (training reads a
/// fraction of the shard) or [`materialize`](Self::materialize) runs the
/// whole-shard pass (evaluation, differential tests).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LazyShard {
    clients: LazyClients,
    client: usize,
}

impl LazyShard {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.clients.samples_per_client
    }

    /// `true` when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.clients.spec.dim()
    }

    /// The stream feeding this client's samples, before the first draw.
    fn stream(&self) -> StdRng {
        let id = self.client as u64;
        stream(self.clients.seed, StreamTag::Data, LAZY_CLIENT_STREAM, id)
    }

    /// Every sample, resident: one sequential pass over the stream, the
    /// same one [`SyntheticImageSpec::generate`] makes over its pool.
    pub fn materialize(&self) -> ImageSet {
        let LazyClients { spec, protos, .. } = &self.clients;
        spec.sample_set(self.len(), protos, &mut self.stream())
    }

    /// A reader that derives samples as they are read. It owns all its
    /// scratch, so one per local run keeps the view itself `Sync` and
    /// nothing shared between workers.
    pub fn reader(&self) -> ShardReader<'_> {
        let mut starts = Vec::with_capacity(self.len() + 1);
        starts.push(self.stream());
        ShardReader {
            shard: self,
            starts,
            rows: vec![0.0; self.len() * self.dim()],
            have: vec![false; self.len()],
            derived: 0,
        }
    }
}

/// Derives a [`LazyShard`]'s samples the first time each is read.
///
/// A shard is one sequential RNG stream, so sample `i` can only start
/// from the state the samples before it leave behind. The reader keeps
/// that state for every sample the stream has reached: a sample that is
/// read is derived once into a row memo, a sample passed over on the way
/// is only *advanced* (draw for draw, no pixel computed — and derived
/// later from its remembered start if the batch stream comes back to
/// it), and the tail beyond the highest index read costs nothing.
///
/// Worst case: a run that reads every sample pays the whole-shard pass
/// plus at most one advance over each sample (≈ a tenth of its cost).
#[derive(Debug)]
pub struct ShardReader<'a> {
    shard: &'a LazyShard,
    /// `starts[i]`: the stream just before sample `i`'s first draw, for
    /// every sample reached so far plus the one the stream stands at.
    starts: Vec<StdRng>,
    /// `len × dim` row memo; row `i` is valid iff `have[i]`.
    rows: Vec<f32>,
    have: Vec<bool>,
    derived: usize,
}

impl ShardReader<'_> {
    /// Sample `i`'s pixels, derived now unless already memoised.
    pub fn sample(&mut self, i: usize) -> &[f32] {
        let dim = self.shard.dim();
        let row = i * dim..(i + 1) * dim;
        if !self.have[i] {
            let LazyClients { spec, protos, .. } = &self.shard.clients;
            for j in self.starts.len() - 1..i {
                let mut rng = self.starts[j].clone();
                spec.sample::<false>(j, protos, &mut rng, &mut []);
                self.starts.push(rng);
            }
            let mut rng = self.starts[i].clone();
            spec.sample::<true>(i, protos, &mut rng, &mut self.rows[row.clone()]);
            if self.starts.len() == i + 1 {
                self.starts.push(rng);
            }
            self.have[i] = true;
            self.derived += 1;
        }
        &self.rows[row]
    }

    /// [`ImageSet::gather`] over the view: copy the samples at `idx` into
    /// contiguous batch buffers.
    pub fn gather(&mut self, idx: &[usize], bx: &mut Vec<f32>, by: &mut Vec<u32>) {
        bx.clear();
        by.clear();
        for &i in idx {
            bx.extend_from_slice(self.sample(i));
            by.push(self.shard.clients.spec.label(i));
        }
    }

    /// Samples whose pixels were computed so far.
    pub fn derived(&self) -> usize {
        self.derived
    }

    /// Samples the stream stepped over that were never read. With
    /// [`derived`](Self::derived) they partition the prefix of the shard
    /// the run touched; the rest of the shard cost nothing.
    pub fn advanced(&self) -> usize {
        self.starts.len() - 1 - self.derived
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SyntheticImageSpec {
        SyntheticImageSpec {
            classes: 4,
            side: 8,
            train_n: 200,
            test_n: 80,
            prototypes_per_class: 2,
            bumps: 3,
            distinctiveness: 0.9,
            noise: 0.1,
            shift_max: 1,
        }
    }

    #[test]
    fn generation_is_deterministic_and_shaped() {
        let spec = small_spec();
        let (tr1, te1) = spec.generate(7);
        let (tr2, _) = spec.generate(7);
        assert_eq!(tr1.x, tr2.x);
        assert_eq!(tr1.len(), 200);
        assert_eq!(te1.len(), 80);
        assert_eq!(tr1.dim, 64);
        assert!(tr1.x.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn different_seeds_differ() {
        let spec = small_spec();
        let (a, _) = spec.generate(1);
        let (b, _) = spec.generate(2);
        assert_ne!(a.x, b.x);
    }

    #[test]
    fn classes_are_balanced() {
        let spec = small_spec();
        let (tr, _) = spec.generate(3);
        let mut counts = [0usize; 4];
        for &y in &tr.y {
            counts[y as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 50), "{counts:?}");
    }

    /// A nearest-class-mean classifier must beat chance comfortably on the
    /// easy spec — the datasets have to be learnable for the FL experiments
    /// to be meaningful.
    #[test]
    fn nearest_mean_beats_chance_on_easy_spec() {
        // Average over seeds: any single draw of the tiny 4-class spec can
        // land a pair of look-alike prototypes, so pinning one seed makes
        // the test a lottery on the RNG stream rather than a statement
        // about the generator.
        let spec = small_spec();
        let seeds = [11u64, 12, 13, 14, 15];
        let mut total = 0.0f32;
        for &seed in &seeds {
            let (tr, te) = spec.generate(seed);
            let dim = tr.dim;
            let mut means = vec![vec![0.0f32; dim]; spec.classes];
            let mut counts = vec![0f32; spec.classes];
            for i in 0..tr.len() {
                let c = tr.y[i] as usize;
                for (m, &v) in means[c].iter_mut().zip(tr.sample(i)) {
                    *m += v;
                }
                counts[c] += 1.0;
            }
            for (m, &c) in means.iter_mut().zip(&counts) {
                for v in m.iter_mut() {
                    *v /= c;
                }
            }
            let mut correct = 0;
            for i in 0..te.len() {
                let xs = te.sample(i);
                let mut best = 0;
                let mut best_d = f32::INFINITY;
                for (c, m) in means.iter().enumerate() {
                    let d: f32 = m.iter().zip(xs).map(|(a, b)| (a - b) * (a - b)).sum();
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if best as u32 == te.y[i] {
                    correct += 1;
                }
            }
            let acc = correct as f32 / te.len() as f32;
            assert!(acc > 0.35, "seed {seed} worse than near-chance: {acc}");
            total += acc;
        }
        // Chance on 4 classes is 0.25; the tiny 8×8/3-bump spec hovers
        // around ~0.6 for nearest-mean, so demand a clear 2× margin over
        // chance rather than a knife-edge threshold.
        let mean_acc = total / seeds.len() as f32;
        assert!(
            mean_acc > 0.5,
            "easy spec should be separable, mean acc = {mean_acc}"
        );
    }

    /// The FMNIST-like spec must be harder than the MNIST-like one for the
    /// same classifier (hardness ordering of the paper).
    #[test]
    fn fmnist_like_is_harder_than_mnist_like() {
        let acc_of = |spec: &SyntheticImageSpec| {
            let mut spec = spec.clone();
            spec.train_n = 400;
            spec.test_n = 200;
            let (tr, te) = spec.generate(13);
            let dim = tr.dim;
            let mut means = vec![vec![0.0f32; dim]; spec.classes];
            let mut counts = vec![0f32; spec.classes];
            for i in 0..tr.len() {
                let c = tr.y[i] as usize;
                for (m, &v) in means[c].iter_mut().zip(tr.sample(i)) {
                    *m += v;
                }
                counts[c] += 1.0;
            }
            for (m, &c) in means.iter_mut().zip(&counts) {
                for v in m.iter_mut() {
                    *v /= c.max(1.0);
                }
            }
            let mut correct = 0;
            for i in 0..te.len() {
                let xs = te.sample(i);
                let mut best = 0;
                let mut best_d = f32::INFINITY;
                for (c, m) in means.iter().enumerate() {
                    let d: f32 = m.iter().zip(xs).map(|(a, b)| (a - b) * (a - b)).sum();
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if best as u32 == te.y[i] {
                    correct += 1;
                }
            }
            correct as f32 / te.len() as f32
        };
        let easy = acc_of(&SyntheticImageSpec::mnist_like());
        let hard = acc_of(&SyntheticImageSpec::fmnist_like());
        assert!(
            easy > hard,
            "mnist-like ({easy}) should be easier than fmnist-like ({hard})"
        );
    }
}
