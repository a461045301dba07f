//! Dataset containers: image sets, token streams, and the federated bundle.

use crate::synth_image::{LazyClients, LazyShard};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A labelled image dataset (features flattened row-major).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ImageSet {
    /// Flat features, length `n * dim`, values in [0, 1].
    pub x: Vec<f32>,
    /// Labels, length `n`.
    pub y: Vec<u32>,
    /// Feature dimension (e.g. 784).
    pub dim: usize,
}

impl ImageSet {
    /// Empty set with the given feature dimension.
    pub fn empty(dim: usize) -> Self {
        Self {
            x: Vec::new(),
            y: Vec::new(),
            dim,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// `true` when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature slice of sample `i`.
    pub fn sample(&self, i: usize) -> &[f32] {
        &self.x[i * self.dim..(i + 1) * self.dim]
    }

    /// Append one sample.
    pub fn push(&mut self, features: &[f32], label: u32) {
        assert_eq!(features.len(), self.dim);
        self.x.extend_from_slice(features);
        self.y.push(label);
    }

    /// Copy the samples at `idx` into contiguous batch buffers (reused
    /// across calls to avoid per-batch allocation).
    pub fn gather(&self, idx: &[usize], bx: &mut Vec<f32>, by: &mut Vec<u32>) {
        bx.clear();
        by.clear();
        bx.reserve(idx.len() * self.dim);
        by.reserve(idx.len());
        for &i in idx {
            bx.extend_from_slice(self.sample(i));
            by.push(self.y[i]);
        }
    }
}

/// A token stream for next-word prediction, consumed as non-overlapping
/// windows of `seq_len + 1` tokens (inputs + shifted targets).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TextSet {
    /// Token ids.
    pub tokens: Vec<u32>,
    /// BPTT window length (number of predictions per window).
    pub seq_len: usize,
}

impl TextSet {
    /// Number of complete windows.
    pub fn num_windows(&self) -> usize {
        if self.tokens.len() < self.seq_len + 1 {
            0
        } else {
            // Windows advance by seq_len so that every target position is
            // predicted exactly once (standard LM batching).
            (self.tokens.len() - 1) / self.seq_len
        }
    }

    /// Window `i` as a slice of `seq_len + 1` tokens.
    pub fn window(&self, i: usize) -> &[u32] {
        let start = i * self.seq_len;
        &self.tokens[start..start + self.seq_len + 1]
    }

    /// Borrow the windows at `idx`.
    pub fn gather<'a>(&'a self, idx: &[usize], out: &mut Vec<&'a [u32]>) {
        out.clear();
        out.reserve(idx.len());
        for &i in idx {
            out.push(self.window(i));
        }
    }
}

/// One client's local dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ClientData {
    /// Image classification client.
    Image(ImageSet),
    /// Next-word-prediction client.
    Text(TextSet),
    /// Image classification client of a lazy population: a view whose
    /// samples are derived when they are read.
    LazyImage(LazyShard),
}

impl ClientData {
    /// |D_k| — the sample count used as the aggregation weight in eq. (10).
    /// Images count samples; text counts prediction windows.
    pub fn num_samples(&self) -> usize {
        match self {
            ClientData::Image(s) => s.len(),
            ClientData::Text(t) => t.num_windows(),
            ClientData::LazyImage(v) => v.len(),
        }
    }
}

/// A complete federated benchmark dataset: per-client shards + a held-out
/// global test set.
///
/// Two storage strategies share this container:
///
/// * **eager** (`lazy = None`) — every client's shard lives in `clients`,
///   O(K · samples) memory; the historical layout, unchanged.
/// * **lazy** (`lazy = Some(..)`) — `clients` is empty and a shard is a
///   [`ClientData::LazyImage`] view over the generator handle whose
///   samples are derived when they are read, O(1) memory in K. This is
///   what lets the simulator register 10^6 clients while holding only
///   the active cohort.
///
/// All consumers go through [`FedDataset::client`] /
/// [`FedDataset::num_clients`], which dispatch on the strategy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FedDataset {
    /// Dataset name (for logs), e.g. `"mnist-like"`.
    pub name: String,
    /// One shard per client (empty when `lazy` is set).
    pub clients: Vec<ClientData>,
    /// On-demand shard generator for huge registered populations.
    pub lazy: Option<LazyClients>,
    /// Global test set.
    pub test: ClientData,
}

impl FedDataset {
    /// Number of clients K.
    pub fn num_clients(&self) -> usize {
        match &self.lazy {
            Some(l) => l.num_clients,
            None => self.clients.len(),
        }
    }

    /// Client `id`'s shard: borrowed from the eager table, or a
    /// [`ClientData::LazyImage`] view in lazy mode — O(1) either way.
    pub fn client(&self, id: usize) -> Cow<'_, ClientData> {
        match &self.lazy {
            Some(l) => Cow::Owned(ClientData::LazyImage(l.shard(id))),
            None => Cow::Borrowed(&self.clients[id]),
        }
    }

    /// min_k |D_k| — the quantity entering m_r in Theorem 1. Analytic in
    /// lazy mode (every lazy client holds the same sample count).
    pub fn min_client_samples(&self) -> usize {
        match &self.lazy {
            Some(l) => l.samples_per_client,
            None => self
                .clients
                .iter()
                .map(ClientData::num_samples)
                .min()
                .unwrap_or(0),
        }
    }

    /// Materialize every shard eagerly — the reference the differential
    /// tests compare the lazy path against. A no-op copy in eager mode.
    pub fn materialize(&self) -> FedDataset {
        match &self.lazy {
            Some(l) => FedDataset {
                name: self.name.clone(),
                clients: (0..l.num_clients).map(|c| l.client_data(c)).collect(),
                lazy: None,
                test: self.test.clone(),
            },
            None => self.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_set_push_sample_gather() {
        let mut s = ImageSet::empty(2);
        s.push(&[0.1, 0.2], 1);
        s.push(&[0.3, 0.4], 0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.sample(1), &[0.3, 0.4]);
        let mut bx = Vec::new();
        let mut by = Vec::new();
        s.gather(&[1, 0, 1], &mut bx, &mut by);
        assert_eq!(by, vec![0, 1, 0]);
        assert_eq!(bx.len(), 6);
        assert_eq!(&bx[0..2], &[0.3, 0.4]);
    }

    #[test]
    fn text_windows_tile_the_stream() {
        let t = TextSet {
            tokens: (0..21).collect(),
            seq_len: 5,
        };
        assert_eq!(t.num_windows(), 4);
        assert_eq!(t.window(0), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(t.window(3), &[15, 16, 17, 18, 19, 20]);
        // Consecutive windows share exactly the boundary token (the last
        // target of window i is the first input of window i+1).
        assert_eq!(t.window(0)[5], t.window(1)[0]);
    }

    #[test]
    fn text_too_short_has_no_windows() {
        let t = TextSet {
            tokens: vec![1, 2, 3],
            seq_len: 5,
        };
        assert_eq!(t.num_windows(), 0);
    }

    #[test]
    fn client_data_sample_counts() {
        let img = ClientData::Image(ImageSet {
            x: vec![0.0; 8],
            y: vec![0; 4],
            dim: 2,
        });
        assert_eq!(img.num_samples(), 4);
        let txt = ClientData::Text(TextSet {
            tokens: (0..11).collect(),
            seq_len: 5,
        });
        assert_eq!(txt.num_samples(), 2);
    }

    #[test]
    fn fed_dataset_min_samples() {
        let fd = FedDataset {
            name: "t".into(),
            clients: vec![
                ClientData::Image(ImageSet {
                    x: vec![0.0; 4],
                    y: vec![0; 2],
                    dim: 2,
                }),
                ClientData::Image(ImageSet {
                    x: vec![0.0; 10],
                    y: vec![0; 5],
                    dim: 2,
                }),
            ],
            lazy: None,
            test: ClientData::Image(ImageSet::empty(2)),
        };
        assert_eq!(fd.num_clients(), 2);
        assert_eq!(fd.min_client_samples(), 2);
        // Eager accessor borrows (no copy).
        assert!(matches!(fd.client(1), Cow::Borrowed(_)));
        assert_eq!(fd.client(1).num_samples(), 5);
    }

    #[test]
    fn lazy_dataset_matches_its_materialization() {
        use crate::synth_image::{LazyClients, SyntheticImageSpec};
        let spec = SyntheticImageSpec {
            classes: 4,
            side: 6,
            train_n: 0,
            test_n: 0,
            prototypes_per_class: 2,
            bumps: 3,
            distinctiveness: 0.9,
            noise: 0.1,
            shift_max: 1,
        };
        let lazy = LazyClients::new(spec, 11, 17, 8);
        let fd = FedDataset {
            name: "lazy".into(),
            clients: Vec::new(),
            lazy: Some(lazy.clone()),
            test: lazy.test_set(20),
        };
        assert_eq!(fd.num_clients(), 17);
        assert_eq!(fd.min_client_samples(), 8);
        // On-demand lookups are owned views, deterministic, and agree
        // with the eager materialization element-wise.
        let eager = fd.materialize();
        assert_eq!(eager.num_clients(), 17);
        assert!(eager.lazy.is_none());
        let resident = |d: &ClientData| match d {
            ClientData::LazyImage(v) => v.materialize(),
            _ => panic!("a lazy lookup is a view"),
        };
        for id in [0usize, 7, 16] {
            let a = fd.client(id);
            assert!(matches!(a, Cow::Owned(_)));
            assert_eq!(a.num_samples(), 8);
            let (x, y) = (resident(&a), resident(&fd.client(id)));
            let ClientData::Image(z) = &eager.clients[id] else {
                panic!("materialised shards are resident");
            };
            assert_eq!(x.x, y.x, "lazy lookup not reproducible at {id}");
            assert_eq!(x.x, z.x, "materialization diverges at {id}");
            assert_eq!(x.y, z.y);
        }
        // Distinct clients draw from distinct streams.
        assert_ne!(resident(&fd.client(0)).x, resident(&fd.client(1)).x);
    }

    #[test]
    fn lazy_dataset_round_trips_through_serde_and_old_json_still_loads() {
        use crate::synth_image::{LazyClients, SyntheticImageSpec};
        let spec = SyntheticImageSpec {
            classes: 2,
            side: 4,
            train_n: 0,
            test_n: 0,
            prototypes_per_class: 1,
            bumps: 2,
            distinctiveness: 0.8,
            noise: 0.05,
            shift_max: 0,
        };
        let lazy = LazyClients::new(spec, 3, 5, 4);
        let fd = FedDataset {
            name: "lazy".into(),
            clients: Vec::new(),
            lazy: Some(lazy.clone()),
            test: lazy.test_set(6),
        };
        let s = serde_json::to_string(&fd).unwrap();
        let back: FedDataset = serde_json::from_str(&s).unwrap();
        assert_eq!(back.num_clients(), 5);
        match (fd.client(2).as_ref(), back.client(2).as_ref()) {
            (ClientData::LazyImage(x), ClientData::LazyImage(y)) => {
                assert_eq!(x.materialize().x, y.materialize().x)
            }
            _ => panic!("lazy views expected"),
        }
        // An eager dataset serializes `lazy` as null and round-trips.
        let eager = FedDataset {
            name: "t".into(),
            clients: Vec::new(),
            lazy: None,
            test: ClientData::Image(ImageSet::empty(2)),
        };
        let s = serde_json::to_string(&eager).unwrap();
        let old: FedDataset = serde_json::from_str(&s).unwrap();
        assert!(old.lazy.is_none());
        assert_eq!(old.num_clients(), 0);
    }
}
