//! Reductions and order statistics.
//!
//! The p-quantile ([`quantile`]) is load-bearing for FedBIAD stage two: the
//! threshold λ_r^k is "the p-quantile of E^k" (paper §IV-D), and the top-k
//! selection ([`top_k_keys`]) drives DGC/STC sparsification.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
}

/// Population variance; 0.0 for slices shorter than 2.
pub fn variance(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / xs.len() as f32
}

/// The `q`-quantile (q ∈ \[0,1\]) with linear interpolation between order
/// statistics, matching the common "linear" convention. Panics on empty
/// input or q outside \[0,1\].
pub fn quantile(xs: &[f32], q: f32) -> f32 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
    let mut sorted: Vec<f32> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f32;
        // Single-product form: monotone in `frac` under f32 rounding, unlike
        // `a*(1-frac) + b*frac` which can land a few ULPs outside [a, b].
        // The clamp covers the one remaining rounding case (a + (b-a) > b).
        (sorted[lo] + frac * (sorted[hi] - sorted[lo])).clamp(sorted[lo], sorted[hi])
    }
}

/// Index of the maximum element (first on ties). Panics on empty input.
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    let mut best_v = xs[0];
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

// ---- top-k over integer keys ----------------------------------------
//
// DGC, STC and FedMP keep the `k` largest |values| of a vector, FedBIAD's
// stage two the `k` highest scores. Each is defined on the strict total
// order `(score desc, NaN last, index asc)`: a NaN score ranks below every
// number (a diverged client's delta reaches DGC/STC, so it must not
// panic), and equal scores go to the smaller index. The executable
// specification — a comparator sort over indices — lives in
// `tests/support/top_k_spec.rs`, and `tests/stats_props.rs` pins the
// selection below to it.
//
// Each element becomes one `u64` key, `top_key(rank(v), i)`: the high half
// is `u32::MAX − rank`, the low half the index. A rank is 0 for NaN and
// ≥ 1 for every number, strictly monotone in the score and equal exactly
// when the scores compare equal (±0 included), so ascending keys are
// score descending, NaN last, index ascending — the comparator's order,
// with the keys distinct. One `select_nth_unstable` over plain integers
// then picks the set, without a comparator closure re-reading the vector
// on every compare; a caller that needs score order sorts only its `k`
// keys.

/// Rank of `v` under the magnitude score `|v|`: 0 for NaN, else
/// `(bits & 0x7fff_ffff) + 1`. For non-negative floats the unsigned bit
/// order is the value order (+∞ is `0x7f80_0000`, so the `+ 1` cannot
/// overflow), and ±0 share a rank.
#[inline]
pub fn abs_rank(v: f32) -> u32 {
    let a = v.to_bits() & 0x7fff_ffff;
    if a > 0x7f80_0000 {
        0
    } else {
        a + 1
    }
}

/// Rank of `v` under the signed score `v`: 0 for NaN, else the
/// total-order image of `v`'s bits with −0 read as +0. The image of −∞ is
/// `0x007f_ffff`, so every number ranks ≥ 1.
#[inline]
pub fn value_rank(v: f32) -> u32 {
    if v.is_nan() {
        return 0;
    }
    let b = if v == 0.0 { 0 } else { v.to_bits() };
    b ^ (((b as i32 >> 31) as u32) | 0x8000_0000)
}

/// The top-k sort key of element `i` with rank `rank`; [`key_pos`] reads
/// the index back. Indices must fit in 32 bits.
#[inline]
pub fn top_key(rank: u32, i: usize) -> u64 {
    debug_assert!(i <= u32::MAX as usize, "index {i} exceeds 32 bits");
    (u64::from(u32::MAX - rank) << 32) | i as u64
}

/// Keep the `k` smallest of distinct `keys` (`k` clamped to the length):
/// afterwards `keys` holds exactly them, in no particular order except
/// that the last is the largest.
pub fn select_top_keys(keys: &mut Vec<u64>, k: usize) {
    let k = k.min(keys.len());
    if k > 0 && k < keys.len() {
        keys.select_nth_unstable(k - 1);
    }
    keys.truncate(k);
}

/// The keys of the `k` highest-ranked elements of `xs` (`k` clamped to
/// the length), in no particular order: the set the comparator sort's
/// first `k` indices form. Sort them for score order; map [`key_pos`] for
/// the indices.
pub fn top_k_keys(xs: &[f32], k: usize, rank: impl Fn(f32) -> u32) -> Vec<u64> {
    assert!(
        xs.len() <= u32::MAX as usize + 1,
        "top-k over more than 2^32 elements"
    );
    let mut keys: Vec<u64> = xs
        .iter()
        .enumerate()
        .map(|(i, &v)| top_key(rank(v), i))
        .collect();
    select_top_keys(&mut keys, k);
    keys
}

/// The indices `keys` were built with (distinct, each below `n`), in
/// ascending order: one bit per index set, then the set bits read out in
/// order — O(n/64 + k) instead of sorting `k` indices (a quarter of a
/// 10⁵-element model during DGC's warm-up).
pub fn ascending_positions(keys: &[u64], n: usize) -> Vec<usize> {
    let mut words = vec![0u64; n.div_ceil(64)];
    for &key in keys {
        let i = key_pos(key);
        words[i / 64] |= 1 << (i % 64);
    }
    let mut out = Vec::with_capacity(keys.len());
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
    out
}

// ---- weighted order statistics over total-order keys -----------------
//
// The robust aggregators (coordinate-wise trimmed mean and weighted
// median) are defined on a *stable* sort of a column's `(value, weight)`
// participants by `f32::total_cmp`, folded serially in that order. The
// kernels below compute exactly that without sorting pairs: each
// participant becomes one `u64` key, `order_key(v, pos)`, whose high half
// is the total-order image of `v`'s bits and whose low half is the
// participant's position in the column. The image is strictly monotone in
// `total_cmp` (−NaN < −∞ < … < −0 < +0 < … < +∞ < +NaN, payloads
// included), and positions are distinct, so the keys are distinct and
// their ascending order is `(total_cmp, position)` — which is precisely
// the order a stable sort of the column produces, ties and all. An
// *unstable* sort or selection of the keys therefore lands every
// participant where the stable sort would, and the value bits come back
// out of the key unchanged. The executable specification (stable sort,
// then fold) lives in `tests/support/order_stat_spec.rs`, and
// `tests/order_stat_props.rs` pins these kernels to it bit for bit.

/// A participant weight: `f32` for the sync engines, `f64` for the
/// staleness merge. `From<f32>` lifts a value (exactly) into the fold's
/// precision, so `w · W::from(v)` is the `w * v` / `w * v as f64` each
/// fold was written with.
pub trait OrderWeight:
    Copy
    + PartialOrd
    + core::ops::Add<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::iter::Sum
    + From<f32>
{
}

impl<W> OrderWeight for W where
    W: Copy
        + PartialOrd
        + core::ops::Add<Output = W>
        + core::ops::Mul<Output = W>
        + core::iter::Sum
        + From<f32>
{
}

/// The sort key of the participant at column position `pos` with value
/// `v`: `v`'s bits mapped so that unsigned order is `f32::total_cmp`
/// order (negative values have all bits flipped, non-negative ones the
/// sign bit set), shifted above the position. Positions must fit in 32
/// bits (a column is one coordinate across a cohort).
#[inline]
pub fn order_key(v: f32, pos: usize) -> u64 {
    debug_assert!(
        pos <= u32::MAX as usize,
        "column position {pos} exceeds 32 bits"
    );
    let b = v.to_bits();
    let ord = b ^ (((b as i32 >> 31) as u32) | 0x8000_0000);
    (u64::from(ord) << 32) | pos as u64
}

/// The value bits a key was built from (the exact inverse of
/// [`order_key`]'s map — NaN payloads and signed zeros included).
#[inline]
pub fn key_value(key: u64) -> f32 {
    let ord = (key >> 32) as u32;
    f32::from_bits(ord ^ (!((ord as i32 >> 31) as u32) | 0x8000_0000))
}

/// The column position an [`order_key`] was built with, or the index a
/// [`top_key`] was.
#[inline]
pub fn key_pos(key: u64) -> usize {
    key as u32 as usize
}

/// Trimmed weighted sum of a keyed column: drop the `k` smallest and `k`
/// largest participants and return `(Σ wᵢvᵢ, Σ wᵢ)` over the survivors,
/// folded serially in ascending key order — bit for bit the fold over
/// `stable_sort(column)[k..m−k]`. `weight(pos)` is the weight of the
/// participant at column position `pos`. `None` when the trim empties the
/// column (`2k ≥ m`), which callers read as "no survivors".
///
/// Only the survivors are sorted: one selection puts the `k` smallest
/// below position `k`, a second one inside the tail puts the `m − 2k`
/// survivors next, and their `m − 2k` keys are sorted for the fold.
/// `keys` is left permuted.
pub fn keyed_trimmed_sum<W: OrderWeight>(
    keys: &mut [u64],
    k: usize,
    weight: impl Fn(usize) -> W,
) -> Option<(W, W)> {
    let m = keys.len();
    if 2 * k >= m {
        return None;
    }
    let keep = m - 2 * k;
    if k > 0 {
        keys.select_nth_unstable(k);
        // `keys[k]` is the smallest survivor; the other `keep − 1` are the
        // smallest of the `keep + k − 1` keys above it.
        if keep > 1 {
            keys[k + 1..].select_nth_unstable(keep - 2);
        }
    }
    let survivors = &mut keys[k..k + keep];
    survivors.sort_unstable();
    Some(fold_trimmed(survivors.iter().copied(), weight))
}

/// Weighted lower median of a keyed column: in ascending key order, the
/// first value whose cumulative weight reaches half the total (itself
/// summed in that order). With unit weights and odd `m` this is the
/// classic median; with even `m` the lower of the two middle values — the
/// estimate is always one of the inputs, which is what gives the median
/// its breakdown point. `None` for an empty column. `keys` is left sorted.
pub fn keyed_lower_median<W: OrderWeight>(
    keys: &mut [u64],
    weight: impl Fn(usize) -> W,
) -> Option<f32> {
    keys.sort_unstable();
    fold_lower_median(keys.iter().copied(), weight)
}

/// `(Σ wᵢvᵢ, Σ wᵢ)` over ascending `survivors`, folded serially — the one
/// fold both the keyed kernels and [`KeyTile`] lanes run.
fn fold_trimmed<W: OrderWeight>(
    survivors: impl Iterator<Item = u64>,
    weight: impl Fn(usize) -> W,
) -> (W, W) {
    let mut num = W::from(0.0);
    let mut den = W::from(0.0);
    for key in survivors {
        let w = weight(key_pos(key));
        num = num + w * W::from(key_value(key));
        den = den + w;
    }
    (num, den)
}

/// The weighted lower median of ascending `keys` (see
/// [`keyed_lower_median`]); `None` when there are none.
fn fold_lower_median<W: OrderWeight>(
    keys: impl Iterator<Item = u64> + Clone,
    weight: impl Fn(usize) -> W,
) -> Option<f32> {
    let total: W = keys.clone().map(|key| weight(key_pos(key))).sum();
    let half = W::from(0.5) * total;
    let mut cum = W::from(0.0);
    let mut last = None;
    for key in keys {
        cum = cum + weight(key_pos(key));
        if cum >= half {
            return Some(key_value(key));
        }
        last = Some(key);
    }
    last.map(key_value)
}

// ---- column-batched order statistics ----------------------------------
//
// The streaming robust engines combine a whole column tile at a time.
// Rather than one selection per column — about a microsecond over ≈ 64
// keys, most of it branch mispredictions — [`KeyTile`] sorts four
// columns' `order_key`s at once with a data-oblivious comparator network
// (Batcher, "Sorting networks and their applications", AFIPS 1968): an
// `[m][4]` block of keys, one row per participant, where every comparator
// is a compare and a masked swap on a whole row. The keys are distinct, so
// their ascending order is unique and any correct sort — this network,
// the keyed selections above, the stable-sort specification — hands the
// folds the same keys in the same order: the lanes fold exactly the bits
// the keyed kernels do.
//
// Rows hold keys with the top bit flipped, so the signed 64-bit compare
// AVX2 has (`vpcmpgtq`) orders them as unsigned keys. A lane shorter than
// the block is padded with [`SENTINEL`], the largest key, so the lane's
// real keys sort first; a real key equal to it (the +NaN `0x7fff_ffff` at
// position `u32::MAX`) is indistinguishable from the padding, so even
// then the lane reads back its own keys.

/// Columns a [`KeyTile`] sorts at once: one 256-bit register of keys.
pub const LANES: usize = 4;

/// The key a short lane is padded with: above every [`order_key`] of a
/// position below `u32::MAX`.
pub const SENTINEL: u64 = u64::MAX;

/// Top bit: flipping it maps unsigned key order to signed order.
const FLIP: u64 = 1 << 63;

/// One participant's keys across the four lanes, aligned to a register.
#[derive(Clone, Copy)]
#[repr(C, align(32))]
struct Row([u64; LANES]);

/// Batcher's odd–even merge sort on the next power of two ≥ `m` wires,
/// restricted to the first `m`: comparators `(i, j)`, `i < j`, in an order
/// that sorts ascending when each puts the smaller key on `i`. Padding the
/// missing wires with keys above every input would leave them untouched
/// by every comparator (the larger key always moves to the higher wire),
/// so dropping the comparators that touch them leaves a sorting network
/// on `m` wires. Exhaustively checked by the 0–1 principle for `m ≤ 18`
/// (`tests/column_sort_props.rs`).
pub fn sort_network(m: usize) -> Vec<(u32, u32)> {
    assert!(m <= u32::MAX as usize, "network of {m} wires");
    let n = m.next_power_of_two();
    let mut pairs = Vec::new();
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < n {
                for i in 0..k.min(n - j - k) {
                    let (a, b) = (i + j, i + j + k);
                    if a / (2 * p) == b / (2 * p) && b < m {
                        pairs.push((a as u32, b as u32));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
    pairs
}

/// A comparator of a cached network: the byte offsets of its two rows in
/// a block of [`Row`]s, so the vector body addresses them directly.
type Comparator = (u32, u32);

thread_local! {
    /// [`sort_network`] per wire count as [`Comparator`]s, built on first
    /// use by this thread.
    static NETWORKS: std::cell::RefCell<Vec<Option<std::rc::Rc<[Comparator]>>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The calling thread's cached network of `m` wires.
fn cached_network(m: usize) -> std::rc::Rc<[Comparator]> {
    const ROW: u32 = std::mem::size_of::<Row>() as u32;
    NETWORKS.with(|nets| {
        let mut nets = nets.borrow_mut();
        if nets.len() <= m {
            nets.resize(m + 1, None);
        }
        nets[m]
            .get_or_insert_with(|| {
                assert!(m <= (u32::MAX / ROW) as usize, "network of {m} wires");
                sort_network(m)
                    .into_iter()
                    .map(|(i, j)| (i * ROW, j * ROW))
                    .collect()
            })
            .clone()
    })
}

/// Four columns' order keys, sorted together: an `[m][4]` block with one
/// lane per column. Fill the lanes ([`KeyTile::clear`], then
/// [`KeyTile::push_columns`] for participants every column shares and
/// [`KeyTile::push_if`] per lane), [`KeyTile::sort`], then read each lane
/// in ascending order ([`KeyTile::trimmed_sum`],
/// [`KeyTile::lower_median`], [`KeyTile::lane`]). The block grows to the
/// largest lane seen and is reused, so a caller that keeps one tile
/// allocates only while its cohort grows.
#[derive(Default)]
pub struct KeyTile {
    rows: Vec<Row>,
    lens: [usize; LANES],
}

impl KeyTile {
    /// An empty tile; the block is allocated by the first `clear`.
    pub fn new() -> KeyTile {
        KeyTile::default()
    }

    /// Empty every lane, with room for `cap` keys in each.
    pub fn clear(&mut self, cap: usize) {
        if self.rows.len() < cap {
            self.rows.resize(cap, Row([0; LANES]));
        }
        self.lens = [0; LANES];
    }

    /// Append one row per participant `i` of `parts`: the keys of the
    /// four values `block[i·stride + j0..][..4]` at position `i` — four
    /// adjacent columns of a client-major block whose participants every
    /// column shares. Every lane must hold the same number of keys.
    pub fn push_columns(&mut self, block: &[f32], stride: usize, j0: usize, parts: &[usize]) {
        let q = self.lens[0];
        debug_assert!(self.lens.iter().all(|&l| l == q), "ragged lanes");
        let rows = &mut self.rows[q..q + parts.len()];
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: AVX2 was detected at run time.
            unsafe { x86::push_columns(rows, block, stride, j0, parts) };
            self.lens = [q + parts.len(); LANES];
            return;
        }
        for (row, &i) in rows.iter_mut().zip(parts) {
            let v = &block[i * stride + j0..][..LANES];
            *row = Row(std::array::from_fn(|l| order_key(v[l], i) ^ FLIP));
        }
        self.lens = [q + parts.len(); LANES];
    }

    /// Append `key` to `lane` if `keep` — without a branch: the slot is
    /// written either way and the lane only grows past a kept key, so
    /// `clear`'s `cap` must cover the pushes, kept or not.
    #[inline]
    pub fn push_if(&mut self, lane: usize, key: u64, keep: bool) {
        let q = self.lens[lane];
        self.rows[q].0[lane] = key ^ FLIP;
        self.lens[lane] = q + usize::from(keep);
    }

    /// Keys in `lane`.
    pub fn len(&self, lane: usize) -> usize {
        self.lens[lane]
    }

    /// Pad every lane to the longest with [`SENTINEL`]; the wire count.
    fn pad(&mut self) -> usize {
        let m = self.lens.iter().copied().max().unwrap_or(0);
        for (lane, &len) in self.lens.iter().enumerate() {
            for row in &mut self.rows[len..m] {
                row.0[lane] = SENTINEL ^ FLIP;
            }
        }
        m
    }

    /// Sort every lane ascending: the cached network of the longest
    /// lane's length, on AVX2 where the host has it.
    pub fn sort(&mut self) {
        let m = self.pad();
        let net = cached_network(m);
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: AVX2 was detected at run time, and every wire of
            // `net` is below `m ≤ self.rows.len()`.
            return unsafe { x86::sort_rows(&mut self.rows[..m], &net) };
        }
        sort_rows_scalar(&mut self.rows[..m], &net);
    }

    /// [`KeyTile::sort`] through the portable body of the same network —
    /// what hosts without AVX2 run, and what the vector body is held to.
    pub fn sort_scalar(&mut self) {
        let m = self.pad();
        sort_rows_scalar(&mut self.rows[..m], &cached_network(m));
    }

    /// `lane`'s keys in block order (ascending once sorted).
    pub fn lane(&self, lane: usize) -> impl Iterator<Item = u64> + Clone + '_ {
        self.rows[..self.lens[lane]]
            .iter()
            .map(move |row| row.0[lane] ^ FLIP)
    }

    /// [`keyed_trimmed_sum`] of a sorted lane, bit for bit: `None` when
    /// the trim empties it (`2k ≥ len`).
    pub fn trimmed_sum<W: OrderWeight>(
        &self,
        lane: usize,
        k: usize,
        weight: impl Fn(usize) -> W,
    ) -> Option<(W, W)> {
        let m = self.lens[lane];
        if 2 * k >= m {
            return None;
        }
        Some(fold_trimmed(
            self.lane(lane).skip(k).take(m - 2 * k),
            weight,
        ))
    }

    /// [`keyed_lower_median`] of a sorted lane, bit for bit.
    pub fn lower_median<W: OrderWeight>(
        &self,
        lane: usize,
        weight: impl Fn(usize) -> W,
    ) -> Option<f32> {
        fold_lower_median(self.lane(lane), weight)
    }
}

/// The network on whole rows, one lane at a time: each comparator is a
/// min and a max per lane (the signed compare `x86::sort_rows` runs).
fn sort_rows_scalar(rows: &mut [Row], net: &[Comparator]) {
    const ROW: usize = std::mem::size_of::<Row>();
    for &(oi, oj) in net {
        let (i, j) = (oi as usize / ROW, oj as usize / ROW);
        let (a, b) = (rows[i].0, rows[j].0);
        let (mut lo, mut hi) = (a, b);
        for l in 0..LANES {
            let (x, y) = (a[l] as i64, b[l] as i64);
            lo[l] = x.min(y) as u64;
            hi[l] = x.max(y) as u64;
        }
        rows[i] = Row(lo);
        rows[j] = Row(hi);
    }
}

/// Whether this host runs [`KeyTile::sort`]'s vector body (AVX2, checked
/// once).
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let has = std::arch::is_x86_feature_detected!("avx2");
            STATE.store(if has { 1 } else { 2 }, Ordering::Relaxed);
            has
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Comparator, Row};
    use std::arch::x86_64::*;

    /// The network on whole rows, four lanes per comparator: a signed
    /// 64-bit compare, then the smaller lane values onto row `i` and the
    /// larger onto row `j` (`t` is `a ^ b` where `a > b`, zero elsewhere,
    /// so `a ^ t` is the minimum and `b ^ t` the maximum).
    ///
    /// # Safety
    /// The host must support AVX2, and every comparator's byte offsets
    /// must address rows of `rows`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sort_rows(rows: &mut [Row], net: &[Comparator]) {
        let bytes = std::mem::size_of_val(rows);
        let p = rows.as_mut_ptr().cast::<u8>();
        for &(oi, oj) in net {
            debug_assert!((oi as usize) < bytes && (oj as usize) < bytes);
            // `Row` is 32-byte aligned and 32 bytes long, so each offset
            // is an aligned register.
            let pi = p.add(oi as usize).cast::<__m256i>();
            let pj = p.add(oj as usize).cast::<__m256i>();
            let (a, b) = (_mm256_load_si256(pi), _mm256_load_si256(pj));
            let t = _mm256_and_si256(_mm256_xor_si256(a, b), _mm256_cmpgt_epi64(a, b));
            _mm256_store_si256(pi, _mm256_xor_si256(a, t));
            _mm256_store_si256(pj, _mm256_xor_si256(b, t));
        }
    }

    /// `KeyTile::push_columns`' rows: per participant one 128-bit load of
    /// four values, their total-order images (`v ^ ((v >> 31) >>> 1)`, the
    /// flipped high half of `order_key`) widened above the position.
    ///
    /// # Safety
    /// The host must support AVX2. (Every load is bounds-checked.)
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn push_columns(
        rows: &mut [Row],
        block: &[f32],
        stride: usize,
        j0: usize,
        parts: &[usize],
    ) {
        for (row, &i) in rows.iter_mut().zip(parts) {
            let v = &block[i * stride + j0..][..super::LANES];
            let v = _mm_loadu_si128(v.as_ptr().cast());
            let ord = _mm_xor_si128(v, _mm_srli_epi32(_mm_srai_epi32(v, 31), 1));
            let high = _mm256_slli_epi64(_mm256_cvtepu32_epi64(ord), 32);
            let key = _mm256_or_si256(high, _mm256_set1_epi64x(i as i64));
            _mm256_store_si256((row as *mut Row).cast(), key);
        }
    }
}

/// `true` iff the top-`k` set of `logits` contains `target` (top-k accuracy,
/// the paper uses k=3 for next-word prediction and k=1 for images).
pub fn in_top_k(logits: &[f32], target: usize, k: usize) -> bool {
    debug_assert!(target < logits.len());
    let t = logits[target];
    // Count how many strictly exceed the target logit; ties resolved in the
    // target's favour only for earlier indices (deterministic, matches an
    // argsort-based implementation).
    let mut above = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v > t || (v == t && i < target) {
            above += 1;
            if above >= k {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-6);
        assert!((variance(&xs) - 1.25).abs() < 1e-6);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 3.0);
        assert_eq!(quantile(&xs, 0.5), 2.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn argmax_first_on_tie() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), 1);
    }

    /// The selected indices in key (= score) order.
    fn ranked(xs: &[f32], k: usize, rank: fn(f32) -> u32) -> Vec<usize> {
        let mut keys = top_k_keys(xs, k, rank);
        keys.sort_unstable();
        keys.iter().map(|&key| key_pos(key)).collect()
    }

    fn top_k_indices(xs: &[f32], k: usize) -> Vec<usize> {
        ranked(xs, k, value_rank)
    }

    fn top_k_abs_indices(xs: &[f32], k: usize) -> Vec<usize> {
        ranked(xs, k, abs_rank)
    }

    #[test]
    fn top_k_orders_and_breaks_ties_by_index() {
        let xs = [1.0, 9.0, 9.0, 3.0];
        assert_eq!(top_k_indices(&xs, 3), vec![1, 2, 3]);
        assert_eq!(top_k_abs_indices(&[-10.0, 2.0, 5.0], 2), vec![0, 2]);
        // ±0 tie under both scores; the magnitude score ties ±v.
        assert_eq!(top_k_indices(&[-0.0, 0.0, -1.0], 3), vec![0, 1, 2]);
        assert_eq!(
            top_k_abs_indices(&[-2.0, 0.0, 2.0, -0.0], 4),
            vec![0, 2, 1, 3]
        );
    }

    #[test]
    fn ascending_positions_reads_the_selected_indices_in_order() {
        for n in [0usize, 1, 63, 64, 65, 200] {
            let xs: Vec<f32> = (0..n).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
            for k in [0, 1, n / 3, n] {
                let keys = top_k_keys(&xs, k, abs_rank);
                let mut want: Vec<usize> = keys.iter().map(|&key| key_pos(key)).collect();
                want.sort_unstable();
                assert_eq!(ascending_positions(&keys, n), want, "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn ranks_are_monotone_and_leave_zero_for_nan() {
        let ascending = [
            f32::NEG_INFINITY,
            -f32::MAX,
            -1.0,
            -1e-45,
            0.0,
            1e-45,
            1.0,
            f32::MAX,
            f32::INFINITY,
        ];
        for w in ascending.windows(2) {
            assert!(value_rank(w[0]) < value_rank(w[1]), "{w:?}");
        }
        assert_eq!(value_rank(-0.0), value_rank(0.0));
        assert_eq!(abs_rank(-3.0), abs_rank(3.0));
        assert_eq!(abs_rank(f32::INFINITY), 0x7f80_0001);
        for nan in [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffff_ffff),
        ] {
            assert_eq!((value_rank(nan), abs_rank(nan)), (0, 0));
        }
        assert!(value_rank(f32::NEG_INFINITY) > 0 && abs_rank(0.0) > 0);
    }

    #[test]
    fn top_k_clamps_k() {
        assert_eq!(top_k_indices(&[1.0], 5), vec![0]);
        assert_eq!(top_k_indices(&[2.0, 3.0], 2), vec![1, 0]);
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
        assert!(top_k_indices(&[], 3).is_empty());
    }

    #[test]
    fn top_k_ranks_nan_below_every_number() {
        // Regression: `.expect("NaN score")` panicked here.
        let xs = [
            f32::NAN,
            -1.0,
            f32::NAN,
            f32::INFINITY,
            0.5,
            f32::NEG_INFINITY,
        ];
        assert_eq!(top_k_indices(&xs, 6), vec![3, 4, 1, 5, 0, 2]);
        assert_eq!(top_k_indices(&xs, 2), vec![3, 4]);
        assert_eq!(top_k_abs_indices(&xs, 5), vec![3, 5, 1, 4, 0]);
        assert_eq!(top_k_indices(&[f32::NAN; 3], 2), vec![0, 1]);
    }

    /// Keys of a column, one per participant in column order.
    fn keys_of(values: &[f32]) -> Vec<u64> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| order_key(v, i))
            .collect()
    }

    #[test]
    fn sort_weighted_is_stable_and_total() {
        let values = [2.0, 1.0, 2.0, f32::NAN, -0.0, 0.0];
        let mut keys = keys_of(&values);
        keys.sort_unstable();
        // Ties keep column order (stability), −0 precedes +0, NaN sorts
        // last, and the value bits survive the key.
        let order: Vec<usize> = keys.iter().map(|&k| key_pos(k)).collect();
        assert_eq!(order, vec![4, 5, 1, 0, 2, 3]);
        for &k in &keys {
            assert_eq!(key_value(k).to_bits(), values[key_pos(k)].to_bits());
        }
    }

    #[test]
    fn trimmed_sum_drops_both_tails() {
        let (values, weights) = ([900.0, 1.0, -100.0, 3.0], [1.0f32, 2.0, 1.0, 2.0]);
        let (num, den) = keyed_trimmed_sum(&mut keys_of(&values), 1, |i| weights[i]).unwrap();
        assert_eq!(num, 2.0 * 1.0 + 2.0 * 3.0);
        assert_eq!(den, 4.0);
        // k = 0 is the plain weighted sum, folded in value order.
        let (num0, den0) = keyed_trimmed_sum(&mut keys_of(&values), 0, |i| weights[i]).unwrap();
        assert_eq!(num0, -100.0 + 2.0 + 6.0 + 900.0);
        assert_eq!(den0, 6.0);
    }

    #[test]
    fn trimmed_sum_reports_emptying_trims() {
        let w = |_| 1.0f32;
        assert_eq!(keyed_trimmed_sum(&mut keys_of(&[1.0, 2.0]), 1, w), None);
        assert_eq!(keyed_trimmed_sum(&mut keys_of(&[]), 0, w), None);
        assert_eq!(
            keyed_trimmed_sum(&mut keys_of(&[1.0, 2.0, 3.0]), 1, w),
            Some((2.0, 1.0))
        );
    }

    #[test]
    fn weighted_median_lower_convention() {
        let median = |values: &[f32], weights: &[f32]| {
            keyed_lower_median(&mut keys_of(values), |i| weights[i])
        };
        // Odd count, unit weights: the middle value.
        assert_eq!(median(&[9.0, 1.0, 2.0], &[1.0; 3]), Some(2.0));
        // Even count: the lower middle value, never an interpolation.
        assert_eq!(median(&[3.0, 9.0, 2.0, 1.0], &[1.0; 4]), Some(2.0));
        // Weights shift the mass: one heavy sample owns the median.
        assert_eq!(median(&[1.0, 5.0, 9.0], &[1.0, 10.0, 1.0]), Some(5.0));
        assert_eq!(median(&[7.0], &[3.0]), Some(7.0));
        assert_eq!(median(&[], &[]), None);
    }

    #[test]
    fn in_top_k_agrees_with_sorting() {
        let logits = [0.1, 0.9, 0.5, 0.7];
        assert!(in_top_k(&logits, 1, 1));
        assert!(!in_top_k(&logits, 2, 2)); // top-2 = {1,3}
        assert!(in_top_k(&logits, 2, 3));
        assert!(!in_top_k(&logits, 0, 3));
    }
}
