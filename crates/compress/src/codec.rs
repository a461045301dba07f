//! The real wire codec: every upload the server aggregates can travel as
//! actual bytes, not just an analytical byte count.
//!
//! ## Frame layout
//!
//! A [`WireMsg`] is one encoded upload:
//!
//! ```text
//! [0..4)    magic  b"FBWC"
//! [4]       version (currently 1)
//! [5]       body kind: 0 weights-absolute, 1 weights-delta, 2 delta-full
//! [6]       payload tag: 0 dense, 1 sparse-f32, 2 sign-dense,
//!                        3 sparse-sign, 4 quantized
//! [7]       quantisation width in bits (0 unless tag = quantized)
//! [8..16)   payload logical length n (u64 LE)
//! [16..24)  sparse count k (u64 LE; 0 for dense payload kinds)
//! [24..26)  coverage entry count (u16 LE; 0 for delta-full)
//! [26..28)  reserved (0)
//! [28..28+entries)  per-entry coverage kind tags
//!                   (0 full, 1 rows, 2 rows×cols, 3 elements)
//! then the BODY:
//!   coverage pattern bitmaps, entry by entry (kind-dependent length)
//!   payload bytes (format below)
//! ```
//!
//! Everything before the body is *framing* — structural metadata the
//! paper's byte-accounting conventions treat as free (tensor shapes are
//! known to both ends). The **body length equals the analytical
//! `wire_bytes`** reported for the upload, exactly: pattern bitmaps cost
//! 1 bit per label ([`fedbiad_nn::ModelMask::wire_bytes`]) and payloads
//! follow the [`crate::bytes`] conventions (4 B values, 64-bit positions,
//! one 32-bit scale). `tests/byte_accounting.rs` at the workspace root
//! pins this equality for every compressor.
//!
//! A weights body's values are the mask's covered positions in
//! [`fedbiad_nn::mask`]'s flat order: that module decides which positions
//! and in which order ([`walk_runs`]) and how many values each entry sends
//! ([`CoverageMask::entry_kept`], which the parser holds a frame's `n`
//! to), so the encoder here and the streaming reducer that reads the
//! payload back cannot disagree on its layout. This module owns only the
//! mask's wire format: the kind tags and the pattern bitmaps.
//!
//! ## Payload formats (the [`crate::bytes`] conventions, made real)
//!
//! | tag | body | analytical twin |
//! |-----|------|-----------------|
//! | dense | n × f32 | [`crate::bytes::dense_bytes`] |
//! | sparse-f32 | k × u64 positions, k × f32 values | [`crate::bytes::sparse_f32_bytes`] |
//! | sign-dense | f32 µ, ⌈n/8⌉ sign bytes | [`crate::bytes::quantized_bytes`]`(n, 1)` |
//! | sparse-sign | f32 µ, k × u64 positions, ⌈k/8⌉ sign bytes | [`crate::bytes::sparse_ternary_bytes`] |
//! | quantized | f32 scale, ⌈n·bits/8⌉ packed codes | [`crate::bytes::quantized_bytes`] |
//!
//! ## Exactness contract
//!
//! Decoding is **bit-identical** to the in-memory [`crate::Compressed`]
//! reconstruction: every compressor now builds its [`Payload`] first and
//! derives `decoded` from it, so encode → decode is the identity on the
//! decoded values by construction (`crates/compress/tests/codec_props.rs`).
//! This is what lets the sharded streaming reducer in `fedbiad-fl`
//! reproduce the dense reference aggregation bit for bit while decoding
//! straight from wire bytes.
//!
//! Decoders never panic on foreign bytes: truncated or garbled buffers
//! return a structured [`WireError`].

use fedbiad_nn::mask::{walk_runs, BitVec, FlatLayout, Run};
use fedbiad_nn::{CoverageMask, ModelMask, ParamSet};
use fedbiad_tensor::ops;

/// Frame magic: "FedBiad Wire Codec".
pub const MAGIC: [u8; 4] = *b"FBWC";
/// Current frame version.
pub const VERSION: u8 = 1;
/// Fixed frame-header length (before the per-entry coverage tags).
pub const HEADER_BYTES: usize = 28;
/// Payload tag of [`Payload::Dense`].
const DENSE_TAG: u8 = 0;

/// A structural decoding failure. `Display` is the full message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the section a field lives in.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes needed to finish the read.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Magic bytes do not match [`MAGIC`].
    BadMagic,
    /// Unsupported frame version.
    BadVersion(u8),
    /// Unknown body-kind / payload / coverage tag.
    BadTag {
        /// Which tag field was invalid.
        what: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A header field is inconsistent with the model shapes or with
    /// another field (entry counts, lengths, sparse counts, quant width).
    Inconsistent(&'static str),
    /// Sparse positions are not strictly increasing or exceed the
    /// payload's logical length.
    BadPositions,
    /// Trailing bytes after the frame's computed end.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { what, needed, have } => {
                write!(
                    f,
                    "truncated wire frame reading {what}: need {needed} bytes, have {have}"
                )
            }
            WireError::BadMagic => write!(f, "bad wire magic (not an FBWC frame)"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag { what, value } => write!(f, "invalid {what} tag {value}"),
            WireError::Inconsistent(what) => write!(f, "inconsistent wire frame: {what}"),
            WireError::BadPositions => {
                write!(
                    f,
                    "sparse positions must be strictly increasing and in range"
                )
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after wire frame"),
        }
    }
}

impl std::error::Error for WireError {}

/// What the body of a [`WireMsg`] means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodyKind {
    /// Masked weights β∘U: the payload holds the covered values
    /// themselves, indexed by kept-rank in flatten order.
    WeightsAbsolute,
    /// Sketched masked weights (Fig. 5 combos): the payload holds the
    /// covered-subvector *delta against the broadcast global*; the server
    /// reconstructs `g + δ` on covered positions.
    WeightsDelta,
    /// A full-model delta over the whole flat space (sketched-compression
    /// methods); coverage is implicitly full.
    DeltaFull,
}

impl BodyKind {
    fn tag(self) -> u8 {
        match self {
            BodyKind::WeightsAbsolute => 0,
            BodyKind::WeightsDelta => 1,
            BodyKind::DeltaFull => 2,
        }
    }

    fn from_tag(t: u8) -> Result<Self, WireError> {
        match t {
            0 => Ok(BodyKind::WeightsAbsolute),
            1 => Ok(BodyKind::WeightsDelta),
            2 => Ok(BodyKind::DeltaFull),
            v => Err(WireError::BadTag {
                what: "body kind",
                value: v,
            }),
        }
    }
}

// ---- payloads ----

/// A compressor's transmitted payload, in structural form. Positions of
/// sparse kinds are **sorted ascending** (constructors sort; decoders
/// reject anything else).
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Dense f32 values (identity compressor / plain masked weights).
    Dense {
        /// The transmitted values.
        values: Vec<f32>,
    },
    /// Exact values at sparse positions, zero elsewhere (DGC).
    SparseF32 {
        /// Logical vector length n.
        len: usize,
        /// Sorted positions of the transmitted values.
        positions: Vec<u64>,
        /// Values aligned with `positions`.
        values: Vec<f32>,
    },
    /// One shared magnitude, one sign bit per coordinate (signSGD):
    /// coordinate i decodes to `-µ` when its bit is set, `+µ` otherwise.
    SignDense {
        /// Logical vector length n.
        len: usize,
        /// Shared magnitude µ.
        mu: f32,
        /// Packed sign bits (bit i at `bytes[i/8] >> (i%8)`).
        negatives: Vec<u8>,
    },
    /// Shared magnitude at sparse positions, zero elsewhere (STC). Sign
    /// bit j applies to `positions[j]`.
    SparseSign {
        /// Logical vector length n.
        len: usize,
        /// Shared magnitude µ.
        mu: f32,
        /// Sorted positions of the transmitted ternary values.
        positions: Vec<u64>,
        /// Packed sign bits aligned with `positions`.
        negatives: Vec<u8>,
    },
    /// Symmetric uniform quantisation (FedPAQ): code c ∈ [-L, L] stored
    /// as the unsigned `c + L` in `bits` bits, L = 2^(bits-1) − 1;
    /// coordinate i decodes to `c · scale/L`.
    Quantized {
        /// Logical vector length n.
        len: usize,
        /// Quantisation width in bits (2..=16).
        bits: u8,
        /// Shared scale (max |value| of the input).
        scale: f32,
        /// Unsigned codes, one per coordinate (not yet bit-packed).
        codes: Vec<u16>,
    },
}

impl Payload {
    /// Build a sparse-f32 payload from unordered (position, value) pairs.
    pub fn sparse_f32(len: usize, mut pairs: Vec<(usize, f32)>) -> Payload {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        Payload::SparseF32 {
            len,
            positions: pairs.iter().map(|&(i, _)| i as u64).collect(),
            values: pairs.iter().map(|&(_, v)| v).collect(),
        }
    }

    /// Build a sparse-sign payload from unordered (position, negative)
    /// pairs and a shared magnitude.
    pub fn sparse_sign(len: usize, mu: f32, mut pairs: Vec<(usize, bool)>) -> Payload {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut negatives = vec![0u8; pairs.len().div_ceil(8)];
        for (j, &(_, neg)) in pairs.iter().enumerate() {
            if neg {
                negatives[j / 8] |= 1 << (j % 8);
            }
        }
        Payload::SparseSign {
            len,
            mu,
            positions: pairs.iter().map(|&(i, _)| i as u64).collect(),
            negatives,
        }
    }

    /// Build a dense-sign payload from per-coordinate negativity.
    pub fn sign_dense(mu: f32, negative: impl ExactSizeIterator<Item = bool>) -> Payload {
        let len = negative.len();
        let mut bytes = vec![0u8; len.div_ceil(8)];
        for (i, neg) in negative.enumerate() {
            if neg {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        Payload::SignDense {
            len,
            mu,
            negatives: bytes,
        }
    }

    /// Logical length of the decoded vector.
    pub fn logical_len(&self) -> usize {
        match self {
            Payload::Dense { values } => values.len(),
            Payload::SparseF32 { len, .. }
            | Payload::SignDense { len, .. }
            | Payload::SparseSign { len, .. }
            | Payload::Quantized { len, .. } => *len,
        }
    }

    /// Number of transmitted values (k for sparse kinds, n otherwise).
    pub fn sent_values(&self) -> u64 {
        match self {
            Payload::SparseF32 { positions, .. } | Payload::SparseSign { positions, .. } => {
                positions.len() as u64
            }
            other => other.logical_len() as u64,
        }
    }

    /// Exact body bytes on the wire — equal, by construction, to the
    /// matching [`crate::bytes`] analytical count.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Payload::Dense { values } => crate::bytes::dense_bytes(values.len()),
            Payload::SparseF32 { positions, .. } => crate::bytes::sparse_f32_bytes(positions.len()),
            Payload::SignDense { len, .. } => crate::bytes::quantized_bytes(*len, 1),
            Payload::SparseSign { positions, .. } => {
                crate::bytes::sparse_ternary_bytes(positions.len())
            }
            Payload::Quantized { len, bits, .. } => {
                crate::bytes::quantized_bytes(*len, *bits as u32)
            }
        }
    }

    /// Decode the full dense vector. The canonical reconstruction every
    /// compressor's `decoded` field is derived from.
    pub fn decode_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.logical_len()];
        self.decode_range(0, &mut out);
        out
    }

    /// Decode logical positions `[start, start + out.len())` into `out`.
    /// Bit-identical to the matching slice of [`Payload::decode_dense`].
    pub fn decode_range(&self, start: usize, out: &mut [f32]) {
        let end = start + out.len();
        assert!(end <= self.logical_len(), "decode range out of bounds");
        match self {
            Payload::Dense { values } => out.copy_from_slice(&values[start..end]),
            Payload::SparseF32 {
                positions, values, ..
            } => {
                out.fill(0.0);
                let lo = positions.partition_point(|&p| (p as usize) < start);
                for j in lo..positions.len() {
                    let p = positions[j] as usize;
                    if p >= end {
                        break;
                    }
                    out[p - start] = values[j];
                }
            }
            Payload::SignDense { mu, negatives, .. } => {
                for (o, v) in out.iter_mut().enumerate() {
                    let i = start + o;
                    *v = if negatives[i / 8] >> (i % 8) & 1 == 1 {
                        -mu
                    } else {
                        *mu
                    };
                }
            }
            Payload::SparseSign {
                mu,
                positions,
                negatives,
                ..
            } => {
                out.fill(0.0);
                let lo = positions.partition_point(|&p| (p as usize) < start);
                for j in lo..positions.len() {
                    let p = positions[j] as usize;
                    if p >= end {
                        break;
                    }
                    out[p - start] = if negatives[j / 8] >> (j % 8) & 1 == 1 {
                        -mu
                    } else {
                        *mu
                    };
                }
            }
            Payload::Quantized {
                bits, scale, codes, ..
            } => {
                let levels = (1i32 << (bits - 1)) - 1;
                // Same expression order as the FedPAQ compressor:
                // `code * (scale / levels)`.
                let inv_q = scale / levels as f32;
                for (o, v) in out.iter_mut().enumerate() {
                    let code = codes[start + o] as i32 - levels;
                    *v = code as f32 * inv_q;
                }
            }
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Payload::Dense { .. } => DENSE_TAG,
            Payload::SparseF32 { .. } => 1,
            Payload::SignDense { .. } => 2,
            Payload::SparseSign { .. } => 3,
            Payload::Quantized { .. } => 4,
        }
    }

    fn sparse_k(&self) -> usize {
        match self {
            Payload::SparseF32 { positions, .. } | Payload::SparseSign { positions, .. } => {
                positions.len()
            }
            _ => 0,
        }
    }

    fn quant_bits(&self) -> u8 {
        match self {
            Payload::Quantized { bits, .. } => *bits,
            _ => 0,
        }
    }

    /// Append the body bytes (exactly [`Payload::wire_bytes`] of them).
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Payload::Dense { values } => put_f32s(out, values),
            Payload::SparseF32 {
                positions, values, ..
            } => {
                put_u64s(out, positions);
                put_f32s(out, values);
            }
            Payload::SignDense { mu, negatives, .. } => {
                out.extend_from_slice(&mu.to_le_bytes());
                out.extend_from_slice(negatives);
            }
            Payload::SparseSign {
                mu,
                positions,
                negatives,
                ..
            } => {
                out.extend_from_slice(&mu.to_le_bytes());
                put_u64s(out, positions);
                out.extend_from_slice(negatives);
            }
            Payload::Quantized {
                bits, scale, codes, ..
            } => {
                out.extend_from_slice(&scale.to_le_bytes());
                pack_codes(out, codes, *bits);
            }
        }
    }
}

// ---- body writers ----
//
// Bulk little-endian copies: one resize, then fixed-width stores the
// compiler turns into straight copies — not a capacity check and a 4- or
// 8-byte append per element.

/// Append `values` as little-endian `f32`s.
fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    let base = out.len();
    out.resize(base + 4 * values.len(), 0);
    for (dst, v) in out[base..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Append `values` as little-endian `u64`s.
fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    let base = out.len();
    out.resize(base + 8 * values.len(), 0);
    for (dst, v) in out[base..].chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Append `codes` bit-packed little-endian: code `i` occupies bits
/// `[i·bits, (i+1)·bits)` of the stream, each code cut to its low `bits`
/// bits and the last byte zero-padded — `⌈n·bits/8⌉` bytes. Width 8 is a
/// byte per code; every other width goes through a 64-bit accumulator
/// flushed 32 bits at a time (`bits ≤ 16`, so it never holds more than
/// 47).
fn pack_codes(out: &mut Vec<u8>, codes: &[u16], bits: u8) {
    if bits == 8 {
        out.extend(codes.iter().map(|&c| c as u8));
        return;
    }
    let (width, mask) = (u32::from(bits), (1u64 << bits) - 1);
    out.reserve((codes.len() * usize::from(bits)).div_ceil(8));
    let (mut acc, mut have) = (0u64, 0u32);
    for &c in codes {
        acc |= (u64::from(c) & mask) << have;
        have += width;
        if have >= 32 {
            out.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            have -= 32;
        }
    }
    for _ in 0..have.div_ceil(8) {
        out.push(acc as u8);
        acc >>= 8;
    }
}

/// Zero-copy view of an encoded payload: decodes ranges straight from the
/// frame bytes, so the server never materialises a per-client dense
/// vector. All structural validation happens at parse time;
/// range decoding afterwards cannot fail.
#[derive(Clone, Copy, Debug)]
pub struct PayloadView<'a> {
    tag: u8,
    n: usize,
    k: usize,
    bits: u8,
    body: &'a [u8],
}

impl<'a> PayloadView<'a> {
    fn parse(tag: u8, n: usize, k: usize, bits: u8, body: &'a [u8]) -> Result<Self, WireError> {
        // Bound the untrusted header fields *before* any size arithmetic:
        // a hostile k (e.g. u64::MAX) must become a structured error, not
        // a debug-build multiplication overflow. `n` is already bounded
        // by the model size in `WireView::parse`.
        if k > n {
            return Err(WireError::Inconsistent("sparse count exceeds length"));
        }
        let expected: usize = match tag {
            0 => {
                if k != 0 {
                    return Err(WireError::Inconsistent("dense payload with sparse count"));
                }
                4 * n
            }
            1 => 12 * k,
            2 => {
                if k != 0 {
                    return Err(WireError::Inconsistent("dense payload with sparse count"));
                }
                4 + n.div_ceil(8)
            }
            3 => 4 + 8 * k + k.div_ceil(8),
            4 => {
                if !(2..=16).contains(&bits) {
                    return Err(WireError::Inconsistent("quantisation width out of range"));
                }
                if k != 0 {
                    return Err(WireError::Inconsistent("dense payload with sparse count"));
                }
                4 + (n * bits as usize).div_ceil(8)
            }
            v => {
                return Err(WireError::BadTag {
                    what: "payload",
                    value: v,
                })
            }
        };
        if tag != 4 && bits != 0 {
            return Err(WireError::Inconsistent(
                "quant width on non-quantized payload",
            ));
        }
        if body.len() < expected {
            return Err(WireError::Truncated {
                what: "payload body",
                needed: expected,
                have: body.len(),
            });
        }
        if body.len() > expected {
            return Err(WireError::TrailingBytes(body.len() - expected));
        }
        let view = Self {
            tag,
            n,
            k,
            bits,
            body,
        };
        if matches!(tag, 1 | 3) {
            // Positions must be strictly increasing and in range for the
            // binary-searched range decode to be correct.
            let mut prev: Option<usize> = None;
            for j in 0..k {
                let p = view.pos_at(j);
                if p >= n || prev.is_some_and(|q| q >= p) {
                    return Err(WireError::BadPositions);
                }
                prev = Some(p);
            }
        }
        if tag == 4 {
            // Every packed code must sit in the declared symmetric range
            // [0, 2·levels]; a code outside it would decode to a value
            // beyond the transmitted scale (and `to_payload` would then
            // disagree with `decode_range`). Validating here keeps range
            // decoding infallible and the two decode paths identical.
            // Since 2·levels = 2^bits − 2, the only out-of-range value a
            // `bits`-wide field can hold is the all-ones pattern — so the
            // scan reduces to "no code has every bit set". This runs once
            // per upload on the aggregation hot path, so it uses a
            // buffered bit cursor (byte scan at width 8), not the
            // per-element `code_at`; the property test
            // `quant_code_range_is_validated_at_parse` pins it.
            let width = bits as usize;
            let packed = &body[4..4 + (n * width).div_ceil(8)];
            let all_ones = (1u64 << width) - 1;
            let bad = if width == 8 {
                packed.contains(&u8::MAX)
            } else {
                let mut acc = 0u64;
                let mut have = 0usize;
                let mut bytes = packed.iter();
                let mut found = false;
                for _ in 0..n {
                    while have < width {
                        acc |= (*bytes.next().expect("length checked") as u64) << have;
                        have += 8;
                    }
                    if acc & all_ones == all_ones {
                        found = true;
                        break;
                    }
                    acc >>= width;
                    have -= width;
                }
                found
            };
            if bad {
                return Err(WireError::Inconsistent("quant code exceeds level range"));
            }
        }
        Ok(view)
    }

    /// Logical length of the decoded vector.
    pub fn logical_len(&self) -> usize {
        self.n
    }

    /// Raw little-endian value bytes of a dense (tag 0) payload — exactly
    /// `4·n` bytes, value `i` at `[4i, 4i+4)` — or `None` for compressed
    /// payloads. The streaming reducer fuses its accumulate directly over
    /// these bytes, skipping the intermediate decode buffer.
    pub fn dense_values(&self) -> Option<&'a [u8]> {
        (self.tag == 0).then(|| &self.body[..4 * self.n])
    }

    fn pos_section(&self) -> usize {
        match self.tag {
            1 => 0,
            3 => 4,
            _ => unreachable!("positions on dense payload"),
        }
    }

    fn pos_at(&self, j: usize) -> usize {
        let o = self.pos_section() + 8 * j;
        u64::from_le_bytes(self.body[o..o + 8].try_into().expect("8 bytes")) as usize
    }

    fn f32_at(&self, o: usize) -> f32 {
        f32::from_le_bytes(self.body[o..o + 4].try_into().expect("4 bytes"))
    }

    /// Raw (offset-binary) quantisation code of coordinate `i`.
    fn code_at(&self, i: usize) -> u32 {
        debug_assert_eq!(self.tag, 4);
        let packed = &self.body[4..];
        let width = self.bits as usize;
        let mut raw = 0u32;
        let mut got = 0usize;
        let mut bitpos = i * width;
        while got < width {
            let take = (8 - bitpos % 8).min(width - got);
            let part = (packed[bitpos / 8] >> (bitpos % 8)) as u32 & ((1u32 << take) - 1);
            raw |= part << got;
            got += take;
            bitpos += take;
        }
        raw
    }

    /// Index of the first sparse position ≥ `start`.
    fn lower_bound(&self, start: usize) -> usize {
        let (mut lo, mut hi) = (0usize, self.k);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.pos_at(mid) < start {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Decode logical positions `[start, start + out.len())` into `out`,
    /// bit-identical to the matching slice of the compressor's `decoded`
    /// vector.
    pub fn decode_range(&self, start: usize, out: &mut [f32]) {
        let end = start + out.len();
        assert!(end <= self.n, "decode range out of bounds");
        match self.tag {
            0 => {
                let bytes = &self.body[4 * start..4 * end];
                for (v, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                    *v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                }
            }
            1 => {
                out.fill(0.0);
                let values = 8 * self.k; // values section offset
                for j in self.lower_bound(start)..self.k {
                    let p = self.pos_at(j);
                    if p >= end {
                        break;
                    }
                    out[p - start] = self.f32_at(values + 4 * j);
                }
            }
            2 => {
                let mu = self.f32_at(0);
                // Vectorized sign-expand; bit-identical to the scalar
                // `if bit { -mu } else { mu }` loop (negation is an exact
                // sign flip, which is what the kernel applies).
                ops::sign_apply_from_bits(&self.body[4..], start, mu, out);
            }
            3 => {
                out.fill(0.0);
                let mu = self.f32_at(0);
                let signs = &self.body[4 + 8 * self.k..];
                for j in self.lower_bound(start)..self.k {
                    let p = self.pos_at(j);
                    if p >= end {
                        break;
                    }
                    out[p - start] = if signs[j / 8] >> (j % 8) & 1 == 1 {
                        -mu
                    } else {
                        mu
                    };
                }
            }
            4 => {
                let levels = (1i32 << (self.bits - 1)) - 1;
                // Same expression order as the FedPAQ compressor:
                // `code · (scale / levels)`. Codes were range-checked at
                // parse, so this matches `to_payload` exactly.
                let inv_q = self.f32_at(0) / levels as f32;
                if out.is_empty() {
                    return;
                }
                let packed = &self.body[4..];
                if self.bits == 8 {
                    // Byte-aligned width: each code is one byte — a
                    // vectorized widen/subtract/convert (exact per lane).
                    ops::dequant_u8(&packed[start..end], levels, inv_q, out);
                    return;
                }
                // Generic width: one buffered bit cursor across the range
                // instead of recomputing the bit position per element
                // (`code_at` stays as the parse-time validator). The
                // accumulator shifts codes out LSB-first exactly as the
                // per-element extraction assembled them.
                let width = self.bits as usize;
                let mask = (1u64 << width) - 1;
                let phase = (start * width) % 8;
                let mut byte = (start * width) / 8;
                let mut acc = (packed[byte] >> phase) as u64;
                let mut have = 8 - phase;
                byte += 1;
                for v in out.iter_mut() {
                    while have < width {
                        acc |= (packed[byte] as u64) << have;
                        have += 8;
                        byte += 1;
                    }
                    let code = (acc & mask) as u32 as i32 - levels;
                    acc >>= width;
                    have -= width;
                    *v = code as f32 * inv_q;
                }
            }
            _ => unreachable!("tag validated at parse"),
        }
    }

    /// Decode the full dense vector (test/diagnostic convenience).
    pub fn decode_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n];
        self.decode_range(0, &mut out);
        out
    }

    /// Rebuild the structural [`Payload`] (round-trip tests).
    pub fn to_payload(&self) -> Payload {
        match self.tag {
            0 => Payload::Dense {
                values: self.decode_dense(),
            },
            1 => {
                let values = 8 * self.k;
                Payload::SparseF32 {
                    len: self.n,
                    positions: (0..self.k).map(|j| self.pos_at(j) as u64).collect(),
                    values: (0..self.k).map(|j| self.f32_at(values + 4 * j)).collect(),
                }
            }
            2 => Payload::SignDense {
                len: self.n,
                mu: self.f32_at(0),
                negatives: self.body[4..4 + self.n.div_ceil(8)].to_vec(),
            },
            3 => Payload::SparseSign {
                len: self.n,
                mu: self.f32_at(0),
                positions: (0..self.k).map(|j| self.pos_at(j) as u64).collect(),
                negatives: self.body[4 + 8 * self.k..].to_vec(),
            },
            4 => {
                // Codes were range-checked at parse; no clamping needed.
                let codes = (0..self.n).map(|i| self.code_at(i) as u16).collect();
                Payload::Quantized {
                    len: self.n,
                    bits: self.bits,
                    scale: self.f32_at(0),
                    codes,
                }
            }
            _ => unreachable!("tag validated at parse"),
        }
    }
}

// ---- byte-cursor helpers ----

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                what,
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

// ---- coverage mask codec ----

fn mask_tag(m: &CoverageMask) -> u8 {
    match m {
        CoverageMask::Full => 0,
        CoverageMask::Rows(_) => 1,
        CoverageMask::RowsCols { .. } => 2,
        CoverageMask::Elements(_) => 3,
    }
}

/// Pattern-bitmap bytes of one entry's coverage (its share of the body).
fn mask_pattern_bytes(m: &CoverageMask, out: &mut Vec<u8>) {
    match m {
        CoverageMask::Full => {}
        CoverageMask::Rows(rows) => out.extend_from_slice(&rows.to_le_bytes()),
        CoverageMask::RowsCols { rows, cols } => {
            out.extend_from_slice(&rows.to_le_bytes());
            out.extend_from_slice(&cols.to_le_bytes());
        }
        CoverageMask::Elements(bits) => out.extend_from_slice(&bits.to_le_bytes()),
    }
}

fn decode_mask(
    tag: u8,
    rows: usize,
    cols: usize,
    r: &mut Reader,
) -> Result<CoverageMask, WireError> {
    Ok(match tag {
        0 => CoverageMask::Full,
        1 => CoverageMask::Rows(BitVec::from_le_bytes(
            r.bytes(rows.div_ceil(8), "row bitmap")?,
            rows,
        )),
        2 => {
            let rb = BitVec::from_le_bytes(r.bytes(rows.div_ceil(8), "row bitmap")?, rows);
            let cb = BitVec::from_le_bytes(r.bytes(cols.div_ceil(8), "col bitmap")?, cols);
            CoverageMask::RowsCols { rows: rb, cols: cb }
        }
        3 => CoverageMask::Elements(BitVec::from_le_bytes(
            r.bytes((rows * cols).div_ceil(8), "element bitmap")?,
            rows * cols,
        )),
        v => {
            return Err(WireError::BadTag {
                what: "coverage",
                value: v,
            })
        }
    })
}

// ---- the frame ----

/// One encoded upload: header + coverage + payload, ready for the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct WireMsg {
    bytes: Vec<u8>,
}

impl WireMsg {
    /// The raw frame bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstruct from raw bytes (validated lazily by [`WireMsg::view`]).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// Body length: everything after the framing (header + coverage-kind
    /// tags). This is the number the paper's byte accounting reports —
    /// asserted equal to the upload's analytical `wire_bytes`.
    pub fn body_bytes(&self) -> u64 {
        let entries = if self.bytes.len() >= HEADER_BYTES {
            u16::from_le_bytes([self.bytes[24], self.bytes[25]]) as usize
        } else {
            0
        };
        (self.bytes.len().saturating_sub(HEADER_BYTES + entries)) as u64
    }

    /// Parse and validate against the server's model `shapes`, returning
    /// a zero-copy view. All structural checks happen here; range
    /// decoding afterwards cannot fail.
    pub fn view(&self, shapes: &ParamSet) -> Result<WireView<'_>, WireError> {
        WireView::parse(&self.bytes, shapes)
    }
}

/// The frame up to its payload — header, coverage tags and pattern
/// bitmaps — with room reserved for `payload_bytes` more. `fields` is
/// the payload's (tag, quantisation width, logical length, sparse count).
fn frame_head(
    kind: BodyKind,
    masks: Option<&ModelMask>,
    fields: (u8, u8, usize, usize),
    payload_bytes: usize,
) -> Vec<u8> {
    let (tag, bits, n, k) = fields;
    let entries = masks.map(|m| m.per_entry.len()).unwrap_or(0);
    let mut bytes = Vec::with_capacity(HEADER_BYTES + entries + payload_bytes);
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.push(kind.tag());
    bytes.push(tag);
    bytes.push(bits);
    bytes.extend_from_slice(&(n as u64).to_le_bytes());
    bytes.extend_from_slice(&(k as u64).to_le_bytes());
    bytes.extend_from_slice(&(entries as u16).to_le_bytes());
    bytes.extend_from_slice(&[0, 0]);
    if let Some(m) = masks {
        for e in &m.per_entry {
            bytes.push(mask_tag(e));
        }
        for e in &m.per_entry {
            mask_pattern_bytes(e, &mut bytes);
        }
    }
    bytes
}

fn encode_frame(kind: BodyKind, masks: Option<&ModelMask>, payload: &Payload) -> WireMsg {
    let fields = (
        payload.tag(),
        payload.quant_bits(),
        payload.logical_len(),
        payload.sparse_k(),
    );
    let mut bytes = frame_head(kind, masks, fields, payload.wire_bytes() as usize);
    payload.encode_body(&mut bytes);
    WireMsg { bytes }
}

/// Encode a (masked) weights upload β∘U: coverage bitmaps + the covered
/// values in [`ParamSet::flatten`] order, as a dense payload. The values
/// go straight into the frame, one bulk copy per covered run of
/// [`walk_runs`] — a covered row, a `Full` matrix, a transmitted bias
/// vector. The body is exactly `mask.wire_bytes(params)` bytes.
pub fn encode_weights(params: &ParamSet, mask: &ModelMask) -> WireMsg {
    assert_eq!(mask.per_entry.len(), params.num_entries());
    let kept = mask.kept_params(params);
    let mut bytes = frame_head(
        BodyKind::WeightsAbsolute,
        Some(mask),
        (DENSE_TAG, 0, kept, 0),
        4 * kept,
    );
    let payload_start = bytes.len();
    let layout = FlatLayout::of(params);
    for e in 0..params.num_entries() {
        let (m, bias) = (params.mat(e).as_slice(), params.bias(e));
        let range = layout.entry_range(e);
        walk_runs(&mask.per_entry, &layout, range.start, range.len(), |run| {
            if let Run::Covered { local, n, .. } = run {
                let src = if local < m.len() {
                    &m[local..]
                } else {
                    &bias[local - m.len()..]
                };
                put_f32s(&mut bytes, &src[..n]);
            }
        });
    }
    debug_assert_eq!(bytes.len() - payload_start, 4 * kept);
    WireMsg { bytes }
}

/// Encode a sketched masked-weights upload (Fig. 5 combos): coverage
/// bitmaps + the compressor's payload over the covered-subvector delta.
pub fn encode_weights_delta(mask: &ModelMask, payload: &Payload) -> WireMsg {
    encode_frame(BodyKind::WeightsDelta, Some(mask), payload)
}

/// Encode a full-space delta upload (sketched-compression methods).
pub fn encode_delta(payload: &Payload) -> WireMsg {
    encode_frame(BodyKind::DeltaFull, None, payload)
}

/// A parsed, validated wire frame: what the streaming reducer consumes.
/// Coverage masks are decoded eagerly (they are bit-sized); payload
/// values are decoded on demand, straight from the frame bytes.
#[derive(Clone, Debug)]
pub struct WireView<'a> {
    /// Body semantics.
    pub kind: BodyKind,
    /// Per-entry coverage (empty for [`BodyKind::DeltaFull`]).
    pub masks: Vec<CoverageMask>,
    /// The decoded-on-demand payload.
    pub payload: PayloadView<'a>,
}

impl<'a> WireView<'a> {
    fn parse(bytes: &'a [u8], shapes: &ParamSet) -> Result<WireView<'a>, WireError> {
        let mut r = Reader::new(bytes);
        let magic = r.bytes(4, "magic")?;
        if magic != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.bytes(1, "version")?[0];
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = BodyKind::from_tag(r.bytes(1, "body kind")?[0])?;
        let ptag = r.bytes(1, "payload tag")?[0];
        let qbits = r.bytes(1, "quant bits")?[0];
        let nb = r.bytes(8, "payload length")?;
        let n = u64::from_le_bytes(nb.try_into().expect("8 bytes")) as usize;
        let kb = r.bytes(8, "sparse count")?;
        let k = u64::from_le_bytes(kb.try_into().expect("8 bytes")) as usize;
        let eb = r.bytes(2, "entry count")?;
        let entries = u16::from_le_bytes([eb[0], eb[1]]) as usize;
        r.bytes(2, "reserved")?;

        if n > shapes.total_params() {
            return Err(WireError::Inconsistent("payload longer than the model"));
        }

        let masks = match kind {
            BodyKind::DeltaFull => {
                if entries != 0 {
                    return Err(WireError::Inconsistent("delta frame carries coverage"));
                }
                if n != shapes.total_params() {
                    return Err(WireError::Inconsistent("delta length must equal the model"));
                }
                Vec::new()
            }
            BodyKind::WeightsAbsolute | BodyKind::WeightsDelta => {
                if entries != shapes.num_entries() {
                    return Err(WireError::Inconsistent("coverage entry count mismatch"));
                }
                let tags = r.bytes(entries, "coverage tags")?.to_vec();
                let mut masks = Vec::with_capacity(entries);
                let mut kept = 0usize;
                for (e, &tag) in tags.iter().enumerate() {
                    let m = shapes.mat(e);
                    let mask = decode_mask(tag, m.rows(), m.cols(), &mut r)?;
                    kept += mask.entry_kept(shapes, e);
                    masks.push(mask);
                }
                if n != kept {
                    return Err(WireError::Inconsistent(
                        "payload length must equal the covered count",
                    ));
                }
                masks
            }
        };

        let payload = PayloadView::parse(ptag, n, k, qbits, r.bytes(r.remaining(), "body")?)?;
        Ok(WireView {
            kind,
            masks,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_nn::params::{EntryMeta, LayerKind};
    use fedbiad_tensor::Matrix;

    fn shapes() -> ParamSet {
        let mut p = ParamSet::new();
        p.push_entry(
            Matrix::from_vec(3, 2, (0..6).map(|v| v as f32).collect()),
            Some(vec![10.0, 11.0, 12.0]),
            EntryMeta::new("w", LayerKind::DenseHidden, true, true),
        );
        p.push_entry(
            Matrix::from_vec(2, 2, vec![20.0, 21.0, 22.0, 23.0]),
            None,
            EntryMeta::new("e", LayerKind::Embedding, false, true),
        );
        p
    }

    #[test]
    fn dense_weights_round_trip_in_flatten_order() {
        let p = shapes();
        let mut rows = BitVec::new(3, true);
        rows.set(1, false);
        let mask = ModelMask {
            per_entry: vec![CoverageMask::Rows(rows), CoverageMask::Full],
        };
        let msg = encode_weights(&p, &mask);
        assert_eq!(msg.body_bytes(), mask.wire_bytes(&p));
        let view = msg.view(&p).unwrap();
        assert_eq!(view.kind, BodyKind::WeightsAbsolute);
        assert_eq!(view.masks, mask.per_entry);
        // Kept values: rows 0 and 2 of entry 0 (+ their biases), all of
        // entry 1.
        let want = vec![0.0, 1.0, 4.0, 5.0, 10.0, 12.0, 20.0, 21.0, 22.0, 23.0];
        assert_eq!(view.payload.decode_dense(), want);
    }

    #[test]
    fn payload_range_decode_matches_dense() {
        let payloads = vec![
            Payload::Dense {
                values: vec![1.0, -2.0, 0.0, 4.5],
            },
            Payload::sparse_f32(9, vec![(7, -1.5), (2, 3.0), (4, 0.25)]),
            Payload::sign_dense(0.75, [true, false, false, true, true].into_iter()),
            Payload::sparse_sign(10, 2.5, vec![(9, true), (0, false), (5, true)]),
            Payload::Quantized {
                len: 5,
                bits: 8,
                scale: 1.0,
                codes: vec![0, 127, 254, 200, 13],
            },
            Payload::Quantized {
                len: 7,
                bits: 5,
                scale: 0.5,
                codes: vec![0, 15, 30, 7, 22, 1, 29],
            },
        ];
        for p in payloads {
            let dense = p.decode_dense();
            for start in 0..dense.len() {
                for len in 0..=(dense.len() - start) {
                    let mut out = vec![f32::NAN; len];
                    p.decode_range(start, &mut out);
                    let want = &dense[start..start + len];
                    assert!(
                        out.iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{p:?} range {start}+{len}: {out:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_frame_round_trips_every_payload_kind() {
        let p = shapes();
        let n = p.total_params();
        let payloads = vec![
            Payload::Dense {
                values: (0..n).map(|i| i as f32 - 6.0).collect(),
            },
            Payload::sparse_f32(n, vec![(0, 1.0), (n - 1, -1.0)]),
            Payload::sign_dense(0.5, (0..n).map(|i| i % 3 == 0)),
            Payload::sparse_sign(n, 1.25, vec![(3, true), (8, false)]),
            Payload::Quantized {
                len: n,
                bits: 8,
                scale: 2.0,
                codes: (0..n).map(|i| (i * 17 % 255) as u16).collect(),
            },
        ];
        for payload in payloads {
            let msg = encode_delta(&payload);
            assert_eq!(msg.body_bytes(), payload.wire_bytes(), "{payload:?}");
            let view = msg.view(&p).unwrap();
            assert_eq!(view.kind, BodyKind::DeltaFull);
            assert_eq!(view.payload.to_payload(), payload);
            // And the zero-copy range decode agrees with the structural one.
            let dense = payload.decode_dense();
            let viewed = view.payload.decode_dense();
            assert!(dense
                .iter()
                .zip(&viewed)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn garbled_frames_error_instead_of_panicking() {
        let p = shapes();
        let msg = encode_weights(&p, &ModelMask::full(&p));
        // Truncation at every prefix length must be a clean error.
        for cut in 0..msg.as_bytes().len() {
            let truncated = WireMsg::from_bytes(msg.as_bytes()[..cut].to_vec());
            assert!(truncated.view(&p).is_err(), "cut at {cut}");
        }
        // Corrupt magic / version / tags.
        for (pos, what) in [
            (0, "magic"),
            (4, "version"),
            (5, "kind"),
            (6, "payload tag"),
        ] {
            let mut bytes = msg.as_bytes().to_vec();
            bytes[pos] = 0xEE;
            assert!(
                WireMsg::from_bytes(bytes).view(&p).is_err(),
                "corrupt {what}"
            );
        }
        // Unsorted sparse positions.
        let bad = Payload::SparseF32 {
            len: p.total_params(),
            positions: vec![5, 5],
            values: vec![1.0, 2.0],
        };
        let msg = encode_delta(&bad);
        assert_eq!(msg.view(&p).unwrap_err(), WireError::BadPositions);
        // Out-of-range position.
        let bad = Payload::SparseF32 {
            len: p.total_params(),
            positions: vec![p.total_params() as u64],
            values: vec![1.0],
        };
        assert_eq!(
            encode_delta(&bad).view(&p).unwrap_err(),
            WireError::BadPositions
        );
    }

    #[test]
    fn hostile_sparse_count_is_an_error_not_an_overflow() {
        // Regression: a frame whose k header field is u64::MAX used to
        // overflow the expected-size multiplication in debug builds
        // before the k ≤ n bound was checked.
        let p = shapes();
        let msg = encode_delta(&Payload::sparse_f32(p.total_params(), vec![(0, 1.0)]));
        let mut bytes = msg.as_bytes().to_vec();
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            WireMsg::from_bytes(bytes).view(&p).unwrap_err(),
            WireError::Inconsistent("sparse count exceeds length")
        );
    }

    #[test]
    fn out_of_range_quant_codes_are_rejected_at_parse() {
        // Regression: a corrupted 8-bit frame carrying raw code 255
        // (levels = 127, max valid offset code 254) used to pass parse,
        // with decode_range and to_payload then disagreeing on it.
        let payload = Payload::Quantized {
            len: 3,
            bits: 8,
            scale: 1.0,
            codes: vec![0, 254, 100],
        };
        let p = {
            let mut p = ParamSet::new();
            p.push_entry(
                Matrix::full(1, 3, 0.0),
                None,
                EntryMeta::new("flat", LayerKind::DenseHidden, false, true),
            );
            p
        };
        let msg = encode_delta(&payload);
        assert!(msg.view(&p).is_ok());
        let mut bytes = msg.as_bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] = 255; // third code → 255 > 2·levels
        assert_eq!(
            WireMsg::from_bytes(bytes).view(&p).unwrap_err(),
            WireError::Inconsistent("quant code exceeds level range")
        );
    }

    #[test]
    fn sign_of_negative_zero_survives_the_wire() {
        // −0.0 and +0.0 differ in bits; the codec must preserve the sign
        // bit or the streaming path diverges from the dense reference.
        let payload = Payload::sign_dense(0.0, [false, true].into_iter());
        let dec = payload.decode_dense();
        assert_eq!(dec[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(dec[1].to_bits(), (-0.0f32).to_bits());
    }
}
