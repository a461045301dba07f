//! Wire-byte goldens for the client write side: FNV-1a digests over the
//! exact frame bytes `codec::encode_delta` / `codec::encode_weights`
//! produce, and over the `ClientState` each compressor leaves behind.
//!
//! The inputs are deterministic deltas laced with the operands a
//! compressor has to get right — ±0, ±∞, NaNs of both signs (and a
//! signalling payload), |v| ties of both signs, values that land exactly
//! half-way between two quantisation levels, all-equal and all-zero
//! vectors — at lengths {0, 1, 7, 8, 9, 4097, 101 770} (the last is the
//! MLP's parameter count). DGC runs six rounds, through its warm-up, with
//! its state carried; FedPAQ runs at widths 2, 8 and 16.
//!
//! The constants were taken before the write side was rewritten
//! (integer-key top-k, the libm-free quantiser, bulk body writers) and
//! must not move: a change on the write side is bit-identical, or it is a
//! wire-format change and says so.

use fedbiad_compress::codec::{encode_delta, encode_weights, HEADER_BYTES};
use fedbiad_compress::dgc::Dgc;
use fedbiad_compress::fedpaq::FedPaq;
use fedbiad_compress::signsgd::SignSgd;
use fedbiad_compress::stc::Stc;
use fedbiad_compress::{ClientState, Compressor};
use fedbiad_nn::mask::BitVec;
use fedbiad_nn::params::{EntryMeta, LayerKind};
use fedbiad_nn::{CoverageMask, ModelMask, ParamSet};
use fedbiad_tensor::rng::{stream, StreamTag};
use fedbiad_tensor::Matrix;
use rand::rngs::StdRng;

const LENGTHS: [usize; 7] = [0, 1, 7, 8, 9, 4097, 101_770];
/// The top-k compressors keep at least one value, so they need n ≥ 1.
const NONEMPTY: &[usize] = &[1, 7, 8, 9, 4097, 101_770];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, xs: &[f32], nan: Nan) {
        self.bytes(&(xs.len() as u64).to_le_bytes());
        for &x in xs {
            self.bytes(&nan.bits(x).to_le_bytes());
        }
    }
}

/// How a digest reads NaN.
#[derive(Clone, Copy)]
enum Nan {
    /// Every bit, payload and sign included.
    Exact,
    /// Every NaN as one NaN. Which of two NaN operands an IEEE add
    /// returns is the code generator's choice, per build: STC and signSGD
    /// subtract a NaN decode from a NaN residual, so their NaN encodings
    /// differ between opt-levels and say nothing about the write side.
    AsNan,
}

impl Nan {
    fn bits(self, x: f32) -> u32 {
        match self {
            Nan::AsNan if x.is_nan() => 0x7fc0_0000,
            _ => x.to_bits(),
        }
    }
}

/// SplitMix64: the inputs depend on nothing but this file.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-2, 2).
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
    }
}

/// The input families. `levels` picks where the quantiser ties sit.
#[derive(Clone, Copy, Debug)]
enum Family {
    /// Uniform values laced with ±0, NaNs and |v| ties (no infinity, so
    /// FedPAQ's scale stays finite).
    Laced,
    /// `Laced` plus ±∞.
    LacedInf,
    /// Half-integers in [−L, L] with |v| = L present: FedPAQ's scale is L,
    /// its step exactly 1, and every other code is a rounding tie.
    QuantTies(i32),
    /// Every element 0.75.
    AllEqual,
    /// Every element +0.0.
    AllZero,
}

fn delta(fam: Family, n: usize, salt: u64) -> Vec<f32> {
    let mut mix = Mix(salt.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ n as u64);
    (0..n)
        .map(|i| match fam {
            Family::Laced | Family::LacedInf => {
                let pick = mix.next() % 16;
                match pick {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::NAN,
                    3 => f32::from_bits(0xffc0_0000), // negative quiet NaN
                    4 => f32::from_bits(0x7f80_0001), // signalling payload
                    5 => 0.5,
                    6 => -0.5,
                    7 if matches!(fam, Family::LacedInf) => f32::INFINITY,
                    8 if matches!(fam, Family::LacedInf) => f32::NEG_INFINITY,
                    _ => mix.unit(),
                }
            }
            Family::QuantTies(levels) => {
                if i == 0 {
                    levels as f32
                } else if mix.next().is_multiple_of(13) {
                    f32::NAN
                } else {
                    let span = 4 * levels as u64 + 1;
                    ((mix.next() % span) as f32 - 2.0 * levels as f32) / 2.0
                }
            }
            Family::AllEqual => 0.75,
            Family::AllZero => 0.0,
        })
        .collect()
}

fn rng() -> StdRng {
    stream(28, StreamTag::Compress, 0, 0)
}

/// A delta frame's bytes, its floats read as `nan` says: a sparse-f32
/// body's values (after `k` positions) and a sign body's leading µ.
fn frame_bytes(frame: &[u8], nan: Nan) -> Vec<u8> {
    let mut frame = frame.to_vec();
    if matches!(nan, Nan::AsNan) {
        let k = u64::from_le_bytes(frame[16..24].try_into().unwrap()) as usize;
        let floats = match frame[6] {
            1 => HEADER_BYTES + 8 * k..HEADER_BYTES + 12 * k,
            2 | 3 => HEADER_BYTES..HEADER_BYTES + 4,
            _ => 0..0,
        };
        for word in frame[floats].chunks_exact_mut(4) {
            let v = f32::from_le_bytes(word.try_into().unwrap());
            word.copy_from_slice(&nan.bits(v).to_le_bytes());
        }
    }
    frame
}

/// Digest of `rounds` rounds of `comp` over every length and `families`:
/// each round's `encode_delta` frame, then the final state.
fn compressor_digest(
    comp: &dyn Compressor,
    families: &[Family],
    lengths: &[usize],
    rounds: usize,
    nan: Nan,
) -> u64 {
    let mut h = Fnv::new();
    for &fam in families {
        for &n in lengths {
            let mut st = ClientState::default();
            for round in 0..rounds {
                let d = delta(fam, n, round as u64 + 1);
                let c = comp.compress(&mut st, &d, round, &mut rng());
                h.bytes(&frame_bytes(encode_delta(&c.payload).as_bytes(), nan));
                // `decoded` is the payload's reconstruction; a change that
                // stops deriving it so shows up here too.
                h.f32s(&c.decoded, nan);
                h.bytes(&c.wire_bytes.to_le_bytes());
                h.bytes(&c.sent_values.to_le_bytes());
            }
            h.f32s(&st.residual, nan);
            h.f32s(&st.velocity, nan);
        }
    }
    h.0
}

const GENERIC: [Family; 4] = [
    Family::Laced,
    Family::LacedInf,
    Family::AllEqual,
    Family::AllZero,
];

fn fedpaq_digest(bits: u32) -> u64 {
    let levels = (1i32 << (bits - 1)) - 1;
    let mut fams = GENERIC.to_vec();
    fams.push(Family::QuantTies(levels));
    compressor_digest(&FedPaq { bits }, &fams, &LENGTHS, 2, Nan::Exact)
}

/// The MLP's shapes (784 → 128 → 10, biased: 101 770 parameters) plus a
/// small odd entry, filled from the laced family.
fn model() -> ParamSet {
    let mut p = ParamSet::new();
    let mut vals = delta(Family::LacedInf, 101_770 + 15 + 3, 99).into_iter();
    let mut take = |n: usize| -> Vec<f32> { vals.by_ref().take(n).collect() };
    let w1 = take(128 * 784);
    p.push_entry(
        Matrix::from_vec(128, 784, w1),
        Some(take(128)),
        EntryMeta::new("w1", LayerKind::DenseHidden, true, true),
    );
    let w2 = take(10 * 128);
    p.push_entry(
        Matrix::from_vec(10, 128, w2),
        Some(take(10)),
        EntryMeta::new("w2", LayerKind::DenseOutput, true, false),
    );
    let w3 = take(3 * 5);
    p.push_entry(
        Matrix::from_vec(3, 5, w3),
        Some(take(3)),
        EntryMeta::new("w3", LayerKind::DenseHidden, true, true),
    );
    p
}

fn rows_mask(rows: usize, salt: u64) -> BitVec {
    let mut mix = Mix(salt);
    let mut b = BitVec::new(rows, false);
    for r in 0..rows {
        b.set(r, !mix.next().is_multiple_of(3));
    }
    b
}

fn weights_digest(mask_of: impl Fn(usize, &Matrix) -> CoverageMask) -> u64 {
    let p = model();
    let mask = ModelMask {
        per_entry: (0..p.num_entries()).map(|e| mask_of(e, p.mat(e))).collect(),
    };
    let frame = encode_weights(&p, &mask);
    assert_eq!(frame.body_bytes(), mask.wire_bytes(&p));
    let mut h = Fnv::new();
    h.bytes(frame.as_bytes());
    h.0
}

/// Print every digest (for re-deriving the table after a deliberate
/// wire-format change): `cargo test -p fedbiad-compress --test
/// wire_golden -- --ignored --nocapture`.
#[test]
#[ignore = "prints the digests; the pinned ones are asserted below"]
fn print_digests() {
    println!("dgc       {:#018x}", dgc(Nan::Exact));
    println!("dgc nan   {:#018x}", dgc(Nan::AsNan));
    println!("fedpaq2   {:#018x}", fedpaq_digest(2));
    println!("fedpaq8   {:#018x}", fedpaq_digest(8));
    println!("fedpaq16  {:#018x}", fedpaq_digest(16));
    println!("stc       {:#018x}", stc());
    println!("signsgd   {:#018x}", signsgd());
    println!("w_full    {:#018x}", weights_full());
    println!("w_rows    {:#018x}", weights_rows());
    println!("w_elems   {:#018x}", weights_elements());
}

fn dgc(nan: Nan) -> u64 {
    compressor_digest(&Dgc::paper(), &GENERIC, NONEMPTY, 6, nan)
}

fn stc() -> u64 {
    compressor_digest(&Stc::paper(), &GENERIC, NONEMPTY, 3, Nan::AsNan)
        ^ compressor_digest(
            &Stc { keep_fraction: 0.3 },
            &GENERIC,
            NONEMPTY,
            3,
            Nan::AsNan,
        )
        .rotate_left(1)
}

fn signsgd() -> u64 {
    compressor_digest(&SignSgd::default(), &GENERIC, &LENGTHS, 3, Nan::AsNan)
}

fn weights_full() -> u64 {
    weights_digest(|_, _| CoverageMask::Full)
}

fn weights_rows() -> u64 {
    weights_digest(|e, m| CoverageMask::Rows(rows_mask(m.rows(), e as u64 + 7)))
}

fn weights_elements() -> u64 {
    weights_digest(|e, m| CoverageMask::Elements(rows_mask(m.len(), e as u64 + 11)))
}

/// [`dgc`] read NaN-as-NaN, taken on the parent with the exact digest.
const NAN_AS_NAN_DGC: u64 = 0x9bc1_5ad0_5626_79f0;

/// DGC's NaN encodings are exact in every optimised build. The ASan leg
/// (`scripts/asan.sh`, `--cfg fedbiad_asan`) instruments the momentum
/// loop, which then hands back the other of two NaN operands, so there it
/// is held to the NaN-as-NaN digest — taken on the same parent commit.
#[test]
fn dgc_frames_and_state_are_pinned() {
    if cfg!(fedbiad_asan) {
        assert_eq!(dgc(Nan::AsNan), NAN_AS_NAN_DGC);
    } else {
        assert_eq!(dgc(Nan::Exact), 0xa7c1_1ef0_9d4d_316c);
    }
}

#[test]
fn fedpaq_frames_are_pinned_at_widths_2_8_16() {
    assert_eq!(fedpaq_digest(2), 0x91ca_1405_c9b7_47dc);
    assert_eq!(fedpaq_digest(8), 0x1c13_6953_36af_e4ea);
    assert_eq!(fedpaq_digest(16), 0x5bc4_9e91_fd17_1498);
}

#[test]
fn stc_frames_and_state_are_pinned() {
    assert_eq!(stc(), 0xab79_fc9a_ae6f_0da4);
}

#[test]
fn signsgd_frames_and_state_are_pinned() {
    assert_eq!(signsgd(), 0xbb86_a7fa_083b_0bf1);
}

#[test]
fn weights_frames_are_pinned_under_full_rows_and_elements() {
    assert_eq!(weights_full(), 0x8082_6cf4_f0b1_48d5);
    assert_eq!(weights_rows(), 0xed74_170c_fd15_0f68);
    assert_eq!(weights_elements(), 0x5f15_307b_2e47_ce4a);
}
