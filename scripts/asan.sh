#!/usr/bin/env bash
# AddressSanitizer leg for the `unsafe` in `fedbiad-tensor` and in the
# vendored rayon pool: unit tests and property tests, every load and
# store instrumented. In `ops.rs` that is the AVX / AVX-512 register
# tiles of the batched GEMMs and the intrinsic bodies that remain
# (`dot4`, `axpy4`); in `math.rs`, the one hand-written body left, the
# `exp` table gather under `exp_slice` / `sigmoid_slice` (and
# `tanh_slice`'s unchecked float-to-int conversion, which touches no
# memory); in `cpu.rs`, the calls into the AVX, AVX2 and AVX2+FMA
# instantiations of the loop kernels (safe slice loops — the
# element-wise kernels and `math`'s `tanh`, `ln`, `cos2pi` and Gaussian
# slice forms — so `simd_props`, `math_props` and `gaussian_props`
# check their values here, not their bounds); in `stats.rs`, which has no
# AVX2 bodies, the one unchecked row access of `KeyTile::sort`'s
# comparator loop. The `kernel_props` shapes land
# on each tile's edge accesses — the last chunk of a row whose length is
# not a multiple of 8, the last tile row of a matrix — and, on a host
# with AVX-512F, on those of the 512-bit tiles (`ops::zmm`: `nt_groups` /
# `nt_4x8` over the packed sample block and the weight rows' broadcast
# chunks, `acc_tile` up to 24 vectors, the last `n mod 16` columns);
# without it they do not run, and `kernel_props` says so. `math_props`
# runs every slice length 0..=17 at four alignments through the 8-lane
# and scalar seams and the `exp` table gather, and `gaussian_props` does
# the same for `gaussian_slice` (eight alignments, NaN canaries on both
# sides of the destination, `ln_slice` / `cos2pi_slice` over both whole
# 24-bit grids), so an out-of-bounds lane there is reported, not read.
# `order_stat_props` runs the keyed order-statistic kernels over columns
# of 0..=300 participants at every trim depth, and `column_sort_props`
# drives `KeyTile::{sort, push_columns}` — the comparator network over a
# tile's aligned rows and its four-column key gather — over blocks of
# 0..=300 rows with 1 to 4 lanes.
#
# The same flags then cover the slicing that wire bytes drive:
# `fedbiad-compress` (lib + tests: the frame parser, `WireView` /
# `PayloadView` decode and the codec property tests) and the root
# `aggregation_equivalence` suite (the streaming engine's shard and
# column-tile indexing into decoded frames, against the dense oracle, at
# 1/2/8 threads and four shard sizes).
#
# Needs a nightly toolchain (`-Zsanitizer`); doctests are left out because
# they do not link under ASan. CI's `asan` job runs this same script.
#
# `--cfg fedbiad_asan`: `kernel_props` compares NaN as NaN in this leg,
# and `wire_golden` holds DGC to its NaN-as-NaN digest.
# Which of two NaN operands an add returns is the compiler's choice per
# loop, instrumented code chooses differently, and the properties that pin
# NaN encodings fail under ASan on the commit before the tiles as well.
set -euo pipefail
cd "$(dirname "$0")/.."
export RUSTFLAGS="-Zsanitizer=address --cfg fedbiad_asan"
target=x86_64-unknown-linux-gnu
cargo +nightly test --offline \
    -p fedbiad-tensor -p rayon -p fedbiad-compress \
    --target "$target" --lib --tests "$@"
cargo +nightly test --offline \
    -p fedbiad --test aggregation_equivalence \
    --target "$target" "$@"
