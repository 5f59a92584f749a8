//! High-performance GEMM kernels: register-tiled, fused, and
//! element-generic — the hot-path engine behind [`Matrix`] matmul, the
//! dense-layer forward/backward passes (`f64`), and the compiled `f32`
//! serving forward every MLP detector scores through.
//!
//! # Design
//!
//! * **Register-tiled rank-1 micro-kernel.** The output is walked in
//!   `IT × JT` tiles whose accumulators live entirely in SIMD
//!   registers. Each step along the shared dimension broadcasts one
//!   element of `A` per tile row and performs a rank-1 update against a
//!   contiguous `JT`-wide slice of a `B` row. The inner loop is pure
//!   broadcast-FMA with **no reduction dependency**, so it
//!   auto-vectorises to the machine's FMA throughput instead of being
//!   serialised on a loop-carried accumulator chain.
//! * **Element-generic tiles.** The packing, tile and row kernels are
//!   written once over an `Element` (`f64` for training, `f32` for
//!   the compiled serving artifact), with the tile widths `JT`/`JW` as
//!   const generics each entry point picks for its type. Every tile
//!   row is two 256-bit vectors: `8 × 8` for `f64`, `8 × 16` for
//!   `f32`, both 16 ymm accumulators, with `JW = 64`. The eight tile
//!   rows are eight named accumulators, never an array walked by a
//!   loop: a row loop lets LLVM vectorise across the tile's rows with
//!   gathers and scatters, which made the first `8 × 16` `f32` tile
//!   run 3–10× slower than `8 × 8`. Inspect the codegen (`objdump -d`
//!   on the release rlib) before changing a tile shape; CI fails if
//!   any kernels function, the `f32` forward among them, contains a
//!   gather or scatter.
//! * **Fused multiply-add, fixed order.** The accumulators update via
//!   `Element::fma` (`f64::mul_add` / `f32::mul_add`) — the IEEE-754
//!   `fusedMultiplyAdd`, a single correctly-rounded operation the
//!   optimiser maps to the hardware FMA instruction. Rust never
//!   contracts separate `a * b + c` into FMA on its own, so spelling it
//!   out roughly doubles multiply-add throughput. Every output element
//!   owns a single accumulator, started at zero and filled in
//!   ascending order of the shared dimension, so results are **exactly
//!   reproducible** (bitwise across runs, shapes and batch sizes);
//!   they differ from the naive mul-then-add triple loop only by the
//!   per-step rounding, which the property tests bound to tight
//!   tolerance. The naive loop survives as the reference oracle, and a
//!   fixed-order `fma` loop as the bitwise oracle of the `f32` path.
//! * **Unrolled dot kernel.** [`dot_unrolled`] carries sixteen
//!   positional accumulators (independent SIMD chains) combined
//!   through a fixed reduction tree. It serves [`gemv`], where the
//!   reduction dimension is contiguous on both operands and there is
//!   only one output column to amortise loads over.
//! * **Determinism contract.** Every output element is a *pure
//!   function of its own row of `A` and column of `B`* with a fixed
//!   summation order. Results are therefore bitwise identical across
//!   batch sizes, tile shapes and fused/unfused paths.
//! * **Exact-zero steps skipped on the `f32` single row.** A ReLU
//!   network feeds every layer after the first an input that is mostly
//!   exact zeros, and at `m = 1` the forward is bound by streaming the
//!   weights. [`gemm_bias_f32`] therefore compacts each single-row
//!   input (the `m = 1` path and the `m mod 8` tail rows) branch-free to
//!   its non-zero steps and streams only those weight rows, in the same
//!   ascending order. That is exact: `fma(±0, w, acc) == acc` for a
//!   finite `w` and any `acc` but `−0`, which an accumulator started at
//!   `+0` reaches only by underflow, and whose sign no later sum,
//!   ReLU or `sigmoid(±0)` can see. A weight matrix holding a NaN or an
//!   infinity ([`F32Weights`]) keeps every step, so it still poisons
//!   the result. The 8-row panels stay dense: a step is zero for all
//!   eight rows far less often, and testing for it inside the tile
//!   loop cost the batched path about 8% in a prototype.
//! * **Single-threaded.** Every kernel runs on the calling thread. The
//!   networks here are small enough that splitting one GEMM across
//!   threads lost to running it inline; callers parallelise
//!   independent units (folds, seeds, tables) instead, each with its
//!   own [`Scratch`].
//! * **Scratch reuse.** All `*_into` entry points write into
//!   caller-owned buffers and carry their pack buffer and accounting
//!   in a [`Scratch`], so steady-state callers (the trainer step loop,
//!   the temporal serve path) perform zero heap allocations;
//!   [`gemm_bias_f32`] takes its pack buffer from the caller (the
//!   compiled forward's workspace, which counts its own growth).
//!
//! [`Matrix`]: crate::Matrix

use crate::vecops::relu;

/// Output rows per register tile — also the packed-panel height.
/// Shared by every element type: it is part of the packed layout
/// [`pack_panels`] writes.
const IT: usize = 8;
/// Output columns per `f64` register tile. With [`IT`] rows the `8 × 8`
/// tile keeps 16 accumulator ymm vectors (8 zmm) in registers on both
/// 256-bit and 512-bit files — measured fastest on this generation of
/// hardware; wider or taller tiles spill accumulators to the stack and
/// collapse throughput.
const F64_JT: usize = 8;
/// Column width of the `f64` single-row micro-kernel used for the
/// final `rows mod IT` tail rows and for tiny batches (the `m = 1`
/// per-record path): independent vector accumulators hide FMA latency
/// where a narrow single-row tile would serialise on its own dependency
/// chain. The `m = 1` path is bound by streaming the weight matrix
/// from cache, so wider or memory-resident strips measure no better.
const F64_JW: usize = 64;
/// Output columns per `f32` register tile: two 256-bit vectors per tile
/// row, so the `8 × 16` tile holds 16 ymm accumulators, and each step
/// is 2 vector loads of `B`, 8 broadcasts of `A` and 16
/// `vfmadd231ps`. The same width once ran 3–10× slower: with the tile
/// rows walked by a loop, LLVM vectorised across rows with gathers and
/// scatters, which [`micro_panel`]'s named row accumulators rule out
/// (CI rejects any `vgather`/`vscatter` in the kernels).
const F32_JT: usize = 16;
/// Column width of the `f32` single-row micro-kernel (see [`F64_JW`]):
/// eight 256-bit accumulators per strip.
const F32_JW: usize = 64;
/// Input steps [`sparse_row`] compacts per pass, as `u8` offsets into
/// the pass (so at most 256): every layer of the paper MLP (`k ≤ 256`)
/// compacts in one pass, and a wider input carries its partial sums
/// across passes in the output row.
const ROW_CHUNK: usize = 1 << u8::BITS;

/// A floating-point element the tiled kernels are generic over: `f64`
/// (training, Grad-CAM, the GRU) and `f32` (the compiled serving
/// forward).
///
/// Only the operations the kernels need: a zero to start every
/// accumulator from, the fused multiply-add that fills it, and the
/// addition that applies a bias after the accumulation.
pub(crate) trait Element: Copy + std::ops::Add<Output = Self> {
    /// The additive identity every accumulator starts from.
    const ZERO: Self;
    /// `self · b + acc` with a single rounding (IEEE-754
    /// `fusedMultiplyAdd`).
    fn fma(self, b: Self, acc: Self) -> Self;
}

impl Element for f64 {
    const ZERO: Self = 0.0;
    #[inline(always)]
    fn fma(self, b: Self, acc: Self) -> Self {
        self.mul_add(b, acc)
    }
}

impl Element for f32 {
    const ZERO: Self = 0.0;
    #[inline(always)]
    fn fma(self, b: Self, acc: Self) -> Self {
        self.mul_add(b, acc)
    }
}

/// Reusable workspace for the packed kernels.
///
/// Owns the pack buffer so that repeated kernel calls — a training
/// step loop, a GRU serving step — allocate nothing once the buffer
/// has grown to the largest shape in play. [`Scratch::reallocs`]
/// counts the growth events, which is what the zero-allocation
/// steady-state tests assert on.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    packed: Vec<f64>,
    reallocs: u64,
}

impl Scratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of times any tracked buffer had to grow. Constant across
    /// iterations ⇒ the steady state performs no heap allocations here.
    pub fn reallocs(&self) -> u64 {
        self.reallocs
    }

    /// Records a buffer growth that happened outside the scratch itself
    /// (e.g. an output [`Matrix`](crate::Matrix) handed to a `*_into`
    /// kernel had to grow), so a single counter covers a whole
    /// workspace: pass the `true` returns of
    /// [`Matrix::ensure_shape`](crate::Matrix::ensure_shape) here and
    /// assert [`Scratch::reallocs`] is flat in the steady state.
    pub fn note_grow(&mut self) {
        self.reallocs += 1;
    }

    /// Borrows a `len`-sized pack buffer, growing (and counting the
    /// growth) only when the current capacity is insufficient.
    // lint:allow-region(index, reason = "hot GEMM/GEMV kernels: every index is governed by the dimension asserts at each kernel's entry, and get()/checked forms defeat the autovectoriser this file exists for")
    fn pack_space(&mut self, len: usize) -> &mut [f64] {
        if len > self.packed.capacity() {
            self.reallocs += 1;
        }
        self.packed.resize(len, 0.0);
        &mut self.packed[..len]
    }
}

// Everything below (the kernels proper, down to the tests) must stay
// allocation-free: scratch growth is only legal inside
// Scratch::pack_space above, where it is counted by `reallocs`.
// lint:no_alloc

/// The elementwise activation [`gemm_bias_act`] applies to `z`.
///
/// A small `Copy` value the kernel matches once per finished row block
/// rather than calling per element: [`Relu`](Epilogue::Relu) and
/// [`Identity`](Epilogue::Identity) run as inlined, vectorised loops;
/// any other scalar function rides along as [`Map`](Epilogue::Map)
/// (every `fn(f64) -> f64` converts through [`From`]) and costs one
/// indirect call per element.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue {
    /// `a = z`.
    Identity,
    /// `a = max(z, 0)` — [`vecops::relu`](crate::vecops::relu).
    Relu,
    /// `a = f(z)`.
    Map(fn(f64) -> f64),
}

impl From<fn(f64) -> f64> for Epilogue {
    fn from(f: fn(f64) -> f64) -> Self {
        Epilogue::Map(f)
    }
}

impl Epilogue {
    /// Writes `out[i] = act(z[i])` over equal-length slices.
    fn apply(self, z: &[f64], out: &mut [f64]) {
        match self {
            Epilogue::Identity => out.copy_from_slice(z),
            Epilogue::Relu => {
                for (o, &v) in out.iter_mut().zip(z) {
                    *o = relu(v);
                }
            }
            Epilogue::Map(f) => {
                for (o, &v) in out.iter_mut().zip(z) {
                    *o = f(v);
                }
            }
        }
    }
}

/// The `k × n` weights of one [`gemm_bias_f32`] layer and whether every
/// one of them is finite.
///
/// The single-row walk skips an exact-zero input step only when the
/// weights are all finite: `0 · ±inf` and `0 · NaN` are NaN, so a
/// non-finite weight facing a zero input must still be multiplied in.
/// A plain `&[f32]` or `&Vec<f32>` converts through `From`, which scans
/// the weights once; a caller scoring the same weights many times
/// caches the scan and passes it to [`F32Weights::with_finiteness`], as
/// the compiled MLP does per layer.
#[derive(Debug, Clone, Copy)]
pub struct F32Weights<'a> {
    values: &'a [f32],
    all_finite: bool,
}

impl<'a> F32Weights<'a> {
    /// Wraps `values` with a cached finiteness scan: `all_finite` must
    /// equal `values.iter().all(|w| w.is_finite())`. A stale `true`
    /// lets a zero input hide a non-finite weight (debug builds check).
    pub fn with_finiteness(values: &'a [f32], all_finite: bool) -> Self {
        debug_assert_eq!(
            all_finite,
            values.iter().all(|w| w.is_finite()),
            "F32Weights: stale finiteness"
        );
        Self { values, all_finite }
    }
}

impl<'a, W: AsRef<[f32]> + ?Sized> From<&'a W> for F32Weights<'a> {
    /// Wraps `values`, scanning them for a NaN or an infinity.
    fn from(values: &'a W) -> Self {
        let values = values.as_ref();
        Self {
            values,
            all_finite: values.iter().all(|w| w.is_finite()),
        }
    }
}

/// Scalar lanes per unrolled dot-product step. Sixteen positional
/// accumulators auto-vectorise into four independent 4-lane SIMD
/// chains, hiding FMA latency (a single vector accumulator would stall
/// on its own loop-carried dependency).
const DOT_LANES: usize = 16;

/// Fixed reduction tree over the sixteen lane accumulators — part of
/// the determinism contract: the combine order never varies.
#[inline]
fn reduce_lanes(acc: &[f64; DOT_LANES]) -> f64 {
    let q0 = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let q1 = (acc[4] + acc[5]) + (acc[6] + acc[7]);
    let q2 = (acc[8] + acc[9]) + (acc[10] + acc[11]);
    let q3 = (acc[12] + acc[13]) + (acc[14] + acc[15]);
    (q0 + q1) + (q2 + q3)
}

/// Dot product over sixteen positional accumulators (lane `l` sums the
/// elements at positions `≡ l (mod 16)`), combined through a fixed
/// reduction tree, plus an in-order scalar tail. The arithmetic order
/// depends only on the slice length, never on layout or blocking,
/// which is what makes the kernels built on it bitwise-reproducible.
///
/// # Panics
///
/// Panics (in debug builds) if the slices have different lengths.
#[inline]
pub fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot_unrolled: length mismatch");
    let blocks = a.len() / DOT_LANES;
    let (ab, a_tail) = a.split_at(blocks * DOT_LANES);
    let (bb, b_tail) = b.split_at(blocks * DOT_LANES);
    let mut acc = [0.0f64; DOT_LANES];
    for (ca, cb) in ab.chunks_exact(DOT_LANES).zip(bb.chunks_exact(DOT_LANES)) {
        for l in 0..DOT_LANES {
            acc[l] = ca[l].mul_add(cb[l], acc[l]);
        }
    }
    let mut tail = 0.0;
    for (x, y) in a_tail.iter().zip(b_tail) {
        tail = x.mul_add(*y, tail);
    }
    reduce_lanes(&acc) + tail
}

/// Packs the left operand of a rank-1-update product into panels: full
/// panels of [`IT`] rows are stored *step-major* (`panel[s·IT + r] =
/// lhs(p0 + r, s)`, so one contiguous [`IT`]-chunk per step feeds the
/// micro-kernel's broadcasts), and the final `rows mod IT` tail rows
/// are stored row-major for the single-row wide kernel. `lhs(r, s) =
/// lhs[r·lrs + s·lss]` — `(lrs, lss) = (k, 1)` packs the rows of a
/// row-major `A`, `(1, ca)` its columns (the implicit transpose of
/// [`gemm_tn`]). Packing is pure data movement: it never touches the
/// per-element accumulation order.
fn pack_panels<T: Element>(
    rows: usize,
    steps: usize,
    lhs: &[T],
    lrs: usize,
    lss: usize,
    packed: &mut [T],
) {
    debug_assert_eq!(packed.len(), rows * steps);
    let full = rows - rows % IT;
    for p0 in (0..full).step_by(IT) {
        let dst = &mut packed[p0 * steps..(p0 + IT) * steps];
        for (s, chunk) in dst.chunks_exact_mut(IT).enumerate() {
            for (r, d) in chunk.iter_mut().enumerate() {
                *d = lhs[(p0 + r) * lrs + s * lss];
            }
        }
    }
    for i in full..rows {
        let dst = &mut packed[i * steps..(i + 1) * steps];
        for (s, d) in dst.iter_mut().enumerate() {
            *d = lhs[i * lrs + s * lss];
        }
    }
}

/// One tile row's rank-1 update: `acc[l] = fma(a, rv[l], acc[l])`
/// across a fixed `JT`-wide row — one or two vector FMAs with `a`
/// broadcast.
#[inline(always)]
fn row<T: Element, const JT: usize>(acc: &mut [T; JT], a: T, rv: &[T; JT]) {
    for (c, &b) in acc.iter_mut().zip(rv) {
        *c = a.fma(b, *c);
    }
}

/// `IT × JT` register-tile micro-kernel: `acc[r][l] =
/// fma(panel(s, r), rhs[s·rss + j0 + l], acc[r][l])` over all `steps`,
/// with `panel` step-major as laid out by [`pack_panels`]. Every output
/// element owns a single accumulator filled in ascending `s` — the
/// determinism contract every caller relies on. The fixed-size
/// `try_into` reborrows give the optimiser check-free, fixed-width
/// inner loops, and returning the tile by value keeps the accumulators
/// in registers.
///
/// The eight tile rows are eight named accumulators, each updated by
/// [`row`], never an array walked by a loop, which LLVM vectorises
/// across rows with gathers and scatters (see [`F32_JT`]). Always
/// inlined, like [`micro_panel_edge`]: [`gemm`] and the fused forward
/// share the `f64` instance, and out of line each tile would return
/// through memory.
#[inline(always)]
fn micro_panel<T: Element, const JT: usize>(
    steps: usize,
    panel: &[T],
    rhs: &[T],
    rss: usize,
    j0: usize,
) -> [[T; JT]; IT] {
    let [mut a0, mut a1, mut a2, mut a3, mut a4, mut a5, mut a6, mut a7] = [[T::ZERO; JT]; IT];
    for s in 0..steps {
        let rv: &[T; JT] = rhs[s * rss + j0..s * rss + j0 + JT]
            .try_into()
            // lint:allow(panic, reason = "infallible: the slice is exactly JT long by construction; try_into is a free fixed-width reborrow")
            .expect("micro_panel: tile");
        let avs: &[T; IT] = panel[s * IT..s * IT + IT]
            .try_into()
            // lint:allow(panic, reason = "infallible: the slice is exactly IT long by construction; try_into is a free fixed-width reborrow")
            .expect("micro_panel: panel");
        let [x0, x1, x2, x3, x4, x5, x6, x7] = *avs;
        row(&mut a0, x0, rv);
        row(&mut a1, x1, rv);
        row(&mut a2, x2, rv);
        row(&mut a3, x3, rv);
        row(&mut a4, x4, rv);
        row(&mut a5, x5, rv);
        row(&mut a6, x6, rv);
        row(&mut a7, x7, rv);
    }
    [a0, a1, a2, a3, a4, a5, a6, a7]
}

/// Edge variant of [`micro_panel`] for a tile narrower than `JT`
/// (`jw` columns, e.g. the width-1 output head). The accumulators are
/// held transposed — one [`IT`]-wide column per output lane — so each
/// step is one full-width FMA across the panel's rows instead of `IT`
/// narrow ones; the tile is transposed back on return. Columns are
/// walked one at a time over all steps: with the step loop innermost
/// the column vectorises across rows for every element type (column
/// innermost made LLVM vectorise `f32` across columns with gathers and
/// scatters). The per-element accumulation order is identical to
/// [`micro_panel`] (single accumulator, ascending `s`), so edge tiles
/// keep the bitwise contract.
#[inline(always)]
fn micro_panel_edge<T: Element, const JT: usize>(
    panel: &[T],
    rhs: &[T],
    rss: usize,
    j0: usize,
    jw: usize,
) -> [[T; JT]; IT] {
    let mut cols = [[T::ZERO; IT]; JT];
    for (l, col) in cols.iter_mut().enumerate().take(jw) {
        for (avs, brow) in panel.chunks_exact(IT).zip(rhs.chunks_exact(rss)) {
            let x = brow[j0 + l];
            for r in 0..IT {
                col[r] = avs[r].fma(x, col[r]);
            }
        }
    }
    let mut acc = [[T::ZERO; JT]; IT];
    for (l, col) in cols.iter().enumerate() {
        for (acc_row, &v) in acc.iter_mut().zip(col) {
            acc_row[l] = v;
        }
    }
    acc
}

/// `1 × JW` single-row micro-kernel for the `f64` tail rows and tiny
/// batches (the `f32` single rows run [`sparse_row`]):
/// independent vector accumulators across `JW` columns hide the FMA
/// latency that a single narrow tile would serialise on. Same
/// per-element order as [`micro_panel`]: single accumulator, ascending
/// `s`.
#[inline]
fn micro_row<T: Element, const JW: usize>(arow: &[T], rhs: &[T], rss: usize, j0: usize) -> [T; JW] {
    let mut acc = [T::ZERO; JW];
    for (&av, brow) in arow.iter().zip(rhs.chunks_exact(rss)) {
        // lint:allow(panic, reason = "infallible: the slice is exactly JW long by construction; try_into is a free fixed-width reborrow")
        let rv: &[T; JW] = brow[j0..j0 + JW].try_into().expect("micro_row: tile");
        for l in 0..JW {
            acc[l] = av.fma(rv[l], acc[l]);
        }
    }
    acc
}

/// Edge variant of [`micro_row`] for fewer than `JW` remaining
/// columns; identical per-element accumulation order.
#[inline]
fn micro_row_edge<T: Element, const JW: usize>(
    arow: &[T],
    rhs: &[T],
    rss: usize,
    j0: usize,
    jw: usize,
) -> [T; JW] {
    let mut acc = [T::ZERO; JW];
    for (&av, brow) in arow.iter().zip(rhs.chunks_exact(rss)) {
        let rv = &brow[j0..j0 + jw];
        for (lane, &x) in acc.iter_mut().zip(rv) {
            *lane = av.fma(x, *lane);
        }
    }
    acc
}

/// Indexed sibling of [`micro_row`] for [`sparse_row`]: `acc[l] =
/// fma(vals[s], rhs[s·rss + j0 + l], acc[l])` for each kept step `s` in
/// order, continuing from the partial sums in `zs` (exactly `JW` long)
/// and storing them back. Every weight row is still a contiguous
/// `JW`-wide load; only its address comes from `steps`.
#[inline]
fn micro_row_steps<T: Element, const JW: usize>(
    steps: &[u8],
    vals: &[T],
    rhs: &[T],
    rss: usize,
    j0: usize,
    zs: &mut [T],
) {
    // lint:allow(panic, reason = "infallible: the caller passes exactly JW elements; try_into is a free fixed-width reborrow")
    let zs: &mut [T; JW] = zs.try_into().expect("micro_row_steps: strip");
    let mut acc = *zs;
    for &s in steps {
        let s = usize::from(s);
        let av = vals[s];
        let rv: &[T; JW] = rhs[s * rss + j0..s * rss + j0 + JW]
            .try_into()
            // lint:allow(panic, reason = "infallible: the slice is exactly JW long by construction; try_into is a free fixed-width reborrow")
            .expect("micro_row_steps: tile");
        for l in 0..JW {
            acc[l] = av.fma(rv[l], acc[l]);
        }
    }
    *zs = acc;
}

/// Edge variant of [`micro_row_steps`] for fewer than `JW` remaining
/// columns (`zs.len()` of them); identical per-element order.
#[inline]
fn micro_row_steps_edge<T: Element, const JW: usize>(
    steps: &[u8],
    vals: &[T],
    rhs: &[T],
    rss: usize,
    j0: usize,
    zs: &mut [T],
) {
    let jw = zs.len();
    let mut acc = [T::ZERO; JW];
    acc[..jw].copy_from_slice(zs);
    for &s in steps {
        let s = usize::from(s);
        let av = vals[s];
        for (lane, &x) in acc.iter_mut().zip(&rhs[s * rss + j0..s * rss + j0 + jw]) {
            *lane = av.fma(x, *lane);
        }
    }
    zs.copy_from_slice(&acc[..jw]);
}

/// One single-row output of the `f32` forward, `zrow = arow · rhs +
/// bias` for a `arow.len() × n` row-major `rhs`, streaming only the
/// weight rows whose input step is non-zero (every row when
/// `skip_zeros` is false).
///
/// Each pass compacts up to [`ROW_CHUNK`] steps branch-free into a
/// stack list of their `u8` offsets: every offset is written, and the
/// write cursor moves past it only if the step is kept, so a
/// data-dependent zero costs no mispredicted branch. The `64`-wide
/// strips then `fma` the kept steps in ascending order into partial
/// sums that start at `+0` in `zrow`, and the bias is added once at
/// the end, so each element is the dense chain of [`micro_row`] minus
/// its exact-zero steps (exact for finite weights; see the module
/// docs).
fn sparse_row(
    arow: &[f32],
    rhs: &[f32],
    n: usize,
    bias: &[f32],
    zrow: &mut [f32],
    skip_zeros: bool,
) {
    let mut kept_steps = [0u8; ROW_CHUNK];
    zrow.fill(0.0);
    for (c, chunk) in arow.chunks(ROW_CHUNK).enumerate() {
        let mut kept = 0;
        for (s, &v) in chunk.iter().enumerate() {
            kept_steps[kept] = s as u8;
            kept += usize::from(!skip_zeros || v != 0.0);
        }
        let steps = &kept_steps[..kept];
        let rows = &rhs[c * ROW_CHUNK * n..];
        let mut j0 = 0;
        while j0 < n {
            let jw = F32_JW.min(n - j0);
            let zs = &mut zrow[j0..j0 + jw];
            if jw == F32_JW {
                micro_row_steps::<f32, F32_JW>(steps, chunk, rows, n, j0, zs);
            } else {
                micro_row_steps_edge::<f32, F32_JW>(steps, chunk, rows, n, j0, zs);
            }
            j0 += jw;
        }
    }
    for (z, &b) in zrow.iter_mut().zip(bias) {
        *z += b;
    }
}

/// Walks a `rows × cols` output in register tiles over a packed left
/// operand (see [`pack_panels`]): full [`IT`]-row panels through the
/// `IT × JT` tile kernel (panel outermost, so the packed panel stays
/// L1-resident while `rhs` streams), tail rows through the `1 × JW`
/// wide kernel. Every finished row segment is handed to
/// `store(row, j0, values)`. `rhs` is the full right operand
/// (`steps × rss` row-major); `packed` holds exactly `rows · steps`
/// elements.
fn rank1_tiles<T: Element, const JT: usize, const JW: usize, F: FnMut(usize, usize, &[T])>(
    steps: usize,
    rows: usize,
    cols: usize,
    packed: &[T],
    rhs: &[T],
    rss: usize,
    mut store: F,
) {
    debug_assert_eq!(packed.len(), rows * steps);
    debug_assert_eq!(rhs.len(), steps * rss);
    let full = rows - rows % IT;
    for p0 in (0..full).step_by(IT) {
        let panel = &packed[p0 * steps..(p0 + IT) * steps];
        let mut j0 = 0;
        while j0 < cols {
            let jw = JT.min(cols - j0);
            let acc = if jw == JT {
                micro_panel::<T, JT>(steps, panel, rhs, rss, j0)
            } else {
                micro_panel_edge::<T, JT>(panel, rhs, rss, j0, jw)
            };
            for (r, row_acc) in acc.iter().enumerate() {
                store(p0 + r, j0, &row_acc[..jw]);
            }
            j0 += jw;
        }
    }
    for i in full..rows {
        let arow = &packed[i * steps..(i + 1) * steps];
        let mut j0 = 0;
        while j0 < cols {
            let jw = JW.min(cols - j0);
            let acc = if jw == JW {
                micro_row::<T, JW>(arow, rhs, rss, j0)
            } else {
                micro_row_edge::<T, JW>(arow, rhs, rss, j0, jw)
            };
            store(i, j0, &acc[..jw]);
            j0 += jw;
        }
    }
}

/// `out = packed · rhs` over a packed left operand of `rows × steps`
/// (see [`pack_panels`]) and a `steps × row_len` right operand; `out`
/// is `rows × row_len`, fully overwritten.
fn gemm_rows(
    steps: usize,
    rows: usize,
    row_len: usize,
    packed: &[f64],
    rhs: &[f64],
    out: &mut [f64],
) {
    rank1_tiles::<f64, F64_JT, F64_JW, _>(
        steps,
        rows,
        row_len,
        packed,
        rhs,
        row_len,
        |r, j0, vals| {
            out[r * row_len + j0..r * row_len + j0 + vals.len()].copy_from_slice(vals);
        },
    );
}

/// Fused-forward sibling of [`gemm_rows`], generic over the element:
/// the matmul term plus the bias broadcast, stored to `z` tile by
/// tile. The bias is added once, after the full accumulation; the
/// caller applies the activation to the finished output (one
/// [`Epilogue`] match for `f64`, none per element).
fn fused_rows<T: Element, const JT: usize, const JW: usize>(
    steps: usize,
    rows: usize,
    row_len: usize,
    packed: &[T],
    rhs: &[T],
    bias: &[T],
    z: &mut [T],
) {
    rank1_tiles::<T, JT, JW, _>(steps, rows, row_len, packed, rhs, row_len, |r, j0, vals| {
        let zrow = &mut z[r * row_len + j0..r * row_len + j0 + vals.len()];
        for ((zv, &v), &b) in zrow.iter_mut().zip(vals).zip(&bias[j0..]) {
            *zv = v + b;
        }
    });
}

/// `out = A · B` — the register-tiled GEMM. `a` is `m × k`, `b` is
/// `k × n`, `out` is `m × n` (fully overwritten). Exactly reproducible:
/// bitwise identical for every batch size; matches
/// [`Matrix::matmul_naive`](crate::Matrix::matmul_naive) to tight
/// tolerance (the kernel accumulates with fused multiply-adds in the
/// naive loop's order; only the per-step rounding differs).
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
pub fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    scratch: &mut Scratch,
) {
    assert_eq!(a.len(), m * k, "gemm: lhs length");
    assert_eq!(b.len(), k * n, "gemm: rhs length");
    assert_eq!(out.len(), m * n, "gemm: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let packed = scratch.pack_space(m * k);
    pack_panels(m, k, a, k, 1, packed);
    gemm_rows(k, m, n, packed, b, out);
}

/// `out = A · B^T` without materialising the transpose: `a` is `m × k`,
/// `b` is `n × k` (row-major, so row `j` of `b` *is* column `j` of
/// `B^T` — the transposed panel a packing step would otherwise build),
/// `out` is `m × n`. This is `δ · W^T` in the dense backward pass — `W`
/// is stored `in × out`. The kernel transposes `b` into the reusable
/// [`Scratch`] (pure data movement, zero steady-state allocations) and
/// runs the same register-tiled rank-1 micro-kernel as [`gemm`], so
/// every element accumulates in ascending-`k` FMA order: exactly
/// reproducible, and matching
/// `a.matmul_naive(&b.transpose())` to tight tolerance.
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
pub fn gemm_nt(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    scratch: &mut Scratch,
) {
    assert_eq!(a.len(), m * k, "gemm_nt: lhs length");
    assert_eq!(b.len(), n * k, "gemm_nt: rhs length");
    assert_eq!(out.len(), m * n, "gemm_nt: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let space = scratch.pack_space(m * k + k * n);
    let (packed, bt) = space.split_at_mut(m * k);
    pack_panels(m, k, a, k, 1, packed);
    // Transpose `b` (n × k) into `bt` (k × n): sequential writes,
    // strided reads. Data movement only — no arithmetic order changes.
    for (s, btrow) in bt.chunks_exact_mut(n).enumerate() {
        for (j, d) in btrow.iter_mut().enumerate() {
            *d = b[j * k + s];
        }
    }
    gemm_rows(k, m, n, packed, bt, out);
}

/// `out = A^T · B` without materialising the transpose: `a` is
/// `m × ca`, `b` is `m × cb`, `out` is `ca × cb`. This is `x^T · δ` in
/// the dense backward pass. Runs on the same register-tiled rank-1
/// micro-kernel as [`gemm`] with the shared dimension being the rows of
/// both operands; every element accumulates in ascending row order with
/// fused multiply-adds, so the result is exactly reproducible and
/// matches `a.transpose().matmul_naive(&b)` to tight tolerance.
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
pub fn gemm_tn(
    m: usize,
    ca: usize,
    cb: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    scratch: &mut Scratch,
) {
    assert_eq!(a.len(), m * ca, "gemm_tn: lhs length");
    assert_eq!(b.len(), m * cb, "gemm_tn: rhs length");
    assert_eq!(out.len(), ca * cb, "gemm_tn: out length");
    if ca == 0 || cb == 0 {
        return;
    }
    if m == 0 {
        out.fill(0.0);
        return;
    }
    let packed = scratch.pack_space(ca * m);
    pack_panels(ca, m, a, 1, ca, packed);
    gemm_rows(m, ca, cb, packed, b, out);
}

/// Fused dense forward: `z = x · W + bias` (bias broadcast over rows)
/// and `act_out = act(z)`. `x` is `m × k`, `w` is `k × n` (the layer's
/// `in × out` weights), `bias` has length `n`, `z` and `act_out` are
/// `m × n`. `act` is an [`Epilogue`] or any `fn(f64) -> f64`.
///
/// The matmul term runs on the same micro-kernel as [`gemm`] and the
/// bias is added once after the full accumulation, so `z` is bitwise
/// identical to the unfused `gemm` + row-broadcast sequence, and
/// `act_out` to the activation mapped over it — across batch sizes.
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_act(
    m: usize,
    k: usize,
    n: usize,
    x: &[f64],
    w: &[f64],
    bias: &[f64],
    z: &mut [f64],
    act_out: &mut [f64],
    act: impl Into<Epilogue>,
    scratch: &mut Scratch,
) {
    // Only the conversion is generic: the tile walk below is compiled
    // once, here, rather than into every crate that calls this.
    fused_forward(m, k, n, x, w, bias, z, act_out, act.into(), scratch);
}

/// The body of [`gemm_bias_act`].
#[allow(clippy::too_many_arguments)]
fn fused_forward(
    m: usize,
    k: usize,
    n: usize,
    x: &[f64],
    w: &[f64],
    bias: &[f64],
    z: &mut [f64],
    act_out: &mut [f64],
    act: Epilogue,
    scratch: &mut Scratch,
) {
    assert_eq!(x.len(), m * k, "gemm_bias_act: input length");
    assert_eq!(w.len(), k * n, "gemm_bias_act: weight length");
    assert_eq!(bias.len(), n, "gemm_bias_act: bias length");
    assert_eq!(z.len(), m * n, "gemm_bias_act: z length");
    assert_eq!(act_out.len(), m * n, "gemm_bias_act: act length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        for zrow in z.chunks_exact_mut(n) {
            zrow.copy_from_slice(bias);
        }
        act.apply(z, act_out);
        return;
    }
    let packed = scratch.pack_space(m * k);
    pack_panels(m, k, x, k, 1, packed);
    fused_rows::<f64, F64_JT, F64_JW>(k, m, n, packed, w, bias, z);
    act.apply(z, act_out);
}

/// The compiled serving forward's dense layer in `f32`: `out = x · W +
/// bias` (bias broadcast over rows). `x` is `m × k`, `w` is `k × n`
/// (a slice, or an [`F32Weights`] that carries its cached finiteness
/// scan), `bias` has length `n`, `out` is `m × n` (fully overwritten),
/// and `packed` is the caller's pack buffer of exactly `m · k`
/// elements. The caller applies the activation to `out`.
///
/// Full 8-row panels run the same `8 × 16` tile walk as
/// [`gemm_bias_act`], instantiated at `f32`. The single rows (`m = 1`,
/// and the `m mod 8` tail rows of a batch) stream only the weight rows
/// facing a non-zero input when every weight is finite (see the module
/// docs). Either way each output element is `fma`-accumulated from
/// `+0` in ascending `k` over the steps it reads, then the bias is
/// added once — so every element depends only on its own row of `x`,
/// results are bitwise identical for every batch size, and they equal
/// the dense fixed-order chain bit for bit, except that an exactly-zero
/// result reached through an underflow may carry the other sign.
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_f32<'w>(
    m: usize,
    k: usize,
    n: usize,
    x: &[f32],
    w: impl Into<F32Weights<'w>>,
    bias: &[f32],
    out: &mut [f32],
    packed: &mut [f32],
) {
    fused_f32(m, k, n, x, w.into(), bias, out, packed);
}

/// The body of [`gemm_bias_f32`].
#[allow(clippy::too_many_arguments)]
fn fused_f32(
    m: usize,
    k: usize,
    n: usize,
    x: &[f32],
    w: F32Weights<'_>,
    bias: &[f32],
    out: &mut [f32],
    packed: &mut [f32],
) {
    let F32Weights {
        values: w,
        all_finite,
    } = w;
    assert_eq!(x.len(), m * k, "gemm_bias_f32: input length");
    assert_eq!(w.len(), k * n, "gemm_bias_f32: weight length");
    assert_eq!(bias.len(), n, "gemm_bias_f32: bias length");
    assert_eq!(out.len(), m * n, "gemm_bias_f32: out length");
    assert_eq!(packed.len(), m * k, "gemm_bias_f32: pack length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        for row in out.chunks_exact_mut(n) {
            row.copy_from_slice(bias);
        }
        return;
    }
    let full = m - m % IT;
    let panels = &mut packed[..full * k];
    pack_panels(full, k, x, k, 1, panels);
    let (panel_out, tail_out) = out.split_at_mut(full * n);
    fused_rows::<f32, F32_JT, F32_JW>(k, full, n, panels, w, bias, panel_out);
    for (arow, zrow) in x[full * k..]
        .chunks_exact(k)
        .zip(tail_out.chunks_exact_mut(n))
    {
        sparse_row(arow, w, n, bias, zrow, all_finite);
    }
}

/// Matrix–vector product through the unrolled dot kernel: `out[i] =
/// dot(row_i(a), v)`. `a` is `m × k`, `v` has length `k`, `out` length
/// `m` (fully overwritten).
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
pub fn gemv(m: usize, k: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemv: matrix length");
    assert_eq!(v.len(), k, "gemv: vector length");
    assert_eq!(out.len(), m, "gemv: out length");
    if k == 0 {
        out.fill(0.0);
        return;
    }
    for (o, arow) in out.iter_mut().zip(a.chunks_exact(k)) {
        *o = dot_unrolled(arow, v);
    }
}

// lint:end_no_alloc
// lint:end-region(index)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn mat(r: usize, c: usize, seed: u64) -> Matrix {
        // Small deterministic pseudo-random fill (no RNG dependency).
        Matrix::from_fn(r, c, |i, j| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((i * 131 + j * 7) as u64);
            ((h % 2000) as f64 - 1000.0) / 250.0
        })
    }

    #[test]
    fn dot_unrolled_matches_plain_sum_loosely_and_is_deterministic() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 0.11).cos()).collect();
        let plain: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let got = dot_unrolled(&a, &b);
        assert!((got - plain).abs() < 1e-12);
        assert_eq!(got.to_bits(), dot_unrolled(&a, &b).to_bits());
    }

    #[test]
    fn gemm_matches_naive_reference_tightly() {
        for (m, k, n) in [
            (1, 1, 1),
            (1, 66, 128),
            (2, 3, 4),
            (3, 17, 16),
            (5, 8, 1),
            (9, 5, 7),
            (33, 17, 65),
            (64, 66, 128),
        ] {
            let a = mat(m, k, 1);
            let b = mat(k, n, 2);
            let mut out = Matrix::zeros(m, n);
            let mut scratch = Scratch::new();
            gemm(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                out.as_mut_slice(),
                &mut scratch,
            );
            // FMA accumulation differs from the naive mul-then-add only
            // by per-step rounding: tight tolerance, and a repeat call
            // must reproduce the result bit-for-bit.
            let want = a.matmul_naive(&b);
            let tol = 1e-13 * (1.0 + k as f64 * 16.0);
            assert!((&out - &want).max_abs() <= tol, "({m},{k},{n})");
            let mut again = Matrix::zeros(m, n);
            gemm(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                again.as_mut_slice(),
                &mut scratch,
            );
            assert_eq!(out, again, "({m},{k},{n}) not reproducible");
        }
    }

    #[test]
    fn gemm_tn_matches_naive_transpose_product_tightly() {
        for (m, ca, cb) in [(1, 1, 1), (5, 3, 2), (31, 9, 13), (70, 40, 3), (16, 20, 33)] {
            let a = mat(m, ca, 5);
            let b = mat(m, cb, 6);
            let mut out = Matrix::zeros(ca, cb);
            let mut scratch = Scratch::new();
            gemm_tn(
                m,
                ca,
                cb,
                a.as_slice(),
                b.as_slice(),
                out.as_mut_slice(),
                &mut scratch,
            );
            let want = a.transpose().matmul_naive(&b);
            let tol = 1e-13 * (1.0 + m as f64 * 16.0);
            assert!((&out - &want).max_abs() <= tol, "({m},{ca},{cb})");
        }
    }

    #[test]
    fn gemm_nt_matches_naive_transpose_product() {
        for (m, k, n) in [(1, 1, 1), (4, 6, 3), (20, 11, 9)] {
            let a = mat(m, k, 7);
            let b = mat(n, k, 8);
            let mut out = Matrix::zeros(m, n);
            let mut scratch = Scratch::new();
            gemm_nt(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                out.as_mut_slice(),
                &mut scratch,
            );
            let want = a.matmul_naive(&b.transpose());
            assert!((&out - &want).max_abs() < 1e-10, "({m},{k},{n})");
        }
    }

    #[test]
    fn fused_forward_matches_unfused() {
        let (m, k, n) = (19, 13, 11);
        let x = mat(m, k, 9);
        let w = mat(k, n, 10);
        let bias: Vec<f64> = (0..n).map(|j| j as f64 * 0.25 - 1.0).collect();
        let mut z = Matrix::zeros(m, n);
        let mut a = Matrix::zeros(m, n);
        let mut scratch = Scratch::new();
        gemm_bias_act(
            m,
            k,
            n,
            x.as_slice(),
            w.as_slice(),
            &bias,
            z.as_mut_slice(),
            a.as_mut_slice(),
            Epilogue::Relu,
            &mut scratch,
        );
        let mut want_z = Matrix::zeros(m, n);
        gemm(
            m,
            k,
            n,
            x.as_slice(),
            w.as_slice(),
            want_z.as_mut_slice(),
            &mut scratch,
        );
        let want_z = want_z.add_row_broadcast(&bias);
        assert_eq!(z, want_z);
        assert_eq!(a, want_z.map(|v| v.max(0.0)));
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let mut scratch = Scratch::new();
        // k = 0: product is the zero matrix.
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let mut out = Matrix::filled(3, 2, 7.0);
        gemm(
            3,
            0,
            2,
            a.as_slice(),
            b.as_slice(),
            out.as_mut_slice(),
            &mut scratch,
        );
        assert_eq!(out, Matrix::zeros(3, 2));
        // m = 0: nothing to write.
        let mut empty: [f64; 0] = [];
        gemm(
            0,
            4,
            5,
            &[],
            &mat(4, 5, 1).into_vec(),
            &mut empty,
            &mut scratch,
        );
        // k = 0 in the fused kernel: z is the broadcast bias.
        let bias = [1.5, -0.5];
        let mut z = Matrix::filled(3, 2, 9.0);
        let mut act = Matrix::filled(3, 2, 9.0);
        gemm_bias_act(
            3,
            0,
            2,
            &[],
            &[],
            &bias,
            z.as_mut_slice(),
            act.as_mut_slice(),
            Epilogue::Relu,
            &mut scratch,
        );
        assert_eq!(z, Matrix::from_fn(3, 2, |_, j| bias[j]));
        assert_eq!(act, Matrix::from_fn(3, 2, |_, j| bias[j].max(0.0)));
    }

    #[test]
    fn scratch_reuse_allocates_once() {
        let (m, k, n) = (32, 20, 24);
        let a = mat(m, k, 11);
        let b = mat(k, n, 12);
        let mut out = Matrix::zeros(m, n);
        let mut scratch = Scratch::new();
        gemm(
            m,
            k,
            n,
            a.as_slice(),
            b.as_slice(),
            out.as_mut_slice(),
            &mut scratch,
        );
        let after_warmup = scratch.reallocs();
        for _ in 0..10 {
            gemm(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                out.as_mut_slice(),
                &mut scratch,
            );
        }
        assert_eq!(scratch.reallocs(), after_warmup, "steady state reallocated");
    }

    #[test]
    fn gemv_matches_matvec_semantics() {
        let a = mat(6, 9, 13);
        let v: Vec<f64> = (0..9).map(|i| i as f64 - 4.0).collect();
        let mut out = vec![0.0; 6];
        gemv(6, 9, a.as_slice(), &v, &mut out);
        for (i, o) in out.iter().enumerate() {
            let want = dot_unrolled(a.row(i), &v);
            assert_eq!(o.to_bits(), want.to_bits());
        }
    }
}
