//! A minimal contiguous f32 tensor, plus the shared cache-friendly
//! kernel primitives (im2col unfolding and a blocked matmul) that the
//! Conv1d/Dense/LSTM layers build their forward and backward passes on.

/// A dense, row-major f32 tensor with a dynamic shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor from a shape and matching data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` does not equal the product of `shape`.
    pub fn new(shape: &[usize], data: Vec<f32>) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(data.len(), expected, "shape {shape:?} wants {expected} elements");
        Tensor { shape: shape.to_vec(), data } // alloc-ok: owned constructor
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![0.0; shape.iter().product()] } // alloc-ok: owned constructor
    }

    /// All-zeros tensor drawing its storage from a workspace arena
    /// instead of the allocator — the hot-path counterpart of
    /// [`Tensor::zeros`].
    pub fn zeroed_in(ws: &mut crate::workspace::Workspace, shape: &[usize]) -> Self {
        ws.tensor(shape)
    }

    /// Assemble a tensor from already-owned parts (workspace recycling).
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` does not equal the product of `shape`.
    pub(crate) fn from_raw(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(data.len(), expected, "shape {shape:?} wants {expected} elements");
        Tensor { shape, data }
    }

    /// Dismantle into `(shape, data)` so a workspace can pool both.
    pub(crate) fn into_raw(self) -> (Vec<usize>, Vec<f32>) {
        (self.shape, self.data)
    }

    /// Make this tensor an exact copy of `src`, reusing existing
    /// capacity instead of allocating when it suffices.
    pub fn copy_from(&mut self, src: &Tensor) {
        if self.shape.len() == src.shape.len() {
            self.shape.copy_from_slice(&src.shape);
        } else {
            self.shape.clear();
            self.shape.extend_from_slice(&src.shape);
        }
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable element storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable element storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw storage.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reinterpret with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics when the element counts differ.
    pub fn reshaped(mut self, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(self.data.len(), expected, "reshape to {shape:?} mismatches");
        // Rewrite the existing shape vector in place: reshapes on the
        // training hot path keep the rank (and thus the capacity), so no
        // reallocation happens there.
        if self.shape.len() == shape.len() {
            self.shape.copy_from_slice(shape);
        } else {
            self.shape.clear();
            self.shape.extend_from_slice(shape);
        }
        self
    }

    /// Flat index for a 3-D coordinate `(a, b, c)` in shape `[A, B, C]`.
    ///
    /// # Panics
    ///
    /// Debug-panics on rank or bounds violations.
    #[inline]
    pub fn idx3(&self, a: usize, b: usize, c: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 3);
        debug_assert!(a < self.shape[0] && b < self.shape[1] && c < self.shape[2]);
        (a * self.shape[1] + b) * self.shape[2] + c
    }

    /// Flat index for a 2-D coordinate.
    #[inline]
    pub fn idx2(&self, a: usize, b: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 2);
        debug_assert!(a < self.shape[0] && b < self.shape[1]);
        a * self.shape[1] + b
    }

    /// Batch size (first dimension).
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors.
    pub fn batch(&self) -> usize {
        self.shape[0]
    }
}

/// Unfold one sample's channels `(C, L)` (row-major, channel-major as in
/// a `(N, C, L)` tensor) into an im2col matrix of shape
/// `(L_out, C * K)` with `L_out = (L - kernel) / stride + 1`: row `p`
/// holds the window starting at `p * stride`, laid out channel-major
/// `(ci, k)` — exactly the layout of a `Conv1d` weight row, so a
/// convolution output becomes one contiguous dot product per `(co, p)`.
///
/// Appends into `out` (cleared first) so callers can reuse one buffer
/// across samples.
///
/// # Panics
///
/// Panics when `sample.len() != channels * len`, `kernel == 0`,
/// `stride == 0`, or `len < kernel`.
pub fn im2col(
    sample: &[f32],
    channels: usize,
    len: usize,
    kernel: usize,
    stride: usize,
    out: &mut Vec<f32>,
) -> usize {
    assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
    assert!(len >= kernel, "input length {len} shorter than kernel {kernel}");
    let lo = (len - kernel) / stride + 1;
    out.clear();
    out.resize(lo * channels * kernel, 0.0);
    im2col_into(sample, channels, len, kernel, stride, out)
}

/// [`im2col`] writing into an exactly-sized pre-allocated slice — the
/// workspace-arena form used by the zero-allocation training path.
///
/// # Panics
///
/// Panics on the same shape violations as [`im2col`], or when
/// `out.len()` is not exactly `L_out * channels * kernel`.
pub fn im2col_into(
    sample: &[f32],
    channels: usize,
    len: usize,
    kernel: usize,
    stride: usize,
    out: &mut [f32],
) -> usize {
    assert_eq!(sample.len(), channels * len, "sample shape mismatch");
    assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
    assert!(len >= kernel, "input length {len} shorter than kernel {kernel}");
    let lo = (len - kernel) / stride + 1;
    assert_eq!(out.len(), lo * channels * kernel, "im2col output size mismatch");
    if kernel == 8 {
        // The paper's kernel width: fixed-size window copies compile to
        // straight-line moves instead of one `memcpy` call per window.
        im2col_fixed::<8>(sample, channels, len, lo, stride, out);
    } else {
        let mut dst = 0;
        for p in 0..lo {
            let start = p * stride;
            for ci in 0..channels {
                let base = ci * len + start;
                out[dst..dst + kernel].copy_from_slice(&sample[base..base + kernel]);
                dst += kernel;
            }
        }
    }
    lo
}

/// [`im2col_into`]'s loop for a compile-time kernel width `K`.
fn im2col_fixed<const K: usize>(
    sample: &[f32],
    channels: usize,
    len: usize,
    lo: usize,
    stride: usize,
    out: &mut [f32],
) {
    let mut dst = 0;
    for p in 0..lo {
        let start = p * stride;
        for ci in 0..channels {
            let base = ci * len + start;
            let src: &[f32; K] = sample[base..base + K].try_into().expect("window of K");
            let dst_win: &mut [f32; K] = (&mut out[dst..dst + K]).try_into().expect("window of K");
            *dst_win = *src;
            dst += K;
        }
    }
}

/// `init + Σ a[i]·b[i]` with a fixed-width (8-lane) unrolled inner loop.
///
/// Determinism contract: the eight products of a block are independent
/// (instruction-level parallelism for the FPU), but they are **added to
/// the accumulator strictly in index order**, so the result is
/// bit-identical to the naive `for i { acc += a[i] * b[i] }` loop — the
/// unrolling buys ILP on the multiplies without touching the
/// floating-point reduction order that `par_determinism` pins.
///
/// # Panics
///
/// Debug-panics when lengths differ.
#[inline]
pub fn dot_unrolled_from(init: f32, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot operand length mismatch");
    let n8 = a.len() / 8 * 8;
    let (a8, a_tail) = a.split_at(n8);
    let (b8, b_tail) = b.split_at(n8);
    let mut acc = init;
    for (ca, cb) in a8.chunks_exact(8).zip(b8.chunks_exact(8)) {
        let p0 = ca[0] * cb[0];
        let p1 = ca[1] * cb[1];
        let p2 = ca[2] * cb[2];
        let p3 = ca[3] * cb[3];
        let p4 = ca[4] * cb[4];
        let p5 = ca[5] * cb[5];
        let p6 = ca[6] * cb[6];
        let p7 = ca[7] * cb[7];
        acc += p0;
        acc += p1;
        acc += p2;
        acc += p3;
        acc += p4;
        acc += p5;
        acc += p6;
        acc += p7;
    }
    for (av, bv) in a_tail.iter().zip(b_tail) {
        acc += av * bv;
    }
    acc
}

/// `Σ a[i]·b[i]` — [`dot_unrolled_from`] with a zero seed.
#[inline]
pub fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    dot_unrolled_from(0.0, a, b)
}

/// `y[i] += a·x[i]`. Purely elementwise, so evaluation order cannot
/// affect any bit; the plain zip body is what LLVM's auto-vectorizer
/// turns into packed SIMD (a hand-unrolled version of this loop
/// measured ~4× *slower* — the manual unroll defeated vectorization).
///
/// # Panics
///
/// Debug-panics when lengths differ.
#[inline]
pub fn axpy_unrolled(y: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len(), "axpy operand length mismatch");
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// `y[i] = (y[i] + a0·x0[i]) + a1·x1[i]` — two fused [`axpy_unrolled`]
/// steps. The parenthesization matches two sequential axpy calls
/// exactly (Rust's `+` is left-associative), so the fusion changes no
/// bit; it exists to halve the read-modify-write traffic on `y` when a
/// caller has two updates queued for the same row.
///
/// # Panics
///
/// Debug-panics when lengths differ.
#[inline]
pub fn axpy2_unrolled(y: &mut [f32], a0: f32, x0: &[f32], a1: f32, x1: &[f32]) {
    debug_assert_eq!(y.len(), x0.len(), "axpy operand length mismatch");
    debug_assert_eq!(y.len(), x1.len(), "axpy operand length mismatch");
    for ((yv, xv0), xv1) in y.iter_mut().zip(x0).zip(x1) {
        *yv = *yv + a0 * xv0 + a1 * xv1;
    }
}

/// Where [`matmul_packed`] writes element `(i, j)`: `out[i * n + j]`
/// (`RowMajor`, e.g. a conv output `(C_out, L_out)`) or `out[j * m + i]`
/// (`ColMajor`, e.g. dense/LSTM outputs `(N, units)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutLayout {
    /// `out[i * n + j]`.
    RowMajor,
    /// `out[j * m + i]`.
    ColMajor,
}

/// Transpose a row-major `(rows, cols)` matrix into `out` as
/// `(cols, rows)` — the packing step for [`matmul_packed`] weights.
///
/// # Panics
///
/// Panics when either slice does not hold `rows * cols` elements.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose source shape mismatch");
    assert_eq!(out.len(), rows * cols, "transpose output shape mismatch");
    for (r, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            out[c * rows + r] = v;
        }
    }
}

/// Register block of [`matmul_packed`]: sixteen lanes of `m` times two
/// rows of `x` — 32 independent accumulators, which is what fits the
/// sixteen 128-bit vector registers of baseline x86-64 with the weight
/// loads alongside (measured fastest of 8×4, 8×8, 16×2 and 16×3 at the
/// CNN+LSTM's conv and LSTM shapes).
const PACK_LANES: usize = 16;
const PACK_ROWS: usize = 2;

/// Element `(i, j)` is `init[i] + Σ_t w[i][t]·x[j][t]` for a weight
/// matrix `w: (m, k)` given *packed* as `wt = wᵀ` (`(k, m)` row-major)
/// and `x: (n, k)` row-major, written where `layout` says.
///
/// Each element accumulates its `k` products strictly in `t` order,
/// starting from its init — the textbook triple loop's order, so the
/// result is bit-identical to it however the traversal is blocked. The
/// packed layout puts consecutive output rows `i` side by side in
/// memory, so a block of sixteen of them updates as vectors per `t`
/// while two `x` rows share each weight load.
///
/// # Panics
///
/// Panics on shape mismatches.
#[allow(clippy::too_many_arguments)]
pub fn matmul_packed(
    wt: &[f32],
    x: &[f32],
    m: usize,
    n: usize,
    k: usize,
    init: &[f32],
    layout: OutLayout,
    out: &mut [f32],
) {
    assert_eq!(wt.len(), k * m, "packed weight shape mismatch");
    assert_eq!(x.len(), n * k, "input shape mismatch");
    assert_eq!(init.len(), m, "init length mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    let mut i0 = 0;
    while i0 + PACK_LANES <= m {
        packed_strip::<PACK_LANES>(wt, x, m, n, k, init, layout, out, i0);
        i0 += PACK_LANES;
    }
    // Ragged `m`: one narrower strip each, then single lanes.
    if i0 + 8 <= m {
        packed_strip::<8>(wt, x, m, n, k, init, layout, out, i0);
        i0 += 8;
    }
    if i0 + 4 <= m {
        packed_strip::<4>(wt, x, m, n, k, init, layout, out, i0);
        i0 += 4;
    }
    while i0 < m {
        packed_strip::<1>(wt, x, m, n, k, init, layout, out, i0);
        i0 += 1;
    }
}

/// Output rows `i0..i0 + L` of [`matmul_packed`], over every `j`. Kept
/// out of line: inlining all four strip widths into one body measured
/// slower.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn packed_strip<const L: usize>(
    wt: &[f32],
    x: &[f32],
    m: usize,
    n: usize,
    k: usize,
    init: &[f32],
    layout: OutLayout,
    out: &mut [f32],
    i0: usize,
) {
    let mut j0 = 0;
    while j0 + PACK_ROWS <= n {
        let acc = packed_block::<L, PACK_ROWS>(wt, x, m, k, init, i0, j0);
        store_block(&acc, m, n, layout, out, i0, j0);
        j0 += PACK_ROWS;
    }
    while j0 < n {
        let acc = packed_block::<L, 1>(wt, x, m, k, init, i0, j0);
        store_block(&acc, m, n, layout, out, i0, j0);
        j0 += 1;
    }
}

/// The register block: `R` rows of `x` against `L` packed weight lanes.
#[inline(always)]
fn packed_block<const L: usize, const R: usize>(
    wt: &[f32],
    x: &[f32],
    m: usize,
    k: usize,
    init: &[f32],
    i0: usize,
    j0: usize,
) -> [[f32; L]; R] {
    let seed: [f32; L] = init[i0..i0 + L].try_into().expect("lane block");
    let mut acc = [seed; R];
    let xr: [&[f32]; R] = std::array::from_fn(|r| &x[(j0 + r) * k..(j0 + r + 1) * k]);
    for (t, wrow) in wt.chunks_exact(m).enumerate() {
        let w: &[f32; L] = wrow[i0..i0 + L].try_into().expect("lane block");
        for r in 0..R {
            let xv = xr[r][t];
            for l in 0..L {
                acc[r][l] += w[l] * xv;
            }
        }
    }
    acc
}

#[inline(always)]
fn store_block<const L: usize, const R: usize>(
    acc: &[[f32; L]; R],
    m: usize,
    n: usize,
    layout: OutLayout,
    out: &mut [f32],
    i0: usize,
    j0: usize,
) {
    for (r, lanes) in acc.iter().enumerate() {
        match layout {
            OutLayout::ColMajor => {
                out[(j0 + r) * m + i0..(j0 + r) * m + i0 + L].copy_from_slice(lanes);
            }
            OutLayout::RowMajor => {
                for (l, &v) in lanes.iter().enumerate() {
                    out[(i0 + l) * n + j0 + r] = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_length() {
        let t = Tensor::new(&[2, 3], vec![0.0; 6]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    #[should_panic(expected = "elements")]
    fn new_rejects_bad_length() {
        Tensor::new(&[2, 3], vec![0.0; 5]);
    }

    #[test]
    fn zeros_is_zero() {
        let t = Tensor::zeros(&[4]);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn idx3_row_major() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.idx3(0, 0, 0), 0);
        assert_eq!(t.idx3(0, 0, 3), 3);
        assert_eq!(t.idx3(0, 1, 0), 4);
        assert_eq!(t.idx3(1, 0, 0), 12);
        assert_eq!(t.idx3(1, 2, 3), 23);
    }

    #[test]
    fn idx2_row_major() {
        let t = Tensor::zeros(&[3, 5]);
        assert_eq!(t.idx2(2, 4), 14);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::new(&[2, 3], (0..6).map(|x| x as f32).collect());
        let r = t.clone().reshaped(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "mismatches")]
    fn reshape_rejects_bad_count() {
        Tensor::zeros(&[2, 3]).reshaped(&[7]);
    }

    #[test]
    fn im2col_unfolds_windows_channel_major() {
        // 2 channels, length 5, kernel 2, stride 2 -> lo = 2.
        let sample = [1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0];
        let mut col = Vec::new();
        let lo = im2col(&sample, 2, 5, 2, 2, &mut col);
        assert_eq!(lo, 2);
        #[rustfmt::skip]
        assert_eq!(
            col,
            vec![
                1.0, 2.0, 10.0, 20.0, // p = 0: (ci0 k0 k1)(ci1 k0 k1)
                3.0, 4.0, 30.0, 40.0, // p = 1
            ]
        );
    }

    #[test]
    fn im2col_reuses_buffer() {
        let sample = [1.0, 2.0, 3.0];
        let mut col = vec![99.0; 64];
        let lo = im2col(&sample, 1, 3, 3, 1, &mut col);
        assert_eq!(lo, 1);
        assert_eq!(col, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "shorter than kernel")]
    fn im2col_rejects_short_input() {
        im2col(&[0.0; 2], 1, 2, 3, 1, &mut Vec::new());
    }

    /// The textbook triple loop [`matmul_packed`] must equal bit for
    /// bit: `init[i]` then `k` products in index order.
    fn naive(w: &[f32], x: &[f32], m: usize, n: usize, k: usize, init: &[f32]) -> Vec<u32> {
        let mut out = Vec::new();
        for i in 0..m {
            for j in 0..n {
                let mut acc = init[i];
                for t in 0..k {
                    acc += w[i * k + t] * x[j * k + t];
                }
                out.push(acc.to_bits());
            }
        }
        out
    }

    /// [`matmul_packed`] in both layouts, each read back row-major.
    fn packed_bits(
        w: &[f32],
        x: &[f32],
        m: usize,
        n: usize,
        k: usize,
        init: &[f32],
    ) -> (Vec<u32>, Vec<u32>) {
        let mut wt = vec![0.0; m * k];
        transpose_into(w, m, k, &mut wt);
        let mut rows = vec![0.0; m * n];
        matmul_packed(&wt, x, m, n, k, init, OutLayout::RowMajor, &mut rows);
        let mut cols = vec![0.0; m * n];
        matmul_packed(&wt, x, m, n, k, init, OutLayout::ColMajor, &mut cols);
        let cols = &cols;
        let cols_t = (0..m).flat_map(|i| (0..n).map(move |j| cols[j * m + i].to_bits()));
        (rows.iter().map(|v| v.to_bits()).collect(), cols_t.collect())
    }

    #[test]
    fn matmul_packed_matches_naive_triple_loop() {
        // Ragged in every dimension: m straddles the 16-, 8- and 4-lane
        // strips, n is odd, and k = 1 and k = 300 bracket the conv shapes.
        let shapes =
            [(5, 7, 11), (16, 198, 8), (16, 14, 128), (29, 3, 1), (128, 1, 32), (3, 40, 300)];
        for (m, n, k) in shapes {
            let w: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.31).sin()).collect();
            let x: Vec<f32> = (0..n * k).map(|i| (i as f32 * 0.17).cos()).collect();
            let init: Vec<f32> = (0..m).map(|i| i as f32 * 0.5).collect();
            let (rows, cols) = packed_bits(&w, &x, m, n, k, &init);
            let want = naive(&w, &x, m, n, k, &init);
            assert_eq!(rows, want, "row-major ({m},{n},{k})");
            assert_eq!(cols, want, "col-major ({m},{n},{k})");
        }
    }

    #[test]
    fn transpose_into_swaps_axes() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // (2, 3)
        let mut out = [0.0; 6];
        transpose_into(&src, 2, 3, &mut out);
        assert_eq!(out, [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn dot_unrolled_matches_naive_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 16, 23, 300] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.17).cos()).collect();
            let mut naive = 0.25f32;
            for (av, bv) in a.iter().zip(&b) {
                naive += av * bv;
            }
            let fast = dot_unrolled_from(0.25, &a, &b);
            assert_eq!(naive.to_bits(), fast.to_bits(), "n = {n}");
            assert_eq!(dot_unrolled(&a, &b).to_bits(), dot_unrolled_from(0.0, &a, &b).to_bits());
        }
    }

    #[test]
    fn axpy_unrolled_matches_naive_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 16, 23, 300] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
            let mut y1: Vec<f32> = (0..n).map(|i| (i as f32 * 0.07).cos()).collect();
            let mut y2 = y1.clone();
            for (yv, xv) in y1.iter_mut().zip(&x) {
                *yv += -0.37 * xv;
            }
            axpy_unrolled(&mut y2, -0.37, &x);
            let b1: Vec<u32> = y1.iter().map(|v| v.to_bits()).collect();
            let b2: Vec<u32> = y2.iter().map(|v| v.to_bits()).collect();
            assert_eq!(b1, b2, "n = {n}");
        }
    }

    #[test]
    fn im2col_into_matches_vec_variant() {
        let sample: Vec<f32> = (0..30).map(|i| i as f32).collect();
        let mut v = Vec::new();
        let lo = im2col(&sample, 2, 15, 4, 2, &mut v);
        let mut s = vec![9.0f32; v.len()];
        let lo2 = im2col_into(&sample, 2, 15, 4, 2, &mut s);
        assert_eq!(lo, lo2);
        assert_eq!(v, s);
    }

    #[test]
    #[should_panic(expected = "output size mismatch")]
    fn im2col_into_rejects_wrong_output_len() {
        im2col_into(&[0.0; 8], 1, 8, 2, 2, &mut [0.0; 3]);
    }

    #[test]
    fn copy_from_reuses_capacity_and_matches() {
        let src = Tensor::new(&[2, 3], (0..6).map(|x| x as f32).collect());
        let mut dst = Tensor::zeros(&[3, 2]);
        let cap = dst.data.capacity();
        dst.copy_from(&src);
        assert_eq!(dst.shape(), src.shape());
        assert_eq!(dst.data(), src.data());
        assert_eq!(dst.data.capacity(), cap, "same-size copy must not reallocate");
    }

    #[test]
    fn zeroed_in_draws_from_workspace() {
        let mut ws = crate::workspace::Workspace::new();
        let t = Tensor::zeroed_in(&mut ws, &[2, 4]);
        assert_eq!(t.shape(), &[2, 4]);
        assert!(t.data().iter().all(|&v| v == 0.0));
        ws.recycle(t);
        let t = Tensor::zeroed_in(&mut ws, &[4, 2]);
        assert_eq!(ws.stats().hits, 1);
        assert_eq!(t.len(), 8);
    }
}
