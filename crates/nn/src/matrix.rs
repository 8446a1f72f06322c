//! Dense row-major `f32` matrices and the handful of linear-algebra kernels
//! the feed-forward networks need.
//!
//! The paper's networks are small multi-layer perceptrons, so plain
//! row-major storage and three register-tiled products keep the crate
//! dependency-free and fast enough.
//!
//! The three products are [`Matrix::matmul_into`] (every forward pass,
//! training and serving alike), [`Matrix::t_matmul`] (`dW = xᵀ·g`) and
//! [`Matrix::matmul_t`] (`dx = g·Wᵀ`):
//!
//! * `matmul_into` and `t_matmul` sum a 4-row × 16-column tile of the
//!   output in registers, over the inner index in ascending order, and
//!   store it once. Rows past the last full tile and columns past the last
//!   multiple of 16 (the 78-type head's last 14) take an in-order
//!   [`sato_kernels::axpy`] per inner index instead.
//! * `matmul_t` sums each output element in the association of
//!   [`sato_kernels::dot`], four partial sums by inner index mod 4, in a
//!   4 × 2 tile of output elements; ragged elements call `dot` itself. It
//!   reads both operands by rows, so it never transposes the weights.
//!
//! Every output element is therefore summed in one fixed order, whatever
//! the tile shape, and each accumulator starts at `+0.0`. No product
//! skips zeros: an accumulator that starts at `+0.0` can never become
//! `-0.0`, so adding the `±0.0` product of an exact zero and a finite
//! weight changes no bit.
//!
//! Each product has one body, compiled twice: for the baseline target and
//! inside `#[target_feature(enable = "avx2")]`, where a tile row is two
//! eight-lane vectors instead of four SSE2 ones. The AVX2 form is chosen at
//! run time with `is_x86_feature_detected!`, on x86_64 only. Neither form
//! enables FMA or uses intrinsics, and no product reassociates a sum, so
//! both forms produce the same bits.

use std::fmt;

/// A dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// Zero-filled matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from an explicit row-major data vector.
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Build from a slice of rows (mostly for tests and doc examples).
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Reshape in place to `rows × cols`, reusing the existing allocation
    /// whenever its capacity suffices. Element values are unspecified
    /// afterwards; callers overwrite them.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Make `self` an element-wise copy of `other`, reusing the existing
    /// allocation whenever its capacity suffices.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.resize(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// `self @ other`, written into `out` (resized as needed) without
    /// allocating once `out`'s capacity suffices.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        out.resize(self.rows, other.cols);
        out.fill(0.0);
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: the CPU supports AVX2, checked at run time.
            return unsafe { matmul_into_avx2(self, other, out) };
        }
        matmul_into_body(self, other, out);
    }

    /// `selfᵀ @ other` without materialising the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            other.rows,
            "t_matmul shape mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: the CPU supports AVX2, checked at run time.
            unsafe { t_matmul_avx2(self, other, &mut out) };
            return out;
        }
        t_matmul_body(self, other, &mut out);
        out
    }

    /// `self @ otherᵀ`, bit-identical to taking a
    /// [`sato_kernels::dot`] of every row pair.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_t shape mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: the CPU supports AVX2, checked at run time.
            unsafe { matmul_t_avx2(self, other, &mut out) };
            return out;
        }
        matmul_t_body(self, other, &mut out);
        out
    }

    /// In-place `self += alpha * other`.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        sato_kernels::axpy(alpha, &other.data, &mut self.data);
    }

    /// Add a 1×cols row vector to every row (broadcast), in place.
    pub fn add_row_broadcast(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols..(r + 1) * self.cols];
            sato_kernels::add_assign(&row.data, dst);
        }
    }

    /// Apply a function to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|x| x * alpha)
    }

    /// Column-wise sum, producing a 1×cols row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Horizontally concatenate matrices with equal row counts into `out`
    /// (resized as needed) without allocating once `out`'s capacity
    /// suffices.
    pub fn hconcat_into(parts: &[Matrix], out: &mut Matrix) {
        assert!(!parts.is_empty(), "hconcat of nothing");
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "hconcat row mismatch");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        out.resize(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.data[r * cols + offset..r * cols + offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
    }

    /// Split a matrix horizontally into chunks of the given widths
    /// (inverse of [`Matrix::hconcat_into`]).
    pub fn hsplit(&self, widths: &[usize]) -> Vec<Matrix> {
        let total: usize = widths.iter().sum();
        assert_eq!(total, self.cols, "hsplit widths must cover all columns");
        let mut out = Vec::with_capacity(widths.len());
        let mut offset = 0;
        for &w in widths {
            let mut part = Matrix::zeros(self.rows, w);
            for r in 0..self.rows {
                part.row_mut(r)
                    .copy_from_slice(&self.row(r)[offset..offset + w]);
            }
            out.push(part);
            offset += w;
        }
        out
    }

    /// Select a subset of rows (by index) into a new matrix.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }
}

/// Whether the products take their AVX2 form. The detection result is
/// cached by the standard library.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Rows of a register tile of [`matmul_into_body`] and [`t_matmul_body`].
const TILE_ROWS: usize = 4;
/// Columns of a register tile: two AVX2 vectors (four SSE2 ones) per row.
const TILE_COLS: usize = 16;
/// Rows of `a` in a register tile of [`matmul_t_body`].
const DOT_ROWS: usize = 4;
/// Rows of `b` in a register tile of [`matmul_t_body`]; each of the
/// tile's output elements holds four partial sums.
const DOT_COLS: usize = 2;

/// `acc[q] += x[q] · y` for every row `q` of a register tile.
#[inline(always)]
fn tile_axpy(acc: &mut [[f32; TILE_COLS]; TILE_ROWS], x: [f32; TILE_ROWS], y: &[f32]) {
    let y: &[f32; TILE_COLS] = y.try_into().expect("a tile spans TILE_COLS columns");
    for q in 0..TILE_ROWS {
        for c in 0..TILE_COLS {
            acc[q][c] += x[q] * y[c];
        }
    }
}

/// Write a register tile to `out` at row `i`, column `j`.
#[inline(always)]
fn store_tile(acc: &[[f32; TILE_COLS]; TILE_ROWS], out: &mut Matrix, i: usize, j: usize) {
    for (q, acc_row) in acc.iter().enumerate() {
        out.row_mut(i + q)[j..j + TILE_COLS].copy_from_slice(acc_row);
    }
}

/// `out = a @ b` for a zeroed `out`. Each `TILE_ROWS × TILE_COLS` tile of
/// `out` is summed in registers over `k` in ascending order and stored
/// once; the ragged rows and columns take an in-order `axpy` per `k`. Both
/// sum every output element from `+0.0` over ascending `k`, so the tile
/// shape changes no bit.
#[inline(always)]
fn matmul_into_body(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let n = b.cols;
    let tiled_rows = a.rows - a.rows % TILE_ROWS;
    let tiled_cols = n - n % TILE_COLS;
    for i in (0..tiled_rows).step_by(TILE_ROWS) {
        let [a0, a1, a2, a3]: [&[f32]; TILE_ROWS] = std::array::from_fn(|q| a.row(i + q));
        for j in (0..tiled_cols).step_by(TILE_COLS) {
            let mut acc = [[0.0f32; TILE_COLS]; TILE_ROWS];
            let b_rows = b.data.chunks_exact(n);
            for ((((b_row, &x0), &x1), &x2), &x3) in b_rows.zip(a0).zip(a1).zip(a2).zip(a3) {
                tile_axpy(&mut acc, [x0, x1, x2, x3], &b_row[j..j + TILE_COLS]);
            }
            store_tile(&acc, out, i, j);
        }
    }
    let first = if tiled_cols == n { tiled_rows } else { 0 };
    for i in first..a.rows {
        let from = if i < tiled_rows { tiled_cols } else { 0 };
        let out_row = &mut out.row_mut(i)[from..];
        for (k, &x) in a.row(i).iter().enumerate() {
            sato_kernels::axpy(x, &b.row(k)[from..], out_row);
        }
    }
}

/// `out = aᵀ @ b` for a zeroed `out`: the tile of [`matmul_into_body`]
/// over output rows (columns of `a`), summed over the rows `r` of `a` and
/// `b` in ascending order. The ragged rows and columns take an in-order
/// `axpy` per `r`.
#[inline(always)]
fn t_matmul_body(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, n) = (a.cols, b.cols);
    let tiled_rows = m - m % TILE_ROWS;
    let tiled_cols = n - n % TILE_COLS;
    for i in (0..tiled_rows).step_by(TILE_ROWS) {
        for j in (0..tiled_cols).step_by(TILE_COLS) {
            let mut acc = [[0.0f32; TILE_COLS]; TILE_ROWS];
            for (a_row, b_row) in a.data.chunks_exact(m).zip(b.data.chunks_exact(n)) {
                let x = a_row[i..i + TILE_ROWS]
                    .try_into()
                    .expect("a tile spans TILE_ROWS rows");
                tile_axpy(&mut acc, x, &b_row[j..j + TILE_COLS]);
            }
            store_tile(&acc, out, i, j);
        }
    }
    let first = if tiled_cols == n { tiled_rows } else { 0 };
    for r in 0..a.rows {
        let b_row = b.row(r);
        for (i, &x) in a.row(r).iter().enumerate().skip(first) {
            let from = if i < tiled_rows { tiled_cols } else { 0 };
            sato_kernels::axpy(x, &b_row[from..], &mut out.row_mut(i)[from..]);
        }
    }
}

/// `out = a @ bᵀ`, every element summed in the association of
/// [`sato_kernels::dot`] over row `i` of `a` and row `j` of `b`: the
/// products of inner index `k < n - n % 4` accumulate into four partial
/// sums by `k % 4`, the partial sums combine as `(p0 + p1) + (p2 + p3)`,
/// and the `n % 4` remaining products follow in order. A
/// `DOT_ROWS × DOT_COLS` tile keeps its partial sums in registers; the
/// ragged rows and columns call `dot` itself.
#[inline(always)]
fn matmul_t_body(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let inner = a.cols;
    let chunked = inner - inner % 4;
    let tiled_rows = a.rows - a.rows % DOT_ROWS;
    let tiled_cols = b.rows - b.rows % DOT_COLS;
    for i in (0..tiled_rows).step_by(DOT_ROWS) {
        let a_rows: [&[f32]; DOT_ROWS] = std::array::from_fn(|q| a.row(i + q));
        for j in (0..tiled_cols).step_by(DOT_COLS) {
            let b_rows: [&[f32]; DOT_COLS] = std::array::from_fn(|p| b.row(j + p));
            let mut acc = [[[0.0f32; 4]; DOT_COLS]; DOT_ROWS];
            for k in (0..chunked).step_by(4) {
                let x: [&[f32]; DOT_ROWS] = std::array::from_fn(|q| &a_rows[q][k..k + 4]);
                let y: [&[f32]; DOT_COLS] = std::array::from_fn(|p| &b_rows[p][k..k + 4]);
                for (acc_row, x) in acc.iter_mut().zip(x) {
                    for (lanes, y) in acc_row.iter_mut().zip(y) {
                        for ((s, &x), &y) in lanes.iter_mut().zip(x).zip(y) {
                            *s += x * y;
                        }
                    }
                }
            }
            for (q, acc_row) in acc.iter().enumerate() {
                for (p, lanes) in acc_row.iter().enumerate() {
                    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
                    for (&x, &y) in a_rows[q][chunked..].iter().zip(&b_rows[p][chunked..]) {
                        s += x * y;
                    }
                    out.data[(i + q) * b.rows + j + p] = s;
                }
            }
        }
    }
    for i in 0..a.rows {
        let from = if i < tiled_rows { tiled_cols } else { 0 };
        for j in from..b.rows {
            out.data[i * b.rows + j] = sato_kernels::dot(a.row(i), b.row(j));
        }
    }
}

/// [`matmul_into_body`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_into_avx2(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    matmul_into_body(a, b, out);
}

/// [`t_matmul_body`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn t_matmul_avx2(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    t_matmul_body(a, b, out);
}

/// [`matmul_t_body`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_t_avx2(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    matmul_t_body(a, b, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `a @ b` into a fresh matrix.
    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        a.matmul_into(b, &mut out);
        out
    }

    /// `mᵀ`, materialised.
    fn transpose(m: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(m.cols, m.rows);
        for r in 0..m.rows {
            for c in 0..m.cols {
                out.data[c * m.rows + r] = m.data[r * m.cols + c];
            }
        }
        out
    }

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn fused_transpose_products_match_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.5], vec![2.0, -1.0]]);
        let expected_t = matmul(&transpose(&a), &b);
        let got_t = a.t_matmul(&b);
        assert_eq!(expected_t, got_t);

        let c = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0]]);
        let expected = matmul(&a, &transpose(&c));
        let got = a.matmul_t(&c);
        assert_eq!(expected, got);
    }

    /// The dot form `matmul_t` replaced: one [`sato_kernels::dot`] per
    /// output element. The oracle its axpy form must match bit for bit.
    fn matmul_t_dot(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            for j in 0..b.rows {
                out.data[i * b.rows + j] = sato_kernels::dot(a.row(i), b.row(j));
            }
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    /// A `rows × cols` matrix of values in (-2, 2). With `sparse`, about a
    /// third of the entries are exact zeros, half of those `-0.0`, like the
    /// gradients behind ReLU and dropout masks.
    fn generated(rng: &mut StdRng, rows: usize, cols: usize, sparse: bool) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                let v = rng.gen::<f32>() * 4.0 - 2.0;
                match rng.gen::<f32>() {
                    u if sparse && u < 1.0 / 6.0 => 0.0,
                    u if sparse && u < 1.0 / 3.0 => -0.0,
                    _ => v,
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn matmul_t_matches_the_dot_form_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(23);
        for inner in (1..=9).chain([64, 78, 128]) {
            for rows in [0, 1, 64] {
                for out_width in [1, 3, 8, 13, 64] {
                    for sparse in [false, true] {
                        let a = generated(&mut rng, rows, inner, sparse);
                        let b = generated(&mut rng, out_width, inner, false);
                        let got = a.matmul_t(&b);
                        assert_eq!(got.shape(), (rows, out_width));
                        assert_eq!(
                            bits(&got),
                            bits(&matmul_t_dot(&a, &b)),
                            "inner {inner}, rows {rows}, width {out_width}, sparse {sparse}"
                        );
                    }
                }
            }
        }
        // All-zero left rows, both signs: the result is +0.0 everywhere,
        // exactly as the dot form gives it.
        let a = Matrix::from_rows(&[vec![0.0; 6], vec![-0.0; 6]]);
        let b = generated(&mut rng, 3, 6, false);
        assert_eq!(bits(&a.matmul_t(&b)), bits(&matmul_t_dot(&a, &b)));
        assert!(a.matmul_t(&b).data().iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn avx2_and_baseline_forms_agree_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        {
            if !has_avx2() {
                eprintln!("skipped: this CPU has no AVX2, only the baseline form runs");
                return;
            }
            let mut rng = StdRng::seed_from_u64(29);
            for inner in (1..=9).chain([64, 78, 128]) {
                for (rows, width) in [(1, 5), (17, 64), (64, 128)] {
                    let a = generated(&mut rng, rows, inner, true);
                    let b = generated(&mut rng, inner, width, false);
                    let mut base = Matrix::zeros(rows, width);
                    let mut wide = Matrix::zeros(rows, width);
                    matmul_into_body(&a, &b, &mut base);
                    // SAFETY: AVX2 support was checked above.
                    unsafe { matmul_into_avx2(&a, &b, &mut wide) };
                    assert_eq!(
                        bits(&base),
                        bits(&wide),
                        "matmul_into {rows}x{inner}x{width}"
                    );

                    let g = generated(&mut rng, rows, width, true);
                    let mut base = Matrix::zeros(inner, width);
                    let mut wide = Matrix::zeros(inner, width);
                    t_matmul_body(&a, &g, &mut base);
                    // SAFETY: as above.
                    unsafe { t_matmul_avx2(&a, &g, &mut wide) };
                    assert_eq!(bits(&base), bits(&wide), "t_matmul {rows}x{inner}x{width}");

                    // `bᵀ` (width × inner) is the right operand of a
                    // `rows × width` product.
                    let bt = transpose(&b);
                    let mut base = Matrix::zeros(rows, width);
                    let mut wide = Matrix::zeros(rows, width);
                    matmul_t_body(&a, &bt, &mut base);
                    // SAFETY: as above.
                    unsafe { matmul_t_avx2(&a, &bt, &mut wide) };
                    assert_eq!(bits(&base), bits(&wide), "matmul_t {rows}x{inner}x{width}");
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("skipped: the AVX2 forms exist on x86_64 only");
    }

    /// The in-order axpy form of `a @ b` the tiled `matmul_into` must match
    /// bit for bit: one `axpy` of row `k` of `b` per element `a[i][k]`,
    /// over ascending `k`, into a zeroed row.
    fn matmul_axpy(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for (k, &x) in a.row(i).iter().enumerate() {
                sato_kernels::axpy(x, b.row(k), out.row_mut(i));
            }
        }
        out
    }

    /// The in-order axpy form of `aᵀ @ b` the tiled `t_matmul` must match:
    /// row `r` scatters `a[r][i] · b[r]` into row `i`, over ascending `r`.
    fn t_matmul_axpy(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, b.cols);
        for r in 0..a.rows {
            for (i, &x) in a.row(r).iter().enumerate() {
                sato_kernels::axpy(x, b.row(r), out.row_mut(i));
            }
        }
        out
    }

    /// Ragged sizes around the tiles: 1 to 9 rows, or 67.
    fn ragged_rows(pick: usize) -> usize {
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 67][pick]
    }

    /// Ragged widths: 1 to 40, or the head's 78, or the trunk's 283.
    fn ragged_width(pick: usize) -> usize {
        match pick {
            40 => 78,
            41 => 283,
            w => w + 1,
        }
    }

    /// A `rows × cols` matrix of values in (-2, 2) with exact zeros of
    /// both signs and subnormals mixed in, about an eighth each.
    fn edgy(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(rng.gen_range(1..0x0080_0000)) * rng.gen_range(-1.0..1.0f32),
                _ => rng.gen::<f32>() * 4.0 - 2.0,
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Each tiled product — the baseline-compiled body, the AVX2
        /// wrapper where the CPU has AVX2, and the public method — matches
        /// its oracle bit for bit on ragged shapes: `matmul_into` and
        /// `t_matmul` the in-order axpy form, `matmul_t` a `dot` per
        /// output element.
        #[test]
        fn tiled_products_match_their_oracles_bit_for_bit(
            shape in (0usize..10, 0usize..42, 0usize..42),
            seed in 0u64..u64::MAX,
        ) {
            let (rows, inner, width) =
                (ragged_rows(shape.0), ragged_width(shape.1), ragged_width(shape.2));
            let mut rng = StdRng::seed_from_u64(seed);
            let a = edgy(&mut rng, rows, inner);
            let w = edgy(&mut rng, inner, width);
            let g = edgy(&mut rng, rows, width);
            let case = format!("{rows}x{inner}x{width}");

            let want = bits(&matmul_axpy(&a, &w));
            let mut base = Matrix::zeros(rows, width);
            matmul_into_body(&a, &w, &mut base);
            proptest::prop_assert_eq!(bits(&base), want.clone(), "matmul_into body {}", case);
            proptest::prop_assert_eq!(bits(&matmul(&a, &w)), want.clone(), "matmul_into {}", case);

            let want_dw = bits(&t_matmul_axpy(&a, &g));
            let mut base = Matrix::zeros(inner, width);
            t_matmul_body(&a, &g, &mut base);
            proptest::prop_assert_eq!(bits(&base), want_dw.clone(), "t_matmul body {}", case);
            proptest::prop_assert_eq!(bits(&a.t_matmul(&g)), want_dw.clone(), "t_matmul {}", case);

            // `g @ wᵀ`: `g` is rows × width and `w` is inner × width.
            let want_dx = bits(&matmul_t_dot(&g, &w));
            let mut base = Matrix::zeros(rows, inner);
            matmul_t_body(&g, &w, &mut base);
            proptest::prop_assert_eq!(bits(&base), want_dx.clone(), "matmul_t body {}", case);
            proptest::prop_assert_eq!(bits(&g.matmul_t(&w)), want_dx.clone(), "matmul_t {}", case);

            #[cfg(target_arch = "x86_64")]
            if has_avx2() {
                let mut wide = Matrix::zeros(rows, width);
                // SAFETY: the CPU supports AVX2, checked above.
                unsafe { matmul_into_avx2(&a, &w, &mut wide) };
                proptest::prop_assert_eq!(bits(&wide), want, "matmul_into AVX2 {}", case);
                let mut wide = Matrix::zeros(inner, width);
                // SAFETY: as above.
                unsafe { t_matmul_avx2(&a, &g, &mut wide) };
                proptest::prop_assert_eq!(bits(&wide), want_dw, "t_matmul AVX2 {}", case);
                let mut wide = Matrix::zeros(rows, inner);
                // SAFETY: as above.
                unsafe { matmul_t_avx2(&g, &w, &mut wide) };
                proptest::prop_assert_eq!(bits(&wide), want_dx, "matmul_t AVX2 {}", case);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn broadcast_add_and_sums() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.add_row_broadcast(&Matrix::from_rows(&[vec![10.0, 20.0]]));
        assert_eq!(m.data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(m.sum_rows().data(), &[24.0, 46.0]);
    }

    #[test]
    fn hconcat_and_hsplit_are_inverses() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0], vec![6.0]]);
        let mut cat = Matrix::default();
        Matrix::hconcat_into(&[a.clone(), b.clone()], &mut cat);
        assert_eq!(cat.shape(), (2, 3));
        let parts = cat.hsplit(&[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn select_rows_picks_rows_in_order() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.data(), &[3.0, 1.0]);
    }

    #[test]
    fn map_and_scale() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(m.scale(2.0).data(), &[6.0, 8.0]);
        assert_eq!(m.map(|x| x - 3.0).data(), &[0.0, 1.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 4.0]]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[2.0, 3.0]);
    }
}
