//! Dense row-major `f32` matrices and the handful of linear-algebra kernels
//! the feed-forward networks need.
//!
//! The paper's networks are small multi-layer perceptrons, so a
//! straightforward cache-friendly implementation (row-major storage, `ikj`
//! loop order for mat-mul, fused transpose products) is more than fast enough
//! and keeps the crate dependency-free.
//!
//! The three products — [`Matrix::matmul_into`] (every forward pass, training
//! and serving alike), [`Matrix::t_matmul`] (`dW = xᵀ·g`) and
//! [`Matrix::matmul_t`] (`dx = g·Wᵀ`) — are sums of zero-skipped
//! [`sato_kernels::axpy`] rows. Each has one body, compiled twice: for the
//! baseline target and inside `#[target_feature(enable = "avx2")]`, so the
//! inlined `axpy` runs eight lanes wide instead of SSE2's four. The AVX2
//! form is chosen at run time with `is_x86_feature_detected!`, on x86_64
//! only. Neither form enables FMA or uses intrinsics, and no product
//! reassociates a sum, so both forms produce the same bits.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq, Serialize, Default)]
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

/// Decodes the derived `{rows, cols, data}` shape, rejecting a `data` whose
/// length is not `rows · cols`: every row access trusts that invariant.
impl Deserialize for Matrix {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let rows = usize::from_value(v.field("rows")?)?;
        let cols = usize::from_value(v.field("cols")?)?;
        let data = Vec::<f32>::from_value(v.field("data")?)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::DeError(format!(
                "matrix data length {} does not match shape {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
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
        let other_t = other.transpose();
        let mut out = Matrix::zeros(self.rows, other.rows);
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: the CPU supports AVX2, checked at run time.
            unsafe { matmul_t_avx2(self, &other_t, &mut out) };
            return out;
        }
        matmul_t_body(self, &other_t, &mut out);
        out
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
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

/// `out += a @ b`, one `axpy` of a row of `b` per nonzero element of `a`.
#[inline(always)]
fn matmul_into_body(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    for i in 0..a.rows {
        let a_row = a.row(i);
        let out_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
        for (k, &x) in a_row.iter().enumerate() {
            // Skipping exact zeros keeps the sparse one-hot inputs cheap
            // AND preserves bits: an axpy with x == 0.0 could still flip
            // a -0.0 accumulator to +0.0.
            if x == 0.0 {
                continue;
            }
            sato_kernels::axpy(x, b.row(k), out_row);
        }
    }
}

/// `out += aᵀ @ b`: row `r` of `a` scatters `a[r][i] · b[r]` into row `i`.
#[inline(always)]
fn t_matmul_body(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    for r in 0..a.rows {
        let b_row = b.row(r);
        for (i, &x) in a.row(r).iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            sato_kernels::axpy(x, b_row, out.row_mut(i));
        }
    }
}

/// `out = a @ bᵀ`, given `bt = bᵀ`, summed in the association of
/// [`sato_kernels::dot`]: the products of inner index
/// `k < n - n % 4` accumulate into four partial rows by `k % 4`, the partial
/// rows combine as `(p0 + p1) + (p2 + p3)`, and the `n % 4` remaining
/// products follow in order. Skipping an exact zero of `a` changes no bit:
/// an accumulator that starts at `+0.0` never becomes `-0.0`, and adding
/// `±0.0` to anything else leaves it as it is (for finite `bt`).
#[inline(always)]
fn matmul_t_body(a: &Matrix, bt: &Matrix, out: &mut Matrix) {
    let width = bt.cols;
    let chunked = a.cols - a.cols % 4;
    let mut partial = vec![0.0f32; 4 * width];
    for i in 0..a.rows {
        let a_row = a.row(i);
        partial.fill(0.0);
        for (k, &x) in a_row[..chunked].iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            let lane = k % 4;
            sato_kernels::axpy(x, bt.row(k), &mut partial[lane * width..(lane + 1) * width]);
        }
        let (p01, p23) = partial.split_at(2 * width);
        let (p0, p1) = p01.split_at(width);
        let (p2, p3) = p23.split_at(width);
        let out_row = out.row_mut(i);
        for ((((o, &s0), &s1), &s2), &s3) in out_row.iter_mut().zip(p0).zip(p1).zip(p2).zip(p3) {
            *o = (s0 + s1) + (s2 + s3);
        }
        for (k, &x) in a_row.iter().enumerate().skip(chunked) {
            if x == 0.0 {
                continue;
            }
            sato_kernels::axpy(x, bt.row(k), out_row);
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
unsafe fn matmul_t_avx2(a: &Matrix, bt: &Matrix, out: &mut Matrix) {
    matmul_t_body(a, bt, out);
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
        let expected_t = matmul(&a.transpose(), &b);
        let got_t = a.t_matmul(&b);
        assert_eq!(expected_t, got_t);

        let c = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0]]);
        let expected = matmul(&a, &c.transpose());
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

                    // `b` (inner × width) is the transposed right operand of
                    // a `rows × width` product.
                    let mut base = Matrix::zeros(rows, width);
                    let mut wide = Matrix::zeros(rows, width);
                    matmul_t_body(&a, &b, &mut base);
                    // SAFETY: as above.
                    unsafe { matmul_t_avx2(&a, &b, &mut wide) };
                    assert_eq!(bits(&base), bits(&wide), "matmul_t {rows}x{inner}x{width}");
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("skipped: the AVX2 forms exist on x86_64 only");
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

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_rows(&[vec![1.5, -2.0]]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn serde_rejects_data_that_disagrees_with_the_shape() {
        for json in [
            r#"{"rows":2,"cols":3,"data":[0.5]}"#,
            r#"{"rows":1,"cols":1,"data":[]}"#,
            r#"{"rows":18446744073709551615,"cols":2,"data":[]}"#,
        ] {
            let err = serde_json::from_str::<Matrix>(json).unwrap_err();
            assert!(
                err.to_string().contains("does not match shape"),
                "{json}: {err}"
            );
        }
    }
}
