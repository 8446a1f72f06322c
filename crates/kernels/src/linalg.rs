//! `f32` vector primitives for the warm NN forward (and backward) path.

/// `y[i] += a * x[i]`. Element-wise (no reassociation), so both forms are
/// bit-identical. The NN products call this for the rows and columns
/// outside their register tiles.
#[inline]
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (o, &b) in y.iter_mut().zip(x.iter()) {
        *o += a * b;
    }
}

/// `y[i] += x[i]` (row-broadcast bias add). Element-wise, bit-identical in
/// both forms.
#[inline]
pub fn add_assign(x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "add_assign length mismatch");
    for (o, &b) in y.iter_mut().zip(x.iter()) {
        *o += b;
    }
}

/// `v[i] *= s`. Element-wise, bit-identical in both forms.
#[inline]
pub fn scale(v: &mut [f32], s: f32) {
    for x in v.iter_mut() {
        *x *= s;
    }
}

/// Dot product over four independent accumulators (ULP-bounded vs the
/// in-order scalar sum: partial sums are reassociated; slices shorter than
/// a chunk stay in order). `sato_nn`'s `Matrix::matmul_t` sums a register
/// tile of output elements in this same association and calls `dot` for
/// the ragged ones; its tests keep a `dot` per output element as the
/// oracle it must match bit for bit.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact(4);
    let mut acc = [0.0f32; 4];
    for (a, b) in (&mut cx).zip(&mut cy) {
        acc[0] += a[0] * b[0];
        acc[1] += a[1] * b[1];
        acc[2] += a[2] * b[2];
        acc[3] += a[3] * b[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&a, &b) in cx.remainder().iter().zip(cy.remainder()) {
        s += a * b;
    }
    s
}

/// Squared Euclidean distance `Σ (x[i] - y[i])²` over four independent
/// accumulators (ULP-bounded vs the in-order scalar sum, like [`dot`]:
/// partial sums are reassociated; slices shorter than a chunk stay in
/// order). This is the ANN index's distance reduction — nearest-neighbor
/// *ranking* tolerates reassociation, and the recall oracle uses the same
/// form on both sides so rankings agree bit-for-bit.
#[inline]
pub fn squared_l2(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "squared_l2 length mismatch");
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact(4);
    let mut acc = [0.0f32; 4];
    for (a, b) in (&mut cx).zip(&mut cy) {
        let d0 = a[0] - b[0];
        let d1 = a[1] - b[1];
        let d2 = a[2] - b[2];
        let d3 = a[3] - b[3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&a, &b) in cx.remainder().iter().zip(cy.remainder()) {
        let d = a - b;
        s += d * d;
    }
    s
}

/// [`squared_l2`] from `x` to four rows at once: lane `r` of the result is
/// bit-identical to `squared_l2(x, ys[r])` (same four accumulators, same
/// final association, same in-order remainder). One `squared_l2` waits on
/// a chain of `len / 4` dependent adds; four independent chains overlap.
/// The ANN index scores a node's neighbours and checks a candidate's
/// diversity with it.
#[inline]
pub fn squared_l2_x4(x: &[f32], ys: [&[f32]; 4]) -> [f32; 4] {
    for y in ys {
        assert_eq!(x.len(), y.len(), "squared_l2_x4 length mismatch");
    }
    let body = x.len() / 4 * 4;
    let acc = chunk_sums_x4(&x[..body], ys.map(|y| &y[..body]), Term::SquaredDiff);
    let mut out = [0.0f32; 4];
    for ((o, acc), y) in out.iter_mut().zip(acc).zip(ys) {
        let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for (&a, &b) in x[body..].iter().zip(&y[body..]) {
            let d = a - b;
            s += d * d;
        }
        *o = s;
    }
    out
}

/// [`dot`] of four rows with one vector: lane `r` of the result is
/// bit-identical to `dot(ys[r], x)` (same four accumulators, same final
/// association, same in-order remainder; each product is `ys[r][i] *
/// x[i]`, and `f32` multiplication commutes exactly). One `dot` waits on
/// a chain of `len / 4` dependent adds; four independent chains overlap.
/// The LDA fold-in scores four words' rows against θ with it.
#[inline]
pub fn dot_x4(x: &[f32], ys: [&[f32]; 4]) -> [f32; 4] {
    for y in ys {
        assert_eq!(x.len(), y.len(), "dot_x4 length mismatch");
    }
    let body = x.len() / 4 * 4;
    let acc = chunk_sums_x4(&x[..body], ys.map(|y| &y[..body]), Term::Product);
    let mut out = [0.0f32; 4];
    for ((o, acc), y) in out.iter_mut().zip(acc).zip(ys) {
        let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for (&a, &b) in y[body..].iter().zip(&x[body..]) {
            s += a * b;
        }
        *o = s;
    }
    out
}

/// The per-element term a four-row reduction accumulates.
#[derive(Clone, Copy)]
enum Term {
    /// `(x[i] - y[i])²`, of [`squared_l2`].
    SquaredDiff,
    /// `y[i] * x[i]`, of [`dot`] with the row first.
    Product,
}

/// The four-lane accumulators of [`squared_l2`] or [`dot`] for four rows,
/// over slices whose length is a multiple of 4. Written with SSE
/// intrinsics because the autovectorizer transposes the portable form
/// (one row per lane), which costs a dozen shuffles per chunk.
#[cfg(target_arch = "x86_64")]
#[inline]
fn chunk_sums_x4(x: &[f32], ys: [&[f32]; 4], term: Term) -> [[f32; 4]; 4] {
    assert!(x.len() % 4 == 0 && ys.iter().all(|y| y.len() == x.len()));
    use std::arch::x86_64::{
        _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_setzero_ps, _mm_storeu_ps, _mm_sub_ps,
    };
    let mut out = [[0.0f32; 4]; 4];
    // SAFETY: SSE is part of the x86_64 baseline, every load reads four
    // floats at an offset below `x.len()`, which every row shares, and
    // every store writes one `[f32; 4]`.
    unsafe {
        let mut acc = [_mm_setzero_ps(); 4];
        for i in (0..x.len()).step_by(4) {
            let q = _mm_loadu_ps(x.as_ptr().add(i));
            for (acc, y) in acc.iter_mut().zip(ys) {
                let y = _mm_loadu_ps(y.as_ptr().add(i));
                let t = match term {
                    Term::SquaredDiff => {
                        let d = _mm_sub_ps(q, y);
                        _mm_mul_ps(d, d)
                    }
                    Term::Product => _mm_mul_ps(y, q),
                };
                *acc = _mm_add_ps(*acc, t);
            }
        }
        for (o, acc) in out.iter_mut().zip(acc) {
            _mm_storeu_ps(o.as_mut_ptr(), acc);
        }
    }
    out
}

#[cfg(not(target_arch = "x86_64"))]
use portable_chunk_sums_x4 as chunk_sums_x4;

/// Portable form of the x86_64 `chunk_sums_x4` (tested against it there).
#[cfg(any(not(target_arch = "x86_64"), test))]
#[inline]
fn portable_chunk_sums_x4(x: &[f32], ys: [&[f32]; 4], term: Term) -> [[f32; 4]; 4] {
    let mut acc = [[0.0f32; 4]; 4];
    for (i, a) in x.chunks_exact(4).enumerate() {
        for (acc, y) in acc.iter_mut().zip(ys) {
            for j in 0..4 {
                let b = y[i * 4 + j];
                acc[j] += match term {
                    Term::SquaredDiff => {
                        let d = a[j] - b;
                        d * d
                    }
                    Term::Product => b * a[j],
                };
            }
        }
    }
    acc
}

/// Scalar reference forms (the parity oracle and benchmark baseline).
pub mod scalar {
    /// In-order `y += a * x`.
    pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), y.len(), "axpy length mismatch");
        for (o, &b) in y.iter_mut().zip(x.iter()) {
            *o += a * b;
        }
    }

    /// In-order single-accumulator dot product.
    pub fn dot(x: &[f32], y: &[f32]) -> f32 {
        assert_eq!(x.len(), y.len(), "dot length mismatch");
        let mut acc = 0.0f32;
        for (&a, &b) in x.iter().zip(y.iter()) {
            acc += a * b;
        }
        acc
    }

    /// In-order single-accumulator squared Euclidean distance.
    pub fn squared_l2(x: &[f32], y: &[f32]) -> f32 {
        assert_eq!(x.len(), y.len(), "squared_l2 length mismatch");
        let mut acc = 0.0f32;
        for (&a, &b) in x.iter().zip(y.iter()) {
            let d = a - b;
            acc += d * d;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_scalar_bits() {
        let x: Vec<f32> = (0..19).map(|i| (i as f32 - 9.0) * 0.31).collect();
        for len in 0..x.len() {
            let mut a = vec![0.5f32; len];
            let mut b = a.clone();
            axpy(1.7, &x[..len], &mut a);
            scalar::axpy(1.7, &x[..len], &mut b);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "len {len}"
            );
        }
    }

    #[test]
    fn add_assign_and_scale_work() {
        let mut y = vec![1.0f32, 2.0, 3.0];
        add_assign(&[0.5, 0.5, 0.5], &mut y);
        assert_eq!(y, vec![1.5, 2.5, 3.5]);
        scale(&mut y, 2.0);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn squared_l2_is_close_to_scalar() {
        let x: Vec<f32> = (0..37)
            .map(|i| ((i * 13 % 7) as f32 - 3.0) * 0.21)
            .collect();
        let y: Vec<f32> = (0..37)
            .map(|i| ((i * 5 % 11) as f32 - 5.0) * 0.17)
            .collect();
        for len in 0..x.len() {
            let got = squared_l2(&x[..len], &y[..len]);
            let want = scalar::squared_l2(&x[..len], &y[..len]);
            assert!(got >= 0.0, "len {len}: squared distance must be >= 0");
            assert!((got - want).abs() <= 1e-5 * (1.0 + want.abs()), "len {len}");
            if len < 4 {
                // Sub-chunk slices take the in-order remainder path exactly.
                assert_eq!(got.to_bits(), want.to_bits(), "short len {len}");
            }
        }
        assert_eq!(squared_l2(&x, &x), 0.0, "self-distance is exactly zero");
    }

    #[test]
    fn squared_l2_x4_matches_squared_l2_bits_per_lane() {
        let row = |k: usize| -> Vec<f32> {
            (0..131)
                .map(|i| (((i * (7 + 2 * k) + k) % 23) as f32 - 11.0) * 0.137 + k as f32 * 1e-3)
                .collect()
        };
        let x = row(9);
        let ys = [row(0), row(1), row(2), row(3)];
        for len in 0..x.len() {
            let rows = [&ys[0][..len], &ys[1][..len], &ys[2][..len], &ys[3][..len]];
            let got = squared_l2_x4(&x[..len], rows);
            for (r, y) in rows.into_iter().enumerate() {
                assert_eq!(
                    got[r].to_bits(),
                    squared_l2(&x[..len], y).to_bits(),
                    "len {len} lane {r}"
                );
            }
            let body = len / 4 * 4;
            let (xb, yb) = (&x[..body], rows.map(|y| &y[..body]));
            let term = Term::SquaredDiff;
            assert_eq!(
                chunk_sums_x4(xb, yb, term).map(|lane| lane.map(f32::to_bits)),
                portable_chunk_sums_x4(xb, yb, term).map(|lane| lane.map(f32::to_bits)),
                "len {len}"
            );
        }
    }

    /// `dot_x4` per lane against `dot` with the row first, and its SSE
    /// body against the portable one, over ragged lengths with signed
    /// zeros and subnormals among the values.
    #[test]
    fn dot_x4_matches_dot_bits_per_lane() {
        let row = |k: usize| -> Vec<f32> {
            (0..131)
                .map(|i| match (i * (5 + 2 * k) + k) % 29 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::MIN_POSITIVE * 0.37,
                    3 => -f32::MIN_POSITIVE * 0.81,
                    v => (v as f32 - 15.0) * 0.173 + k as f32 * 1e-3,
                })
                .collect()
        };
        let x = row(9);
        let ys = [row(0), row(1), row(2), row(3)];
        for len in 0..x.len() {
            let rows = [&ys[0][..len], &ys[1][..len], &ys[2][..len], &ys[3][..len]];
            let got = dot_x4(&x[..len], rows);
            for (r, y) in rows.into_iter().enumerate() {
                assert_eq!(
                    got[r].to_bits(),
                    dot(y, &x[..len]).to_bits(),
                    "len {len} lane {r}"
                );
            }
            let body = len / 4 * 4;
            let (xb, yb) = (&x[..body], rows.map(|y| &y[..body]));
            let term = Term::Product;
            assert_eq!(
                chunk_sums_x4(xb, yb, term).map(|lane| lane.map(f32::to_bits)),
                portable_chunk_sums_x4(xb, yb, term).map(|lane| lane.map(f32::to_bits)),
                "len {len}"
            );
        }
    }

    #[test]
    fn dot_is_close_to_scalar() {
        let x: Vec<f32> = (0..37)
            .map(|i| ((i * 13 % 7) as f32 - 3.0) * 0.21)
            .collect();
        let y: Vec<f32> = (0..37)
            .map(|i| ((i * 5 % 11) as f32 - 5.0) * 0.17)
            .collect();
        for len in 0..x.len() {
            let got = dot(&x[..len], &y[..len]);
            let want = scalar::dot(&x[..len], &y[..len]);
            assert!((got - want).abs() <= 1e-5 * (1.0 + want.abs()), "len {len}");
            if len < 4 {
                // Sub-chunk slices take the in-order remainder path exactly.
                assert_eq!(got.to_bits(), want.to_bits(), "short len {len}");
            }
        }
    }
}
