//! `f64` reductions and DP relaxations: log-sum-exp, max+argmax, and the
//! row-major "relax" updates the CRF flat DP is built from.
//!
//! The CRF inner loops historically iterated destination-major
//! (`for b { for a { prev[a] + pair(a, b) } }`), striding the pairwise
//! matrix by `k` on every read. The kernels here support the row-major
//! restructuring (`for a { relax all b over the contiguous pair row }`)
//! which visits each destination in the same source order — so maxima,
//! argmaxima (first-wins on ties) and the index-ordered exponential sums
//! are bit-identical to the historical loops, while every memory access
//! becomes contiguous and the per-destination updates vectorize.

/// Maximum of `values` (`-inf` for an empty slice), reassociated over four
/// accumulators. Exact for NaN-free input up to the sign of a `±0.0`
/// maximum (see the crate-level contract).
#[inline]
pub fn max(values: &[f64]) -> f64 {
    let mut chunks = values.chunks_exact(4);
    let mut m = [f64::NEG_INFINITY; 4];
    for c in &mut chunks {
        m[0] = m[0].max(c[0]);
        m[1] = m[1].max(c[1]);
        m[2] = m[2].max(c[2]);
        m[3] = m[3].max(c[3]);
    }
    let mut best = m[0].max(m[1]).max(m[2]).max(m[3]);
    for &v in chunks.remainder() {
        best = best.max(v);
    }
    best
}

/// Numerically stable `log Σ exp(v)`: chunked max pass, then the
/// exponential sum **in index order** (reassociating it would change bits;
/// the CRF dense path is a bit-parity oracle).
#[inline]
pub fn log_sum_exp(values: &[f64]) -> f64 {
    let m = max(values);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + values.iter().map(|&v| (v - m).exp()).sum::<f64>().ln()
}

/// `log Σ_i exp((x[i] + y[i]) + z[i])` without materialising the term
/// buffer. Same shape as [`log_sum_exp`] over `terms[i] = (x[i] + y[i]) +
/// z[i]` — additions stay left-associated, the sum stays in index order.
#[inline]
pub fn log_sum_exp3(x: &[f64], y: &[f64], z: &[f64]) -> f64 {
    let n = x.len();
    assert!(y.len() == n && z.len() == n, "log_sum_exp3 length mismatch");
    let mut chunks_m = [f64::NEG_INFINITY; 4];
    let mut i = 0;
    while i + 4 <= n {
        chunks_m[0] = chunks_m[0].max((x[i] + y[i]) + z[i]);
        chunks_m[1] = chunks_m[1].max((x[i + 1] + y[i + 1]) + z[i + 1]);
        chunks_m[2] = chunks_m[2].max((x[i + 2] + y[i + 2]) + z[i + 2]);
        chunks_m[3] = chunks_m[3].max((x[i + 3] + y[i + 3]) + z[i + 3]);
        i += 4;
    }
    let mut m = chunks_m[0]
        .max(chunks_m[1])
        .max(chunks_m[2])
        .max(chunks_m[3]);
    while i < n {
        m = m.max((x[i] + y[i]) + z[i]);
        i += 1;
    }
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let mut s = 0.0;
    for i in 0..n {
        s += (((x[i] + y[i]) + z[i]) - m).exp();
    }
    m + s.ln()
}

/// Maximum value and the index of its **first** occurrence
/// (`(-inf, 0)` for an empty slice). Two passes: a chunked max, then the
/// first index whose value equals it — which is exactly what the scalar
/// strict-`>` scan returns, including the value's bits (re-read at the
/// winning index).
#[inline]
pub fn max_argmax(values: &[f64]) -> (f64, usize) {
    let m = max(values);
    for (i, &v) in values.iter().enumerate() {
        if v == m {
            return (v, i);
        }
    }
    (m, 0)
}

/// One row-major Viterbi relaxation: for every destination `j`,
/// `s = base + row[j]`; where `s > best[j]`, set `best[j] = s` and
/// `arg[j] = src`. Iterating `src` in ascending order reproduces the
/// destination-major strict-`>` scan bit for bit (first source wins ties).
#[inline]
pub fn relax_max_argmax(base: f64, row: &[f64], best: &mut [f64], arg: &mut [u32], src: u32) {
    let n = row.len();
    assert!(best.len() == n && arg.len() == n, "relax length mismatch");
    for j in 0..n {
        let s = base + row[j];
        if s > best[j] {
            best[j] = s;
            arg[j] = src;
        }
    }
}

/// Row-major max pass of a log-sum-exp DP step:
/// `best[j] = f64::max(best[j], base + row[j])`. Accumulator-first operand
/// order matches the historical `fold(-inf, f64::max)` sequence.
#[inline]
pub fn max_add_update(base: f64, row: &[f64], best: &mut [f64]) {
    let n = row.len();
    assert_eq!(best.len(), n, "max_add_update length mismatch");
    for j in 0..n {
        best[j] = best[j].max(base + row[j]);
    }
}

/// Row-major exponential-sum pass:
/// `acc[j] += exp((base + row[j]) - maxes[j])`. With sources visited in
/// ascending order the per-destination sum is in the historical index
/// order, so the result is bit-identical.
#[inline]
pub fn exp_sum_update(base: f64, row: &[f64], maxes: &[f64], acc: &mut [f64]) {
    let n = row.len();
    assert!(
        maxes.len() == n && acc.len() == n,
        "exp_sum_update length mismatch"
    );
    for j in 0..n {
        acc[j] += ((base + row[j]) - maxes[j]).exp();
    }
}

/// Finish a row-major log-sum-exp: `acc[j] = maxes[j] + acc[j].ln()`, with
/// the `-inf` guard of [`log_sum_exp`] (an all-`-inf` destination yields
/// `-inf`, not NaN).
#[inline]
pub fn lse_finish(maxes: &[f64], acc: &mut [f64]) {
    assert_eq!(maxes.len(), acc.len(), "lse_finish length mismatch");
    for (a, &m) in acc.iter_mut().zip(maxes) {
        *a = if m == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            m + a.ln()
        };
    }
}

/// Scalar reference forms (the parity oracle and benchmark baseline).
pub mod scalar {
    /// Sequential `fold(-inf, f64::max)`.
    pub fn max(values: &[f64]) -> f64 {
        values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }

    /// The historical two-pass log-sum-exp (sequential max fold, in-order
    /// exponential sum).
    pub fn log_sum_exp(values: &[f64]) -> f64 {
        let max = max(values);
        if max == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        max + values.iter().map(|&v| (v - max).exp()).sum::<f64>().ln()
    }

    /// The historical strict-`>` scan: first maximal index wins.
    pub fn max_argmax(values: &[f64]) -> (f64, usize) {
        let mut best = f64::NEG_INFINITY;
        let mut best_i = 0usize;
        for (i, &v) in values.iter().enumerate() {
            if v > best {
                best = v;
                best_i = i;
            }
        }
        (best, best_i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_and_lse_match_scalar_bits() {
        let vals: Vec<f64> = (0..23)
            .map(|i| ((i * 37 % 11) as f64 - 5.0) * 0.73)
            .collect();
        for len in 0..vals.len() {
            let v = &vals[..len];
            assert_eq!(max(v).to_bits(), scalar::max(v).to_bits(), "max len {len}");
            assert_eq!(
                log_sum_exp(v).to_bits(),
                scalar::log_sum_exp(v).to_bits(),
                "lse len {len}"
            );
        }
    }

    #[test]
    fn empty_reductions_are_neg_inf() {
        assert_eq!(max(&[]), f64::NEG_INFINITY);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert_eq!(max_argmax(&[]), (f64::NEG_INFINITY, 0));
    }

    #[test]
    fn argmax_first_occurrence_wins() {
        let v = [1.0, 3.0, 3.0, 2.0, 3.0];
        assert_eq!(max_argmax(&v), (3.0, 1));
        assert_eq!(max_argmax(&v), scalar::max_argmax(&v));
    }

    #[test]
    fn lse3_matches_materialised_terms() {
        let x = [0.1, -2.0, 3.5, 0.0, 1.0, -0.7];
        let y = [1.0, 0.25, -1.5, 2.0, 0.0, 0.3];
        let z = [-0.5, 0.5, 0.75, -3.0, 2.0, 0.0];
        for len in 0..x.len() {
            let terms: Vec<f64> = (0..len).map(|i| (x[i] + y[i]) + z[i]).collect();
            assert_eq!(
                log_sum_exp3(&x[..len], &y[..len], &z[..len]).to_bits(),
                scalar::log_sum_exp(&terms).to_bits(),
                "len {len}"
            );
        }
    }

    /// The row-major relax/update/finish pipeline must reproduce the
    /// destination-major scalar DP step bit for bit.
    #[test]
    fn row_major_dp_step_matches_destination_major() {
        let k = 7;
        let prev: Vec<f64> = (0..k).map(|i| (i as f64) * 0.37 - 1.0).collect();
        let pair: Vec<f64> = (0..k * k)
            .map(|i| ((i * 31 % 17) as f64 - 8.0) * 0.21)
            .collect();

        // Destination-major oracle (the historical loops).
        let mut want_lse = vec![0.0f64; k];
        let mut want_best = vec![0.0f64; k];
        let mut want_arg = vec![0usize; k];
        for b in 0..k {
            let terms: Vec<f64> = (0..k).map(|a| prev[a] + pair[a * k + b]).collect();
            want_lse[b] = scalar::log_sum_exp(&terms);
            let (m, i) = scalar::max_argmax(&terms);
            want_best[b] = m;
            want_arg[b] = i;
        }

        // Row-major kernels.
        let mut maxes = vec![f64::NEG_INFINITY; k];
        let mut acc = vec![0.0f64; k];
        let mut best = vec![f64::NEG_INFINITY; k];
        let mut arg = vec![0u32; k];
        for a in 0..k {
            let row = &pair[a * k..(a + 1) * k];
            max_add_update(prev[a], row, &mut maxes);
            relax_max_argmax(prev[a], row, &mut best, &mut arg, a as u32);
        }
        for a in 0..k {
            exp_sum_update(prev[a], &pair[a * k..(a + 1) * k], &maxes, &mut acc);
        }
        lse_finish(&maxes, &mut acc);

        for b in 0..k {
            assert_eq!(acc[b].to_bits(), want_lse[b].to_bits(), "lse at {b}");
            assert_eq!(best[b].to_bits(), want_best[b].to_bits(), "max at {b}");
            assert_eq!(arg[b] as usize, want_arg[b], "arg at {b}");
        }
    }

    #[test]
    fn lse_finish_guards_neg_inf() {
        let maxes = [f64::NEG_INFINITY, 0.0];
        let mut acc = [f64::NAN, 1.0];
        lse_finish(&maxes, &mut acc);
        assert_eq!(acc[0], f64::NEG_INFINITY);
        assert_eq!(acc[1], 0.0);
    }
}
