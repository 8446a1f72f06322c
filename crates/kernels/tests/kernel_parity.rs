//! Property-based parity suite: every kernel's default (chunked) form
//! against its scalar reference, over ragged / empty / unaligned-length
//! inputs.
//!
//! The scalar forms are the oracle. Kernels documented bit-identical are
//! compared by bits; `dot` (reassociated) is compared with a relative
//! bound, and `dot_x4` by bits against `dot` in each lane. Dependent shapes (a `k × k` matrix for a length-`k` vector) are
//! carved out of max-size buffers, so lengths still sweep 0, 1 and every
//! unaligned remainder.

use proptest::prelude::*;

fn bits64(v: f64) -> u64 {
    v.to_bits()
}

fn bits32_vec(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `v` with the entries `special` picks replaced: `+0.0`, `-0.0`, or a
/// subnormal of either sign (the drawn value's mantissa bits).
fn with_specials(v: &[f32], special: &[usize]) -> Vec<f32> {
    v.iter()
        .zip(special)
        .map(|(&x, &s)| match s {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(x.to_bits() & 0x807f_ffff),
            _ => x,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fnv_matches_scalar(
        bytes in proptest::collection::vec(0u8..=255, 0..67),
        seed in 0u64..=u64::MAX,
        split_pct in 0usize..=100,
    ) {
        prop_assert_eq!(sato_kernels::fnv1a64(&bytes), sato_kernels::fnv::scalar::fnv1a64(&bytes));
        prop_assert_eq!(
            sato_kernels::fnv1a64_seeded(&bytes, seed),
            sato_kernels::fnv::scalar::fnv1a64_seeded(&bytes, seed)
        );
        // Streaming split at an arbitrary boundary equals the one-shot hash.
        let split = bytes.len() * split_pct / 100;
        let mut h = sato_kernels::Fnv1a::with_seed(seed);
        h.write(&bytes[..split]);
        h.write(&bytes[split..]);
        prop_assert_eq!(h.finish(), sato_kernels::fnv1a64_seeded(&bytes, seed));
    }

    #[test]
    fn max_lse_argmax_match_scalar(values in proptest::collection::vec(-50.0f64..50.0, 0..33)) {
        prop_assert_eq!(
            bits64(sato_kernels::reduce::max(&values)),
            bits64(sato_kernels::reduce::scalar::max(&values))
        );
        prop_assert_eq!(
            bits64(sato_kernels::log_sum_exp(&values)),
            bits64(sato_kernels::reduce::scalar::log_sum_exp(&values))
        );
        let (gv, gi) = sato_kernels::max_argmax(&values);
        let (wv, wi) = sato_kernels::reduce::scalar::max_argmax(&values);
        prop_assert_eq!(bits64(gv), bits64(wv));
        prop_assert_eq!(gi, wi);
    }

    #[test]
    fn lse3_matches_materialised_scalar(
        n in 0usize..29,
        x in proptest::collection::vec(-20.0f64..20.0, 29),
        y in proptest::collection::vec(-20.0f64..20.0, 29),
        z in proptest::collection::vec(-20.0f64..20.0, 29),
    ) {
        let (x, y, z) = (&x[..n], &y[..n], &z[..n]);
        let terms: Vec<f64> = x.iter().zip(y).zip(z).map(|((a, b), c)| (a + b) + c).collect();
        prop_assert_eq!(
            bits64(sato_kernels::log_sum_exp3(x, y, z)),
            bits64(sato_kernels::reduce::scalar::log_sum_exp(&terms))
        );
    }

    /// The row-major DP step (relax + max/exp-sum/finish) against the
    /// destination-major scalar loops, for arbitrary k.
    #[test]
    fn dp_step_matches_destination_major(
        k in 1usize..13,
        prev_buf in proptest::collection::vec(-10.0f64..10.0, 12),
        pair_buf in proptest::collection::vec(-5.0f64..5.0, 144),
    ) {
        let prev = &prev_buf[..k];
        let pair = &pair_buf[..k * k];
        let mut maxes = vec![f64::NEG_INFINITY; k];
        let mut acc = vec![0.0f64; k];
        let mut best = vec![f64::NEG_INFINITY; k];
        let mut arg = vec![0u32; k];
        for a in 0..k {
            let row = &pair[a * k..(a + 1) * k];
            sato_kernels::max_add_update(prev[a], row, &mut maxes);
            sato_kernels::relax_max_argmax(prev[a], row, &mut best, &mut arg, a as u32);
        }
        for a in 0..k {
            sato_kernels::exp_sum_update(prev[a], &pair[a * k..(a + 1) * k], &maxes, &mut acc);
        }
        sato_kernels::lse_finish(&maxes, &mut acc);

        for b in 0..k {
            let terms: Vec<f64> = (0..k).map(|a| prev[a] + pair[a * k + b]).collect();
            prop_assert_eq!(
                bits64(acc[b]),
                bits64(sato_kernels::reduce::scalar::log_sum_exp(&terms)),
                "lse at {}", b
            );
            let (wv, wi) = sato_kernels::reduce::scalar::max_argmax(&terms);
            prop_assert_eq!(bits64(best[b]), bits64(wv), "max at {}", b);
            prop_assert_eq!(arg[b] as usize, wi, "arg at {}", b);
        }
    }

    #[test]
    fn axpy_add_assign_scale_match_scalar(
        n in 0usize..37,
        x_buf in proptest::collection::vec(-50.0f32..50.0, 37),
        y_buf in proptest::collection::vec(-50.0f32..50.0, 37),
        a in -3.0f32..3.0,
    ) {
        let x = &x_buf[..n];
        let y0 = &y_buf[..n];

        let mut got = y0.to_vec();
        let mut want = y0.to_vec();
        sato_kernels::axpy(a, x, &mut got);
        sato_kernels::linalg::scalar::axpy(a, x, &mut want);
        prop_assert_eq!(bits32_vec(&got), bits32_vec(&want));

        let mut got2 = y0.to_vec();
        sato_kernels::add_assign(x, &mut got2);
        let want2: Vec<f32> = y0.iter().zip(x).map(|(v, b)| v + b).collect();
        prop_assert_eq!(bits32_vec(&got2), bits32_vec(&want2));

        let mut got3 = x.to_vec();
        sato_kernels::scale(&mut got3, a);
        let want3: Vec<f32> = x.iter().map(|v| v * a).collect();
        prop_assert_eq!(bits32_vec(&got3), bits32_vec(&want3));
    }

    #[test]
    fn dot_is_ulp_bounded_vs_scalar(
        n in 0usize..53,
        x_buf in proptest::collection::vec(-10.0f32..10.0, 53),
        y_buf in proptest::collection::vec(-10.0f32..10.0, 53),
    ) {
        let (x, y) = (&x_buf[..n], &y_buf[..n]);
        let got = sato_kernels::dot(x, y);
        let want = sato_kernels::linalg::scalar::dot(x, y);
        // Reassociation over <=53 products of magnitude <=100.
        prop_assert!((got - want).abs() <= 1e-3 + 1e-5 * want.abs(),
            "dot diverged: {} vs {}", got, want);
    }

    /// Each lane of `dot_x4` is `dot` with that row first, bit for bit,
    /// over every length up to 131 (so every ragged tail after the SSE
    /// body) with signed zeros and subnormals mixed in.
    #[test]
    fn dot_x4_lanes_match_dot_bits(
        n in 0usize..132,
        buf in proptest::collection::vec(-10.0f32..10.0, 5 * 131),
        special in proptest::collection::vec(0usize..12, 5 * 131),
    ) {
        let buf = with_specials(&buf, &special);
        let rows: Vec<&[f32]> = buf.chunks_exact(131).map(|r| &r[..n]).collect();
        let x = rows[4];
        let ys = [rows[0], rows[1], rows[2], rows[3]];
        let got = sato_kernels::dot_x4(x, ys);
        for (lane, y) in ys.into_iter().enumerate() {
            prop_assert_eq!(
                got[lane].to_bits(),
                sato_kernels::dot(y, x).to_bits(),
                "lane {} of length {}", lane, n
            );
        }
    }

    #[test]
    fn squared_l2_is_ulp_bounded_vs_scalar(
        n in 0usize..53,
        x_buf in proptest::collection::vec(-10.0f32..10.0, 53),
        y_buf in proptest::collection::vec(-10.0f32..10.0, 53),
    ) {
        let (x, y) = (&x_buf[..n], &y_buf[..n]);
        let got = sato_kernels::squared_l2(x, y);
        let want = sato_kernels::linalg::scalar::squared_l2(x, y);
        // Reassociation over <=53 squared differences of magnitude <=400.
        prop_assert!((got - want).abs() <= 1e-3 + 1e-5 * want.abs(),
            "squared_l2 diverged: {} vs {}", got, want);
        prop_assert!(got >= 0.0);
        prop_assert_eq!(sato_kernels::squared_l2(x, x), 0.0);
    }

    #[test]
    fn histogram_matches_scalar(bytes in proptest::collection::vec(0u8..=255, 0..67)) {
        let mut lut = [sato_kernels::HIST_SKIP; 256];
        for b in 0..128u8 {
            // An arbitrary classifier with skips: count only ASCII
            // alphanumerics, into 36 bins.
            if b.is_ascii_digit() {
                lut[b as usize] = b - b'0';
            } else if b.is_ascii_lowercase() {
                lut[b as usize] = 10 + (b - b'a');
            }
        }
        let mut got = vec![0u32; 36];
        let mut want = vec![0u32; 36];
        sato_kernels::lut_histogram(&bytes, &lut, &mut got);
        sato_kernels::hist::scalar::lut_histogram(&bytes, &lut, &mut want);
        prop_assert_eq!(got, want);
    }
}
