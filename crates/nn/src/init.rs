//! Weight initialisation schemes.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// He/Kaiming uniform initialisation: `U(-a, a)` with `a = sqrt(6 / fan_in)`.
/// Suitable for ReLU activations, which the paper's primary network uses.
pub fn he_uniform(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Matrix {
    let a = (6.0 / fan_in as f32).sqrt();
    let data = (0..fan_in * fan_out)
        .map(|_| rng.gen_range(-a..a))
        .collect();
    Matrix::from_vec(fan_in, fan_out, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn he_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = he_uniform(64, 32, &mut rng);
        assert_eq!(w.shape(), (64, 32));
        let a = (6.0f32 / 64.0).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() < a));
        // Not degenerate: the values should not all be identical.
        assert!(w.data().iter().any(|&x| x != w.data()[0]));
    }

    #[test]
    fn initialisation_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(he_uniform(10, 10, &mut a), he_uniform(10, 10, &mut b));
    }
}
