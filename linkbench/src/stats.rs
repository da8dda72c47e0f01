//! Order statistics over repeated measurements.

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Tracing overhead from alternating untraced and traced walls of the
/// same replay: the median of the per-pair ratios, minus 1. Pairing
/// adjacent replays cancels the machine's slow drift in speed.
pub fn overhead_frac(plain: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = plain.iter().zip(traced).map(|(p, t)| t / p).collect();
    median(&ratios) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn overhead_pairs_adjacent_walls() {
        let plain = [1.0, 2.0, 4.0];
        let traced = [1.1, 2.2, 4.4];
        assert!((overhead_frac(&plain, &traced) - 0.1).abs() < 1e-12);
    }
}
