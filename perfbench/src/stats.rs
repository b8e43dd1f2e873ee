//! Order statistics over timing samples.
//!
//! Every percentile here is the linear interpolation between the two
//! nearest order statistics (the "type 7" rule that spreadsheets and
//! numpy use by default): for `n` sorted values the `p`-quantile sits at
//! position `h = (n − 1)·p`.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values`; `None` when empty.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The highest of p50/p90 the sample count supports: p90 needs at least
/// ten samples beyond it, so at least 100 samples.
pub fn p90(values: &[f64]) -> Option<f64> {
    if values.len() < 100 {
        return None;
    }
    quantile(values, 0.9)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        // Sorted: 10 20 30 40 50; h = 4p.
        let v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 0.25), Some(20.0));
        assert_eq!(quantile(&v, 0.75), Some(40.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        // h = 4 · 0.9 = 3.6 → 40 + 0.6 · 10.
        assert!((quantile(&v, 0.9).unwrap() - 46.0).abs() < 1e-12);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&short), None);
        // 1..=100: h = 99 · 0.9 = 89.1 → 90 + 0.1 · 1.
        let full: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((p90(&full).unwrap() - 90.1).abs() < 1e-9);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
