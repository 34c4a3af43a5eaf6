//! Order statistics.

/// The `q`-quantile of `values` (nearest rank on the sorted copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_ranks() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(median(&values), 3.0);
        assert_eq!(quantile(&values, 0.9), 5.0);
        assert_eq!(quantile(&values, 1.0), 5.0);
    }
}
