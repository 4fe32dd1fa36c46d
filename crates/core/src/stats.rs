//! The mean shared by the experiment harness (averaging the 20 instances
//! per family in Section V, speedup ratios, etc.). Kept here so the harness
//! and tests agree on its exact definition.

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
    }
}
