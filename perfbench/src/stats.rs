//! Order statistics over latency samples.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = rank_of(p, sorted.len());
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder that still leaves at least ten
/// samples beyond it, with the number of samples beyond it. The ladder
/// stops at p99: above it, a single scheduler stall of a small shared host
/// decides the value, and it no longer repeats from run to run.
pub fn tail_percentile(n: usize) -> (f64, usize) {
    const LADDER: [f64; 7] = [99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];
    for p in LADDER {
        let beyond = n - rank_of(p, n);
        if beyond >= 10 {
            return (p, beyond);
        }
    }
    (50.0, n / 2)
}

/// `⌈p/100 · n⌉`, with slack for the binary error of `p/100`.
fn rank_of(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Mean of a sample (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), (99.0, 10));
        assert_eq!(tail_percentile(20_000), (99.0, 200));
        assert_eq!(tail_percentile(999), (98.0, 19));
        assert_eq!(tail_percentile(40), (75.0, 10));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }
}
