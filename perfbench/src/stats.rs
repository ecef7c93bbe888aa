//! Exact order statistics over recorded samples.
//!
//! Latencies are computed from every per-operation record, never from a
//! bucketed histogram, so a tail percentile is as precise as the samples.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: f64 = 10.0;

/// Linear-interpolated quantile of `values` (sorted in place).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 for no samples.
#[must_use]
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile(&mut values, 0.5)
}

/// Lower quartile of per-pass values, for a host-clock time.
///
/// Other work on a shared host only ever slows a pass down, and it comes
/// and goes over seconds, so the median pass moves with the host's load
/// while the fast quarter of the passes tracks the program. A change that
/// slows the program slows every pass, the fast ones included.
#[must_use]
pub fn lower_quartile(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile(&mut values, 0.25)
}

/// Upper quartile of per-pass values, for a host-clock rate: the same
/// passes [`lower_quartile`] picks for a time.
#[must_use]
pub fn upper_quartile(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile(&mut values, 0.75)
}

/// The fastest of each slot's times over passes, where `passes[k][i]` is
/// the host time of operation `i` in pass `k`: every operation timed at a
/// moment when the host left it alone (best of N). Percentiles over many
/// operations' best times then hold still even though each one alone is
/// an extreme.
///
/// # Panics
///
/// Panics when the passes differ in length.
#[must_use]
pub fn slot_minimums(passes: &[Vec<f64>]) -> Vec<f64> {
    let slots = passes.first().map_or(0, Vec::len);
    assert!(
        passes.iter().all(|p| p.len() == slots),
        "every pass runs the same operations"
    );
    (0..slots)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The highest percentile of `n` samples that has at least ten samples
/// beyond it (the median when there are fewer than twenty).
#[must_use]
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= TAIL_BEYOND - 1e-9)
        .unwrap_or(0.5)
}

/// Report label for a tail quantile, e.g. `p99.9`.
#[must_use]
pub fn label(q: f64) -> String {
    format!("p{}", (q * 1000.0).round() / 10.0)
}

/// Median and tail of one pass's samples; zeros for no samples.
#[must_use]
pub fn p50_tail(mut values: Vec<f64>) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let q = tail_quantile(values.len());
    (quantile(&mut values, 0.5), quantile(&mut values, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10), 0.5);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(116), 0.9);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(10_000), 0.999);
        assert_eq!(label(0.999), "p99.9");
        assert_eq!(label(0.5), "p50");
    }

    #[test]
    fn quantile_interpolates() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(v), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
        let v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(lower_quartile(v.clone()), 2.0);
        assert_eq!(upper_quartile(v), 4.0);
        assert_eq!(lower_quartile(Vec::new()), 0.0);
        let passes = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![2.0, 20.0]];
        assert_eq!(slot_minimums(&passes), vec![1.0, 10.0]);
    }
}
