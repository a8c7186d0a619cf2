//! The benchmark's arithmetic on samples: medians, percentiles, the
//! rule that decides which tail a sample count can support, quartile
//! spread, and share columns that account for a whole.

/// Sorted copy of `values`. Panics on NaN: a sample that is not a
/// number is a bug in the harness, not data.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median (mean of the two middle samples for an even count); 0 for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps a product that is a whole number in exact
    // arithmetic (99.9 % of 10 000) from rounding up a rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    v[nearest_rank(v.len(), p) - 1]
}

/// The tails a report may quote, lowest first.
const TAILS: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAILS`] that still has at least ten of
/// the `n` samples beyond it, or `None` when even p75 has fewer — a
/// tail read off fewer samples is one outlier, not a property of the
/// program.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), which is what the acceptance rule for run-to-run spread is
/// stated in. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    assert!(m >= 2, "quartiles need at least two samples");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a percentage of the median; 0
/// when there are fewer than two samples or the median is 0.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid * 100.0
}

/// Turns attributed parts of `whole` into share columns plus the
/// remainder, so the columns sum to 1: every part is divided by
/// `whole`, and `unattributed` is whatever the parts leave — negative
/// when the parts overlap and their sum exceeds the whole, which the
/// ledger shows rather than hides.
pub fn shares(parts: &[f64], whole: f64) -> (Vec<f64>, f64) {
    if whole <= 0.0 {
        return (vec![0.0; parts.len()], 1.0);
    }
    let cols: Vec<f64> = parts.iter().map(|p| p / whole).collect();
    let unattributed = 1.0 - cols.iter().sum::<f64>();
    (cols, unattributed)
}

/// One line describing a sample: count, then minimum, quartiles, p90
/// and maximum — enough to tell a steady run from a disturbed one.
pub fn describe(values: &[f64]) -> String {
    let p = |q| percentile(values, q);
    format!(
        "n={} min={:.6} p25={:.6} p50={:.6} p75={:.6} p90={:.6} max={:.6}",
        values.len(),
        p(0.0),
        p(25.0),
        median(values),
        p(75.0),
        p(90.0),
        p(100.0)
    )
}
