//! Order statistics over raw samples: exact percentiles (no histogram
//! bucketing), a trimmed mean, and a seeded bootstrap interval for
//! ratios of trimmed means.

/// The median of `values`; the mean of the two middle values for an even
/// count. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The share of the values, fastest first, that [`trimmed_mean`] keeps.
const KEPT: f64 = 0.75;

/// The mean of the fastest three quarters of `values`: the slowest
/// quarter is set aside, with a fractional weight at the cut so every
/// count `n` keeps exactly `3n/4`. `NaN` for an empty slice.
///
/// This is how a run condenses a cell's executions. On a shared
/// two-core host, CPU steal and late thread wake-ups come in bursts, and
/// every execution inside a burst is slower; the cut drops bursts that
/// cover up to a quarter of a run. A cell's spans can also be bimodal
/// (two thread placements, each with its own speed) with a mix that
/// changes from run to run. A median jumps between the modes when the
/// mix crosses one half; a mean moves in proportion to the mix. A change
/// that slows every execution slows the trimmed mean by the same factor.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = sorted.len() as f64 * KEPT;
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        // Sample i covers [i, i + 1]; its weight is the part of that
        // interval below `kept`.
        .map(|(i, v)| (kept - i as f64).clamp(0.0, 1.0) * v)
        .sum();
    weighted / kept
}

/// The exact `q`-quantile (0 ≤ q ≤ 1) of integer samples by the
/// nearest-rank rule, selecting in place. `None` for no samples.
pub fn exact_quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, value, _) = samples.select_nth_unstable(rank - 1);
    Some(*value)
}

/// The exact median of integer samples: the mean of the two middle
/// samples for an even count. `None` for no samples.
pub fn exact_median(samples: &mut [u64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let (_, upper, _) = samples.select_nth_unstable(n / 2);
    let upper = *upper as f64;
    if n % 2 == 1 {
        return Some(upper);
    }
    // After selection every sample left of n/2 is <= it; the lower
    // middle sample is their maximum.
    let lower = samples[..n / 2].iter().copied().max().unwrap_or(0) as f64;
    Some((lower + upper) / 2.0)
}

/// SplitMix64: a small seeded generator, so a bootstrap is repeatable
/// for a given `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn index(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }
}

/// A 95 % percentile-bootstrap interval for
/// `trimmed_mean(num) / trimmed_mean(den)`,
/// resampling each side's repetitions with replacement. `None` when a
/// side has no samples.
pub fn bootstrap_ratio_interval(
    num: &[f64],
    den: &[f64],
    resamples: usize,
    rng: &mut SplitMix64,
) -> Option<(f64, f64)> {
    if num.is_empty() || den.is_empty() || resamples == 0 {
        return None;
    }
    let mut ratios = Vec::with_capacity(resamples);
    let mut a = vec![0.0; num.len()];
    let mut b = vec![0.0; den.len()];
    for _ in 0..resamples {
        for slot in &mut a {
            *slot = num[rng.index(num.len())];
        }
        for slot in &mut b {
            *slot = den[rng.index(den.len())];
        }
        ratios.push(trimmed_mean(&a) / trimmed_mean(&b));
    }
    ratios.sort_by(f64::total_cmp);
    let at = |q: f64| ratios[((q * resamples as f64) as usize).min(resamples - 1)];
    Some((at(0.025), at(0.975)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(exact_median(&mut [5, 1, 3]), Some(3.0));
        assert_eq!(exact_median(&mut [5, 1, 3, 2]), Some(2.5));
        assert_eq!(exact_median(&mut []), None);
    }

    #[test]
    fn trimmed_means() {
        // The slowest quarter does not count.
        assert_eq!(trimmed_mean(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(
            trimmed_mean(&[90.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 80.0]),
            3.5
        );
        // n = 3 keeps 2.25 values: a quarter of the slowest one.
        let v = trimmed_mean(&[9.0, 0.0, 3.0]);
        assert!((v - 7.0 / 3.0).abs() < 1e-12, "{v}");
        assert_eq!(trimmed_mean(&[7.0]), 7.0);
        assert!(trimmed_mean(&[]).is_nan());
        // Scaling every execution scales the figure: a slowdown shows.
        let base = [0.31, 0.45, 0.44, 0.30, 0.46, 0.47];
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let ratio = trimmed_mean(&slower) / trimmed_mean(&base);
        assert!((ratio - 1.2).abs() < 1e-12, "{ratio}");
        // A bimodal mixture: one more fast execution moves the figure by
        // a small step, where the median jumps between the modes.
        let mix = |fast: usize| {
            let mut v = vec![0.3; fast];
            v.extend(vec![0.45; 16 - fast]);
            v
        };
        assert_eq!(median(&mix(7)), 0.45);
        assert_eq!(median(&mix(9)), 0.3);
        let step = trimmed_mean(&mix(7)) - trimmed_mean(&mix(8));
        assert!(step > 0.0 && step < 0.02, "{step}");
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(exact_quantile(&mut v, 0.5), Some(50));
        assert_eq!(exact_quantile(&mut v, 0.99), Some(99));
        assert_eq!(exact_quantile(&mut v, 1.0), Some(100));
        assert_eq!(exact_quantile(&mut v, 0.0), Some(1));
    }

    #[test]
    fn bootstrap_brackets_a_clear_ratio() {
        let mut rng = SplitMix64::new(7);
        let num = [10.0, 10.5, 9.5, 10.2, 9.8];
        let den = [1.0, 1.05, 0.95, 1.02, 0.98];
        let (lo, hi) = bootstrap_ratio_interval(&num, &den, 500, &mut rng).unwrap();
        assert!(lo <= 10.0 && 10.0 <= hi, "{lo} {hi}");
        assert!(lo > 8.0 && hi < 12.0, "{lo} {hi}");
    }
}
