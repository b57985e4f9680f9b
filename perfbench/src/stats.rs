//! Exact-sample arithmetic: percentiles, medians, geometric means, the
//! benchmark's seeded generator, and the metric-name rule.
//!
//! Percentiles are computed from every recorded sample (no buckets), by
//! linear interpolation between the two closest ranks, so a p99 moves
//! smoothly with the data instead of jumping between bucket edges.

/// The `q`-quantile (`0.0..=1.0`) of `samples`, interpolated linearly
/// between the closest ranks. Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The median of `samples` (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive values (0 when any value is not positive
/// or the slice is empty).
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: the benchmark's own seeded generator, so its inputs do
/// not change when the program's generators do.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 characters from `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_exact_ranks() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert!((percentile(&s, 0.5) - 50.5).abs() < 1e-12);
        assert!((percentile(&s, 0.99) - 99.01).abs() < 1e-9);
        // Order of the input does not matter.
        let mut r = s.clone();
        r.reverse();
        assert_eq!(percentile(&r, 0.99), percentile(&s, 0.99));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_resolves_sub_millisecond_differences() {
        // Log-bucket histograms report 1.0 ms and 1.1 ms tails alike;
        // exact samples keep them apart.
        let a: Vec<f64> = (0..1000).map(|i| 0.5 + f64::from(i) * 0.0005).collect();
        let b: Vec<f64> = a.iter().map(|v| v * 1.1).collect();
        let (pa, pb) = (percentile(&a, 0.99), percentile(&b, 0.99));
        assert!((pb / pa - 1.1).abs() < 1e-9, "{pa} {pb}");
    }

    #[test]
    fn means_and_ratios() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(gmean(&[2.0, 0.0]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn generator_is_seeded_and_permutations_are_complete() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let p = SplitMix::new(3).permutation(50);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(p, SplitMix::new(4).permutation(50));
        let u = SplitMix::new(9).unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn metric_name_charset() {
        for good in [
            "setup_s",
            "eval.cell.fig13-8u_s",
            "core.ddg.ns_per_op",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".x",
            "fig13@8u",
            "a b",
            "ms/op",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
