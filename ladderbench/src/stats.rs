//! Percentiles under the benchmark's reporting rule, a log-linear latency
//! histogram, and medians.
//!
//! The rule: a timing is reported as its median and the highest
//! percentile that still has at least [`MIN_TAIL`] samples beyond it. A
//! sample too small for a percentile yields `None`, never a number.

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_TAIL: u64 = 10;

/// Whether `n` samples support the percentile `permille` (500 = p50,
/// 990 = p99): at least [`MIN_TAIL`] samples rank strictly above it.
fn supports(n: u64, permille: u64) -> bool {
    // Nearest rank of the percentile, 1-based: ceil(n * q).
    let rank = (n * permille).div_ceil(1000);
    n > 0 && n - rank >= MIN_TAIL
}

/// Linear-interpolated percentile of sorted samples, or `None` when the
/// sample is too small under the reporting rule.
pub fn percentile(sorted: &[u64], permille: u64) -> Option<f64> {
    let n = sorted.len() as u64;
    if !supports(n, permille) {
        return None;
    }
    let pos = (n - 1) as f64 * permille as f64 / 1000.0;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = pos - lo as f64;
    Some(sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac)
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Log-linear histogram of nanosecond values: exact below 128 ns, then
/// 128 buckets per octave (under 0.8% relative width). Fixed size, so
/// recording allocates nothing and memory does not grow with run length.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let m = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + m
}

/// Lower bound and width of bucket `idx`.
fn bucket_span(idx: usize) -> (f64, f64) {
    if idx < SUB {
        return (idx as f64, 1.0);
    }
    let e = (idx / SUB) as u32 + SUB_BITS - 1;
    let m = (idx % SUB) as u64;
    let shift = e - SUB_BITS;
    (((SUB as u64 + m) << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
        self.sum += v;
    }

    /// Number of values recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// Exact mean of the recorded values, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum as f64 / self.n as f64)
    }

    /// Percentile under the reporting rule, interpolated within its
    /// bucket by rank so values are not snapped to bucket edges.
    pub fn percentile(&self, permille: u64) -> Option<f64> {
        if !supports(self.n, permille) {
            return None;
        }
        let target = (self.n - 1) as f64 * permille as f64 / 1000.0;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if target < (below + c) as f64 {
                let (lo, width) = bucket_span(idx);
                return Some(lo + width * ((target - below as f64) + 0.5) / c as f64);
            }
            below += c;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn too_small_a_sample_reports_no_p99() {
        // 999 samples leave 9 beyond the p99 rank; 1000 leave 10.
        let small: Vec<u64> = (0..999).collect();
        let enough: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&small, 990), None);
        assert!(percentile(&enough, 990).is_some());
        // p50 needs 20 samples.
        assert_eq!(percentile(&(0..19).collect::<Vec<_>>(), 500), None);
        assert_eq!(percentile(&(0..20).collect::<Vec<_>>(), 500), Some(9.5));
        let mut h = Hist::default();
        for v in 0..999 {
            h.record(v);
        }
        assert_eq!(h.percentile(990), None);
        h.record(1000);
        assert!(h.percentile(990).is_some());
        assert_eq!(h.mean(), Some((998.0 * 999.0 / 2.0 + 1000.0) / 1000.0));
        assert_eq!(Hist::default().percentile(500), None);
    }

    #[test]
    fn histogram_percentiles_track_exact_ones() {
        let mut h = Hist::default();
        let mut exact = Vec::new();
        for i in 0..100_000u64 {
            let v = 200 + (i * 7919) % 50_000;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [500, 990] {
            let a = h.percentile(q).expect("large sample");
            let b = percentile(&exact, q).expect("large sample");
            assert!((a - b).abs() / b < 0.01, "p{q}: {a} vs {b}");
        }
    }

    #[test]
    fn buckets_cover_values_in_order() {
        let mut last = 0;
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1 << 20, u64::MAX] {
            let idx = bucket_of(v);
            assert!(idx >= last && idx < BUCKETS);
            let (lo, width) = bucket_span(idx);
            assert!(lo <= v as f64 && v as f64 <= lo + width, "{v}");
            last = idx;
        }
    }

    #[test]
    fn median_of_even_count_is_mid_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
