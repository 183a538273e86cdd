//! Estimators: per-op minima across passes, nearest-rank percentiles,
//! quartile spreads, and a fixed-bucket latency histogram.

/// The fastest timing of every op of a pass, folded over passes.
///
/// Host contention on a shared VM only ever adds time, so an op's
/// fastest timing across passes spread over the run is the estimate
/// least disturbed by it.
#[derive(Clone, Debug)]
pub struct OpMinima {
    mins: Vec<u64>,
}

impl OpMinima {
    pub fn new(ops: usize) -> Self {
        OpMinima {
            mins: vec![u64::MAX; ops],
        }
    }

    /// Folds one pass's per-op timings (nanoseconds) into the minima.
    pub fn fold(&mut self, times: &[u64]) {
        assert_eq!(times.len(), self.mins.len(), "one timing per op");
        for (min, &t) in self.mins.iter_mut().zip(times) {
            *min = (*min).min(t);
        }
    }

    /// Σ of the per-op minima, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.mins.iter().sum()
    }

    /// Nearest-rank percentile of the per-op minima, in nanoseconds.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let mut sorted = self.mins.clone();
        sorted.sort_unstable();
        percentile(&sorted, p)
    }
}

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `⌈p/100 · n⌉` (1-based), so p100 is the maximum and p0 the minimum.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The quartiles `(q1, median, q3)` of `values` by the "exclusive"
/// method of Python's `statistics.quantiles(values, n=4)`, which the
/// benchmark's acceptance rule is stated in. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The distance between the first and third quartile as a share of the
/// median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, median, q3) = quartiles(values);
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

/// Sub-buckets per power of two: 16 gives ≤ 6.25% bucket width.
const SUB: usize = 16;
const SUB_BITS: u32 = 4;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A log-linear latency histogram with fixed buckets: recording never
/// allocates, so it can sit inside the counted-allocation window of a
/// traced pass. Values below 16 are exact; above, each power of two is
/// split into 16 equal buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let mantissa = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
        SUB + (e - SUB_BITS) as usize * SUB + mantissa
    }

    /// The smallest value landing in bucket `b`.
    fn lower(b: usize) -> u64 {
        if b < SUB {
            return b as u64;
        }
        let e = (b - SUB) / SUB + SUB_BITS as usize;
        let mantissa = ((b - SUB) % SUB) as u64;
        (1_u64 << e) + (mantissa << (e - SUB_BITS as usize))
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Nearest-rank percentile, reported as the lower edge of the bucket
    /// holding that rank (0 when empty).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower(b);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_minima_keep_the_fastest_timing_of_each_op() {
        let mut m = OpMinima::new(3);
        m.fold(&[50, 10, 70]);
        m.fold(&[40, 30, 90]);
        m.fold(&[60, 20, 65]);
        assert_eq!(m.mins, [40, 10, 65]);
        assert_eq!(m.sum_ns(), 115);
        assert_eq!(m.percentile_ns(50.0), 40);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        // Fewer than 100 values: p99 is the maximum.
        let small = [3, 5, 8, 13];
        assert_eq!(percentile(&small, 99.0), 13);
        assert_eq!(percentile(&small, 50.0), 5);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn histogram_buckets_are_exact_below_16_and_tight_above() {
        let mut h = Histogram::default();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 7);
        for v in [16_u64, 17, 1000, 1_000_000, u64::MAX] {
            let b = Histogram::bucket(v);
            let lo = Histogram::lower(b);
            assert!(lo <= v, "{v}: lower edge {lo}");
            assert!(v - lo <= v / 16, "{v}: bucket too wide");
            if b + 1 < BUCKETS {
                assert!(Histogram::lower(b + 1) > v);
            }
        }
        let mut h = Histogram::default();
        for v in 1..=1000 {
            h.record(v * 100);
        }
        let p50 = h.percentile(50.0);
        assert!((47_000..=50_000).contains(&p50), "{p50}");
        assert_eq!(h.total, 1000);
    }
}
