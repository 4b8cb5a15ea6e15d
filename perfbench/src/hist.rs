//! Log-linear latency histogram with interpolated quantiles.
//!
//! Values below 256 get one bucket each; above that every power of two
//! is split into 128 buckets, so a bucket is at most 0.8% wide. A
//! quantile is read by linear interpolation inside the bucket that
//! holds its rank, which keeps medians of integer nanosecond samples
//! from snapping to the same integer run after run.

const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
const HALF: u64 = SUB / 2;
/// Buckets up to 2^40 ns (18 minutes); larger samples land in the last.
const BUCKETS: usize = (SUB + 33 * HALF) as usize;

/// A histogram of non-negative integer samples (nanoseconds here).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - (SUB_BITS - 1);
    let mantissa = v >> shift;
    ((SUB + u64::from(shift - 1) * HALF + (mantissa - HALF)) as usize).min(BUCKETS - 1)
}

/// `(lower bound, width)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let k = i - SUB;
    let shift = k / HALF + 1;
    let mantissa = k % HALF + HALF;
    ((mantissa << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Empties the histogram, keeping its buckets allocated.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile (0 < q < 1), interpolated within its bucket;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, width) = bounds(i);
                return lo + width * ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
            }
            below += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let (lo, width) = bounds(last);
        lo + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev_end = 0.0;
        for i in 0..BUCKETS {
            let (lo, w) = bounds(i);
            assert_eq!(lo, prev_end, "bucket {i}");
            prev_end = lo + w;
        }
        for v in [0u64, 1, 255, 256, 257, 511, 512, 1_000_003, (1 << 40) - 1] {
            let (lo, w) = bounds(index(v));
            assert!(lo <= v as f64 && (v as f64) < lo + w, "{v}");
        }
    }

    #[test]
    fn quantiles_track_the_samples() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 5_000.0).abs() < 50.0, "{p50}");
        assert!((p99 - 9_900.0).abs() < 80.0, "{p99}");
        assert_eq!(h.count(), 10_000);
    }
}
