//! [`Histogram`]: fixed-width binned counts for distribution reports.

/// A fixed-width histogram over `f64` samples.
///
/// # Examples
///
/// ```
/// use vecycle_analysis::Histogram;
///
/// let mut h = Histogram::new(0.0, 1.0, 4);
/// for v in [0.1, 0.1, 0.6, 0.9, 2.0] {
///     h.add(v);
/// }
/// assert_eq!(h.counts(), &[2, 0, 1, 1]);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `lo ≥ hi`, either bound is not finite, or `bins` is 0.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        assert!(bins > 0, "need at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample. NaNs are ignored.
    pub fn add(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let bin = (((v - self.lo) / width) as usize).min(self.counts.len() - 1);
            self.counts[bin] += 1;
        }
    }

    /// Per-bin counts, low to high.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples observed (including out-of-range).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The `[lo, hi)` bounds of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn bin_bounds(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin {i} out of range");
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + width * i as f64, self.lo + width * (i + 1) as f64)
    }

    /// Renders a compact ASCII bar chart, one line per bin.
    pub fn render(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let (lo, hi) = self.bin_bounds(i);
            let bar = "#".repeat((c as usize * width).div_ceil(max as usize).min(width));
            out.push_str(&format!("{lo:>8.2}–{hi:<8.2} {c:>7} {bar}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_the_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in 0..10 {
            h.add(v as f64);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2, 2]);
        assert_eq!(h.underflow, 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn out_of_range_samples_are_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-0.5);
        h.add(1.0); // hi is exclusive
        h.add(f64::NAN);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn bin_bounds_are_contiguous() {
        let h = Histogram::new(2.0, 6.0, 4);
        let mut last_hi = 2.0;
        for i in 0..4 {
            let (lo, hi) = h.bin_bounds(i);
            assert!((lo - last_hi).abs() < 1e-12);
            last_hi = hi;
        }
        assert!((last_hi - 6.0).abs() < 1e-12);
    }

    #[test]
    fn render_scales_bars() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.add(0.5);
        h.add(0.5);
        h.add(1.5);
        let text = h.render(10);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].matches('#').count() > lines[1].matches('#').count());
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn inverted_range_panics() {
        let _ = Histogram::new(1.0, 0.0, 2);
    }
}
