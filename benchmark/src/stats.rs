//! Exact-sample timing: raw nanosecond samples in a pre-allocated `Vec`,
//! sorted once at the end. Nothing here buckets — the product's own
//! quarter-log2 `Histogram` steps 14–17 % between buckets and cannot
//! resolve a 10 % bound.

use std::time::{Duration, Instant};

/// Percentiles the reporter considers, ascending.
const LADDER: [f64; 7] = [0.50, 0.90, 0.95, 0.99, 0.995, 0.999, 0.9999];

/// A percentile is reportable only with at least this many samples
/// strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Stretches a window is cut into for the calm-stretch tail estimate.
const TAIL_SLICES: usize = 5;

/// Raw nanosecond samples of one timing, each with the moment it was taken
/// (nanoseconds into the measured window, or simply its index when one
/// thread took them all).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    at: Vec<u64>,
}

impl Samples {
    /// Room for `n` samples without reallocating inside a measured loop.
    pub fn with_capacity(n: usize) -> Self {
        Self { ns: Vec::with_capacity(n), at: Vec::with_capacity(n) }
    }

    /// A sample taken `at_ns` into the window.
    pub fn push_at(&mut self, at_ns: u64, ns: u64) {
        self.ns.push(ns);
        self.at.push(at_ns);
    }

    /// A sample of a single-threaded sequence: its index is its moment.
    pub fn push(&mut self, ns: u64) {
        self.push_at(self.ns.len() as u64, ns);
    }

    pub fn extend(&mut self, other: Samples) {
        self.ns.extend(other.ns);
        self.at.extend(other.at);
    }

    /// The `q`-quantile of a calm stretch of the window: the window is cut
    /// into [`TAIL_SLICES`] consecutive, equally populated stretches, each
    /// stretch's quantile is taken by nearest rank, and the second-lowest of
    /// them is returned. A stall of the host — the VM descheduled, an
    /// `fsync` held for 300 ms — lands in one stretch, and on a fixed
    /// schedule it inflates the twenty requests due behind it; three such
    /// stalls in a window (three runs in ten had them) spoil three
    /// stretches, which the median of five does not survive and this does.
    /// A shift of the whole tail moves every stretch and shows; a rare
    /// stall does not, which is what the whole-window percentile printed
    /// beside it is for.
    pub fn calm_quantile_ns(&self, q: f64) -> u64 {
        let mut order: Vec<usize> = (0..self.ns.len()).collect();
        order.sort_by_key(|&i| self.at[i]);
        let per_slice = order.len().div_ceil(TAIL_SLICES).max(1);
        let mut tails: Vec<u64> = order
            .chunks(per_slice)
            .map(|chunk| {
                let slice: Samples = chunk.iter().map(|&i| self.ns[i]).collect();
                slice.sorted().quantile_ns(q)
            })
            .collect();
        tails.sort_unstable();
        tails.get(1).or(tails.first()).copied().unwrap_or(0)
    }

    pub fn sorted(mut self) -> Sorted {
        self.ns.sort_unstable();
        Sorted { ns: self.ns }
    }
}

impl FromIterator<u64> for Samples {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut out = Samples::default();
        for ns in iter {
            out.push(ns);
        }
        out
    }
}

/// Sorted samples: percentiles by nearest rank.
#[derive(Clone, Debug)]
pub struct Sorted {
    ns: Vec<u64>,
}

impl Sorted {
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// 1-based nearest rank of quantile `q`, clamped into the sample.
    fn rank(&self, q: f64) -> usize {
        ((q * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len().max(1))
    }

    /// The `q`-quantile in nanoseconds (0 for an empty sample).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.ns.is_empty() {
            return 0;
        }
        self.ns[self.rank(q) - 1]
    }

    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_ns(q) as f64 / 1e6
    }

    pub fn max_ns(&self) -> u64 {
        self.ns.last().copied().unwrap_or(0)
    }

    /// True when at least [`MIN_BEYOND`] samples lie beyond quantile `q`.
    pub fn supports(&self, q: f64) -> bool {
        !self.ns.is_empty() && self.ns.len() - self.rank(q) >= MIN_BEYOND
    }

    /// The highest percentile of the ladder this sample supports.
    pub fn highest_supported(&self) -> Option<f64> {
        LADDER.iter().copied().rfind(|&q| self.supports(q))
    }

    /// One stderr line: count, median and every supported percentile.
    pub fn describe(&self, name: &str) -> String {
        let mut out = format!("{name}: n={} p50={:.4}ms", self.len(), self.quantile_ms(0.5));
        for q in LADDER.iter().skip(1).filter(|&&q| self.supports(q)) {
            out.push_str(&format!(" p{}={:.4}ms", q * 100.0, self.quantile_ms(*q)));
        }
        out.push_str(&format!(" max={:.4}ms", self.max_ns() as f64 / 1e6));
        out
    }
}

pub fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Median of a small slice of floats (0 when empty).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// A fixed-rate schedule: request `i` is *due* at
/// `start + i · period`, whatever happened to request `i − 1`. Latency is
/// taken from the due time, so a stall charges every request it delayed.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    start: Instant,
    period_ns: u64,
}

impl Schedule {
    pub fn new(start: Instant, per_second: f64) -> Self {
        assert!(per_second > 0.0, "a schedule needs a positive rate");
        Self { start, period_ns: (1e9 / per_second).round().max(1.0) as u64 }
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos(self.period_ns * i)
    }

    /// Sleeps until request `i` is due; returns the due time and how late
    /// the generator woke, in nanoseconds.
    pub fn wait_for(&self, i: u64) -> (Instant, u64) {
        let due = self.due(i);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        (due, nanos(Instant::now().saturating_duration_since(due)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Sorted {
        (1..=n).collect::<Samples>().sorted()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = sample(1000);
        assert_eq!(s.quantile_ns(0.5), 500);
        assert_eq!(s.quantile_ns(0.99), 990);
        assert_eq!(s.quantile_ns(1.0), 1000);
        assert_eq!(s.quantile_ns(0.0), 1);
        assert_eq!(Samples::default().sorted().quantile_ns(0.5), 0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert!(sample(1000).supports(0.99));
        assert!(!sample(999).supports(0.99));
        assert_eq!(sample(1000).highest_supported(), Some(0.99));
        assert_eq!(sample(999).highest_supported(), Some(0.95));
        assert_eq!(sample(20).highest_supported(), Some(0.50));
        assert_eq!(sample(19).highest_supported(), None);
        assert_eq!(sample(200_000).highest_supported(), Some(0.9999));
    }

    #[test]
    fn calm_stretch_tail_shrugs_off_three_stalls() {
        // 5 000 samples of about 100 ns; stalls make 80 consecutive ones
        // slow in three of the five stretches.
        let stalled = |i: u64| [300, 2_000, 4_100].iter().any(|s| (*s..s + 80).contains(&i));
        let value = |i: u64| if stalled(i) { 9_000 } else { 100 + i % 7 };
        let mut s = Samples::with_capacity(5_000);
        for i in 0..5_000u64 {
            s.push_at(i * 10, value(i));
        }
        assert_eq!(
            s.clone().sorted().quantile_ns(0.99),
            9_000,
            "the whole-window p99 is the stalls"
        );
        let calm = s.calm_quantile_ns(0.99);
        assert!((100..=106).contains(&calm), "two of five stretches never saw one: {calm}");
        // Threads push out of order; stretches go by the moment, not the push.
        let mut shuffled = Samples::default();
        for i in (0..5_000u64).rev() {
            shuffled.push_at(i * 10, value(i));
        }
        assert_eq!(shuffled.calm_quantile_ns(0.99), calm);
        // A tail that is slow all along shows in every stretch.
        let slow: Samples = (0..5_000u64).map(|i| if i % 50 == 0 { 9_000 } else { 100 }).collect();
        assert_eq!(slow.calm_quantile_ns(0.99), 9_000);
        assert_eq!(Samples::default().calm_quantile_ns(0.99), 0);
    }

    #[test]
    fn schedule_is_fixed_rate_from_its_start() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 2000.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(2000), t0 + Duration::from_secs(1));
        assert_eq!(s.due(3) - s.due(2), Duration::from_micros(500));
    }

    #[test]
    fn schedule_reports_lateness_from_the_due_time() {
        // A due time already in the past is not slept for, and the
        // generator's lateness is measured from it.
        let s = Schedule::new(Instant::now() - Duration::from_millis(50), 1000.0);
        let (due, late) = s.wait_for(0);
        assert!(late >= 50_000_000, "lateness {late} ns counts from the due time");
        assert!(Instant::now() >= due);
        // A future due time is waited out.
        let s = Schedule::new(Instant::now(), 100.0);
        let (due, _) = s.wait_for(1);
        assert!(Instant::now() >= due);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
