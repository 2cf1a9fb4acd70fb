//! Statistics accumulators used by the experiment harness.

use crate::time::{Duration, SimTime};
use serde::{Deserialize, Serialize};

/// Streaming mean/variance/min/max via Welford's algorithm.
///
/// Used for per-site completion-time averages (the input to the paper's
/// completion-time scheduling strategy, eq. 3) and for reporting.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a duration, in seconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or `None` before the first observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance, or `None` before the first observation.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A sample set that keeps every observation, for quantiles.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SampleSet {
    samples: Vec<f64>,
}

impl SampleSet {
    /// An empty set.
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True before the first observation.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Linear-interpolated quantile, `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let q = q.clamp(0.0, 1.0);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            Some(sorted[lo])
        } else {
            let frac = pos - lo as f64;
            Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
        }
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// All raw samples, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Time-weighted average of a step function — e.g. "average queue length
/// over the run" where the queue length changes at discrete instants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    span: Duration,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// A fresh tracker; the first `set` establishes the initial value.
    pub fn new() -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            last_value: 0.0,
            weighted_sum: 0.0,
            span: Duration::ZERO,
            started: false,
        }
    }

    /// The step function takes value `value` from `time` onward.
    ///
    /// Out-of-order updates (time earlier than the last update) are ignored
    /// rather than corrupting the integral.
    pub fn set(&mut self, time: SimTime, value: f64) {
        if !self.started {
            self.started = true;
            self.last_time = time;
            self.last_value = value;
            return;
        }
        if time < self.last_time {
            return;
        }
        let dt = time.since(self.last_time);
        self.weighted_sum += self.last_value * dt.as_secs_f64();
        self.span += dt;
        self.last_time = time;
        self.last_value = value;
    }

    /// Time-weighted average over `[first set, until]`.
    pub fn average_until(&self, until: SimTime) -> Option<f64> {
        if !self.started {
            return None;
        }
        let tail = until.since(self.last_time);
        let total = self.span + tail;
        if total.is_zero() {
            return Some(self.last_value);
        }
        Some((self.weighted_sum + self.last_value * tail.as_secs_f64()) / total.as_secs_f64())
    }

    /// The most recently set value.
    pub fn current(&self) -> f64 {
        self.last_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accumulator_basic_moments() {
        let mut a = Accumulator::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.record(x);
        }
        assert_eq!(a.count(), 8);
        assert!((a.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((a.variance().unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(a.min(), Some(2.0));
        assert_eq!(a.max(), Some(9.0));
    }

    #[test]
    fn accumulator_empty() {
        let a = Accumulator::new();
        assert_eq!(a.mean(), None);
        assert_eq!(a.variance(), None);
        assert_eq!(a.min(), None);
    }

    #[test]
    fn accumulator_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Accumulator::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &xs[..37] {
            left.record(x);
        }
        for &x in &xs[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn accumulator_merge_with_empty() {
        let mut a = Accumulator::new();
        a.record(3.0);
        let b = Accumulator::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Accumulator::new();
        c.merge(&a);
        assert_eq!(c.mean(), Some(3.0));
    }

    #[test]
    fn sampleset_quantiles() {
        let mut s = SampleSet::new();
        for x in 1..=100 {
            s.record(x as f64);
        }
        assert!((s.median().unwrap() - 50.5).abs() < 1e-9);
        assert!((s.quantile(0.0).unwrap() - 1.0).abs() < 1e-9);
        assert!((s.quantile(1.0).unwrap() - 100.0).abs() < 1e-9);
        assert!((s.quantile(0.95).unwrap() - 95.05).abs() < 1e-9);
    }

    #[test]
    fn sampleset_empty() {
        let s = SampleSet::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.median(), None);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::from_secs(0), 0.0);
        tw.set(SimTime::from_secs(10), 10.0); // 0 for 10s
        tw.set(SimTime::from_secs(20), 0.0); // 10 for 10s
                                             // Average over [0, 20] = (0*10 + 10*10) / 20 = 5.
        assert!((tw.average_until(SimTime::from_secs(20)).unwrap() - 5.0).abs() < 1e-9);
        // Extending with the current value (0) dilutes the average.
        assert!((tw.average_until(SimTime::from_secs(40)).unwrap() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_ignores_out_of_order() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::from_secs(10), 5.0);
        tw.set(SimTime::from_secs(5), 99.0); // ignored
        assert_eq!(tw.current(), 5.0);
        assert!((tw.average_until(SimTime::from_secs(20)).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_unset() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.average_until(SimTime::from_secs(5)), None);
    }

    proptest! {
        #[test]
        fn prop_accumulator_mean_within_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut a = Accumulator::new();
            for &x in &xs {
                a.record(x);
            }
            let mean = a.mean().unwrap();
            prop_assert!(mean >= a.min().unwrap() - 1e-6);
            prop_assert!(mean <= a.max().unwrap() + 1e-6);
            prop_assert!(a.variance().unwrap() >= -1e-6);
        }

        #[test]
        fn prop_quantile_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let mut s = SampleSet::new();
            for &x in &xs {
                s.record(x);
            }
            let mut last = f64::NEG_INFINITY;
            for i in 0..=10 {
                let q = s.quantile(i as f64 / 10.0).unwrap();
                prop_assert!(q >= last - 1e-9);
                last = q;
            }
        }

        #[test]
        fn prop_merge_commutative_count(
            xs in proptest::collection::vec(-1e3f64..1e3, 0..50),
            ys in proptest::collection::vec(-1e3f64..1e3, 0..50),
        ) {
            let mut a = Accumulator::new();
            for &x in &xs { a.record(x); }
            let mut b = Accumulator::new();
            for &y in &ys { b.record(y); }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab.count(), ba.count());
            if ab.count() > 0 {
                prop_assert!((ab.mean().unwrap() - ba.mean().unwrap()).abs() < 1e-6);
            }
        }
    }
}
