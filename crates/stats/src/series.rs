//! Piecewise-constant time series.
//!
//! The simulator communicates slowly varying quantities — LLC occupancy,
//! CPU frequency — to the attacker replay layer as [`StepSeries`]: a sorted
//! list of `(time, value)` change points. A one-off lookup is `O(log n)`
//! and integration over an interval is exact. Replays that query at
//! non-decreasing times walk a [`SeriesCursor`] instead, which every
//! random-access query is built on.

use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// A right-continuous step function of `u64` time (nanoseconds in the
/// simulator) to `f64` values.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StepSeries {
    /// Change points sorted by time; value holds from its time (inclusive)
    /// until the next change point.
    points: Vec<(u64, f64)>,
    /// Value before the first change point.
    initial: f64,
}

impl StepSeries {
    /// A series that is `initial` everywhere until change points are pushed.
    pub fn new(initial: f64) -> Self {
        StepSeries { points: Vec::new(), initial }
    }

    /// Build from pre-sorted change points.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] when times are not strictly
    /// increasing.
    pub fn from_points(initial: f64, points: Vec<(u64, f64)>) -> Result<Self> {
        for w in points.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(StatsError::InvalidParameter(
                    "step series change points must be strictly increasing",
                ));
            }
        }
        Ok(StepSeries { points, initial })
    }

    /// A series that is `initial` everywhere, backed by `storage`'s
    /// capacity (cleared first). Lets callers build series on pooled
    /// buffers instead of allocating per run.
    pub fn new_in(initial: f64, mut storage: Vec<(u64, f64)>) -> Self {
        storage.clear();
        StepSeries { points: storage, initial }
    }

    /// Dismantle the series into `(initial, points)` so the point storage
    /// can be pooled and reused via [`StepSeries::new_in`].
    pub fn into_parts(self) -> (f64, Vec<(u64, f64)>) {
        (self.initial, self.points)
    }

    /// Append a change point; `t` must be strictly after the last point.
    ///
    /// # Panics
    ///
    /// Panics when change points are pushed out of order.
    pub fn push(&mut self, t: u64, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t > last, "step series points must be pushed in increasing time order");
        }
        self.points.push((t, value));
    }

    /// Append a change point, or overwrite the last point's value when it
    /// is at the same time `t` — the natural operation for accumulating
    /// series where several contributions can land on one instant.
    ///
    /// # Panics
    ///
    /// Panics when `t` is before the last change point.
    pub fn push_or_update(&mut self, t: u64, value: f64) {
        match self.points.last_mut() {
            Some(last) if last.0 == t => last.1 = value,
            Some(&mut (last_t, _)) => {
                assert!(t > last_t, "step series points must be pushed in increasing time order");
                self.points.push((t, value));
            }
            None => self.points.push((t, value)),
        }
    }

    /// Value at time `t`.
    pub fn value_at(&self, t: u64) -> f64 {
        self.cursor_at(t).value_at(t)
    }

    /// Exact integral of the series over `[a, b)` (in value × time units).
    ///
    /// # Panics
    ///
    /// Panics when `a > b`.
    pub fn integrate(&self, a: u64, b: u64) -> f64 {
        self.cursor_at(a).integrate(a, b)
    }

    /// A forward cursor positioned before the first change point. Queries
    /// at non-decreasing times cost amortized `O(1)` each instead of a
    /// binary search per query.
    pub fn cursor(&self) -> SeriesCursor<'_> {
        SeriesCursor { series: self, next: 0 }
    }

    /// A cursor seeded by one binary search to sit at time `t`.
    pub fn cursor_at(&self, t: u64) -> SeriesCursor<'_> {
        SeriesCursor { series: self, next: self.points.partition_point(|&(pt, _)| pt <= t) }
    }

    /// Mean value over `[a, b)`.
    ///
    /// # Panics
    ///
    /// Panics when `a >= b`.
    pub fn mean_over(&self, a: u64, b: u64) -> f64 {
        assert!(a < b, "mean_over needs a < b");
        self.integrate(a, b) / (b - a) as f64
    }

    /// Number of change points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no change points (constant everywhere).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The change points, sorted by time.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Sample the series at uniform spacing `dt` starting at `t0`,
    /// producing `n` samples. Used when exporting figure data.
    pub fn sample(&self, t0: u64, dt: u64, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.value_at(t0 + dt * i as u64)).collect()
    }
}

/// A cursor over a [`StepSeries`] that remembers where its last query
/// landed. Answers are exactly those of the random-access methods for
/// any query order; when query times are non-decreasing, as in an attack
/// replay walking forward through a trace, the cursor only ever steps
/// forward and the whole walk costs `O(points + queries)`.
#[derive(Debug, Clone)]
pub struct SeriesCursor<'a> {
    series: &'a StepSeries,
    /// Index of the first change point strictly after the last query time.
    next: usize,
}

impl SeriesCursor<'_> {
    /// Move to time `t`: afterwards `next` is the index of the first
    /// change point strictly after `t`.
    fn seek(&mut self, t: u64) {
        let points = &self.series.points;
        while self.next < points.len() && points[self.next].0 <= t {
            self.next += 1;
        }
        while self.next > 0 && points[self.next - 1].0 > t {
            self.next -= 1;
        }
    }

    /// The value at `t` and the time of the first change point after `t`
    /// (`None` when the value holds forever).
    pub fn step_at(&mut self, t: u64) -> (f64, Option<u64>) {
        self.seek(t);
        let points = &self.series.points;
        let value = match self.next {
            0 => self.series.initial,
            i => points[i - 1].1,
        };
        (value, points.get(self.next).map(|&(pt, _)| pt))
    }

    /// Value at time `t`.
    pub fn value_at(&mut self, t: u64) -> f64 {
        self.step_at(t).0
    }

    /// Exact integral of the series over `[a, b)`; moves the cursor to
    /// `a` only, so overlapping intervals with non-decreasing starts stay
    /// forward-only.
    ///
    /// # Panics
    ///
    /// Panics when `a > b`.
    pub fn integrate(&mut self, a: u64, b: u64) -> f64 {
        assert!(a <= b, "integrate needs a <= b");
        if a == b {
            return 0.0;
        }
        let (mut v, _) = self.step_at(a);
        let mut acc = 0.0;
        let mut t = a;
        for &(pt, pv) in &self.series.points[self.next..] {
            if pt >= b {
                break;
            }
            acc += v * (pt - t) as f64;
            t = pt;
            v = pv;
        }
        acc += v * (b - t) as f64;
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> StepSeries {
        // 1.0 on [0,10), 3.0 on [10,20), 2.0 from 20 on
        let mut s = StepSeries::new(1.0);
        s.push(10, 3.0);
        s.push(20, 2.0);
        s
    }

    #[test]
    fn value_lookup() {
        let s = series();
        assert_eq!(s.value_at(0), 1.0);
        assert_eq!(s.value_at(9), 1.0);
        assert_eq!(s.value_at(10), 3.0);
        assert_eq!(s.value_at(15), 3.0);
        assert_eq!(s.value_at(20), 2.0);
        assert_eq!(s.value_at(1_000), 2.0);
    }

    #[test]
    fn integrate_within_one_segment() {
        let s = series();
        assert_eq!(s.integrate(2, 8), 6.0);
    }

    #[test]
    fn integrate_across_segments() {
        let s = series();
        // [5,25) = 5*1 + 10*3 + 5*2 = 45
        assert_eq!(s.integrate(5, 25), 45.0);
    }

    #[test]
    fn integrate_empty_interval_is_zero() {
        assert_eq!(series().integrate(7, 7), 0.0);
    }

    #[test]
    fn integrate_starting_on_change_point() {
        let s = series();
        assert_eq!(s.integrate(10, 20), 30.0);
    }

    #[test]
    fn mean_over_interval() {
        let s = series();
        assert_eq!(s.mean_over(0, 20), 2.0);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn push_out_of_order_panics() {
        let mut s = StepSeries::new(0.0);
        s.push(10, 1.0);
        s.push(10, 2.0);
    }

    #[test]
    fn push_or_update_overwrites_same_instant() {
        let mut s = StepSeries::new(0.0);
        s.push_or_update(10, 1.0);
        s.push_or_update(10, 3.0);
        s.push_or_update(20, 4.0);
        assert_eq!(s.points(), &[(10, 3.0), (20, 4.0)]);
        assert_eq!(s.value_at(10), 3.0);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn push_or_update_rejects_time_travel() {
        let mut s = StepSeries::new(0.0);
        s.push_or_update(10, 1.0);
        s.push_or_update(5, 2.0);
    }

    #[test]
    fn new_in_reuses_storage_and_roundtrips() {
        let mut s = StepSeries::new_in(1.0, vec![(99, 9.9); 8]);
        assert!(s.is_empty());
        s.push(10, 2.0);
        let (initial, points) = s.into_parts();
        assert_eq!(initial, 1.0);
        assert_eq!(points, vec![(10, 2.0)]);
        assert!(points.capacity() >= 8, "storage capacity must survive");
    }

    #[test]
    fn from_points_validates_order() {
        assert!(StepSeries::from_points(0.0, vec![(5, 1.0), (3, 2.0)]).is_err());
        assert!(StepSeries::from_points(0.0, vec![(3, 1.0), (5, 2.0)]).is_ok());
    }

    #[test]
    fn sample_uniform_grid() {
        let s = series();
        assert_eq!(s.sample(0, 10, 3), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn constant_series() {
        let s = StepSeries::new(4.0);
        assert!(s.is_empty());
        assert_eq!(s.value_at(123), 4.0);
        assert_eq!(s.integrate(0, 10), 40.0);
    }
}
