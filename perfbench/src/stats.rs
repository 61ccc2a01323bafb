//! Small order statistics and process measurements.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Arithmetic mean of `xs` (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Run `f` once and return its result with the elapsed wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Spin (without sleeping) for `d`: a busy-wait that occupies the
/// thread like real work would.
pub fn busy_wait(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
