//! `bf-timer` — virtual time and browser timer models.
//!
//! The attacks in the paper observe the system exclusively through a timer:
//! the JavaScript attacker calls `performance.now()`, the native attacker
//! reads `CLOCK_MONOTONIC`. Browsers deliberately degrade this timer —
//! quantizing it (Tor: 100 ms, Firefox/Safari: 1 ms) or quantizing *and*
//! jittering it (Chrome: 0.1 ms with hash-based jitter) — and §6.1 of the
//! paper proposes a *randomized* timer that defeats the attack outright.
//!
//! This crate provides:
//!
//! * [`Nanos`] — the exact virtual-time currency of the whole workspace
//!   (u64 nanoseconds);
//! * the [`Timer`] trait — a monotonic mapping from real virtual time to
//!   the time an attacker is allowed to observe;
//! * the four timer models of the paper (Fig. 7): [`PreciseTimer`],
//!   [`QuantizedTimer`], [`JitteredTimer`], [`RandomizedTimer`];
//! * [`BrowserKind`] presets wiring each browser of Table 1 to its timer.
//!
//! # Example
//!
//! ```
//! use bf_timer::{Nanos, Timer, QuantizedTimer};
//!
//! let mut tor = QuantizedTimer::new(Nanos::from_millis(100));
//! assert_eq!(tor.observe(Nanos::from_millis(250)), Nanos::from_millis(200));
//! ```

pub mod browser;
pub mod models;
pub mod nanos;

pub use browser::BrowserKind;
pub use models::{
    JitteredTimer, PreciseTimer, QuantizedTimer, RandomizedTimer, RandomizedTimerConfig,
};
pub use nanos::{round_half_away_u64, Nanos};

/// A monotonic timer as seen by an attacker.
///
/// Implementations map the machine's *real* virtual time to the value an
/// attacker's `time()` call returns. All implementations must be monotonic:
/// for `a <= b`, `observe(a) <= observe(b)` (given the calls are made in
/// non-decreasing real-time order, as the replay engine guarantees).
pub trait Timer {
    /// The value returned by the attacker-visible clock when read at real
    /// time `real`.
    fn observe(&mut self, real: Nanos) -> Nanos;

    /// The earliest real time `t >= from` at which `observe(t) >= target`.
    ///
    /// This is the exact inverse query the attack-replay engine uses to
    /// find when a `while (time() - t_begin < P)` loop exits, without
    /// stepping through millions of individual iterations. Implementations
    /// must agree with [`Timer::observe`]: `observe(result) >= target`,
    /// and `observe(t) < target` for all `from <= t < result`.
    fn earliest_at_or_above(&mut self, from: Nanos, target: Nanos) -> Nanos;

    /// Nominal resolution Δ of this timer; [`Nanos::ZERO`] for a precise
    /// timer.
    fn resolution(&self) -> Nanos;

    /// Human-readable model name for reports.
    fn name(&self) -> &'static str;
}

impl<T: Timer + ?Sized> Timer for Box<T> {
    fn observe(&mut self, real: Nanos) -> Nanos {
        (**self).observe(real)
    }

    fn earliest_at_or_above(&mut self, from: Nanos, target: Nanos) -> Nanos {
        (**self).earliest_at_or_above(from, target)
    }

    fn resolution(&self) -> Nanos {
        (**self).resolution()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}
