//! The one place sp-bench reads the clock.
//!
//! The figure binaries reproduce the *shapes* of the paper's figures on
//! runs of a few milliseconds; the repository's measured numbers come
//! from `perfbench/`. Whatever is timed here is timed one way: [`RUNS`]
//! fresh runs, reported as the median with the fastest and slowest beside
//! it. The lint binaries (`fig7 r`, `fig10`, `crypto_bench`,
//! `server_load`, `failover_drill`) time nothing.

use std::time::{Duration, Instant};

/// Runs per timed cell.
pub const RUNS: usize = 3;

/// The median of [`RUNS`] runs and how far the others strayed from it.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// What the median run returned (its counters, its operator).
    pub run: T,
    /// The median run's duration.
    pub median: Duration,
    /// The fastest run's duration.
    pub min: Duration,
    /// The slowest run's duration.
    pub max: Duration,
}

/// A [`Timed`] duration triple converted to a figure's unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median run.
    pub median: f64,
    /// The smallest of the three values in this unit.
    pub low: f64,
    /// The largest of the three values in this unit.
    pub high: f64,
}

/// Calls `run` [`RUNS`] times and keeps the median run. Each call builds
/// a fresh subject and returns what it measured together with the
/// duration to rank it by: wall clock from [`wall`], or the clock the
/// subject keeps itself (a mechanism's `elapsed`, SAJoin's cost buckets).
pub fn median_of_runs<T>(mut run: impl FnMut() -> (T, Duration)) -> Timed<T> {
    let mut runs: Vec<(T, Duration)> = (0..RUNS).map(|_| run()).collect();
    runs.sort_by_key(|(_, d)| *d);
    let (min, max) = (runs[0].1, runs[RUNS - 1].1);
    let (run, median) = runs.swap_remove(RUNS / 2);
    Timed { run, median, min, max }
}

/// Runs `f` once and returns its result with the wall-clock time it took.
pub fn wall<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

impl<T> Timed<T> {
    /// The three durations in a figure's unit (`unit` maps a duration to
    /// µs per tuple, tuples per ms, …). `low`/`high` are ordered in that
    /// unit, so a rate's `high` is the fastest run.
    pub fn spread(&self, unit: impl Fn(Duration) -> f64) -> Spread {
        let (a, b) = (unit(self.min), unit(self.max));
        Spread { median: unit(self.median), low: a.min(b), high: a.max(b) }
    }
}

impl Spread {
    /// A table cell: `median [low..high]`.
    #[must_use]
    pub fn cell(&self, decimals: usize) -> String {
        format!("{:.d$} [{:.d$}..{:.d$}]", self.median, self.low, self.high, d = decimals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_run_is_kept_with_min_and_max() {
        let mut durations = [30u64, 10, 20].into_iter();
        let timed = median_of_runs(|| {
            let ms = durations.next().expect("RUNS calls");
            (ms, Duration::from_millis(ms))
        });
        assert_eq!(timed.run, 20, "the payload of the median run, not of the last");
        assert_eq!(
            (timed.min, timed.median, timed.max),
            (Duration::from_millis(10), Duration::from_millis(20), Duration::from_millis(30))
        );
        // A rate inverts the order; low/high follow the unit.
        let rate = timed.spread(|d| 1.0 / d.as_secs_f64());
        assert!(rate.low < rate.median && rate.median < rate.high);
        assert_eq!(timed.spread(|d| d.as_secs_f64() * 1e3).cell(1), "20.0 [10.0..30.0]");
    }
}
