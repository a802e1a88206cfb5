//! Logical simulation time.
//!
//! The simulator has no relationship to wall-clock time: [`SimTime`] is a
//! monotonically increasing logical nanosecond counter advanced only by the
//! event loop. All latencies, timeouts and TTLs in the workspace are
//! [`Duration`]s of this logical clock, which is what makes runs replayable.

/// A point in logical simulation time, in nanoseconds since the start of the
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of logical simulation time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The origin of simulation time.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since the start of the run.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the start of the run.
    #[inline]
    pub fn micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the start of the run.
    #[inline]
    pub fn millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This instant advanced by `d`, saturating at [`SimTime::MAX`].
    #[inline]
    pub fn after(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// A duration of `n` nanoseconds.
    #[inline]
    pub const fn nanos(n: u64) -> Duration {
        Duration(n)
    }

    /// A duration of `n` microseconds.
    #[inline]
    pub const fn micros(n: u64) -> Duration {
        Duration(n * 1_000)
    }

    /// A duration of `n` milliseconds.
    #[inline]
    pub const fn millis(n: u64) -> Duration {
        Duration(n * 1_000_000)
    }

    /// A duration of `n` seconds.
    #[inline]
    pub const fn secs(n: u64) -> Duration {
        Duration(n * 1_000_000_000)
    }

    /// The length of this duration in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The length of this duration in whole milliseconds.
    #[inline]
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The sum of two durations, saturating on overflow.
    #[inline]
    pub fn plus(self, other: Duration) -> Duration {
        Duration(self.0.saturating_add(other.0))
    }

    /// This duration scaled by an integer factor, saturating on overflow.
    #[inline]
    pub fn times(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let us = self.0 / 1_000;
        write!(f, "{}.{:03}ms", us / 1_000, us % 1_000)
    }
}

impl std::fmt::Display for Duration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let us = self.0 / 1_000;
        write!(f, "{}.{:03}ms", us / 1_000, us % 1_000)
    }
}

impl std::ops::Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        self.after(rhs)
    }
}

impl std::ops::Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_is_saturating() {
        assert_eq!(SimTime::MAX.after(Duration::secs(1)), SimTime::MAX);
        assert_eq!(SimTime(5).since(SimTime(10)), Duration::ZERO);
        assert_eq!(SimTime(10).since(SimTime(4)), Duration(6));
    }

    #[test]
    fn duration_constructors_scale() {
        assert_eq!(Duration::micros(1).as_nanos(), 1_000);
        assert_eq!(Duration::millis(1).as_nanos(), 1_000_000);
        assert_eq!(Duration::secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Duration::millis(3).as_millis(), 3);
    }

    #[test]
    fn operators_match_named_methods() {
        let t = SimTime(1_000);
        assert_eq!(t + Duration(500), SimTime(1_500));
        assert_eq!(SimTime(1_500) - t, Duration(500));
    }

    #[test]
    fn display_formats_as_milliseconds() {
        assert_eq!(SimTime(1_500_000).to_string(), "1.500ms");
        assert_eq!(Duration::micros(250).to_string(), "0.250ms");
    }

    #[test]
    fn times_and_plus_saturate() {
        assert_eq!(Duration(u64::MAX).plus(Duration(1)), Duration(u64::MAX));
        assert_eq!(Duration(u64::MAX).times(2), Duration(u64::MAX));
        assert_eq!(Duration::millis(2).times(3), Duration::millis(6));
    }
}
