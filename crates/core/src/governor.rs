//! The per-epoch SDC governor (Section III-B of the paper).
//!
//! Detection-only RS-8 misses an 8-byte-plus error with probability
//! 2⁻⁶⁴. To bound the mean time to SDC at one billion years even if
//! *every* access produced an 8B+ error, Hetero-DMR counts detected
//! errors per one-hour epoch; past ~2.1 million it stops exploiting
//! margins for the remainder of the epoch, resuming fresh in the next.

use dram::{Picos, PS_PER_S};
use telemetry::{Counter, Scope};

/// One hour, in picoseconds.
pub const EPOCH_PS: Picos = 3_600 * PS_PER_S;

/// Whether margins may currently be exploited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorState {
    /// Under budget: operate the Free Module unsafely fast.
    Exploiting,
    /// Budget exhausted: run everything at specification until the
    /// epoch rolls over.
    FallBack,
}

/// The epoch error-budget governor.
#[derive(Debug)]
pub struct EpochGovernor {
    threshold: u64,
    epoch_start: Picos,
    errors_this_epoch: u64,
    /// Lifetime totals — live telemetry counters, detached until
    /// [`EpochGovernor::attach_telemetry`] binds them to a registry.
    errors: Counter,
    fallbacks: Counter,
    epoch_rolls: Counter,
}

impl Default for EpochGovernor {
    fn default() -> Self {
        EpochGovernor::new(ecc::sdc::default_epoch_threshold())
    }
}

impl EpochGovernor {
    /// Creates a governor with a custom per-epoch error budget.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero (the governor could never
    /// exploit).
    pub fn new(threshold: u64) -> EpochGovernor {
        assert!(threshold > 0, "error budget must be positive");
        EpochGovernor {
            threshold,
            epoch_start: 0,
            errors_this_epoch: 0,
            errors: Counter::default(),
            fallbacks: Counter::default(),
            epoch_rolls: Counter::default(),
        }
    }

    /// Rebinds the governor's counters into a registry scope, folding
    /// in values recorded before attachment.
    pub fn attach_telemetry(&mut self, scope: &Scope) {
        let rebind = |name: &str, old: &Counter| {
            let fresh = scope.counter(name);
            fresh.add(old.get());
            fresh
        };
        self.errors = rebind("errors", &self.errors);
        self.fallbacks = rebind("fallbacks", &self.fallbacks);
        self.epoch_rolls = rebind("epoch_rolls", &self.epoch_rolls);
    }

    /// The per-epoch budget.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Lifetime detected-error count.
    pub fn total_errors(&self) -> u64 {
        self.errors.get()
    }

    /// Lifetime number of epochs that hit the budget.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.get()
    }

    /// Errors counted in the current epoch.
    pub fn errors_this_epoch(&self) -> u64 {
        self.errors_this_epoch
    }

    /// Rolls the epoch forward if `now` has passed the boundary.
    fn roll(&mut self, now: Picos) {
        if now >= self.epoch_start + EPOCH_PS {
            let epochs = (now - self.epoch_start) / EPOCH_PS;
            self.epoch_start += epochs * EPOCH_PS;
            self.errors_this_epoch = 0;
            self.epoch_rolls.add(epochs);
        }
    }

    /// The governor's state at time `now`.
    pub fn state(&mut self, now: Picos) -> GovernorState {
        self.roll(now);
        if self.errors_this_epoch >= self.threshold {
            GovernorState::FallBack
        } else {
            GovernorState::Exploiting
        }
    }

    /// The long-run fraction of time Hetero-DMR stays active
    /// (exploiting margins) when errors arrive at a steady
    /// `errors_per_hour`: 1.0 while under budget, otherwise the
    /// fraction of each epoch spent reaching the budget (footnote 2 of
    /// the paper: at the 23 °C measured rates this is ~100 %).
    pub fn expected_active_fraction(&self, errors_per_hour: f64) -> f64 {
        if errors_per_hour <= self.threshold as f64 {
            1.0
        } else {
            self.threshold as f64 / errors_per_hour
        }
    }

    /// Records one detected error at `now`; returns the resulting
    /// state (so callers can react to the budget being exhausted by
    /// this very error).
    pub fn record_error(&mut self, now: Picos) -> GovernorState {
        self.roll(now);
        self.errors_this_epoch += 1;
        self.errors.inc();
        if self.errors_this_epoch == self.threshold {
            self.fallbacks.inc();
        }
        self.state(now)
    }

    /// Records `count` detected errors at `now` in one call; returns
    /// the resulting state. Equivalent to `count` calls to
    /// [`EpochGovernor::record_error`] at the same timestamp but O(1),
    /// which the adaptive layer relies on when a whole epoch's error
    /// tally (possibly millions) arrives at once.
    pub fn record_errors(&mut self, now: Picos, count: u64) -> GovernorState {
        self.roll(now);
        let before = self.errors_this_epoch;
        self.errors_this_epoch += count;
        self.errors.add(count);
        if before < self.threshold && self.errors_this_epoch >= self.threshold {
            self.fallbacks.inc();
        }
        self.state(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_matches_paper() {
        let g = EpochGovernor::default();
        assert!(g.threshold() > 2_000_000 && g.threshold() < 2_200_000);
    }

    #[test]
    fn exploits_until_threshold() {
        let mut g = EpochGovernor::new(3);
        assert_eq!(g.state(0), GovernorState::Exploiting);
        assert_eq!(g.record_error(10), GovernorState::Exploiting);
        assert_eq!(g.record_error(20), GovernorState::Exploiting);
        assert_eq!(g.record_error(30), GovernorState::FallBack);
        assert_eq!(g.state(40), GovernorState::FallBack);
        assert_eq!(g.fallbacks(), 1);
    }

    #[test]
    fn next_epoch_resets_the_budget() {
        let mut g = EpochGovernor::new(2);
        g.record_error(0);
        g.record_error(1);
        assert_eq!(g.state(2), GovernorState::FallBack);
        // One hour later: exploiting again.
        assert_eq!(g.state(EPOCH_PS), GovernorState::Exploiting);
        assert_eq!(g.errors_this_epoch(), 0);
        assert_eq!(g.total_errors(), 2);
    }

    #[test]
    fn skipping_multiple_epochs_is_handled() {
        let mut g = EpochGovernor::new(1);
        g.record_error(0);
        assert_eq!(g.state(10 * EPOCH_PS + 5), GovernorState::Exploiting);
        // The epoch boundary stays aligned to whole hours.
        g.record_error(10 * EPOCH_PS + 6);
        assert_eq!(g.state(10 * EPOCH_PS + 7), GovernorState::FallBack);
        assert_eq!(g.state(11 * EPOCH_PS), GovernorState::Exploiting);
    }

    #[test]
    fn realistic_error_rates_never_trip_it() {
        // Section II-C's measured rates are a few hundred errors/hour
        // at worst — far below the ~2.1M budget, so Hetero-DMR stays
        // active "~100% of the time".
        let mut g = EpochGovernor::default();
        for i in 0..10_000u64 {
            g.record_error(i * (EPOCH_PS / 10_000));
        }
        assert_eq!(g.state(EPOCH_PS - 1), GovernorState::Exploiting);
        assert_eq!(g.fallbacks(), 0);
    }

    #[test]
    fn active_fraction_matches_paper_footnote() {
        let g = EpochGovernor::default();
        // At the measured 23 °C error rates (hundreds per hour at
        // worst), Hetero-DMR is active ~100% of the time.
        assert_eq!(g.expected_active_fraction(1_000.0), 1.0);
        assert_eq!(g.expected_active_fraction(0.0), 1.0);
        // A pathological 10x-over-budget module is still active 10%.
        let ten_x = g.threshold() as f64 * 10.0;
        assert!((g.expected_active_fraction(ten_x) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = EpochGovernor::new(0);
    }

    #[test]
    fn bulk_record_matches_singles() {
        let mut singles = EpochGovernor::new(5);
        let mut bulk = EpochGovernor::new(5);
        for _ in 0..7 {
            singles.record_error(42);
        }
        assert_eq!(bulk.record_errors(42, 7), GovernorState::FallBack);
        assert_eq!(bulk.errors_this_epoch(), singles.errors_this_epoch());
        assert_eq!(bulk.total_errors(), singles.total_errors());
        // The budget crossing counts as exactly one fallback even when
        // a single bulk call overshoots the threshold.
        assert_eq!(bulk.fallbacks(), 1);
        assert_eq!(singles.fallbacks(), 1);
        // Further errors in the same exhausted epoch add no fallback.
        bulk.record_errors(43, 100);
        assert_eq!(bulk.fallbacks(), 1);
        // Zero-count records are state queries.
        assert_eq!(bulk.record_errors(EPOCH_PS, 0), GovernorState::Exploiting);
        assert_eq!(bulk.errors_this_epoch(), 0);
    }

    #[test]
    fn rollover_happens_at_exactly_epoch_ps() {
        let mut g = EpochGovernor::new(1);
        g.record_error(0);
        assert_eq!(g.state(EPOCH_PS - 1), GovernorState::FallBack);
        // `roll` fires on `now >= epoch_start + EPOCH_PS`: the instant
        // EPOCH_PS itself already belongs to the second epoch.
        assert_eq!(g.state(EPOCH_PS), GovernorState::Exploiting);
        assert_eq!(g.errors_this_epoch(), 0);
        // An error recorded exactly on the boundary lands in epoch 1,
        // which keeps the epoch start aligned to whole multiples.
        g.record_error(EPOCH_PS);
        assert_eq!(g.state(2 * EPOCH_PS - 1), GovernorState::FallBack);
        assert_eq!(g.state(2 * EPOCH_PS), GovernorState::Exploiting);
    }
}
