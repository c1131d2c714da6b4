//! Running CE / UE / SDC tallies over the error-handling pipeline.
//!
//! The paper's reliability argument is a bookkeeping argument: every
//! out-of-spec error is either corrected from the in-spec original
//! (a CE from the system's point of view), reported as uncorrectable
//! (UE, the same event a conventional server would report), or —
//! with probability 2⁻⁶⁴ per 8B+ pattern — escapes silently (SDC).
//! [`ErrorTally`] keeps those three ledgers as telemetry counters so
//! protocol engines and Monte-Carlo drivers can account for every
//! injected error.

use crate::inject::ErrorModel;
use telemetry::{Counter, Scope};

/// Telemetry-backed error ledgers. Handles start detached (usable on
/// their own); [`ErrorTally::bind`] folds them into a registry scope.
#[derive(Debug, Default)]
pub struct ErrorTally {
    /// Errors injected into fast-path reads, by the injector.
    injected: Counter,
    /// Injected errors whose class guarantees detection (≤8 symbols).
    injected_guaranteed: Counter,
    /// Corrected errors: detected, then recovered from a good source.
    ce: Counter,
    /// Uncorrectable errors: detected, no good source available.
    ue: Counter,
    /// Silent escapes: an error was present but the decode saw clean.
    sdc: Counter,
}

impl ErrorTally {
    /// Rebinds every ledger into `scope`, folding in values recorded
    /// while detached.
    pub fn bind(&mut self, scope: &Scope) {
        self.injected.rebind(scope, "injected");
        self.injected_guaranteed
            .rebind(scope, "injected_guaranteed");
        self.ce.rebind(scope, "ce");
        self.ue.rebind(scope, "ue");
        self.sdc.rebind(scope, "sdc");
    }

    /// Records one injected error of class `model`.
    pub fn note_injected(&self, model: ErrorModel) {
        self.injected.inc();
        if model.detection_guaranteed() {
            self.injected_guaranteed.inc();
        }
    }

    /// Records a corrected error (detected + recovered).
    pub fn note_ce(&self) {
        self.ce.inc();
    }

    /// Records an uncorrectable error (detected, unrecoverable).
    pub fn note_ue(&self) {
        self.ue.inc();
    }

    /// Records a silent escape (error present, decode saw clean).
    pub fn note_sdc(&self) {
        self.sdc.inc();
    }

    /// Total injected errors.
    pub fn injected(&self) -> u64 {
        self.injected.get()
    }

    /// Corrected-error count.
    pub fn ce(&self) -> u64 {
        self.ce.get()
    }

    /// Uncorrectable-error count.
    pub fn ue(&self) -> u64 {
        self.ue.get()
    }

    /// Silent-escape count.
    pub fn sdc(&self) -> u64 {
        self.sdc.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::Registry;

    #[test]
    fn ledgers_accumulate() {
        let t = ErrorTally::default();
        t.note_injected(ErrorModel::SingleByte);
        t.note_injected(ErrorModel::FullBlock);
        t.note_ce();
        t.note_ce();
        t.note_ue();
        assert_eq!(t.injected(), 2);
        assert_eq!(t.ce(), 2);
        assert_eq!(t.ue(), 1);
        assert_eq!(t.sdc(), 0);
    }

    #[test]
    fn bind_folds_prior_counts_into_registry() {
        let mut t = ErrorTally::default();
        t.note_injected(ErrorModel::SingleBit);
        t.note_ce();
        let registry = Registry::new();
        t.bind(&registry.scope("ecc"));
        t.note_ce();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ecc.injected"), 1);
        assert_eq!(snap.counter("ecc.ce"), 2);
        assert_eq!(snap.counter("ecc.injected_guaranteed"), 1);
    }
}
