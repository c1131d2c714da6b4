//! The closed-loop adaptive margin governor.
//!
//! The paper bins each module's frequency margin once, offline, with a
//! stress test — but AL-DRAM showed timing margins are a *moving*
//! target: temperature, aging, and workload phase all shift the safe
//! operating point. This module closes the loop online: each one-hour
//! epoch the [`AdaptiveGovernor`] reads the detected-error tally from
//! the existing [`EpochGovernor`] telemetry and steps the channel's
//! data rate up or down one 200 MT/s bin.
//!
//! Three mechanisms make the loop safe and stable:
//!
//! * **Hysteresis** — separate strengthen/weaken thresholds with a
//!   wide dead band, plus a cool-down of `cooldown_epochs` holds after
//!   every step, so a single noisy epoch cannot whipsaw the rate.
//! * **Reprobe ceiling** — when error feedback forces a step down from
//!   bin *b*, the governor remembers *b* as unsafe and refuses to
//!   strengthen back into it for `reprobe_epochs`. Between reprobes
//!   the trajectory is therefore monotone below the ceiling: sustained
//!   strengthen/weaken oscillation is structurally impossible, at most
//!   one up-down probe per reprobe window (see
//!   `adaptive_properties.rs` for the machine-checked statement).
//! * **Safety envelope** — the bin never exceeds the stress-test
//!   derived `max_bin`, never moves up by more than one per epoch, and
//!   any epoch containing an uncorrectable error triggers an immediate
//!   multi-bin retreat that overrides the cool-down.
//!
//! The governor itself is RNG-free; the [`run_closed_loop`] driver
//! samples error counts with the runner's counter-based discipline
//! (epoch *i* draws from `seed::iteration_seed(seed, i)`), so every
//! trajectory is reproducible and independent of thread scheduling.

use crate::governor::{EpochGovernor, EPOCH_PS};
use dram::rate::DataRate;
use margin::stress::sample_poisson;
use margin::temperature::TemperatureTransient;
use rand::rngs::StdRng;
use rand::SeedableRng;
use telemetry::series::{Series, SeriesStore};
use telemetry::trace::{kv, Clock, Tracer};
use telemetry::{Counter, Scope};
use workloads::PhaseSchedule;

/// Width of one adaptation bin: the 200 MT/s BIOS step the paper's
/// stress tests walk ([`DataRate::STEP_MTS`]).
pub const BIN_MTS: u32 = DataRate::STEP_MTS;

/// Tuning of the adaptive control loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Strengthen (step one bin up) when the epoch's detected-error
    /// count is at or below this.
    pub strengthen_below: u64,
    /// Weaken (step one bin down) when the epoch's detected-error
    /// count is at or above this. Counts in the open interval
    /// `(strengthen_below, weaken_above)` are the hysteresis dead band
    /// and hold the current bin.
    pub weaken_above: u64,
    /// Epochs to hold after any step before stepping again.
    pub cooldown_epochs: u32,
    /// Epochs the reprobe ceiling stays lowered after an error-driven
    /// step down, before the governor may probe the abandoned bin
    /// again.
    pub reprobe_epochs: u32,
    /// Safety envelope: the stress-test-derived maximum bin. The
    /// operating margin never exceeds `max_bin * BIN_MTS`.
    pub max_bin: u8,
    /// Bins retreated immediately when an epoch contains an
    /// uncorrectable error (clamped at bin 0).
    pub ue_retreat_bins: u8,
}

impl AdaptiveConfig {
    /// A config with validation.
    ///
    /// # Panics
    ///
    /// Panics unless `strengthen_below < weaken_above` (the dead band
    /// must exist), `cooldown_epochs >= 1`, `reprobe_epochs >=
    /// cooldown_epochs`, and `ue_retreat_bins >= 1`.
    pub fn new(
        strengthen_below: u64,
        weaken_above: u64,
        cooldown_epochs: u32,
        reprobe_epochs: u32,
        max_bin: u8,
        ue_retreat_bins: u8,
    ) -> AdaptiveConfig {
        assert!(
            strengthen_below < weaken_above,
            "hysteresis dead band must be non-empty: \
             strengthen_below {strengthen_below} >= weaken_above {weaken_above}"
        );
        assert!(cooldown_epochs >= 1, "cool-down must be positive");
        assert!(
            reprobe_epochs >= cooldown_epochs,
            "reprobe window shorter than the cool-down would re-open \
             an abandoned bin while still cooling down"
        );
        assert!(ue_retreat_bins >= 1, "a UE must move the rate down");
        AdaptiveConfig {
            strengthen_below,
            weaken_above,
            cooldown_epochs,
            reprobe_epochs,
            max_bin,
            ue_retreat_bins,
        }
    }

    /// Defaults derived from the paper's measured rates: modules at
    /// their margin see at most hundreds of CE per hour, and an order
    /// of magnitude more signals the bin above the margin, so the dead
    /// band `(100, 10_000)` separates the two regimes cleanly while
    /// staying far under the ~2.1 M/epoch SDC budget.
    pub fn defaults(max_bin: u8) -> AdaptiveConfig {
        AdaptiveConfig::new(100, 10_000, 2, 12, max_bin, 2)
    }
}

/// What the governor did with one epoch of error feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Stay at the current bin.
    Hold,
    /// Step one bin up (faster).
    Strengthen,
    /// Step one bin down (safer).
    Weaken,
    /// Uncorrectable error: drop `bins` immediately (0 when already at
    /// specification — the UE is still recorded and the cool-down
    /// still restarts).
    Retreat {
        /// Bins actually dropped (`<= ue_retreat_bins`).
        bins: u8,
    },
}

/// The closed-loop governor: owns the per-epoch SDC budget governor
/// and walks the operating bin from its error feedback.
#[derive(Debug)]
pub struct AdaptiveGovernor {
    config: AdaptiveConfig,
    /// The SDC budget bookkeeper every epoch's CE tally feeds.
    budget: EpochGovernor,
    bin: u8,
    /// Epochs left holding after the last step.
    cooldown: u32,
    /// Epochs left on the lowered reprobe ceiling (0 = ceiling open).
    reprobe: u32,
    /// Current strengthen ceiling (`max_bin` unless reprobing).
    ceiling: u8,
    epochs_observed: u64,
    steps_up: Counter,
    steps_down: Counter,
    retreats: Counter,
    holds: Counter,
    tracer: Option<Tracer>,
    series: Option<GovernorSeries>,
}

/// Health-plane rollups of the closed loop's per-epoch telemetry
/// (see [`AdaptiveGovernor::attach_series`]).
#[derive(Debug)]
struct GovernorSeries {
    /// Corrected errors observed, per epoch window.
    ce: Series,
    /// Uncorrectable errors observed, per epoch window.
    ue: Series,
    /// Operating bin after the epoch's decision.
    bin: Series,
}

impl AdaptiveGovernor {
    /// A governor starting at specification (bin 0) with the default
    /// SDC epoch budget.
    pub fn new(config: AdaptiveConfig) -> AdaptiveGovernor {
        AdaptiveGovernor::with_budget(config, EpochGovernor::default())
    }

    /// A governor over a custom budget governor (tests shrink the
    /// threshold).
    pub fn with_budget(config: AdaptiveConfig, budget: EpochGovernor) -> AdaptiveGovernor {
        AdaptiveGovernor {
            ceiling: config.max_bin,
            config,
            budget,
            bin: 0,
            cooldown: 0,
            reprobe: 0,
            epochs_observed: 0,
            steps_up: Counter::default(),
            steps_down: Counter::default(),
            retreats: Counter::default(),
            holds: Counter::default(),
            tracer: None,
            series: None,
        }
    }

    /// Rebinds the governor's counters (and the inner budget
    /// governor's) into a registry scope, folding in values recorded
    /// before attachment.
    pub fn attach_telemetry(&mut self, scope: &Scope) {
        let rebind = |name: &str, old: &Counter| {
            let fresh = scope.counter(name);
            fresh.add(old.get());
            fresh
        };
        self.steps_up = rebind("steps_up", &self.steps_up);
        self.steps_down = rebind("steps_down", &self.steps_down);
        self.retreats = rebind("retreats", &self.retreats);
        self.holds = rebind("holds", &self.holds);
        self.budget.attach_telemetry(scope);
    }

    /// Emits `governor.step` / `governor.retreat` spans onto `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Streams each observed epoch into sim-time series under
    /// `prefix`: `<prefix>.ce` and `<prefix>.ue` (errors per epoch)
    /// and `<prefix>.bin` (operating bin after the decision), one
    /// epoch-wide window each on the simulation-picosecond clock —
    /// the same timestamps the governor's trace spans carry, so a
    /// detector breach in these series can be walked back to
    /// `governor.step` / `governor.retreat` spans.
    pub fn attach_series(&mut self, store: &SeriesStore, prefix: &str) {
        self.series = Some(GovernorSeries {
            ce: store.series(&format!("{prefix}.ce"), EPOCH_PS),
            ue: store.series(&format!("{prefix}.ue"), EPOCH_PS),
            bin: store.series(&format!("{prefix}.bin"), EPOCH_PS),
        });
    }

    /// Current operating bin.
    pub fn bin(&self) -> u8 {
        self.bin
    }

    /// Current operating margin over specification, MT/s.
    pub fn margin_mts(&self) -> u32 {
        self.bin as u32 * BIN_MTS
    }

    /// Current data rate.
    pub fn data_rate(&self) -> DataRate {
        DataRate::MT3200.plus_margin(self.margin_mts())
    }

    /// Current strengthen ceiling (equals `config.max_bin` except
    /// while a reprobe window is pending).
    pub fn ceiling(&self) -> u8 {
        self.ceiling
    }

    /// The loop tuning.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// The inner SDC budget governor.
    pub fn budget(&self) -> &EpochGovernor {
        &self.budget
    }

    /// Epochs fed through [`AdaptiveGovernor::observe_epoch`].
    pub fn epochs_observed(&self) -> u64 {
        self.epochs_observed
    }

    /// Lifetime decision tallies `(up, down, retreats, holds)`.
    pub fn decision_counts(&self) -> (u64, u64, u64, u64) {
        (
            self.steps_up.get(),
            self.steps_down.get(),
            self.retreats.get(),
            self.holds.get(),
        )
    }

    /// Feeds one epoch of error feedback — `ce` detected-corrected
    /// errors and `ue` uncorrectable errors observed during epoch
    /// `epoch` — and applies the resulting decision to the operating
    /// bin. Epoch `i` spans sim time `[i * EPOCH_PS, (i+1) *
    /// EPOCH_PS)`.
    pub fn observe_epoch(&mut self, epoch: u64, ce: u64, ue: u64) -> Decision {
        let start = epoch * EPOCH_PS;
        self.epochs_observed += 1;
        // The CE stream still funds the SDC budget: detection-only ECC
        // converts every detected error into budget spend regardless
        // of what the adaptive layer decides.
        self.budget.record_errors(start, ce);
        if self.reprobe > 0 {
            self.reprobe -= 1;
            if self.reprobe == 0 {
                // Window over: the abandoned bin may be probed again
                // (conditions — temperature, phase — may have moved).
                self.ceiling = self.config.max_bin;
            }
        }

        let from = self.bin;
        let decision = if ue > 0 {
            Decision::Retreat {
                bins: self.config.ue_retreat_bins.min(self.bin),
            }
        } else if self.cooldown > 0 {
            self.cooldown -= 1;
            Decision::Hold
        } else if ce <= self.config.strengthen_below && self.bin < self.ceiling {
            Decision::Strengthen
        } else if ce >= self.config.weaken_above && self.bin > 0 {
            Decision::Weaken
        } else {
            Decision::Hold
        };

        match decision {
            Decision::Hold => self.holds.inc(),
            Decision::Strengthen => {
                self.bin += 1;
                self.cooldown = self.config.cooldown_epochs;
                self.steps_up.inc();
            }
            Decision::Weaken => {
                self.bin -= 1;
                self.cooldown = self.config.cooldown_epochs;
                // Remember `from` as error-hostile: no re-probing it
                // until the window expires.
                self.lower_ceiling(from);
                self.steps_down.inc();
            }
            Decision::Retreat { bins } => {
                self.bin -= bins;
                self.cooldown = self.config.cooldown_epochs;
                self.lower_ceiling(from);
                self.retreats.inc();
            }
        }
        if let Some(series) = &self.series {
            series.ce.record(start, ce);
            series.ue.record(start, ue);
            series.bin.record(start, self.bin as u64);
        }
        self.emit_trace(epoch, from, decision, ce, ue);
        debug_assert!(self.bin <= self.ceiling && self.ceiling <= self.config.max_bin);
        decision
    }

    fn lower_ceiling(&mut self, from: u8) {
        self.ceiling = from.saturating_sub(1).max(self.bin);
        self.reprobe = self.config.reprobe_epochs;
    }

    fn emit_trace(&self, epoch: u64, from: u8, decision: Decision, ce: u64, ue: u64) {
        let Some(t) = &self.tracer else { return };
        let name = match decision {
            Decision::Hold => return,
            Decision::Strengthen | Decision::Weaken => "governor.step",
            Decision::Retreat { .. } => "governor.retreat",
        };
        let start = epoch * EPOCH_PS;
        t.complete(
            name,
            "adaptive",
            Clock::SimPs,
            start,
            start + EPOCH_PS - 1,
            vec![
                kv("epoch", epoch),
                kv("bin_from", from),
                kv("bin_to", self.bin),
                kv("ce", ce),
                kv("ue", ue),
            ],
        );
    }
}

/// How a channel's *true* margin responds to operating conditions —
/// the physical ground truth the governor can only sense through error
/// counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginResponse {
    /// True frequency margin at baseline conditions, MT/s.
    pub true_margin_mts: u32,
    /// Mean detected errors per epoch while safely under the margin
    /// (background CE rate).
    pub ce_floor_per_epoch: f64,
    /// Mean detected errors per epoch operating exactly *at* the
    /// margin.
    pub ce_at_margin_per_epoch: f64,
    /// Multiplicative CE growth for each bin operated *over* the
    /// margin.
    pub ce_growth_per_bin: f64,
    /// Mean UE per epoch for each bin operated *beyond one bin over*
    /// the margin (the first overshoot bin only degrades CE).
    pub ue_per_epoch_per_bin: f64,
}

impl MarginResponse {
    /// A module with the paper's typical profile: measurable-but-tiny
    /// CE at its margin, steep growth past it.
    pub fn typical(true_margin_mts: u32) -> MarginResponse {
        MarginResponse {
            true_margin_mts,
            ce_floor_per_epoch: 2.0,
            ce_at_margin_per_epoch: 400.0,
            ce_growth_per_bin: 200.0,
            ue_per_epoch_per_bin: 3.0,
        }
    }

    /// Poisson means `(ce, ue)` per epoch when operating at
    /// `operating_margin_mts` under disturbance `d`.
    pub fn lambda(&self, operating_margin_mts: u32, d: Disturbance) -> (f64, f64) {
        let effective = self.true_margin_mts as i64 + d.margin_shift_mts as i64;
        let over_bins = (operating_margin_mts as i64 - effective) as f64 / BIN_MTS as f64;
        let ce = if over_bins < 0.0 {
            self.ce_floor_per_epoch
        } else {
            self.ce_at_margin_per_epoch * self.ce_growth_per_bin.powf(over_bins)
        };
        let ue = self.ue_per_epoch_per_bin * (over_bins - 1.0).max(0.0);
        (ce * d.intensity, ue * d.intensity)
    }
}

/// The conditions of one epoch, as they perturb the margin response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disturbance {
    /// Shift of the true margin in MT/s (negative = margin loss, e.g.
    /// from heat or aging).
    pub margin_shift_mts: i32,
    /// Error-exposure multiplier in `(0, 1]` from the workload phase
    /// (compute-bound phases touch memory less, hiding errors).
    pub intensity: f64,
}

impl Default for Disturbance {
    fn default() -> Disturbance {
        Disturbance {
            margin_shift_mts: 0,
            intensity: 1.0,
        }
    }
}

/// Linear margin loss from DRAM aging, starting at `onset_epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgingDrift {
    /// Margin lost per thousand epochs, MT/s.
    pub mts_per_kilo_epoch: u32,
    /// First epoch the drift applies.
    pub onset_epoch: u64,
}

impl AgingDrift {
    /// No aging.
    pub fn none() -> AgingDrift {
        AgingDrift {
            mts_per_kilo_epoch: 0,
            onset_epoch: 0,
        }
    }

    /// Margin shift (≤ 0) at `epoch`.
    pub fn shift_at(&self, epoch: u64) -> i32 {
        let aged = epoch.saturating_sub(self.onset_epoch);
        -((aged * self.mts_per_kilo_epoch as u64 / 1000) as i32)
    }
}

/// A composite disturbance scenario: temperature schedule, aging
/// drift, and workload phases, evaluated per epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// Ambient-temperature schedule.
    pub temperature: TemperatureTransient,
    /// Margin lost (MT/s) while the temperature is in excursion — the
    /// 45 °C chamber's ~4× error-rate multiplier expressed as the
    /// margin loss that produces it.
    pub excursion_margin_loss_mts: u32,
    /// Aging drift.
    pub aging: AgingDrift,
    /// Workload phase schedule.
    pub phases: PhaseSchedule,
}

impl Environment {
    /// Room temperature, no aging, a single steady suite: the
    /// conditions an offline stress test implicitly assumes hold
    /// forever.
    pub fn steady(suite: workloads::Suite) -> Environment {
        Environment {
            temperature: TemperatureTransient::steady(margin::AmbientTemperature::Room23C),
            excursion_margin_loss_mts: 0,
            aging: AgingDrift::none(),
            phases: PhaseSchedule::steady(suite),
        }
    }

    /// The disturbance in effect during `epoch`.
    pub fn disturbance_at(&self, epoch: u64) -> Disturbance {
        let mut shift = self.aging.shift_at(epoch);
        if self.temperature.is_excursion(epoch) {
            shift -= self.excursion_margin_loss_mts as i32;
        }
        Disturbance {
            margin_shift_mts: shift,
            intensity: self.phases.relative_intensity_at(epoch),
        }
    }
}

/// One epoch of a closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: u64,
    /// Operating bin *during* the epoch (errors were sampled at it).
    pub bin_during: u8,
    /// Bin after the governor's decision.
    pub bin_after: u8,
    /// Detected-corrected errors sampled this epoch.
    pub ce: u64,
    /// Uncorrectable errors sampled this epoch.
    pub ue: u64,
    /// The governor's decision.
    pub decision: Decision,
}

/// Drives `governor` against a physical `response` under `env` for
/// `epochs` epochs. Error counts are Poisson draws whose RNG stream
/// derives from `seed::iteration_seed(seed, epoch)` — the runner's
/// counter-based discipline — so a trajectory depends only on `(seed,
/// epochs)` and its inputs, never on scheduling.
pub fn run_closed_loop(
    governor: &mut AdaptiveGovernor,
    response: &MarginResponse,
    env: &Environment,
    seed: u64,
    epochs: u64,
) -> Vec<EpochRecord> {
    (0..epochs)
        .map(|epoch| {
            let d = env.disturbance_at(epoch);
            let (lambda_ce, lambda_ue) = response.lambda(governor.margin_mts(), d);
            let mut rng = StdRng::seed_from_u64(runner::seed::iteration_seed(seed, epoch));
            let ce = sample_poisson(&mut rng, lambda_ce);
            let ue = sample_poisson(&mut rng, lambda_ue);
            let bin_during = governor.bin();
            let decision = governor.observe_epoch(epoch, ce, ue);
            EpochRecord {
                epoch,
                bin_during,
                bin_after: governor.bin(),
                ce,
                ue,
                decision,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Suite;

    fn quiet_config() -> AdaptiveConfig {
        AdaptiveConfig::new(100, 10_000, 1, 4, 4, 2)
    }

    #[test]
    fn climbs_one_bin_per_quiet_epoch_up_to_the_envelope() {
        let mut g = AdaptiveGovernor::new(quiet_config());
        let mut epoch = 0u64;
        let mut max_seen = 0u8;
        while epoch < 40 {
            let before = g.bin();
            let d = g.observe_epoch(epoch, 0, 0);
            assert!(g.bin() <= before + 1, "never more than +1 per epoch");
            assert!(g.bin() <= 4, "never past the envelope");
            assert!(matches!(d, Decision::Strengthen | Decision::Hold));
            max_seen = max_seen.max(g.bin());
            epoch += 1;
        }
        assert_eq!(max_seen, 4, "reaches the envelope");
        assert_eq!(g.bin(), 4, "and stays there");
        let (up, down, retreat, _hold) = g.decision_counts();
        assert_eq!((up, down, retreat), (4, 0, 0));
    }

    #[test]
    fn cooldown_holds_between_steps() {
        let cfg = AdaptiveConfig::new(100, 10_000, 3, 6, 4, 2);
        let mut g = AdaptiveGovernor::new(cfg);
        assert_eq!(g.observe_epoch(0, 0, 0), Decision::Strengthen);
        for e in 1..=3 {
            assert_eq!(g.observe_epoch(e, 0, 0), Decision::Hold, "epoch {e}");
        }
        assert_eq!(g.observe_epoch(4, 0, 0), Decision::Strengthen);
    }

    #[test]
    fn dead_band_holds() {
        let mut g = AdaptiveGovernor::new(quiet_config());
        g.observe_epoch(0, 0, 0);
        g.observe_epoch(1, 0, 0); // bin 2 after cool-downs? (cooldown 1)
        let bin = g.bin();
        // 5_000 errors sit strictly between the thresholds: hold.
        for e in 2..8 {
            g.observe_epoch(e, 5_000, 0);
        }
        assert_eq!(g.bin(), bin, "dead band never moves the bin");
    }

    #[test]
    fn ue_retreats_immediately_even_during_cooldown() {
        let cfg = AdaptiveConfig::new(100, 10_000, 3, 6, 4, 2);
        let mut g = AdaptiveGovernor::new(cfg);
        g.observe_epoch(0, 0, 0);
        g.observe_epoch(1, 0, 0); // cool-down hold
        assert_eq!(g.bin(), 1);
        // Still cooling down, but a UE overrides it… from bin 1 only
        // one bin of retreat is available.
        assert_eq!(g.observe_epoch(2, 50, 1), Decision::Retreat { bins: 1 });
        assert_eq!(g.bin(), 0);
        // A UE at specification still "retreats" (0 bins) and counts.
        assert_eq!(g.observe_epoch(3, 0, 1), Decision::Retreat { bins: 0 });
        let (_, _, retreats, _) = g.decision_counts();
        assert_eq!(retreats, 2);
    }

    #[test]
    fn weaken_lowers_the_reprobe_ceiling() {
        let cfg = AdaptiveConfig::new(100, 10_000, 1, 4, 4, 2);
        let mut g = AdaptiveGovernor::new(cfg);
        g.observe_epoch(0, 0, 0); // -> bin 1
        g.observe_epoch(1, 0, 0); // cool-down hold
        g.observe_epoch(2, 0, 0); // -> bin 2
        g.observe_epoch(3, 0, 0); // cool-down hold
        assert_eq!(g.bin(), 2);
        assert_eq!(g.observe_epoch(4, 50_000, 0), Decision::Weaken);
        assert_eq!(g.bin(), 1);
        assert_eq!(g.ceiling(), 1, "bin 2 is off-limits while reprobing");
        // Quiet epochs cannot climb past the ceiling until it expires.
        for e in 5..8 {
            g.observe_epoch(e, 0, 0);
            assert!(g.bin() <= 1, "epoch {e}");
        }
        // Reprobe window (4 epochs from the weaken) has expired: the
        // abandoned bin may be probed again.
        assert_eq!(g.observe_epoch(8, 0, 0), Decision::Strengthen);
        assert_eq!(g.bin(), 2, "ceiling re-opens after the window");
    }

    #[test]
    fn budget_governor_sees_the_ce_stream() {
        let cfg = quiet_config();
        let mut g = AdaptiveGovernor::with_budget(cfg, EpochGovernor::new(1_000));
        g.observe_epoch(0, 600, 0);
        assert_eq!(g.budget().errors_this_epoch(), 600);
        g.observe_epoch(0, 600, 0);
        assert_eq!(g.budget().fallbacks(), 1, "budget exhaustion recorded");
        g.observe_epoch(1, 5, 0);
        assert_eq!(g.budget().errors_this_epoch(), 5, "fresh epoch");
        assert_eq!(g.budget().total_errors(), 1_205);
    }

    #[test]
    fn telemetry_attachment_folds_existing_counts() {
        let registry = telemetry::Registry::new();
        let mut g = AdaptiveGovernor::new(quiet_config());
        g.observe_epoch(0, 0, 0); // one strengthen before attachment
        g.attach_telemetry(&registry.scope("adaptive"));
        g.observe_epoch(1, 0, 0); // cool-down hold
        g.observe_epoch(2, 0, 0); // strengthen
        let snap = registry.snapshot();
        assert_eq!(snap.counter("adaptive.steps_up"), 2);
        assert_eq!(snap.counter("adaptive.holds"), 1);
        assert_eq!(snap.counter("adaptive.errors"), 0, "budget attached too");
    }

    #[test]
    fn series_tap_records_one_window_per_epoch() {
        let store = SeriesStore::new();
        let mut g = AdaptiveGovernor::new(quiet_config());
        g.attach_series(&store, "gov");
        g.observe_epoch(0, 3, 0); // strengthen → bin 1
        g.observe_epoch(1, 7, 0); // cool-down hold
        g.observe_epoch(2, 0, 1); // retreat → bin 0
        let snap = store.snapshot();
        let windows = |name: &str| snap.get(name).unwrap().windows.clone();
        let ce = windows("gov.ce");
        assert_eq!(ce.len(), 3);
        assert_eq!(ce[0].0, 0);
        assert_eq!(ce[1].0, EPOCH_PS);
        assert_eq!(ce.iter().map(|(_, w)| w.sum).collect::<Vec<_>>(), [3, 7, 0]);
        assert_eq!(
            windows("gov.ue")
                .iter()
                .map(|(_, w)| w.sum)
                .collect::<Vec<_>>(),
            [0, 0, 1]
        );
        assert_eq!(
            windows("gov.bin")
                .iter()
                .map(|(_, w)| w.sum)
                .collect::<Vec<_>>(),
            [1, 1, 0],
            "bin after each decision"
        );
    }

    #[test]
    fn trace_spans_name_the_transitions() {
        let tracer = Tracer::new();
        let mut g = AdaptiveGovernor::new(quiet_config());
        g.set_tracer(tracer.clone());
        g.observe_epoch(0, 0, 0); // strengthen
        g.observe_epoch(1, 0, 0); // hold: no span
        g.observe_epoch(2, 0, 1); // retreat
        let events = tracer.take();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["governor.step", "governor.retreat"]);
        assert_eq!(events[0].start, 0);
        assert_eq!(events[0].end, EPOCH_PS - 1);
        assert_eq!(events[1].start, 2 * EPOCH_PS);
    }

    #[test]
    fn margin_response_regimes() {
        let r = MarginResponse::typical(600);
        let calm = Disturbance::default();
        let (ce_under, ue_under) = r.lambda(200, calm);
        assert_eq!((ce_under, ue_under), (2.0, 0.0), "well under margin");
        let (ce_at, ue_at) = r.lambda(600, calm);
        assert_eq!((ce_at, ue_at), (400.0, 0.0), "at margin: CE only");
        let (ce_over, ue_over) = r.lambda(800, calm);
        assert_eq!(ce_over, 80_000.0, "one bin over: 200x CE");
        assert_eq!(ue_over, 0.0, "one bin over: still no UE");
        let (_, ue_two_over) = r.lambda(1000, calm);
        assert_eq!(ue_two_over, 3.0, "two bins over: UEs appear");
        // A hot epoch shifts the margin down two bins: operating at
        // the cold margin is now two bins over.
        let hot = Disturbance {
            margin_shift_mts: -400,
            intensity: 1.0,
        };
        assert_eq!(r.lambda(600, hot), r.lambda(1000, calm));
        // Half intensity halves the exposure.
        let lazy = Disturbance {
            margin_shift_mts: 0,
            intensity: 0.5,
        };
        assert_eq!(r.lambda(600, lazy).0, 200.0);
    }

    #[test]
    fn environment_composes_disturbances() {
        let env = Environment {
            temperature: TemperatureTransient::cooling_failure(5, 3),
            excursion_margin_loss_mts: 400,
            aging: AgingDrift {
                mts_per_kilo_epoch: 1000,
                onset_epoch: 0,
            },
            phases: PhaseSchedule::steady(Suite::Hpcg),
        };
        let d0 = env.disturbance_at(0);
        assert_eq!(d0.margin_shift_mts, 0);
        assert_eq!(d0.intensity, 1.0);
        // Epoch 6: hot (-400) and 6 epochs of aging (-6).
        assert_eq!(env.disturbance_at(6).margin_shift_mts, -406);
        // Epoch 8: excursion over, aging continues.
        assert_eq!(env.disturbance_at(8).margin_shift_mts, -8);
    }

    #[test]
    fn closed_loop_is_deterministic_and_tracks_the_margin() {
        let cfg = AdaptiveConfig::defaults(4);
        let response = MarginResponse::typical(600);
        let env = Environment::steady(Suite::Hpcg);
        let mut g1 = AdaptiveGovernor::new(cfg);
        let mut g2 = AdaptiveGovernor::new(cfg);
        let run1 = run_closed_loop(&mut g1, &response, &env, 42, 200);
        let run2 = run_closed_loop(&mut g2, &response, &env, 42, 200);
        assert_eq!(run1, run2, "same seed, same trajectory");
        // Settles at the true margin's bin (600/200 = 3) and holds.
        for rec in &run1[20..] {
            assert_eq!(rec.bin_after, 3, "epoch {}", rec.epoch);
        }
        let mut g3 = AdaptiveGovernor::new(cfg);
        let run3 = run_closed_loop(&mut g3, &response, &env, 43, 200);
        assert_ne!(run1, run3, "different seed, different error draws");
    }
}
