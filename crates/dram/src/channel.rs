//! A memory channel's runtime frequency scaling and the self-refresh
//! state of its module slots.
//!
//! The channel holds the two device-level mechanisms the Hetero-DMR
//! protocol needs:
//!
//! * **Frequency transitions** (Figures 9 and 10): scaling the
//!   channel's CK_c/CK_t clock up or down takes ~1 µs end-to-end
//!   (precharge, change clock, re-synchronize / DLL relock). The
//!   channel models this as an opaque, exclusive transition window.
//! * **Self-refresh** (Section III-A2): the modules holding *original*
//!   blocks are parked in self-refresh while the channel runs unsafely
//!   fast. In self-refresh the devices refresh from their internal,
//!   in-spec clocks and ignore the overclocked external bus, so no
//!   command misinterpretation can corrupt them. Leaving self-refresh
//!   costs tXS at the safe setting.
//!
//! Command-level timing (queueing, bank state, refresh, broadcast
//! writes) is simulated by `memsim`'s channel controller.

use crate::error::DramError;
use crate::timing::TimingParams;
use crate::{Picos, PS_PER_US};

/// End-to-end cost of one channel frequency transition (the paper's
/// measured ~1 µs, Section III-A1).
pub const FREQUENCY_TRANSITION_PS: Picos = PS_PER_US;

/// Identifier of a module within a channel (slot index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub usize);

/// The channel's clock state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrequencyState {
    /// Operating at manufacturer specification (safe for every module).
    Safe,
    /// Mid-transition from safe to fast; completes at the given time.
    SpeedingUp {
        /// When the transition completes.
        until: Picos,
    },
    /// Operating beyond specification (only Free Modules are accessed).
    UnsafelyFast,
    /// Mid-transition from fast to safe; completes at the given time.
    SlowingDown {
        /// When the transition completes.
        until: Picos,
    },
}

/// Static configuration of a channel.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// Number of module slots.
    pub modules: usize,
    /// Timing used in the safe state; self-refresh exit costs its tXS.
    pub safe_timing: TimingParams,
}

impl ChannelConfig {
    /// The paper's performance-experiment channel: two 3200 MT/s
    /// modules, safe at Table II row 1.
    pub fn paper_default() -> ChannelConfig {
        ChannelConfig {
            modules: 2,
            safe_timing: crate::timing::MemorySetting::Specified.timing(),
        }
    }
}

/// A memory channel: module slots sharing one clock, with the
/// Hetero-DMR frequency-scaling protocol.
#[derive(Debug, Clone)]
pub struct Channel {
    config: ChannelConfig,
    /// Per-slot self-refresh flag.
    self_refresh: Vec<bool>,
    state: FrequencyState,
    /// Number of completed frequency transitions (both directions).
    transitions: u64,
}

impl Channel {
    /// Creates a channel in the safe state with every slot out of
    /// self-refresh.
    pub fn new(config: ChannelConfig) -> Channel {
        Channel {
            self_refresh: vec![false; config.modules],
            config,
            state: FrequencyState::Safe,
            transitions: 0,
        }
    }

    /// Completed frequency transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The clock state as of `now`, resolving any transition that has
    /// already completed.
    pub fn state_at(&mut self, now: Picos) -> FrequencyState {
        match self.state {
            FrequencyState::SpeedingUp { until } if now >= until => {
                self.finish_transition(FrequencyState::UnsafelyFast);
            }
            FrequencyState::SlowingDown { until } if now >= until => {
                self.finish_transition(FrequencyState::Safe);
            }
            _ => {}
        }
        self.state
    }

    /// Begins the safe→fast transition of Figure 10. Returns the
    /// completion time (`now + 1 µs`).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::TransitionInProgress`] if a transition is
    /// already under way, and [`DramError::StateViolation`] if already
    /// fast.
    pub fn begin_speed_up(&mut self, now: Picos) -> Result<Picos, DramError> {
        match self.state_at(now) {
            FrequencyState::Safe => {
                let until = now + FREQUENCY_TRANSITION_PS;
                self.state = FrequencyState::SpeedingUp { until };
                Ok(until)
            }
            FrequencyState::UnsafelyFast => Err(DramError::StateViolation {
                reason: "channel is already unsafely fast",
            }),
            _ => Err(DramError::TransitionInProgress),
        }
    }

    /// Begins the fast→safe transition of Figure 9. Returns the
    /// completion time (`now + 1 µs`).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::TransitionInProgress`] if a transition is
    /// already under way, and [`DramError::StateViolation`] if already
    /// safe.
    pub fn begin_slow_down(&mut self, now: Picos) -> Result<Picos, DramError> {
        match self.state_at(now) {
            FrequencyState::UnsafelyFast => {
                let until = now + FREQUENCY_TRANSITION_PS;
                self.state = FrequencyState::SlowingDown { until };
                Ok(until)
            }
            FrequencyState::Safe => Err(DramError::StateViolation {
                reason: "channel is already safe",
            }),
            _ => Err(DramError::TransitionInProgress),
        }
    }

    /// Whether slot `id` is in self-refresh (`false` for a slot the
    /// channel does not have).
    pub fn in_self_refresh(&self, id: ModuleId) -> bool {
        self.self_refresh.get(id.0).copied().unwrap_or(false)
    }

    /// Puts slot `id` into self-refresh.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AddressOutOfRange`] for an invalid slot and
    /// [`DramError::StateViolation`] if it is already in self-refresh.
    pub fn enter_self_refresh(&mut self, id: ModuleId) -> Result<(), DramError> {
        let flag = self.slot_mut(id)?;
        if *flag {
            return Err(DramError::StateViolation {
                reason: "already in self-refresh",
            });
        }
        *flag = true;
        Ok(())
    }

    /// Takes slot `id` out of self-refresh at `now`. The module accepts
    /// commands again after the safe setting's tXS, which the returned
    /// time reflects.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AddressOutOfRange`] for an invalid slot and
    /// [`DramError::StateViolation`] if it is not in self-refresh.
    pub fn exit_self_refresh(&mut self, id: ModuleId, now: Picos) -> Result<Picos, DramError> {
        let t_xs = self.config.safe_timing.t_xs_ps();
        let flag = self.slot_mut(id)?;
        if !*flag {
            return Err(DramError::StateViolation {
                reason: "not in self-refresh",
            });
        }
        *flag = false;
        Ok(now + t_xs)
    }

    fn slot_mut(&mut self, id: ModuleId) -> Result<&mut bool, DramError> {
        let count = self.self_refresh.len();
        self.self_refresh
            .get_mut(id.0)
            .ok_or(DramError::AddressOutOfRange { index: id.0, count })
    }

    fn finish_transition(&mut self, new_state: FrequencyState) {
        self.state = new_state;
        self.transitions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> Channel {
        Channel::new(ChannelConfig::paper_default())
    }

    #[test]
    fn starts_safe_with_two_modules() {
        let mut ch = channel();
        assert_eq!(ch.self_refresh.len(), 2);
        assert_eq!(ch.state_at(0), FrequencyState::Safe);
        assert!(!ch.in_self_refresh(ModuleId(0)));
        assert!(!ch.in_self_refresh(ModuleId(1)));
    }

    #[test]
    fn speed_up_takes_one_microsecond() {
        let mut ch = channel();
        let until = ch.begin_speed_up(1_000).unwrap();
        assert_eq!(until, 1_000 + FREQUENCY_TRANSITION_PS);
        assert!(matches!(
            ch.state_at(until - 1),
            FrequencyState::SpeedingUp { .. }
        ));
        assert_eq!(ch.state_at(until), FrequencyState::UnsafelyFast);
        assert_eq!(ch.transitions(), 1);
    }

    #[test]
    fn round_trip_costs_two_transitions() {
        let mut ch = channel();
        let up = ch.begin_speed_up(0).unwrap();
        let down = ch.begin_slow_down(up).unwrap();
        assert_eq!(ch.state_at(down), FrequencyState::Safe);
        assert_eq!(ch.transitions(), 2);
        assert_eq!(down, 2 * FREQUENCY_TRANSITION_PS);
    }

    #[test]
    fn transition_while_transitioning_rejected() {
        let mut ch = channel();
        ch.begin_speed_up(0).unwrap();
        assert_eq!(
            ch.begin_slow_down(10).unwrap_err(),
            DramError::TransitionInProgress
        );
        assert_eq!(
            ch.begin_speed_up(10).unwrap_err(),
            DramError::TransitionInProgress
        );
    }

    #[test]
    fn redundant_transitions_rejected() {
        let mut ch = channel();
        assert!(ch.begin_slow_down(0).is_err());
        let up = ch.begin_speed_up(0).unwrap();
        assert!(ch.begin_speed_up(up).is_err());
    }

    #[test]
    fn self_refresh_module_survives_transition_untouched() {
        let mut ch = channel();
        // Park module 0 (originals) in self-refresh, then speed up.
        ch.enter_self_refresh(ModuleId(0)).unwrap();
        let up = ch.begin_speed_up(10).unwrap();
        assert_eq!(ch.state_at(up), FrequencyState::UnsafelyFast);
        assert!(ch.in_self_refresh(ModuleId(0)));
        assert!(!ch.in_self_refresh(ModuleId(1)));
    }

    #[test]
    fn self_refresh_exit_applies_safe_txs() {
        let mut ch = channel();
        ch.enter_self_refresh(ModuleId(0)).unwrap();
        let ready = ch.exit_self_refresh(ModuleId(0), 2_001_000).unwrap();
        assert_eq!(
            ready,
            2_001_000 + ChannelConfig::paper_default().safe_timing.t_xs_ps()
        );
        assert!(!ch.in_self_refresh(ModuleId(0)));
    }

    #[test]
    fn double_entry_rejected() {
        let mut ch = channel();
        ch.enter_self_refresh(ModuleId(0)).unwrap();
        assert!(matches!(
            ch.enter_self_refresh(ModuleId(0)),
            Err(DramError::StateViolation { .. })
        ));
        assert!(ch.in_self_refresh(ModuleId(0)));
    }

    #[test]
    fn exit_without_entry_rejected() {
        let mut ch = channel();
        assert!(matches!(
            ch.exit_self_refresh(ModuleId(1), 5),
            Err(DramError::StateViolation { .. })
        ));
    }

    #[test]
    fn out_of_range_slot_is_an_error() {
        let mut ch = channel();
        let out_of_range = DramError::AddressOutOfRange { index: 2, count: 2 };
        assert!(!ch.in_self_refresh(ModuleId(2)));
        assert_eq!(
            ch.enter_self_refresh(ModuleId(2)).unwrap_err(),
            out_of_range
        );
        assert_eq!(
            ch.exit_self_refresh(ModuleId(2), 0).unwrap_err(),
            out_of_range
        );
    }
}
