//! Property test for the channel frequency protocol: any interleaving
//! of speed-up and slow-down requests must leave the channel in a
//! well-formed state.

use dram::channel::{Channel, ChannelConfig, FrequencyState, FREQUENCY_TRANSITION_PS};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The channel frequency protocol: any sequence of up/down
    /// requests leaves the channel in a well-defined state, every
    /// transition costs exactly 1 µs, and transition counting is
    /// consistent.
    #[test]
    fn channel_frequency_protocol_is_sound(ups in proptest::collection::vec(any::<bool>(), 1..40)) {
        let mut channel = Channel::new(ChannelConfig::paper_default());
        let mut now = 0u64;
        let mut expected_transitions = 0u64;
        for want_fast in ups {
            let state = channel.state_at(now);
            let result = if want_fast {
                channel.begin_speed_up(now)
            } else {
                channel.begin_slow_down(now)
            };
            match (state, want_fast) {
                (FrequencyState::Safe, true) | (FrequencyState::UnsafelyFast, false) => {
                    let until = result.expect("legal transition");
                    prop_assert_eq!(until, now + FREQUENCY_TRANSITION_PS);
                    now = until;
                    expected_transitions += 1;
                }
                _ => {
                    prop_assert!(result.is_err(), "redundant transition must be rejected");
                    now += 10;
                }
            }
        }
        let _ = channel.state_at(now);
        prop_assert_eq!(channel.transitions(), expected_transitions);
    }
}
