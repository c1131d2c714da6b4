//! Validated scheduler and federation configuration.
//!
//! The original API threaded a bare `Policy` plus a loose
//! `&SpeedupModel` through every call. [`SchedulerConfig`] bundles the
//! two behind a builder that rejects inconsistent group/speedup tables
//! up front (mirroring `memsim`'s `MemoryConfig` builder idiom), so a
//! bad table fails once at construction instead of silently skewing a
//! 10 M-job simulation.

use crate::cluster::{Policy, SpeedupModel};

/// Margin-group ordering tolerance: the node model measures the 800
/// and 600 MT/s speedups independently, so sampling noise may leave
/// the 600 table a hair above the 800 one without the configuration
/// being wrong (the end-to-end suite allows the same slack).
const GROUP_ORDER_TOLERANCE: f64 = 0.02;

/// Speedups materially below 1.0 are rejected: a frequency margin can
/// make memory faster, never slower. Tables measured from short node
/// simulations carry sampling noise (quick runs measure the 600 MT/s
/// mid-usage bucket a couple of percent under parity), so the slack
/// is sized like [`GROUP_ORDER_TOLERANCE`], not machine epsilon.
const BASELINE_TOLERANCE: f64 = 0.05;

/// What made a [`SchedulerConfig`] (or federation) invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A speedup entry is NaN or infinite.
    NonFiniteSpeedup {
        /// Which table (`"at_800"` / `"at_600"`).
        table: &'static str,
        /// Usage-bucket index within the table.
        bucket: usize,
        /// The offending value.
        value: f64,
    },
    /// A speedup entry is materially below 1.0 (margins never slow
    /// jobs down; sub-parity beyond measurement noise is a bad table).
    BelowBaseline {
        /// Which table (`"at_800"` / `"at_600"`).
        table: &'static str,
        /// Usage-bucket index within the table.
        bucket: usize,
        /// The offending value.
        value: f64,
    },
    /// The 600 MT/s margin group claims a materially larger speedup
    /// than the 800 MT/s group in the same usage bucket.
    GroupInversion {
        /// Usage-bucket index.
        bucket: usize,
        /// Speedup claimed at 800 MT/s margin.
        at_800: f64,
        /// Speedup claimed at 600 MT/s margin.
        at_600: f64,
    },
    /// A federation needs at least one member cluster.
    EmptyFederation,
    /// Two federation members share a name.
    DuplicateMember(String),
    /// A federation member has no nodes.
    EmptyCluster(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonFiniteSpeedup {
                table,
                bucket,
                value,
            } => write!(f, "speedup {table}[{bucket}] = {value} is not finite"),
            ConfigError::BelowBaseline {
                table,
                bucket,
                value,
            } => write!(
                f,
                "speedup {table}[{bucket}] = {value} is below 1.0; margins never slow jobs down"
            ),
            ConfigError::GroupInversion {
                bucket,
                at_800,
                at_600,
            } => write!(
                f,
                "bucket {bucket}: at_600 = {at_600} exceeds at_800 = {at_800} beyond tolerance; \
                 a smaller margin cannot be faster"
            ),
            ConfigError::EmptyFederation => write!(f, "a federation needs at least one cluster"),
            ConfigError::DuplicateMember(name) => {
                write!(f, "duplicate federation member name {name:?}")
            }
            ConfigError::EmptyCluster(name) => {
                write!(f, "federation member {name:?} has no nodes")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A validated (policy, speedup-table) pair — the scheduling side of a
/// cluster's identity. Construct via [`SchedulerConfig::builder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    policy: Policy,
    speedups: SpeedupModel,
    traced_job_cap: usize,
}

impl Default for SchedulerConfig {
    /// A conventional, margin-oblivious system (always valid).
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            policy: Policy::Default,
            speedups: SpeedupModel::conventional(),
            traced_job_cap: crate::cluster::TRACED_JOB_CAP,
        }
    }
}

impl SchedulerConfig {
    /// Starts a builder at the conventional default.
    pub fn builder() -> SchedulerConfigBuilder {
        SchedulerConfigBuilder {
            policy: Policy::Default,
            speedups: SpeedupModel::conventional(),
            traced_job_cap: crate::cluster::TRACED_JOB_CAP,
        }
    }

    /// The node-selection policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The per-(group, usage-bucket) speedup table.
    pub fn speedups(&self) -> &SpeedupModel {
        &self.speedups
    }

    /// How many jobs get per-job trace spans before the tracer starts
    /// dropping them (the drop count is still metered; see
    /// `trace_dropped_jobs`).
    pub fn traced_job_cap(&self) -> usize {
        self.traced_job_cap
    }
}

/// Builder for [`SchedulerConfig`]; `build` validates the table.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfigBuilder {
    policy: Policy,
    speedups: SpeedupModel,
    traced_job_cap: usize,
}

impl SchedulerConfigBuilder {
    /// Sets the node-selection policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Caps how many jobs receive individual trace spans (default
    /// [`crate::cluster::TRACED_JOB_CAP`]). Raising it fattens traces;
    /// drops beyond the cap are counted either way.
    pub fn traced_job_cap(mut self, cap: usize) -> Self {
        self.traced_job_cap = cap;
        self
    }

    /// Shorthand for the paper's margin-aware policy.
    pub fn margin_aware(self) -> Self {
        self.policy(Policy::MarginAware)
    }

    /// Shorthand for Slurm's margin-oblivious policy.
    pub fn margin_oblivious(self) -> Self {
        self.policy(Policy::Default)
    }

    /// Sets the speedup table (validated at `build`).
    pub fn speedups(mut self, speedups: SpeedupModel) -> Self {
        self.speedups = speedups;
        self
    }

    /// Validates and builds the configuration.
    pub fn build(self) -> Result<SchedulerConfig, ConfigError> {
        let tables = [
            ("at_800", self.speedups.at_800),
            ("at_600", self.speedups.at_600),
        ];
        for (table, values) in tables {
            for (bucket, &value) in values.iter().enumerate() {
                if !value.is_finite() {
                    return Err(ConfigError::NonFiniteSpeedup {
                        table,
                        bucket,
                        value,
                    });
                }
                if value < 1.0 - BASELINE_TOLERANCE {
                    return Err(ConfigError::BelowBaseline {
                        table,
                        bucket,
                        value,
                    });
                }
            }
        }
        for bucket in 0..2 {
            let (at_800, at_600) = (self.speedups.at_800[bucket], self.speedups.at_600[bucket]);
            if at_600 > at_800 + GROUP_ORDER_TOLERANCE {
                return Err(ConfigError::GroupInversion {
                    bucket,
                    at_800,
                    at_600,
                });
            }
        }
        Ok(SchedulerConfig {
            policy: self.policy,
            speedups: self.speedups,
            traced_job_cap: self.traced_job_cap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_conventional_and_valid() {
        let c = SchedulerConfig::default();
        assert_eq!(c.policy(), Policy::Default);
        assert_eq!(*c.speedups(), SpeedupModel::conventional());
        // The builder's default must round-trip too.
        assert_eq!(SchedulerConfig::builder().build().unwrap(), c);
    }

    #[test]
    fn valid_tables_build() {
        let c = SchedulerConfig::builder()
            .margin_aware()
            .speedups(SpeedupModel::hetero_dmr_default())
            .build()
            .unwrap();
        assert_eq!(c.policy(), Policy::MarginAware);
        assert_eq!(c.speedups().at_800, [1.10, 1.10]);
    }

    #[test]
    fn non_finite_speedup_is_rejected() {
        let err = SchedulerConfig::builder()
            .speedups(SpeedupModel {
                at_800: [f64::NAN, 1.1],
                at_600: [1.0, 1.0],
            })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::NonFiniteSpeedup {
                table: "at_800",
                bucket: 0,
                ..
            }
        ));
        assert!(err.to_string().contains("not finite"));
    }

    #[test]
    fn slowdown_tables_are_rejected() {
        // Within measurement noise of parity: allowed (quick node
        // simulations measure a hair under 1.0).
        SchedulerConfig::builder()
            .speedups(SpeedupModel {
                at_800: [1.1, 1.1],
                at_600: [0.98, 1.0],
            })
            .build()
            .unwrap();
        let err = SchedulerConfig::builder()
            .speedups(SpeedupModel {
                at_800: [1.1, 1.1],
                at_600: [0.93, 1.0],
            })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::BelowBaseline {
                table: "at_600",
                bucket: 0,
                ..
            }
        ));
    }

    #[test]
    fn group_inversion_is_rejected_beyond_tolerance() {
        // Within measurement tolerance: allowed.
        SchedulerConfig::builder()
            .speedups(SpeedupModel {
                at_800: [1.08, 1.08],
                at_600: [1.09, 1.08],
            })
            .build()
            .unwrap();
        // A materially faster 600 group is a broken table.
        let err = SchedulerConfig::builder()
            .speedups(SpeedupModel {
                at_800: [1.05, 1.05],
                at_600: [1.12, 1.05],
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::GroupInversion { bucket: 0, .. }));
        assert!(err.to_string().contains("smaller margin"));
    }

    #[test]
    fn traced_job_cap_defaults_and_overrides() {
        assert_eq!(
            SchedulerConfig::default().traced_job_cap(),
            crate::cluster::TRACED_JOB_CAP
        );
        let c = SchedulerConfig::builder()
            .traced_job_cap(7)
            .build()
            .unwrap();
        assert_eq!(c.traced_job_cap(), 7);
    }

    #[test]
    fn config_error_is_a_std_error() {
        let err: Box<dyn std::error::Error> = Box::new(ConfigError::EmptyFederation);
        assert!(err.to_string().contains("at least one"));
    }
}
