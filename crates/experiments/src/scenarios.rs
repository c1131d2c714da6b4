//! Maps target names onto their implementations and runs them.
//!
//! Every figure/table is one task over a private [`Ctx`] (own output
//! buffer, own forked `Obs`) built from the command-line template, so
//! [`run`] can execute any subset on any number of worker threads and
//! still hand back results in input order with byte-identical output.

use crate::context::Ctx;
use crate::scenario::isolate;
use crate::{
    adaptive, characterization, extras, fleet, health, node_figures, power, system_figures, tables,
};
use std::time::Instant;
use telemetry::ObsSnapshot;

/// Every runnable target, in canonical (paper) order. Output and
/// merged metrics always follow this order regardless of `--jobs`.
pub const TARGETS: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "table2",
    "table3",
    "table4",
    "fig5",
    "fig6",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "energy",
    "configurator",
    "adaptive",
    "fleet",
    "health",
    "extras",
];

type TargetFn = fn(&mut Ctx);

/// The implementation behind a target name.
fn target_fn(name: &str) -> Option<TargetFn> {
    Some(match name {
        "table1" => tables::table1,
        "fig1" => characterization::fig1,
        "fig2" => characterization::fig2,
        "fig3" => characterization::fig3,
        "fig4" => characterization::fig4,
        "table2" => tables::table2,
        "table3" => tables::table3,
        "table4" => tables::table4,
        "fig5" => node_figures::fig5,
        "fig6" => characterization::fig6,
        "fig11" => system_figures::fig11,
        "fig12" => node_figures::fig12,
        "fig13" => node_figures::fig13,
        "fig14" => node_figures::fig14,
        "fig15" => node_figures::fig15,
        "fig16" => node_figures::fig16,
        "fig17" => system_figures::fig17,
        "energy" => power::energy,
        "configurator" => power::configurator,
        "adaptive" => adaptive::adaptive,
        "fleet" => fleet::fleet_target,
        "health" => health::health,
        "extras" => extras::extras,
        _ => return None,
    })
}

/// Whether `name` is a runnable target.
pub fn is_target(name: &str) -> bool {
    target_fn(name).is_some()
}

/// What one target produced, whether it finished or panicked.
pub struct Outcome {
    pub name: String,
    /// The target's buffered report; partial when it panicked.
    pub out: String,
    /// The panic message, when the target failed.
    pub panic: Option<String>,
    /// What the target's forked `Obs` recorded (partial on failure).
    /// Deterministic: trace timestamps come from simulation clocks or
    /// the tracer's tick counter, never from wall time.
    pub obs: ObsSnapshot,
    /// Wall-clock duration. Non-deterministic by nature — report it on
    /// diagnostic channels only, never in byte-compared output.
    pub wall_ms: u128,
}

/// Runs each named target on the worker pool, each over its own
/// [`Ctx::for_task`] copy of `template`, and returns the outcomes in
/// input order. A target that panics keeps the output it buffered
/// before the panic; the other targets are unaffected. With a tracer
/// attached, each target runs inside a `task.<name>` span on the
/// tracer's tick clock, closed with `status=completed|failed`.
/// Callers must have validated the names via [`is_target`].
pub fn run(template: &Ctx, names: &[&str]) -> Vec<Outcome> {
    runner::parallel_map(names.to_vec(), |_, name| {
        let f = target_fn(name).unwrap_or_else(|| panic!("unknown target '{name}'"));
        let mut ctx = template.for_task();
        let tracer = ctx.obs.tracer().cloned();
        let started = Instant::now();
        let panic = isolate(name, tracer.as_ref(), || f(&mut ctx));
        Outcome {
            name: name.to_string(),
            out: ctx.out,
            panic,
            obs: ctx.obs.take(),
            wall_ms: started.elapsed().as_millis(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_target_resolves() {
        for name in TARGETS {
            assert!(is_target(name), "{name} has no implementation");
        }
        assert!(!is_target("fig99"));
        assert!(!is_target("all"), "'all' expands before dispatch");
    }

    #[test]
    fn table1_scenario_produces_the_table() {
        let mut ctx = Ctx::default();
        ctx.quick();
        let outcomes = run(&ctx, &["table1"]);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].panic.is_none());
        assert!(outcomes[0].out.contains("DRAM type"));
    }

    /// `D/fig1.csv` is a directory, so fig1 panics writing its CSV
    /// after printing its table; table1, in the same batch, completes.
    #[test]
    fn panicking_target_is_isolated() {
        let dir = std::env::temp_dir().join(format!("hdmr_isolated_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("fig1.csv")).unwrap();
        let mut ctx = Ctx::default();
        ctx.quick();
        ctx.csv_dir = Some(dir.to_string_lossy().into_owned());
        ctx.enable_trace(String::new());
        let outcomes = run(&ctx, &["fig1", "table1"]);
        let _ = std::fs::remove_dir_all(&dir);
        let (fig1, table1) = (&outcomes[0], &outcomes[1]);
        assert!(fig1.panic.as_deref().unwrap().contains("cannot write"));
        assert!(fig1.out.starts_with("Cluster"), "partial output survives");
        assert!(table1.panic.is_none());
        assert!(table1.out.contains("DRAM type"));
        for (o, status) in [(fig1, "failed"), (table1, "completed")] {
            let trace = o.obs.trace.as_ref().expect("trace captured");
            telemetry::trace::check_nesting(trace).unwrap();
            assert_eq!(trace[0].name, format!("task.{}", o.name));
            assert!(trace[0]
                .args
                .iter()
                .any(|(k, v)| k == "status" && v == status));
        }
    }
}
