//! Maps target names onto [`runner::Scenario`]s.
//!
//! Every figure/table is one scenario: a closure over a private
//! [`Ctx`] (own output buffer, own forked `Obs`) built from the
//! command-line template, so the runner can execute any subset on any
//! number of worker threads and still print/merge results in canonical
//! order with byte-identical output.

use crate::context::Ctx;
use crate::{
    adaptive, characterization, extras, fleet, health, node_figures, power, system_figures, tables,
};
use runner::Scenario;

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

/// Builds one scenario per name from the command-line template
/// context. Callers must have validated the names via [`is_target`].
pub fn build(template: &Ctx, names: &[&str]) -> Vec<Scenario> {
    names
        .iter()
        .map(|name| {
            let f = target_fn(name).unwrap_or_else(|| panic!("unknown target '{name}'"));
            let mut ctx = template.for_task();
            Scenario::builder(*name)
                .derived_seed(template.seed)
                .observe(ctx.obs.clone())
                .task(move |tc| {
                    f(&mut ctx);
                    tc.out = std::mem::take(&mut ctx.out);
                })
                .build()
        })
        .collect()
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
    fn scenarios_carry_name_and_derived_seed() {
        let ctx = Ctx::default();
        let s = build(&ctx, &["fig1", "fig12"]);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].name(), "fig1");
        assert_eq!(s[1].name(), "fig12");
        assert_eq!(s[0].seed(), runner::seed::target_seed(ctx.seed, "fig1"));
        assert_ne!(s[0].seed(), s[1].seed(), "per-target streams differ");
    }

    #[test]
    fn table1_scenario_produces_the_table() {
        let mut ctx = Ctx::default();
        ctx.quick();
        let outcomes = runner::Runner::new(1).run(build(&ctx, &["table1"]));
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].is_failed());
        assert!(outcomes[0].out.contains("DRAM type"));
    }
}
