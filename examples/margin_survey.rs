//! Margin survey: re-run the paper's Section II characterization on a
//! fresh synthetic module population.
//!
//! ```text
//! cargo run --release --example margin_survey [seed]
//! ```

use margin::composition::{channel_margin, node_margin, SelectionPolicy};
use margin::errors::TestCondition;
use margin::population::ModulePopulation;
use margin::stats::{mean, std_dev, Histogram};
use margin::stress::{measure_margin, run_stress_test, StressConfig};
use margin::study;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD1A2);
    let pop = ModulePopulation::paper_study(seed);
    println!(
        "population: {} modules / {} chips (paper: 119 / 3006)",
        pop.modules().len(),
        pop.total_chips()
    );

    // The measurement procedure itself: step data rates by 200 MT/s
    // until the module fails its accuracy target.
    let cfg = StressConfig::default();
    let re_measured: Vec<u32> = pop
        .modules()
        .iter()
        .map(|m| {
            measure_margin(
                m.spec.organization.specified_rate,
                m.true_margin_mts,
                &cfg,
                None,
            )
        })
        .collect();
    let agree = pop
        .modules()
        .iter()
        .zip(&re_measured)
        .filter(|(m, &r)| m.measured_margin_mts == r)
        .count();
    println!("stress-test harness reproduces the recorded margins for {agree}/119 modules");

    // Figure 2: the distribution.
    let mut hist = Histogram::new(0.0, 200.0);
    for m in pop.modules() {
        hist.add(m.measured_margin_mts as f64);
    }
    println!("\nmargin histogram:");
    for (lo, n) in hist.buckets().filter(|&(_, n)| n > 0) {
        println!("  {:>4.0}+ MT/s: {}", lo, "#".repeat(n as usize));
    }

    // Figure 3: groupings.
    println!("\nby brand:");
    for g in study::by_brand(&pop) {
        println!(
            "  {:<8} n={:<3} mean {:>4.0} MT/s +/- {:>3.0} (99% CI)",
            g.label, g.count, g.mean_mts, g.ci99_mts
        );
    }

    // One-hour stress tests at the four conditions (Figure 6).
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE44);
    let mut totals = [0u64; 4];
    for m in pop.mainstream() {
        for (i, cond) in TestCondition::ALL.iter().enumerate() {
            totals[i] += run_stress_test(&mut rng, &m.errors, *cond, &cfg).corrected;
        }
    }
    println!(
        "\npopulation CE totals per 1h stress: freq@23C {} | freq@45C {} | f+l@23C {} | f+l@45C {}",
        totals[0], totals[1], totals[2], totals[3]
    );
    println!(
        "45C/23C ratio (freq): {:.1}x (paper: ~4x)",
        totals[1] as f64 / totals[0] as f64
    );

    // Channel- and node-level composition on this very population.
    let margins: Vec<f64> = pop
        .mainstream()
        .map(|m| m.measured_margin_mts as f64)
        .collect();
    println!(
        "\nmainstream margins: mean {:.0} MT/s, stdev {:.0}",
        mean(&margins),
        std_dev(&margins)
    );
    let pairs: Vec<[u32; 2]> = pop
        .mainstream()
        .map(|m| m.measured_margin_mts)
        .collect::<Vec<_>>()
        .chunks_exact(2)
        .map(|c| [c[0], c[1]])
        .collect();
    let aware: Vec<u32> = pairs
        .iter()
        .map(|p| channel_margin(p, SelectionPolicy::MarginAware))
        .collect();
    let unaware: Vec<u32> = pairs
        .iter()
        .map(|p| channel_margin(p, SelectionPolicy::MarginUnaware))
        .collect();
    let at = |v: &[u32]| v.iter().filter(|&&m| m >= 800).count() as f64 / v.len() as f64;
    println!(
        "channels >=0.8GT/s from this population: aware {:.0}% vs unaware {:.0}%",
        at(&aware) * 100.0,
        at(&unaware) * 100.0
    );
    let node = node_margin(&aware[..12.min(aware.len())]);
    println!("a 12-channel node built from the first channels: {node} MT/s usable margin");
}
