//! The repository benchmark: runs one named workload against the
//! simulator's public API, checks its outputs, and prints every metric
//! by name with its unit.
//!
//! ```text
//! perfbench --workload <node-cold|fleet-stream|sweep-observed> --seed N
//!           --seconds S --trace <0|1> [--small]
//! ```
//!
//! A run repeats fixed-size *rounds* until `--seconds` have passed,
//! and samples the workload's set-up once before each round. With
//! `--trace 0` it reports end-to-end metrics from untouched rounds;
//! with `--trace 1` it alternates untraced rounds with traced ones,
//! whose layer timers split host time across the simulator's layers.
//!
//! A round is a fixed sequence of segments (one simulation, one policy,
//! one figure, ...). The host's speed swings by up to 2.5x as other
//! tenants contend for it, so a fixed reference probe is timed around
//! every segment, and its allocation task around every set-up sample.
//! Each time is rescaled to the host speed at which the probe takes
//! `timer::PROBE_NOMINAL_S`. `wall_s` sums each segment's median
//! rescaled time over the run's rounds; `setup_s` is the median
//! rescaled set-up sample.
//!
//! The last line of standard output is the JSON result. `--small`
//! shrinks every round, for the benchmark's own tests.

mod digest;
mod fleet_stream;
mod metrics;
mod node_cold;
mod sweep_observed;
mod timer;

use metrics::{Layers, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::time::Instant;
use timer::{median, median_segments, peak_rss_mb, probe, time_alloc_task, Laps, PROBE_NOMINAL_S};

/// What one round did.
#[derive(Debug, Default)]
pub struct Round {
    /// Units of work (the workload's `work_per_s` numerator).
    pub work: u64,
    /// Output checks made, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of every simulated statistic of the round.
    pub digest: u64,
    /// Host seconds of a traced round spent replaying work to time a
    /// layer; measurement apparatus, excluded from the traced wall time.
    pub apparatus_s: f64,
    /// Per-layer values (traced rounds) and simulated statistics.
    pub layers: Layers,
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Builds everything the rounds need. Must not consult or fill the
    /// node model's shared result cache.
    fn setup(seed: u64, small: bool) -> Self;

    /// What a round hands to [`finish`](Workload::finish).
    type Output;

    /// Runs round `lane`, with the layer timers on when `traced`. This
    /// is the timed region. Every round marks the same sequence of
    /// segment ends on `laps`.
    fn round(&mut self, lane: u64, traced: bool, laps: &mut Laps) -> Self::Output;

    /// Checks, digests, and summarises a round, outside the timed region.
    fn finish(&mut self, lane: u64, out: Self::Output) -> Round;

    /// Whether every round repeats the same inputs (so every round's
    /// digest must equal the first one's).
    const SAME_INPUT_EACH_ROUND: bool;
}

/// Least number of rounds of each kind a run makes, however long they take.
const MIN_ROUNDS: usize = 3;

/// Host seconds one set-up sample spans at least: cheap set-ups are
/// repeated and averaged so the sample rises above clock noise.
const SETUP_SAMPLE_S: f64 = 0.02;

/// Set-up samples taken before each round, so that the samples span
/// the run's changes of host state as the rounds do.
const SETUP_SAMPLES_PER_ROUND: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut small) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--small" => small = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        small,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let line = match args.workload.as_str() {
        "node-cold" => run::<node_cold::NodeCold>(&args),
        "fleet-stream" => run::<fleet_stream::FleetStream>(&args),
        "sweep-observed" => run::<sweep_observed::SweepObserved>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{line}");
}

/// One set-up sample: sets the workload up repeatedly for at least
/// [`SETUP_SAMPLE_S`]; returns the last workload built and the mean
/// seconds of one set-up, rescaled by the times of the probe's
/// allocation task around it.
fn sample_setup<W: Workload>(args: &Args) -> (W, f64) {
    let probe_before = time_alloc_task();
    let start = Instant::now();
    let mut built = W::setup(args.seed, args.small);
    let (mut n, mut batch) = (1u64, 1u64);
    loop {
        // The clock is read once per batch, and batches double: a set-up
        // can take less time than a clock read.
        for _ in 0..batch {
            built = std::hint::black_box(W::setup(args.seed, args.small));
        }
        n += batch;
        batch *= 2;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= SETUP_SAMPLE_S {
            let probe_s = (probe_before + time_alloc_task()) / 2.0;
            return (built, elapsed / n as f64 / probe_s * PROBE_NOMINAL_S);
        }
    }
}

/// Takes [`SETUP_SAMPLES_PER_ROUND`] set-up samples into `setups`;
/// returns the last workload built.
fn sample_setups<W: Workload>(args: &Args, setups: &mut Vec<f64>) -> W {
    let (mut built, s) = sample_setup::<W>(args);
    setups.push(s);
    for _ in 1..SETUP_SAMPLES_PER_ROUND {
        let s;
        (built, s) = sample_setup::<W>(args);
        setups.push(s);
    }
    built
}

/// The fastest of `samples`; 0 for none.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Outcome tallies across a run's rounds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Tally {
    /// Folds a round in. Lane 0 sets the run's digest; on a workload
    /// whose rounds repeat their inputs, a round that disagrees with it
    /// counts as one more failed check.
    fn note<W: Workload>(&mut self, lane: u64, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        if lane == 0 {
            self.digest = Some(round.digest);
        } else if W::SAME_INPUT_EACH_ROUND {
            self.attempted += 1;
            if Some(round.digest) != self.digest {
                self.failed += 1;
            }
        }
    }
}

fn run<W: Workload>(args: &Args) -> String {
    // Build the probe's data before anything is timed.
    let probe_mb = probe().footprint_mb();
    let mut setups = Vec::new();
    let mut w = sample_setups::<W>(args, &mut setups);
    let started = Instant::now();
    let enough =
        |rounds: usize| rounds >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= args.seconds;
    let mut tally = Tally::default();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };

    if !args.trace {
        let (mut rounds, mut rss, mut work) = (Vec::new(), 0.0, 0u64);
        let mut lane = 0u64;
        while !enough(rounds.len()) {
            if lane > 0 {
                sample_setups::<W>(args, &mut setups);
            }
            let mut laps = Laps::start();
            let out = w.round(lane, false, &mut laps);
            let segments = laps.finish();
            // Peak RSS of one round, less the probe's data: later
            // rounds would only add what repeating the sweep leaves in
            // its caches.
            let first_rss = (lane == 0).then(|| peak_rss_mb() - probe_mb);
            let round = w.finish(lane, out);
            if let Some(first_rss) = first_rss {
                (rss, work) = (first_rss, round.work);
            }
            tally.note::<W>(lane, &round);
            rounds.push(segments);
            lane += 1;
        }
        let wall_s = median_segments(&rounds);
        let setup_s = median(&setups);
        values.insert("wall_s", wall_s);
        values.insert("setup_s", setup_s);
        values.insert("work_per_s", work as f64 / wall_s);
        values.insert("peak_rss_mb", rss);
        let walls: Vec<f64> = rounds
            .iter()
            .map(|r| r.iter().map(|s| s.secs).sum())
            .collect();
        let rescaled: Vec<f64> = rounds
            .iter()
            .map(|r| r.iter().map(|s| s.rescaled()).sum())
            .collect();
        eprintln!(
            "{}: {} rounds of {} segments, {wall_s:.4} s from the median rescaled segments, \
             median round {:.4} s on the host, {work} work units per round",
            args.workload,
            rounds.len(),
            rounds[0].len(),
            median(&walls)
        );
        eprintln!("round seconds on the host: {walls:.3?}");
        eprintln!("round seconds rescaled:    {rescaled:.3?}");
        let samples: Vec<String> = setups.iter().map(|s| format!("{s:.3e}")).collect();
        eprintln!(
            "set-up seconds rescaled: median {setup_s:.4e} of [{}]",
            samples.join(", ")
        );
    } else {
        // Traced and untraced rounds alternate, traced first so lane 0
        // (the digest lane) is traced and compares with a timed run's.
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        let mut per_round: Vec<Layers> = Vec::new();
        let mut lane = 0u64;
        while !(enough(traced.len()) && untraced.len() >= MIN_ROUNDS) {
            let is_traced = lane.is_multiple_of(2);
            let mut laps = Laps::start();
            let out = w.round(lane, is_traced, &mut laps);
            let wall = laps.finish().iter().map(|s| s.secs).sum::<f64>();
            let round = w.finish(lane, out);
            tally.note::<W>(lane, &round);
            if is_traced {
                let wall = wall - round.apparatus_s;
                let mut layers = round.layers;
                let attributed = metrics::self_time_s(&layers);
                layers.insert("trace.coverage", attributed / wall);
                layers.insert("trace.unattributed_s", wall - attributed);
                per_round.push(layers);
                traced.push(wall);
            } else {
                untraced.push(wall);
            }
            lane += 1;
        }
        for m in PER_LAYER {
            let samples: Vec<f64> = per_round
                .iter()
                .filter_map(|l| l.get(m.name).copied())
                .collect();
            values.insert(m.name, median(&samples));
        }
        let overhead = (fastest(&traced) / fastest(&untraced) - 1.0) * 100.0;
        values.insert("trace.overhead_pct", overhead);
        eprintln!(
            "{}: {} traced / {} untraced rounds, traced fastest {:.4} s, untraced {:.4} s",
            args.workload,
            traced.len(),
            untraced.len(),
            fastest(&traced),
            fastest(&untraced)
        );
    }

    let attempted = tally.attempted.max(1);
    values.insert("check.failed_frac", tally.failed as f64 / attempted as f64);
    println!(
        "digest {} seed {} {:016x}",
        args.workload,
        args.seed,
        tally.digest.unwrap_or(0)
    );
    metrics::result_line(
        tally.failed == 0,
        attempted,
        tally.failed,
        catalogue,
        &values,
    )
}
