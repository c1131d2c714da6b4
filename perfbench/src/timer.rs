//! Host-time measurement: sampled per-layer timers, the reference
//! probe that rescales segment times to a steady host speed, order
//! statistics, and the process's peak resident set.

use std::collections::HashSet;
use std::sync::OnceLock;
use std::time::Instant;

/// Host time spent in one layer, measured from outside around the
/// calls into it. One call in `2^shift` is timed; the timed total is
/// scaled by the exact call count, so a layer entered millions of
/// times costs two clock reads per sampled call, not per call.
///
/// A disabled timer runs the calls and counts nothing, so one code
/// path serves both the timed rounds and the traced ones.
#[derive(Debug, Clone, Default)]
pub struct LayerTimer {
    enabled: bool,
    shift: u32,
    calls: u64,
    timed: u64,
    timed_ns: u64,
}

impl LayerTimer {
    /// A timer sampling one call in `2^shift`.
    pub fn new(shift: u32) -> LayerTimer {
        LayerTimer {
            enabled: true,
            shift,
            ..LayerTimer::default()
        }
    }

    /// A timer that records nothing.
    pub fn off() -> LayerTimer {
        LayerTimer::default()
    }

    /// Runs `f` as one call into the layer, timing it when it is a
    /// sampled call. The first call is always sampled.
    pub fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let sampled = self.calls & ((1u64 << self.shift) - 1) == 0;
        self.calls += 1;
        if !sampled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.timed_ns += start.elapsed().as_nanos() as u64;
        self.timed += 1;
        out
    }

    /// Scales a quantity summed over the timed calls to all calls.
    pub fn scale(&self, timed_total: f64) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            timed_total * self.calls as f64 / self.timed as f64
        }
    }

    /// Estimated host seconds spent in the layer.
    pub fn busy_s(&self) -> f64 {
        self.scale(self.timed_ns as f64) / 1e9
    }

    /// Folds another timer's tallies into this one.
    pub fn merge(&mut self, other: &LayerTimer) {
        self.enabled |= other.enabled;
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }
}

/// Bytes of the probe's table: about half a core's second-level cache.
const PROBE_TABLE_BYTES: usize = 1 << 20;

/// Random reads the probe's table task makes.
const PROBE_READS: u32 = 100_000;

/// Small collections the probe's allocation task builds.
const PROBE_ITEMS: u64 = 9_000;

/// Bytes of ASCII text the probe's scanning task validates, twice.
const PROBE_TEXT_BYTES: usize = 1 << 20;

/// Host seconds a probe takes on the reference host speed that
/// rescaled times are expressed in.
pub const PROBE_NOMINAL_S: f64 = 1e-3;

/// A fixed reference task timed between a round's segments.
///
/// The host's speed swings by up to 2.5x as other tenants contend for
/// its caches and cores, in spells of seconds to hours, so two runs of
/// the same code can differ by more than any bound a benchmark could
/// set. The probe's work never changes, so its time measures the host's
/// speed at that moment: a segment's host seconds divided by the probe
/// times around it, times [`PROBE_NOMINAL_S`], is its time at one fixed
/// host speed.
///
/// The probe has three tasks, shaped like the ways the simulator spends
/// its time: pseudo-random reads over a table, mixed with branchy
/// integer arithmetic (the cache and controller models); building small
/// vectors and hash sets (job streams, event queues, set-up); and
/// validating text as UTF-8 (the string scanning of telemetry's
/// parsers). Contention slows each differently, and each workload mixes
/// them differently, so the probe's time is the geometric mean of the
/// three.
pub struct Probe {
    table: Vec<u32>,
    text: Vec<u8>,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            table: (0..(PROBE_TABLE_BYTES / 4) as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(7))
                .collect(),
            text: b"{\"name\": \"node.h1.hdmr\", \"value\": 12}\n"
                .iter()
                .copied()
                .cycle()
                .take(PROBE_TEXT_BYTES)
                .collect(),
        }
    }

    /// Megabytes of the probe's table and text, which the process's
    /// resident set includes but the program never touches.
    pub fn footprint_mb(&self) -> f64 {
        (self.table.len() * 4 + self.text.len()) as f64 / (1024.0 * 1024.0)
    }

    /// Runs the probe once; returns its host seconds.
    pub fn time(&self) -> f64 {
        (self.time_reads() * time_alloc_task() * self.time_scan()).cbrt()
    }

    /// Host seconds of the scanning task.
    fn time_scan(&self) -> f64 {
        let start = Instant::now();
        for skip in 0..2 {
            let text = std::hint::black_box(&self.text[skip..]);
            assert!(
                std::str::from_utf8(text).is_ok(),
                "the probe's text is ASCII"
            );
        }
        start.elapsed().as_secs_f64()
    }

    /// Host seconds of the table task.
    fn time_reads(&self) -> f64 {
        let start = Instant::now();
        let (mut x, mut acc) = (0x2545_F491_4F6C_DD1Du64, 0u64);
        let mask = self.table.len() - 1;
        for _ in 0..PROBE_READS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = self.table[x as usize & mask];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v as u64);
            } else {
                acc ^= x;
            }
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

/// The process's probe, built on first use (about 5 ms, so call it
/// once before timing anything).
pub fn probe() -> &'static Probe {
    static PROBE: OnceLock<Probe> = OnceLock::new();
    PROBE.get_or_init(Probe::new)
}

/// Host seconds of the probe's allocation task: it builds and drops
/// vectors of up to 48 items and fills a hash set.
///
/// Set-up samples are rescaled by this task alone. A workload's set-up
/// builds small structs, vectors and hash sets, and never waits on
/// memory or scans text, so the other two tasks only add noise to it.
pub fn time_alloc_task() -> f64 {
    let start = Instant::now();
    let mut kept: Vec<Vec<u64>> = Vec::new();
    let mut set = HashSet::new();
    for i in 0..PROBE_ITEMS {
        let v: Vec<u64> = (0..i % 48).map(|k| k ^ i).collect();
        set.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if i % 3 == 0 {
            kept.push(v);
        }
        if kept.len() > 64 {
            kept.clear();
            set.clear();
        }
    }
    std::hint::black_box((&kept, &set));
    start.elapsed().as_secs_f64()
}

/// One segment of a round: its host seconds and the mean of the probe
/// times taken just before and just after it.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub secs: f64,
    pub probe_s: f64,
}

impl Segment {
    /// The segment's seconds at the reference host speed.
    pub fn rescaled(&self) -> f64 {
        self.secs / self.probe_s * PROBE_NOMINAL_S
    }
}

/// Splits a timed round into consecutive segments: each [`lap`](Laps::lap)
/// closes the segment begun by the previous one (or by [`start`](Laps::start)),
/// so the segments cover the round's work without gaps. The probe runs
/// before the first segment and after each one, outside the segments.
#[derive(Debug)]
pub struct Laps {
    probe_before: f64,
    last: Instant,
    segments: Vec<Segment>,
}

impl Laps {
    /// Runs the probe, then begins the first segment.
    pub fn start() -> Laps {
        Laps {
            probe_before: probe().time(),
            last: Instant::now(),
            segments: Vec::new(),
        }
    }

    /// Ends the current segment, runs the probe, and begins the next.
    pub fn lap(&mut self) {
        let secs = self.last.elapsed().as_secs_f64();
        let probe_after = probe().time();
        self.segments.push(Segment {
            secs,
            probe_s: (self.probe_before + probe_after) / 2.0,
        });
        self.probe_before = probe_after;
        self.last = Instant::now();
    }

    /// Ends the last segment; returns every segment.
    pub fn finish(mut self) -> Vec<Segment> {
        self.lap();
        self.segments
    }
}

/// Rescaled seconds of a round, estimated from many rounds of the same
/// segments: each segment's median rescaled time, summed.
///
/// # Panics
///
/// If the rounds have different segment counts.
pub fn median_segments(rounds: &[Vec<Segment>]) -> f64 {
    let Some(first) = rounds.first() else {
        return 0.0;
    };
    (0..first.len())
        .map(|i| {
            let times: Vec<f64> = rounds
                .iter()
                .map(|r| {
                    assert_eq!(r.len(), first.len(), "rounds differ in segments");
                    r[i].rescaled()
                })
                .collect();
            median(&times)
        })
        .sum()
}

/// Seconds `f` takes, with its result.
pub fn stopwatch<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The median of `values` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn sampling_counts_every_call_and_times_one_in_two_to_the_shift() {
        for shift in 0..5 {
            let mut t = LayerTimer::new(shift);
            for _ in 0..1000 {
                t.call(|| ());
            }
            assert_eq!(t.calls, 1000);
            assert_eq!(t.timed, 1000u64.div_ceil(1 << shift));
        }
    }

    #[test]
    fn scaled_counts_reproduce_exact_counts() {
        // Each call does a known amount of work; scaling the work seen
        // by the timed calls must give the exact total.
        for shift in 0..6 {
            let mut t = LayerTimer::new(shift);
            let mut seen = 0u64;
            for _ in 0..(64 * 37) {
                let before = t.timed;
                t.call(|| ());
                if t.timed > before {
                    seen += 3;
                }
            }
            assert_eq!(t.scale(seen as f64), (3 * 64 * 37) as f64, "shift {shift}");
        }
    }

    #[test]
    fn one_in_one_sampling_equals_full_timing() {
        let mut t = LayerTimer::new(0);
        let (_, outer) = stopwatch(|| {
            for _ in 0..20 {
                t.call(|| spin(Duration::from_micros(500)));
            }
        });
        let busy = t.busy_s();
        assert!(busy >= 0.010, "20 x 500 us measured as {busy}");
        assert!(busy <= outer, "{busy} exceeds the enclosing {outer}");
        assert!(busy >= 0.95 * outer, "{busy} misses part of {outer}");
    }

    #[test]
    fn sampled_timing_estimates_a_uniform_layer() {
        let mut t = LayerTimer::new(2);
        for _ in 0..64 {
            t.call(|| spin(Duration::from_micros(200)));
        }
        let busy = t.busy_s();
        assert!((0.9 * 0.0128..1.5 * 0.0128).contains(&busy), "{busy}");
    }

    #[test]
    fn disabled_timer_runs_calls_and_records_nothing() {
        let mut t = LayerTimer::off();
        let mut n = 0;
        t.call(|| n += 1);
        assert_eq!((n, t.calls, t.busy_s()), (1, 0, 0.0));
    }

    #[test]
    fn laps_cover_the_round_without_gaps() {
        let mut laps = Laps::start();
        let (_, outer) = stopwatch(|| {
            for _ in 0..3 {
                spin(Duration::from_micros(300));
                laps.lap();
            }
        });
        let segments = laps.finish();
        assert_eq!(segments.len(), 4);
        assert!(
            segments[..3].iter().all(|s| s.secs >= 300e-6),
            "{segments:?}"
        );
        assert!(segments.iter().all(|s| s.probe_s > 0.0), "{segments:?}");
        let work: f64 = segments[..3].iter().map(|s| s.secs).sum();
        assert!(work <= outer, "{work} exceeds the enclosing {outer}");
    }

    #[test]
    fn rescaling_divides_by_the_probe_and_scales_to_nominal() {
        let s = Segment {
            secs: 0.5,
            probe_s: 2.0 * PROBE_NOMINAL_S,
        };
        assert_eq!(s.rescaled(), 0.25);
    }

    #[test]
    fn median_segments_sums_each_segments_median() {
        let seg = |secs| Segment {
            secs,
            probe_s: PROBE_NOMINAL_S,
        };
        let rounds = [
            vec![seg(1.0), seg(5.0), seg(2.0)],
            vec![seg(3.0), seg(4.0), seg(2.5)],
            vec![seg(2.0), seg(6.0), seg(1.5)],
        ];
        assert_eq!(median_segments(&rounds), 2.0 + 5.0 + 2.0);
        assert_eq!(median_segments(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
