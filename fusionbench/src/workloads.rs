//! The untraced runs behind the end-to-end metrics.

use crate::fleet::{verify_sampled, EpochLog, FleetKind, Served};
use crate::replay::{self, Lockstep, ReplayFigures};
use crate::roster;
use crate::stats::{self, Checks};
use crate::{metric, Metric};
use boresight::spec::ScenarioSpec;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FleetSteady,
    FleetChurn,
    ReplaySubstrates,
}

impl Workload {
    pub const NAMES: [&'static str; 3] = ["fleet-steady", "fleet-churn", "replay-substrates"];

    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet-steady" => Some(Self::FleetSteady),
            "fleet-churn" => Some(Self::FleetChurn),
            "replay-substrates" => Some(Self::ReplaySubstrates),
            _ => None,
        }
    }

    /// The workload's roster: (lane vehicles, adaptive-sideband
    /// vehicles). `replay-substrates` has no fleet; its recordings serve
    /// as a lane roster for the traced run.
    pub fn roster(self, seed: u64) -> (Vec<ScenarioSpec>, Vec<ScenarioSpec>) {
        match self {
            Self::FleetSteady => (roster::steady_roster(seed), Vec::new()),
            Self::FleetChurn => (
                (0..roster::CHURN_VEHICLES)
                    .map(|k| roster::churn_lane_spec(seed, k))
                    .collect(),
                roster::churn_adaptive_roster(seed),
            ),
            Self::ReplaySubstrates => (roster::replay_roster(seed), Vec::new()),
        }
    }

    pub fn fleet_kind(self) -> Option<FleetKind> {
        match self {
            Self::FleetSteady => Some(FleetKind::Steady),
            Self::FleetChurn => Some(FleetKind::Churn),
            Self::ReplaySubstrates => None,
        }
    }
}

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Warm-up epochs inside set-up: they grow the pool, the ingress
/// buffers and the profiler ring before anything is timed.
const WARMUP_EPOCHS: u64 = 40;
/// Share of `--seconds` given to the fleet; the rest replays the
/// accuracy panel on the three substrates.
const FLEET_SHARE: f64 = 0.75;
/// Fleet epochs between interleaved replay slices.
const CHUNK_EPOCHS: u64 = 100;
/// Fleet vehicles re-run as standalone sessions and replayed.
const SAMPLED_VEHICLES: usize = 32;
/// Fixed epoch at which fleet vehicles are sampled, so the sample (and
/// every accuracy figure) depends on the seed only, never on speed.
const STEADY_CHECKPOINT: u64 = 1000;
const CHURN_CHECKPOINT: u64 = 1600;
/// Fewest timed fleet epochs: ten blocks for the p90.
const MIN_TIMED_EPOCHS: u64 = 10 * TAIL_BLOCK_EPOCHS as u64;
/// Churn vehicles younger than this are not sampled (too little stream
/// for a converged-half RMS).
const MIN_SAMPLE_TICKS: u64 = 400;

pub fn run(workload: Workload, seed: u64, seconds: f64, checks: &mut Checks) -> Vec<Metric> {
    match workload.fleet_kind() {
        Some(kind) => run_fleet(workload, kind, seed, seconds, checks),
        None => run_replay(seed, seconds, checks),
    }
}

fn run_fleet(
    workload: Workload,
    kind: FleetKind,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Vec<Metric> {
    // Set-up: admission plus warm-up, several times; the last fleet is
    // the one measured.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        drop(served.take());
        let (lanes, adaptive) = workload.roster(seed);
        let t0 = Instant::now();
        let mut s = Served::with_roster(kind, seed, lanes, adaptive, roster::WORKERS);
        s.run(WARMUP_EPOCHS, &mut EpochLog::default());
        setup_s.push(t0.elapsed().as_secs_f64());
        served = Some(s);
    }
    let mut served = served.expect("set up at least once");
    let checkpoint = match kind {
        FleetKind::Steady => STEADY_CHECKPOINT,
        FleetKind::Churn => CHURN_CHECKPOINT,
    };

    // Timed window: fleet chunks up to the checkpoint, sample, then on
    // until the fleet's share of the time is used (and the tail has
    // enough blocks). Accuracy-panel replay epochs are interleaved
    // between the chunks, so the single-threaded replay figures see the
    // same host conditions as the fleet across the whole run.
    let panel = roster::panel();
    let recs = replay::record_roster(&panel, panel.len());
    let mut replay = Lockstep::new(&recs);
    let mut log = EpochLog::default();
    // Runs a fleet chunk, then replay epochs up to the replay's share;
    // returns the fleet's serving time so far.
    let mut run_chunk =
        |served: &mut Served, epochs: u64, log: &mut EpochLog, checks: &mut Checks| {
            served.run(epochs, log);
            let fleet_wall = log.totals().0;
            while replay.wall_s() < fleet_wall * (1.0 - FLEET_SHARE) / FLEET_SHARE {
                replay.step(checks);
            }
            fleet_wall
        };
    while served.fleet.epoch() < checkpoint {
        let chunk = CHUNK_EPOCHS.min(checkpoint - served.fleet.epoch());
        run_chunk(&mut served, chunk, &mut log, checks);
    }
    let sampled = served.sample(SAMPLED_VEHICLES, MIN_SAMPLE_TICKS);
    checks.check(sampled.len() >= SAMPLED_VEHICLES / 2, || {
        format!("only {} vehicles eligible for sampling", sampled.len())
    });
    served.oracle_checks(&sampled, checks);
    while run_chunk(&mut served, CHUNK_EPOCHS, &mut log, checks) < seconds * FLEET_SHARE
        || (log.epoch_ms.len() as u64) < MIN_TIMED_EPOCHS
    {}
    drop(served);
    let figures = replay.finish(checks);
    verify_sampled(&sampled, checks);

    let mut out = vec![metric(
        "vehicle_ticks_per_s",
        log.vehicle_ticks_per_s(),
        "1/s",
    )];
    out.extend(epoch_metrics(&log.epoch_ms, false, checks));
    out.extend(replay_metrics(&figures));
    out.push(metric("setup_s", stats::median(&mut setup_s), "s"));
    out.push(metric("peak_rss_mib", peak_rss_mib(), "MiB"));
    out
}

fn run_replay(seed: u64, seconds: f64, checks: &mut Checks) -> Vec<Metric> {
    let specs = roster::replay_roster(seed);
    let panel = roster::panel().len();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut recs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        recs = replay::record_roster(&specs, panel);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut replay = Lockstep::new(&recs);
    replay.run_for(seconds, checks);
    let figures = replay.finish(checks);

    let mut out = vec![metric(
        "vehicle_ticks_per_s",
        figures.vehicle_ticks_per_s(),
        "1/s",
    )];
    out.extend(epoch_metrics(&figures.epoch_ms, true, checks));
    out.extend(replay_metrics(&figures));
    out.push(metric("setup_s", stats::median(&mut setup_s), "s"));
    out.push(metric("peak_rss_mib", peak_rss_mib(), "MiB"));
    out
}

/// Epochs per block for the median epoch of a replay.
const MEDIAN_BLOCK_EPOCHS: usize = 25;
/// Epochs per block for the tail: the fewest that leave ten samples
/// beyond a p90.
const TAIL_BLOCK_EPOCHS: usize = 100;

/// Epoch latency (the README says why fleets and replays differ).
///
/// - `epoch_p50_ms`: for a fleet, the median of every timed epoch; for a
///   replay, the block median that [`stats::SUSTAINED`] of
///   [`MEDIAN_BLOCK_EPOCHS`]-epoch blocks stay within.
/// - `epoch_p90_ms`: per [`TAIL_BLOCK_EPOCHS`]-epoch block (in run order)
///   the block's p90; for a fleet the median over blocks, for a replay
///   the value [`stats::SUSTAINED`] of blocks stay within. The p99
///   (median of 1000-epoch block p99s) is printed but not reported: it
///   did not repeat.
fn epoch_metrics(epoch_ms: &[f64], sustained: bool, checks: &mut Checks) -> Vec<Metric> {
    let p50 = if sustained {
        let block_p50s: Vec<f64> = epoch_ms
            .chunks_exact(MEDIAN_BLOCK_EPOCHS)
            .map(|block| stats::median(&mut block.to_vec()))
            .collect();
        Some(stats::sustained_latency(&block_p50s))
    } else {
        let mut sorted = epoch_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        stats::percentile(&sorted, 0.5)
    };
    let p90 = if sustained {
        let block_p90s: Vec<f64> = epoch_ms
            .chunks_exact(TAIL_BLOCK_EPOCHS)
            .filter_map(|block| {
                let mut sorted = block.to_vec();
                sorted.sort_by(f64::total_cmp);
                stats::percentile(&sorted, 0.9)
            })
            .collect();
        (!block_p90s.is_empty()).then(|| stats::sustained_latency(&block_p90s))
    } else {
        stats::block_percentile(epoch_ms, TAIL_BLOCK_EPOCHS, 0.9)
    };
    let p99 = stats::block_percentile(epoch_ms, 10 * TAIL_BLOCK_EPOCHS, 0.99);
    println!(
        "epoch latency over {} timed epochs; p99 (median of 1000-epoch blocks, not reported) {:.4} ms",
        epoch_ms.len(),
        p99.unwrap_or(f64::NAN)
    );
    checks.check(p50.is_some() && p90.is_some(), || {
        format!(
            "{} timed epochs are too few for the percentiles",
            epoch_ms.len()
        )
    });
    vec![
        metric("epoch_p50_ms", p50.unwrap_or(f64::NAN), "ms"),
        metric("epoch_p90_ms", p90.unwrap_or(f64::NAN), "ms"),
    ]
}

/// The per-substrate figures of a timed lockstep replay.
fn replay_metrics(figures: &ReplayFigures) -> Vec<Metric> {
    let [f64s, soft, q16] = &figures.substrates;
    println!(
        "replay: {} passes, {} session ticks, {:.3} s of epochs",
        figures.passes, figures.vehicle_ticks, figures.wall_s
    );
    vec![
        metric("updates_per_s.f64", f64s.updates_per_s(), "1/s"),
        metric("updates_per_s.softfloat", soft.updates_per_s(), "1/s"),
        metric("updates_per_s.q16_16", q16.updates_per_s(), "1/s"),
        metric("rms_error_deg.f64", f64s.median_rms_deg(), "deg"),
        metric("rms_error_deg.q16_16", q16.median_rms_deg(), "deg"),
        metric("accept_ratio.q16_16", q16.accept_ratio(), "ratio"),
        metric(
            "cycles_per_update.softfloat",
            soft.cycles_per_update(),
            "cycles",
        ),
        metric(
            "cycles_per_update.q16_16",
            q16.cycles_per_update(),
            "cycles",
        ),
    ]
}

/// Peak resident set of this process, MiB (`ru_maxrss`, the same
/// high-water mark `/proc` reports as `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux, and `getrusage` only writes into the buffer it is given.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    if rc != 0 {
        return f64::NAN;
    }
    // SAFETY: initialised by the successful call above.
    unsafe { usage.assume_init() }.maxrss_kib as f64 / 1024.0
}
