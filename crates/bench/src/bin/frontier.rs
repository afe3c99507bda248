//! The accuracy-vs-cycles-vs-throughput frontier: every arithmetic
//! substrate × lane width, per catalog scenario.
//!
//! The paper's co-design claim is that the arithmetic substrate is a
//! *choice* with an accuracy price and a cycle price; this binary
//! measures the whole menu at once so the trade-off is data, not folk
//! wisdom. For each scenario the measurement stream is captured **once**
//! through the native-`f64` front end ([`ImuPrep`]) — `(z, f_b, t, dt)`
//! per ACC sample — then replayed into a [`LaneIekf`] over every
//! substrate at lane widths 1/2/4/8/16 (every lane fed the same
//! vehicle, so width scales arithmetic throughput without changing the
//! estimation problem). Replaying one captured stream isolates the
//! filter datapath: every cell fuses bit-identical measurements, so RMS
//! differences are the substrate's, not the front end's.
//!
//! Per cell: tracking RMS error vs truth (second half of the stream,
//! every sample), modelled cycles/sample from the substrate's ledger
//! (0 when the substrate has no cycle model), measured lane-samples/sec
//! wall throughput, and saturation counts for the fixed-point family.
//!
//! Substrates: counted `f64` lanes (the autovectorized baseline),
//! native `f32`, emulated softfloat, and the Q-format family Q16.16 / Q8.24 / Q4.28 (Q4.28's ±8 range cannot even hold
//! gravity — it is the frontier's worked example of a substrate priced
//! below the problem).
//!
//! Results land in `bench_out/BENCH_frontier.json` (committed snapshot
//! in `bench_baselines/`). Run with `cargo run --release -p bench_suite
//! --bin frontier [steps] [target_lane_samples]` (defaults 4000 and
//! 20000). The run fails on non-finite cells.

use bench_suite::{
    compare_labeled_to_baseline, load_baseline, print_baseline_deltas, print_table, write_json,
    BenchArgs, Json,
};
use boresight::arith::{Arith, F32Arith, F64Arith, F64ArithFast, QArith, SoftArith};
use boresight::lanes::LaneIekf;
use boresight::spec::ScenarioSpec;
use boresight::{catalog, FilterConfig, ImuPrep, RunningRms, SensorEvent};
use mathx::{rad_to_deg, EulerAngles, Vec2};
use std::time::Instant;

/// The lane widths every substrate is swept over.
const WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// The catalog scenarios the frontier is measured on.
const SCENARIOS: [&str; 2] = ["paper-static", "highway-cruise"];

/// One ACC sample captured at the f64 front end's dispatch point.
struct Captured {
    z: Vec2,
    f_b: [f64; 3],
    time_s: f64,
    dt: f64,
}

/// One scenario's captured measurement stream plus the tuning and
/// truth needed to replay and score it.
struct Stream {
    scenario: String,
    truth: EulerAngles,
    filter: FilterConfig,
    samples: Vec<Captured>,
}

/// Streams the scenario's source through a native-`f64` [`ImuPrep`]
/// once, recording exactly what a scalar session would hand the filter
/// at each ACC event.
fn capture(spec: &ScenarioSpec, max_samples: usize) -> Stream {
    let est = spec.tuning.estimator_config();
    let mut front = F64ArithFast::default();
    let mut prep = ImuPrep::new(&mut front);
    let mut source = spec.into_source(spec.lower_trajectory());
    let tick = source.dt();
    let mut events = Vec::new();
    let mut samples = Vec::with_capacity(max_samples);
    let mut t = 0.0;
    let mut last_update = 0.0;
    'outer: while samples.len() < max_samples && !source.is_exhausted() {
        t += tick;
        events.clear();
        source.poll(t, &mut events);
        for event in events.drain(..) {
            match event {
                SensorEvent::Dmu(sample) => prep.on_dmu(&mut front, &sample),
                SensorEvent::Acc { time_s, z, .. } => {
                    if let Some(f) = prep.compensated_force(&mut front, time_s, est.lever_arm) {
                        let dt = (time_s - last_update).max(0.0);
                        last_update = time_s;
                        samples.push(Captured {
                            z,
                            f_b: [f[0], f[1], f[2]],
                            time_s,
                            dt,
                        });
                        if samples.len() >= max_samples {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    assert!(
        samples.len() >= max_samples.min(256),
        "scenario {} produced only {} samples",
        spec.name,
        samples.len()
    );
    Stream {
        scenario: spec.name.clone(),
        truth: spec.truth,
        filter: est.filter,
        samples,
    }
}

/// One substrate × width × scenario measurement.
struct Cell {
    label: String,
    scenario: String,
    substrate: &'static str,
    lanes: usize,
    reps: usize,
    rms_deg: f64,
    cycles_per_sample: f64,
    samples_per_sec: f64,
    saturations: u64,
    updates: u64,
    rejected: u64,
    wall_s: f64,
}

/// Timed passes per cell; samples/sec is taken from the fastest pass
/// so a scheduler hiccup on one pass can't invert a close comparison.
const PASSES: usize = 3;

/// Replays the captured stream into a width-`L` lane filter over
/// substrate `A`. The first replay is the scoring pass (RMS, gate
/// counters, the cycle ledger); timing then takes the best of
/// [`PASSES`] passes of `ceil(target / (n*L))` replays each, so fast
/// cells accumulate enough lane-samples for a stable wall clock.
fn run_cell<A, const L: usize>(stream: &Stream, target: usize) -> Cell
where
    A: Arith + Clone + Default,
{
    let n = stream.samples.len();
    let reps = (target / (n * L)).max(1);
    let half = n / 2;
    let mut filter: LaneIekf<A, L> = LaneIekf::new(stream.filter);
    let substrate = filter.arith().inner().name();
    let mut rms = RunningRms::default();
    let (mut updates0, mut rejected0) = (0u64, 0u64);

    // Scoring pass: accuracy and the modelled-cost ledger.
    for (i, s) in stream.samples.iter().enumerate() {
        filter.predict(s.dt);
        let f_b = {
            let inner = filter.arith_mut().inner_mut();
            [
                inner.num(s.f_b[0]),
                inner.num(s.f_b[1]),
                inner.num(s.f_b[2]),
            ]
        };
        let records = filter.update_shared_force(&[s.z; L], f_b, s.time_s);
        if records[0].accepted {
            updates0 += 1;
        } else {
            rejected0 += 1;
        }
        if i >= half {
            // Tracking error every sample (not only accepted ones): a
            // substrate that gates everything away still gets an
            // honest, finite error figure.
            let e = filter.angles(0).error_to(&stream.truth);
            rms.push([rad_to_deg(e.roll), rad_to_deg(e.pitch), rad_to_deg(e.yaw)]);
        }
    }
    let cycles0 = filter.arith().cycles();
    let sats0 = filter.arith().saturations();

    // Timed passes over the converged state: same measurements, same
    // gate decisions, pure datapath throughput.
    let mut wall_s = f64::INFINITY;
    for _ in 0..PASSES {
        let start = Instant::now();
        replay_pass(&mut filter, stream, reps);
        wall_s = wall_s.min(start.elapsed().as_secs_f64().max(1e-9));
    }
    std::hint::black_box(filter.angles(0));
    Cell {
        label: format!("{}/{}x{}", stream.scenario, substrate, L),
        scenario: stream.scenario.clone(),
        substrate,
        lanes: L,
        reps,
        rms_deg: rms.rms_deg(),
        cycles_per_sample: cycles0 as f64 / (n * L) as f64,
        samples_per_sec: (n * L * reps) as f64 / wall_s,
        saturations: sats0,
        updates: updates0,
        rejected: rejected0,
        wall_s,
    }
}

/// Replays the whole captured stream into `filter`, `reps` times.
fn replay_pass<A: Arith, const L: usize>(
    filter: &mut LaneIekf<A, L>,
    stream: &Stream,
    reps: usize,
) {
    for _ in 0..reps {
        for s in &stream.samples {
            filter.predict(s.dt);
            let f_b = {
                let inner = filter.arith_mut().inner_mut();
                [
                    inner.num(s.f_b[0]),
                    inner.num(s.f_b[1]),
                    inner.num(s.f_b[2]),
                ]
            };
            filter.update_shared_force(&[s.z; L], f_b, s.time_s);
        }
    }
}

/// Sweeps one substrate across every lane width.
fn sweep<A: Arith + Clone + Default>(stream: &Stream, target: usize, cells: &mut Vec<Cell>) {
    cells.push(run_cell::<A, 1>(stream, target));
    cells.push(run_cell::<A, 2>(stream, target));
    cells.push(run_cell::<A, 4>(stream, target));
    cells.push(run_cell::<A, 8>(stream, target));
    cells.push(run_cell::<A, 16>(stream, target));
}

fn main() {
    let args = BenchArgs::parse();
    let steps = args.num(0, 4000.0) as usize;
    let target = args.num(1, 20000.0) as usize;

    let streams: Vec<Stream> = SCENARIOS
        .iter()
        .map(|name| {
            let spec = catalog::by_name(name).expect("catalog scenario");
            let stream = capture(&spec, steps);
            println!(
                "captured {} samples of {} (truth {:?})",
                stream.samples.len(),
                stream.scenario,
                stream.truth.to_degrees()
            );
            stream
        })
        .collect();

    let mut cells: Vec<Cell> = Vec::new();
    for stream in &streams {
        sweep::<F64Arith>(stream, target, &mut cells);
        sweep::<F32Arith>(stream, target, &mut cells);
        sweep::<SoftArith>(stream, target, &mut cells);
        sweep::<QArith<16>>(stream, target, &mut cells);
        sweep::<QArith<24>>(stream, target, &mut cells);
        sweep::<QArith<28>>(stream, target, &mut cells);
    }

    for scenario in SCENARIOS {
        print_table(
            &format!("Frontier — {scenario} ({steps} samples/lane)"),
            &[
                "substrate",
                "lanes",
                "rms (deg)",
                "cycles/sample",
                "samples/s",
                "saturations",
                "accepted",
            ],
            &cells
                .iter()
                .filter(|c| c.scenario == scenario)
                .map(|c| {
                    vec![
                        c.substrate.to_string(),
                        format!("{}", c.lanes),
                        format!("{:.4}", c.rms_deg),
                        format!("{:.0}", c.cycles_per_sample),
                        format!("{:.0}", c.samples_per_sec),
                        format!("{}", c.saturations),
                        format!("{}", c.updates),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    // --- Artifact ---------------------------------------------------
    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("frontier".into())),
        ("steps".into(), Json::Int(steps as u64)),
        ("target_lane_samples".into(), Json::Int(target as u64)),
        (
            "scenarios".into(),
            Json::Arr(SCENARIOS.iter().map(|s| Json::Str((*s).into())).collect()),
        ),
        (
            "widths".into(),
            Json::Arr(WIDTHS.iter().map(|w| Json::Int(*w as u64)).collect()),
        ),
        (
            "cells".into(),
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("label".into(), Json::Str(c.label.clone())),
                            ("scenario".into(), Json::Str(c.scenario.clone())),
                            ("substrate".into(), Json::Str(c.substrate.into())),
                            ("lanes".into(), Json::Int(c.lanes as u64)),
                            ("reps".into(), Json::Int(c.reps as u64)),
                            ("rms_deg".into(), Json::Num(c.rms_deg)),
                            ("cycles_per_sample".into(), Json::Num(c.cycles_per_sample)),
                            ("samples_per_sec".into(), Json::Num(c.samples_per_sec)),
                            ("saturations".into(), Json::Int(c.saturations)),
                            ("updates".into(), Json::Int(c.updates)),
                            ("rejected".into(), Json::Int(c.rejected)),
                            ("wall_s".into(), Json::Num(c.wall_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = write_json("BENCH_frontier.json", &doc);
    println!("wrote {}", path.display());

    // --- Baseline comparison ----------------------------------------
    if let Some(baseline) = load_baseline("BENCH_frontier.json") {
        let labels: Vec<String> = cells
            .iter()
            .filter(|c| c.lanes == 8 || (c.lanes == 1 && c.substrate == "softfloat/f64"))
            .map(|c| c.label.clone())
            .collect();
        let pairs: Vec<(&str, &str)> = labels
            .iter()
            .map(|l| (l.as_str(), "samples_per_sec"))
            .collect();
        let deltas = compare_labeled_to_baseline(&baseline, &doc, "cells", &pairs);
        print_baseline_deltas("vs committed bench_baselines/ (samples/sec)", &deltas);
    }

    // --- Non-finite gate (always on: the CI smoke contract) ---------
    for c in &cells {
        assert!(
            c.rms_deg.is_finite()
                && c.cycles_per_sample.is_finite()
                && c.samples_per_sec.is_finite(),
            "non-finite frontier cell {}: rms={} cycles={} samples/s={}",
            c.label,
            c.rms_deg,
            c.cycles_per_sample,
            c.samples_per_sec
        );
    }
    println!("non-finite gate passed: {} cells all finite", cells.len());
}
