//! Wall-clock throughput benchmark: the anchor of the perf trajectory.
//!
//! Everything else in `bench_out/` measures *modeled* cycles; this
//! binary measures what the host actually achieves, in two parts:
//!
//! 1. **Hot-path throughput** — the paper-dynamic scenario streamed
//!    end to end through a [`FusionSession`] on each arithmetic
//!    substrate (plus the uncounted-`f64` variant that compiles the op
//!    ledger out), reporting events/sec, fused ACC samples/sec, the
//!    real-time factor against the paper's 100 Hz fusion budget and
//!    the simulation-time speedup.
//! 2. **Sweep scaling** — the full scenario × substrate matrix run
//!    serially ([`ScenarioSuite::run`]) and on the worker pool
//!    ([`ScenarioSuite::run_parallel`]), with the wall-clock speedup
//!    and a bitwise cross-check that parallel == serial.
//!
//! Results land in `bench_out/BENCH_throughput.json` so successive PRs
//! can be compared. Run with `cargo run --release -p bench_suite --bin
//! throughput [hotpath_duration_s] [matrix_duration_s] [--workers N]`
//! (defaults 60 and 8; CI smoke uses shorter cells).
//!
//! The run fails (non-zero exit) if the native-`f64` backend cannot
//! sustain the 100 Hz fusion budget in real time — the floor every
//! future perf PR must keep.

use bench_suite::{
    compare_labeled_to_baseline, compare_to_baseline, load_baseline, print_baseline_deltas,
    print_table, write_json, BenchArgs, Json,
};
use boresight::arith::{Arith, F64ArithFast};
use boresight::exec;
use boresight::lanes::LaneBank;
use boresight::session::ChannelConfig;
use boresight::spec::{ScenarioSpec, ScenarioSuite, Substrate, SuiteCell};
use boresight::{catalog, FusionSession, SyntheticSource};
use std::time::Instant;

/// The paper's fusion-rate budget, Hz (the DMU stream the 25 MHz Sabre
/// core must keep up with).
const RT_BUDGET_HZ: f64 = 100.0;

/// One substrate's measured hot-path throughput.
struct HotPath {
    label: String,
    backend: &'static str,
    duration_s: f64,
    events: u64,
    updates: u64,
    wall_s: f64,
}

impl HotPath {
    /// Raw sensor events dispatched per wall-clock second.
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }

    /// Accepted fusion updates per wall-clock second.
    fn updates_per_sec(&self) -> f64 {
        self.updates as f64 / self.wall_s
    }

    /// Simulated seconds processed per wall-clock second (1.0 = just
    /// keeping up with the vehicle).
    fn sim_speedup(&self) -> f64 {
        self.duration_s / self.wall_s
    }

    /// Achieved fusion rate over the paper's 100 Hz budget.
    fn realtime_factor(&self) -> f64 {
        self.updates_per_sec() / RT_BUDGET_HZ
    }
}

/// Builds an eight-channel session over `spec`'s trajectory — the same
/// scenario sensed by eight identically-configured channels — fused by
/// a single eight-wide [`LaneBank`] on substrate `A`.
fn lane_bank_session<A>(spec: &ScenarioSpec) -> FusionSession
where
    A: Arith + Clone + Default + 'static,
{
    let cfg = spec.config();
    let channel = ChannelConfig::from_scenario(&cfg);
    // `from_scenario` installs channel 0; clone it seven more times.
    let mut source = SyntheticSource::from_scenario(spec.lower_trajectory(), &cfg);
    for _ in 1..8 {
        source = source.with_channel(&channel);
    }
    FusionSession::builder()
        .source(source)
        .backend(LaneBank::<A, 8>::new(cfg.estimator))
        .build()
}

/// Streams the paper-dynamic scenario through one session and times
/// only the streaming (construction and lowering excluded).
fn measure(label: &str, mut session: FusionSession, duration_s: f64) -> HotPath {
    let backend = session.backend_label();
    let start = Instant::now();
    session.run_to_end();
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let stats = session.stats();
    HotPath {
        label: label.to_string(),
        backend,
        duration_s,
        events: stats.events,
        updates: stats.updates,
        wall_s,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let hot_duration = args.num(0, 60.0);
    let matrix_duration = args.num(1, 8.0);
    let workers = exec::resolve_workers(args.workers);

    // --- Part 1: hot-path throughput per substrate ------------------
    let spec = catalog::paper_dynamic().with_duration(hot_duration);
    let mut hot: Vec<HotPath> = Substrate::all()
        .into_iter()
        .map(|substrate| {
            let cell = spec.clone().with_substrate(substrate);
            let session = cell.into_session(cell.lower_trajectory());
            measure(substrate.label(), session, hot_duration)
        })
        .collect();
    // The uncounted-f64 instantiation: identical arithmetic, the
    // OpCounts ledger compiled out — its margin over the `f64` row is
    // the measured cost of instrumentation on the native path.
    {
        let cfg = spec.config();
        let session = FusionSession::builder()
            .source(SyntheticSource::from_scenario(
                spec.lower_trajectory(),
                &cfg,
            ))
            .iekf(F64ArithFast::default(), cfg.estimator)
            .truth(cfg.true_misalignment)
            .record_traces_sized(cfg.trace_decimation, FusionSession::expected_updates(&cfg))
            .build();
        hot.push(measure("f64/uncounted", session, hot_duration));
    }
    // Lane-bank row: eight channels of the same scenario fused by one
    // eight-wide filter on the uncounted autovectorized lanes. One
    // "update" here is a fused eight-lane batch (x8 for lane-samples),
    // so the lane-parallel payoff over the scalar rows is
    // updates/s * 8 / scalar updates/s.
    hot.push(measure(
        "lanebank/f64x8",
        lane_bank_session::<F64ArithFast>(&spec),
        hot_duration,
    ));

    print_table(
        &format!(
            "Hot-path throughput (paper-dynamic, {hot_duration:.0} s sim, {RT_BUDGET_HZ:.0} Hz budget)"
        ),
        &[
            "substrate",
            "events/s",
            "updates/s",
            "sim-time speedup",
            "real-time factor",
            "wall (s)",
        ],
        &hot.iter()
            .map(|h| {
                vec![
                    h.label.clone(),
                    format!("{:.0}", h.events_per_sec()),
                    format!("{:.0}", h.updates_per_sec()),
                    format!("{:.1}x", h.sim_speedup()),
                    format!("{:.1}x", h.realtime_factor()),
                    format!("{:.3}", h.wall_s),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // --- Part 2: serial vs parallel full-matrix wall clock ----------
    let suite = ScenarioSuite::full_matrix().with_duration(matrix_duration);
    let start = Instant::now();
    let serial = suite.run();
    let serial_wall = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let parallel = suite.run_parallel(workers);
    let parallel_wall = start.elapsed().as_secs_f64().max(1e-9);
    let speedup = serial_wall / parallel_wall;

    // Parallel must be the same computation, not a similar one.
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        let bits = |c: &SuiteCell| {
            [
                c.summary.estimate.angles.roll.to_bits(),
                c.summary.estimate.angles.pitch.to_bits(),
                c.summary.estimate.angles.yaw.to_bits(),
            ]
        };
        assert_eq!(s.scenario, p.scenario);
        assert_eq!(s.substrate, p.substrate);
        assert_eq!(
            bits(s),
            bits(p),
            "parallel diverged from serial on {}/{}",
            s.scenario,
            s.substrate
        );
    }

    print_table(
        &format!(
            "Scenario x substrate matrix wall clock ({} cells, {matrix_duration:.0} s each)",
            serial.cells.len()
        ),
        &["mode", "wall (s)", "speedup"],
        &[
            vec!["serial".into(), format!("{serial_wall:.3}"), "1.0x".into()],
            vec![
                format!("parallel x{workers}"),
                format!("{parallel_wall:.3}"),
                format!("{speedup:.2}x"),
            ],
        ],
    );
    println!("parallel report verified bit-identical to serial");

    // --- Artifact ---------------------------------------------------
    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("throughput".into())),
        ("scenario".into(), Json::Str(spec.name.clone())),
        ("hotpath_duration_s".into(), Json::Num(hot_duration)),
        ("matrix_duration_s".into(), Json::Num(matrix_duration)),
        ("rt_budget_hz".into(), Json::Num(RT_BUDGET_HZ)),
        (
            "substrates".into(),
            Json::Arr(
                hot.iter()
                    .map(|h| {
                        Json::Obj(vec![
                            ("label".into(), Json::Str(h.label.clone())),
                            ("backend".into(), Json::Str(h.backend.into())),
                            ("events".into(), Json::Int(h.events)),
                            ("updates".into(), Json::Int(h.updates)),
                            ("wall_s".into(), Json::Num(h.wall_s)),
                            ("events_per_sec".into(), Json::Num(h.events_per_sec())),
                            ("samples_per_sec".into(), Json::Num(h.updates_per_sec())),
                            ("sim_time_speedup".into(), Json::Num(h.sim_speedup())),
                            ("realtime_factor".into(), Json::Num(h.realtime_factor())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "matrix".into(),
            Json::Obj(vec![
                ("cells".into(), Json::Int(serial.cells.len() as u64)),
                ("workers".into(), Json::Int(workers as u64)),
                ("serial_wall_s".into(), Json::Num(serial_wall)),
                ("parallel_wall_s".into(), Json::Num(parallel_wall)),
                ("speedup".into(), Json::Num(speedup)),
                ("bit_identical".into(), Json::Str("verified".into())),
            ]),
        ),
    ]);
    let path = write_json("BENCH_throughput.json", &doc);
    println!("wrote {}", path.display());

    // --- Baseline comparison ----------------------------------------
    let baseline = load_baseline("BENCH_throughput.json");
    if let Some(baseline) = &baseline {
        let mut deltas = compare_labeled_to_baseline(
            baseline,
            &doc,
            "substrates",
            &[
                ("f64", "samples_per_sec"),
                ("softfloat", "samples_per_sec"),
                ("q16.16", "samples_per_sec"),
                ("f64/uncounted", "samples_per_sec"),
                ("lanebank/f64x8", "samples_per_sec"),
            ],
        );
        deltas.extend(compare_to_baseline(baseline, &doc, &["matrix.speedup"]));
        print_baseline_deltas("vs committed bench_baselines/ (wall clock)", &deltas);
    }

    // --- The real-time gate (the CI smoke contract) -----------------
    let f64_row = &hot[0];
    assert_eq!(f64_row.label, "f64");
    assert!(
        f64_row.realtime_factor() >= 1.0,
        "native f64 fell below real time: {:.2}x of the {RT_BUDGET_HZ} Hz budget",
        f64_row.realtime_factor()
    );
    println!(
        "real-time gate passed: f64 sustains {:.0}x the {RT_BUDGET_HZ:.0} Hz budget",
        f64_row.realtime_factor()
    );

    // --- Softfloat floor gate (opt-in: `--gate-softfloat-floor`) ----
    // The structure-exploiting kernels bought the emulated path its
    // throughput; this gate fails the run if softfloat falls back
    // under 1.2x the committed baseline's figure. Wall clock is
    // machine-dependent, so the gate is opt-in for CI (which runs on a
    // known runner class) rather than always-on for developers.
    if args.has_flag("gate-softfloat-floor") {
        let baseline = baseline.expect("--gate-softfloat-floor needs bench_baselines/");
        let floor = 1.2
            * baseline
                .find_labeled("substrates", "softfloat")
                .and_then(|row| row.lookup("samples_per_sec"))
                .and_then(Json::as_f64)
                .expect("baseline softfloat samples_per_sec");
        let soft = hot
            .iter()
            .find(|h| h.label == "softfloat")
            .expect("softfloat row");
        assert!(
            soft.updates_per_sec() >= floor,
            "softfloat throughput floor violated: {:.0} samples/s < {:.0} (1.2x baseline)",
            soft.updates_per_sec(),
            floor
        );
        println!(
            "softfloat floor gate passed: {:.0} samples/s >= {:.0} (1.2x baseline)",
            soft.updates_per_sec(),
            floor
        );
    }
}
