//! Fleet-serving benchmark: sustained vehicles x Hz through the shard
//! arena, with per-epoch step-latency percentiles.
//!
//! A roster of catalog vehicles (distinct seeds, cycling every
//! scenario) is admitted into a [`Fleet`] and driven for a fixed
//! number of epochs; each epoch advances every vehicle one 5 ms sensor
//! tick through the `F64Arith` lane-group IEKF. The benchmark
//! reports:
//!
//! - **vehicle-ticks/s** — the headline: vehicles x epoch rate, i.e.
//!   how many 200 Hz vehicles the host sustains in real time is
//!   `vehicle_ticks_per_sec / 200`;
//! - **p50 / p99 / max epoch latency** — the fleet's scheduling tail;
//! - **bytes/session** — arena-resident footprint per vehicle;
//! - **ingress counters** — backpressure deferrals and lossy drops
//!   (both must stay zero at these rosters);
//! - **adaptive sideband** — a handful of supervised
//!   [`boresight::adaptive::AdaptiveBackend`] sessions ride next to
//!   the lane arena, and their substrate switches, saturations and
//!   switch log land in the report.
//!
//! The measurement runs as **one** `run_epochs` call on the fleet's
//! persistent executor — so the pipelined ingest path, the shard-affine
//! claim scheduling and the parked-worker wake-up are all inside the
//! timed window — and per-epoch latencies are read back from the
//! fleet's [`boresight::fleet::EpochProfiler`], whose per-phase
//! attribution (ingest / compute / sideband / steal / barrier) is
//! printed as a table and written to the reports.
//!
//! Results land in `bench_out/BENCH_fleet.json` (scheduling
//! attribution under `"epoch_profile"`) plus a standalone
//! `bench_out/BENCH_epoch_profile.json` for CI artifact upload, and
//! are compared against `bench_baselines/` when the committed baseline
//! ran the same roster. Run with `cargo run --release -p bench_suite
//! --bin fleet_bench [vehicles] [epochs] [shards] [p99_gate_ms]
//! [--workers N] [--smoke] [--gate-ticks-floor[=frac]]
//! [--gate-scaling]`. `--smoke` shrinks the roster for CI and **fails
//! the run** on any non-finite statistic or a p99 epoch latency above
//! the gate; `--gate-ticks-floor` fails it when f64 vehicle-ticks/s
//! falls below `frac` (default 0.5) of the committed baseline;
//! `--gate-scaling` (on hosts with >= 4 cores) fails it unless the
//! multi-worker run beats a single-worker reference by >= 1.4x with
//! scheduling overhead below 5 % of worker wall time.

use bench_suite::{
    compare_to_baseline, load_baseline, print_baseline_deltas, print_table, write_json, BenchArgs,
    Json,
};
use boresight::adaptive::{HysteresisPolicy, SubstrateId};
use boresight::arith::F64Arith;
use boresight::catalog;
use boresight::exec;
use boresight::fleet::{EpochProfile, Fleet, FleetConfig, FleetStats, PhaseStats, VehicleId};
use boresight::oracle::FusionOracle;
use boresight::spec::Substrate;
use std::time::Instant;

const TICK_DT: f64 = 0.005;

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

/// One measured fleet run.
struct FleetRun {
    substrate: &'static str,
    wall_s: f64,
    vehicle_ticks_per_sec: f64,
    realtime_vehicles: f64,
    updates_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    bytes_per_vehicle: usize,
    stats: FleetStats,
    /// The scheduler's wall-time attribution over the measured window.
    profile: EpochProfile,
    /// Oracle verdicts over a 64-vehicle sample of resident final
    /// estimates plus every sideband reconfiguration ledger (empty =
    /// healthy; `None` estimates mean the fleet emptied mid-run).
    oracle_findings: Vec<String>,
    sampled_estimates: usize,
    /// Sideband roster: adaptive sessions riding alongside the lane
    /// arena, and their reconfiguration activity over the run.
    adaptive_vehicles: usize,
    adaptive_switch_log: Vec<(f64, String, String)>,
}

/// Adaptive sideband vehicles admitted next to the lane roster — a
/// handful is enough to price reconfiguration at fleet scale without
/// distorting the lane arena's throughput the benchmark is for.
const ADAPTIVE_VEHICLES: usize = 8;

/// Admits the roster into a fresh `f64` [`Fleet`], drives it `epochs`
/// ticks past a warm-up, and reads every statistic off it.
fn run_fleet(
    substrate: &'static str,
    vehicles: usize,
    epochs: usize,
    shards: usize,
    workers: usize,
    seed_base: u64,
) -> FleetRun {
    let base = catalog::all();
    let mut fleet: Fleet<F64Arith, 8> = Fleet::new(FleetConfig {
        shards,
        tick_dt: TICK_DT,
        ..FleetConfig::default()
    });
    for i in 0..vehicles {
        let spec = base[i % base.len()]
            .clone()
            .with_duration(epochs as f64 * TICK_DT + 30.0)
            .with_seed(seed_base + i as u64);
        fleet.admit(&spec).expect("catalog tuning is compatible");
    }
    // The adaptive sideband: per-vehicle supervised sessions starting
    // on Q16.16 under the default hysteresis policy, cycling the same
    // catalog. Their switches/saturations fold into FleetStats.
    let adaptive_ids: Vec<VehicleId> = (0..ADAPTIVE_VEHICLES)
        .map(|i| {
            let spec = base[i % base.len()]
                .clone()
                .with_duration(epochs as f64 * TICK_DT + 30.0)
                .with_seed(seed_base + 800_000 + i as u64);
            fleet.admit_adaptive(
                &spec,
                SubstrateId::Q16_16,
                Box::new(HysteresisPolicy::default()),
            )
        })
        .collect();

    // Warm-up epochs grow every pooled buffer — including the
    // persistent worker pool, its lap scratch and the profiler ring —
    // to steady state; the profile window is then reset so only the
    // timed epochs are attributed.
    fleet.run_epochs(5, workers);
    let warm_stats = fleet.stats();
    fleet.reset_epoch_profile();

    // One scheduling call for the whole measurement: per-epoch wall
    // times come from the profiler, so the pipelined ingest path
    // (epoch N+1 pre-ingested behind epoch N's compute) stays engaged
    // across the window instead of being broken per lap.
    let start = Instant::now();
    fleet.run_epochs(epochs, workers);
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let stats = fleet.stats();
    let profile = fleet.epoch_profile().expect("epochs were run");
    let mut laps_us: Vec<f64> = fleet.epoch_samples().iter().map(|s| s.wall_us).collect();

    laps_us.sort_by(|a, b| a.partial_cmp(b).expect("finite lap"));
    // Final-estimate and sideband-ledger health through the shared
    // fusion oracle. The lane arena runs f64-family substrates, so the
    // float-substrate covariance checks apply; the sideband starts on
    // Q16.16, whose ledger must chain from that initial substrate.
    let oracle = FusionOracle::default();
    let sampled: Vec<_> = fleet.resident_ids().into_iter().take(64).collect();
    let sampled_estimates = sampled.len();
    let mut oracle_findings: Vec<String> = sampled
        .into_iter()
        .flat_map(|id| {
            let est = fleet.estimate(id).expect("resident");
            oracle
                .check_estimate(&est, Substrate::F64)
                .into_iter()
                .map(move |v| format!("vehicle {id:?}: {v}"))
        })
        .collect();
    for &id in &adaptive_ids {
        if let Some(ledger) = fleet.adaptive_ledger(id) {
            if let Some(v) = oracle.check_ledger(ledger, SubstrateId::Q16_16, 0) {
                oracle_findings.push(format!("sideband {id:?}: {v}"));
            }
        }
    }
    let adaptive_switch_log: Vec<(f64, String, String)> = adaptive_ids
        .iter()
        .filter_map(|&id| fleet.adaptive_ledger(id))
        .flat_map(|ledger| {
            ledger
                .events()
                .iter()
                .map(|e| {
                    (
                        e.at_time_s,
                        e.from.label().to_string(),
                        e.to.label().to_string(),
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect();
    FleetRun {
        substrate,
        wall_s,
        vehicle_ticks_per_sec: (vehicles * epochs) as f64 / wall_s,
        realtime_vehicles: (vehicles * epochs) as f64 / wall_s * TICK_DT,
        updates_per_sec: (stats.updates - warm_stats.updates) as f64 / wall_s,
        p50_us: percentile(&laps_us, 0.50),
        p99_us: percentile(&laps_us, 0.99),
        max_us: *laps_us.last().unwrap_or(&f64::NAN),
        bytes_per_vehicle: Fleet::<F64Arith, 8>::bytes_per_vehicle(),
        stats,
        profile,
        oracle_findings,
        sampled_estimates,
        adaptive_vehicles: ADAPTIVE_VEHICLES,
        adaptive_switch_log,
    }
}

fn phase_json(stats: &PhaseStats) -> Json {
    Json::Obj(vec![
        ("total_us".into(), Json::Num(stats.total_us)),
        ("p50_us".into(), Json::Num(stats.p50_us)),
        ("p99_us".into(), Json::Num(stats.p99_us)),
    ])
}

/// The scheduler attribution block: per-phase totals/percentiles and
/// the overhead fraction the `--gate-scaling` gate bounds.
fn profile_json(profile: &EpochProfile) -> Json {
    let mut fields = vec![
        ("epochs".into(), Json::Int(profile.epochs as u64)),
        ("workers".into(), Json::Int(u64::from(profile.workers))),
        ("steals".into(), Json::Int(profile.steals)),
        (
            "overhead_fraction".into(),
            Json::Num(profile.overhead_fraction()),
        ),
        ("wall".into(), phase_json(&profile.wall)),
    ];
    fields.extend(
        profile
            .rows()
            .into_iter()
            .map(|(label, stats, _)| (label.to_string(), phase_json(&stats))),
    );
    Json::Obj(fields)
}

/// Prints the epoch-scheduling attribution table: where the epoch's
/// worker wall time went, phase by phase, with each phase's share of
/// total busy time (the `share` column sums to 1 across the rows).
fn print_profile(substrate: &str, profile: &EpochProfile) {
    let mut rows = vec![vec![
        "wall (per epoch)".to_string(),
        format!("{:.0} us", profile.wall.total_us),
        format!("{:.0} us", profile.wall.p50_us),
        format!("{:.0} us", profile.wall.p99_us),
        String::new(),
    ]];
    rows.extend(profile.rows().into_iter().map(|(label, stats, share)| {
        vec![
            label.to_string(),
            format!("{:.0} us", stats.total_us),
            format!("{:.0} us", stats.p50_us),
            format!("{:.0} us", stats.p99_us),
            format!("{:.1}%", share * 100.0),
        ]
    }));
    print_table(
        &format!(
            "{substrate} epoch profile ({} epochs, {} workers, {} steals, \
             scheduling overhead {:.2}% of worker wall time)",
            profile.epochs,
            profile.workers,
            profile.steals,
            profile.overhead_fraction() * 100.0
        ),
        &["phase", "total", "p50", "p99", "share of busy"],
        &rows,
    );
}

/// The run's statistics block, at the report's top level.
fn run_json(run: &FleetRun) -> Vec<(String, Json)> {
    vec![
        ("wall_s".into(), Json::Num(run.wall_s)),
        (
            "vehicle_ticks_per_sec".into(),
            Json::Num(run.vehicle_ticks_per_sec),
        ),
        (
            "realtime_200hz_vehicles".into(),
            Json::Num(run.realtime_vehicles),
        ),
        ("updates_per_sec".into(), Json::Num(run.updates_per_sec)),
        ("p50_epoch_us".into(), Json::Num(run.p50_us)),
        ("p99_epoch_us".into(), Json::Num(run.p99_us)),
        ("max_epoch_us".into(), Json::Num(run.max_us)),
        (
            "bytes_per_session".into(),
            Json::Int(run.bytes_per_vehicle as u64),
        ),
        (
            "ingress".into(),
            Json::Obj(vec![
                ("enqueued".into(), Json::Int(run.stats.ingress.enqueued)),
                ("dropped".into(), Json::Int(run.stats.ingress.dropped)),
                ("deferred".into(), Json::Int(run.stats.ingress.deferred)),
                (
                    "high_water".into(),
                    Json::Int(run.stats.ingress.high_water as u64),
                ),
            ]),
        ),
        ("evicted".into(), Json::Int(run.stats.evicted as u64)),
        (
            "adaptive".into(),
            Json::Obj(vec![
                ("vehicles".into(), Json::Int(run.adaptive_vehicles as u64)),
                (
                    "substrate_switches".into(),
                    Json::Int(run.stats.substrate_switches),
                ),
                ("saturations".into(), Json::Int(run.stats.saturations)),
                (
                    "switch_log".into(),
                    Json::Arr(
                        run.adaptive_switch_log
                            .iter()
                            .map(|(t, from, to)| {
                                Json::Obj(vec![
                                    ("at_time_s".into(), Json::Num(*t)),
                                    ("from".into(), Json::Str(from.clone())),
                                    ("to".into(), Json::Str(to.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("epoch_profile".into(), profile_json(&run.profile)),
    ]
}

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.has_flag("smoke");
    let (default_vehicles, default_epochs) = if smoke {
        (512.0, 1200.0)
    } else {
        (4096.0, 2000.0)
    };
    let vehicles = args.num(0, default_vehicles) as usize;
    let epochs = args.num(1, default_epochs) as usize;
    let shards = args.num(2, 16.0) as usize;
    let p99_gate_ms = args.num(3, 25.0);
    let cores = exec::default_workers();
    let workers = exec::resolve_workers(args.workers);
    let seed_base = args.seed.unwrap_or(100_000);
    println!("effective seed: {seed_base} (vehicle i runs seed {seed_base}+i)");
    println!(
        "host: {cores} cores; resolved workers: {workers} (requested {})",
        args.workers
    );

    // Roster: the full catalog, cycled, distinct seeds, durations long
    // enough that nobody completes mid-measurement.
    let run = run_fleet("f64", vehicles, epochs, shards, workers, seed_base);

    print_table(
        &format!(
            "Fleet serving ({vehicles} vehicles x {epochs} epochs, \
             {shards} shards, {workers} workers, {:.0} Hz ticks, seed {seed_base})",
            1.0 / TICK_DT
        ),
        &[
            "substrate",
            "vehicle-ticks/s",
            "200 Hz vehicles (rt)",
            "updates/s",
            "p50 epoch",
            "p99 epoch",
            "max epoch",
            "bytes/session",
        ],
        &[vec![
            run.substrate.to_string(),
            format!("{:.0}", run.vehicle_ticks_per_sec),
            format!("{:.0}", run.realtime_vehicles),
            format!("{:.0}", run.updates_per_sec),
            format!("{:.0} us", run.p50_us),
            format!("{:.0} us", run.p99_us),
            format!("{:.0} us", run.max_us),
            format!("{}", run.bytes_per_vehicle),
        ]],
    );
    println!(
        "{}: ingress {} enqueued, {} dropped, {} deferred, high water {}; {} evicted",
        run.substrate,
        run.stats.ingress.enqueued,
        run.stats.ingress.dropped,
        run.stats.ingress.deferred,
        run.stats.ingress.high_water,
        run.stats.evicted,
    );
    println!(
        "{}: adaptive sideband: {} vehicles, {} substrate switches, {} saturations",
        run.substrate, run.adaptive_vehicles, run.stats.substrate_switches, run.stats.saturations,
    );
    for (t, from, to) in run.adaptive_switch_log.iter().take(8) {
        println!("{}:   t={t:.2}s {from} -> {to}", run.substrate);
    }
    print_profile(run.substrate, &run.profile);

    // --- Artifact (written before the gates, so a failing smoke run
    // still leaves numbers behind for diagnosis). ---------------------
    let mut fields = vec![
        ("bench".into(), Json::Str("fleet".into())),
        ("vehicles".into(), Json::Int(vehicles as u64)),
        ("epochs".into(), Json::Int(epochs as u64)),
        ("shards".into(), Json::Int(shards as u64)),
        ("workers".into(), Json::Int(workers as u64)),
        ("cores".into(), Json::Int(cores as u64)),
        ("seed".into(), Json::Int(seed_base)),
        ("tick_dt_s".into(), Json::Num(TICK_DT)),
    ];
    fields.extend(run_json(&run));
    let doc = Json::Obj(fields);
    let path = write_json("BENCH_fleet.json", &doc);
    println!("wrote {}", path.display());

    // The scheduling attribution also lands in a standalone document —
    // the artifact CI uploads per run, so epoch-profile history can be
    // compared across commits without digging through the full report.
    let profile_doc = Json::Obj(vec![
        ("bench".into(), Json::Str("fleet_epoch_profile".into())),
        ("vehicles".into(), Json::Int(vehicles as u64)),
        ("epochs".into(), Json::Int(epochs as u64)),
        ("shards".into(), Json::Int(shards as u64)),
        ("workers".into(), Json::Int(workers as u64)),
        ("cores".into(), Json::Int(cores as u64)),
        ("f64".into(), profile_json(&run.profile)),
    ]);
    let profile_path = write_json("BENCH_epoch_profile.json", &profile_doc);
    println!("wrote {}", profile_path.display());

    // --- Baseline comparison (same roster only — wall clock does not
    // compare across differently sized fleets) -----------------------
    if let Some(baseline) = load_baseline("BENCH_fleet.json") {
        let same = |key: &str, want: u64| {
            baseline
                .lookup(key)
                .and_then(Json::as_f64)
                .is_some_and(|v| v as u64 == want)
        };
        if same("vehicles", vehicles as u64) && same("epochs", epochs as u64) {
            let deltas = compare_to_baseline(
                &baseline,
                &doc,
                &[
                    "vehicle_ticks_per_sec",
                    "updates_per_sec",
                    "p50_epoch_us",
                    "p99_epoch_us",
                    "epoch_profile.overhead_fraction",
                ],
            );
            print_baseline_deltas("vs committed bench_baselines/ (wall clock)", &deltas);
        } else {
            println!("baseline roster differs; skipping wall-clock deltas");
        }
    }

    // --- Throughput floor vs the committed baseline (CI's fleet
    // counterpart of the softfloat throughput floor). Wall clock is
    // noisy across runner generations, so the floor is a fraction of
    // the baseline, not a match. -------------------------------------
    if let Some(floor_frac) = args.flag_num("gate-ticks-floor", 0.5) {
        let baseline_ticks = load_baseline("BENCH_fleet.json")
            .and_then(|b| b.lookup("vehicle_ticks_per_sec").and_then(Json::as_f64));
        match baseline_ticks {
            Some(baseline_ticks) => {
                let floor = baseline_ticks * floor_frac;
                assert!(
                    run.vehicle_ticks_per_sec >= floor,
                    "vehicle-ticks/s floor breached: {:.0} < {:.0} \
                     ({:.0}% of the committed baseline {:.0})",
                    run.vehicle_ticks_per_sec,
                    floor,
                    floor_frac * 100.0,
                    baseline_ticks
                );
                println!(
                    "ticks-floor gate passed: {:.0} >= {:.0} ({:.0}% of baseline)",
                    run.vehicle_ticks_per_sec,
                    floor,
                    floor_frac * 100.0
                );
            }
            None => println!("no committed baseline; skipping ticks-floor gate"),
        }
    }

    // --- Scaling gate: the persistent executor must actually buy
    // multi-worker throughput. Only meaningful on hosts with cores to
    // scale onto; smaller runners skip it loudly rather than fail. ----
    if args.has_flag("gate-scaling") {
        if cores >= 4 && workers >= 2 {
            let single = run_fleet("f64/1w", vehicles, epochs, shards, 1, seed_base);
            let ratio = run.vehicle_ticks_per_sec / single.vehicle_ticks_per_sec;
            let overhead = run.profile.overhead_fraction();
            println!(
                "scaling: {workers} workers {:.0} ticks/s vs 1 worker {:.0} ticks/s \
                 = {ratio:.2}x; scheduling overhead {:.2}%",
                run.vehicle_ticks_per_sec,
                single.vehicle_ticks_per_sec,
                overhead * 100.0
            );
            assert!(
                ratio >= 1.4,
                "scaling gate breached: {workers} workers only {ratio:.2}x a single worker"
            );
            assert!(
                overhead < 0.05,
                "scheduling overhead gate breached: {:.2}% >= 5% of worker wall time",
                overhead * 100.0
            );
            println!("scaling gate passed: >= 1.4x and < 5% scheduling overhead");
        } else {
            println!(
                "scaling gate skipped: {cores} cores / {workers} workers \
                 (needs >= 4 cores and >= 2 workers)"
            );
        }
    }

    // --- Health gates (the CI smoke contract) -----------------------
    for (name, value) in [
        ("vehicle_ticks_per_sec", run.vehicle_ticks_per_sec),
        ("updates_per_sec", run.updates_per_sec),
        ("p50_epoch_us", run.p50_us),
        ("p99_epoch_us", run.p99_us),
        ("max_epoch_us", run.max_us),
    ] {
        assert!(
            value.is_finite(),
            "{}: {name} is not finite: {value}",
            run.substrate
        );
    }
    assert!(
        run.updates_per_sec > 0.0,
        "{}: the fleet did not stream",
        run.substrate
    );
    assert!(
        run.sampled_estimates > 0,
        "{}: fleet emptied mid-benchmark",
        run.substrate
    );
    assert!(
        run.oracle_findings.is_empty(),
        "{}: oracle-flagged estimates/ledgers: {:#?}",
        run.substrate,
        run.oracle_findings
    );
    println!(
        "health gates passed: finite stats, sampled estimates and sideband ledgers pass the oracle"
    );

    if smoke {
        assert!(
            run.p99_us <= p99_gate_ms * 1e3,
            "{}: p99 epoch latency gate breached: {:.0} us > {:.0} us",
            run.substrate,
            run.p99_us,
            p99_gate_ms * 1e3
        );
        // The sideband starts on Q16.16 across the catalog; the
        // dynamic scenarios stress it within the first decision
        // window, so a silent zero here means the supervisor
        // stopped observing context at fleet scale.
        assert!(
            run.stats.substrate_switches > 0,
            "{}: adaptive sideband recorded no substrate switches",
            run.substrate
        );
        println!("smoke p99 gate passed: <= {:.0} us", p99_gate_ms * 1e3);
    }
}
