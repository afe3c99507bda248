//! The traced run: per-layer metrics from the benchmark's own calls
//! into each layer's public functions.
//!
//! The fleet's internals cannot be timed from outside, so the traced
//! run rebuilds one fleet epoch from the public pieces the fleet arena
//! is made of — `SensorSource::poll`, `ImuPrep`, `LaneIekf` masked
//! predict/update, `FusionSession::run_for` for the adaptive sideband —
//! over the workload's own roster, single-threaded, with a span around
//! every call. The rebuilt epoch must reproduce the real fleet's
//! estimates bit for bit, and its layer self-times are compared with an
//! untraced one-worker run of the real fleet over the same ticks:
//! whatever they do not explain is reported as `unattributed`.
//! Scalar `filter`/`arith` figures come from a traced rebuild of the
//! estimator over replayed recordings on each substrate; `fleet` and
//! `exec` figures come from the real fleet and pool.

use crate::fleet::{EpochLog, FleetKind, Served};
use crate::replay::{record_prefix, record_roster, same_bits, suffix, Recorded, SUBSTRATES};
use crate::roster::{SHARDS, TICK, WORKERS};
use crate::stats::{self, ns_per_vtick, Checks};
use crate::trace::Tracer;
use crate::workloads::Workload;
use crate::{metric, Metric};
use boresight::adaptive::{AdaptiveBackend, HysteresisPolicy, ReconfigLedger, SubstrateId};
use boresight::arith::{Arith, F64Arith, QArith, SoftArith};
use boresight::estimator::{ImuPrep, MisalignmentEstimate};
use boresight::exec::Pool;
use boresight::filter::GenericBoresightFilter;
use boresight::fleet::VehicleId;
use boresight::lanes::LaneIekf;
use boresight::monitor::ResidualMonitor;
use boresight::replay::replay_spec_session;
use boresight::session::{SensorEvent, SensorSource};
use boresight::spec::{ChannelSpec, ScenarioSpec, Substrate};
use boresight::FusionSession;
use mathx::{Vec2, Vec3};
use std::time::Instant;

/// Lane width of the fleet's lane groups.
const L: usize = 8;
/// Untraced ticks every run takes before the traced/timed ticks.
const WARMUP_TICKS: u64 = 20;
/// Ticks per chunk when the untraced fleet and the traced rebuild take
/// turns.
const INTERLEAVE_TICKS: u64 = 25;
/// Recorded ticks per sampled vehicle for the scalar filter probes.
const PROBE_TICKS: u64 = 800;
/// Vehicles sampled for the scalar filter and adaptive probes.
const PROBE_VEHICLES: usize = 16;

/// Span names of the fleet-epoch rebuild.
const FLEET_SPANS: &[&str] = &[
    "shard_epoch",
    "sensors.poll",
    "comms.poll",
    "estimator.imu_prep",
    "lanes.predict",
    "lanes.update",
    "adaptive.run_for",
];
const SHARD_EPOCH: u16 = 0;
const SENSORS_POLL: u16 = 1;
const COMMS_POLL: u16 = 2;
const IMU_PREP: u16 = 3;
const LANES_PREDICT: u16 = 4;
const LANES_UPDATE: u16 = 5;
const ADAPTIVE_RUN_FOR: u16 = 6;

/// Span names of the scalar estimator rebuild.
const FILTER_SPANS: &[&str] = &["estimator.imu_prep", "filter.predict", "filter.update"];
const F_PREP: u16 = 0;
const F_PREDICT: u16 = 1;
const F_UPDATE: u16 = 2;

/// Per-workload tick counts: (traced rebuild ticks, two-worker fleet
/// epochs). Sized so each traced run covers about 2e5 vehicle-ticks and
/// churn vehicles (4 s minimum lifetime) all survive the rebuild window.
fn tick_plan(workload: Workload) -> (u64, u64) {
    match workload {
        Workload::FleetSteady => (200, 400),
        Workload::FleetChurn => (600, 2000),
        Workload::ReplaySubstrates => (3000, 3000),
    }
}

/// The traced run covers a fixed number of ticks per workload
/// ([`tick_plan`]), whatever `--seconds` says.
pub fn run(workload: Workload, seed: u64, checks: &mut Checks) -> Vec<Metric> {
    let (lanes, adaptive) = workload.roster(seed);
    let kind = workload.fleet_kind().unwrap_or(FleetKind::Steady);
    let (ticks, fleet_epochs) = tick_plan(workload);
    let out_dir = std::path::Path::new("bench_out").join("fusionbench");
    let _ = std::fs::create_dir_all(&out_dir);
    let name = Workload::NAMES[workload as usize];
    let mut out = Vec::new();

    // ---- The real fleet untraced on 1 worker, interleaved chunk by
    // chunk with the traced rebuild over the same roster and ticks, so
    // both see the same host conditions.
    let mut one = Served::with_roster(kind, seed, lanes.clone(), adaptive.clone(), 1);
    let mut rebuild = Rebuild::new(&one);
    let mut twins = Twins::new(&lanes);
    // `with_roster` ran the first epoch between its admission waves.
    one.run(WARMUP_TICKS - 1, &mut EpochLog::default());
    for _ in 0..WARMUP_TICKS {
        rebuild.tick(None);
    }
    twins.advance(WARMUP_TICKS, 0.0);
    let spans_per_tick = 4 * lanes.len() + 3 * adaptive.len() + 4 * SHARDS * (lanes.len() / L + 2);
    let mut tracer = Tracer::new(FLEET_SPANS, spans_per_tick * ticks as usize);
    rebuild.reset_counters();
    let mut one_log = EpochLog::default();
    let mut traced_wall = 0.0;
    let mut twin_ns = 0.0;
    let mut left = ticks;
    while left > 0 {
        let chunk = left.min(INTERLEAVE_TICKS);
        one.run(chunk, &mut one_log);
        let t0 = Instant::now();
        for _ in 0..chunk {
            rebuild.tick(Some(&mut tracer));
        }
        traced_wall += t0.elapsed().as_secs_f64();
        twin_ns += twins.advance(chunk, tracer.span_cost_ns());
        left -= chunk;
    }
    let (one_wall, one_vticks) = one_log.totals();
    let one_ns_per_vtick = ns_per_vtick(one_wall * 1e9, one_vticks);
    rebuild.check_against(&one, checks);
    drop(one);
    let _ = std::fs::write(
        out_dir.join(format!("trace-{name}-fleet.csv")),
        tracer.to_csv(),
    );

    // ---- The workload's own 2-worker driving, untraced.
    let mut two = Served::with_roster(kind, seed, lanes.clone(), adaptive.clone(), WORKERS);
    two.run(WARMUP_TICKS - 1, &mut EpochLog::default());
    let mut two_log = EpochLog::default();
    two.run(fleet_epochs, &mut two_log);
    let (two_wall, two_vticks) = two_log.totals();
    let profile = two.fleet.epoch_profile().expect("epochs were run");
    let fleet_stats = two.fleet.stats();
    let scaling = (two_vticks as f64 / two_wall) / (one_vticks as f64 / one_wall);
    for (label, _, share) in profile.rows() {
        out.push(metric(format!("fleet.{label}_share"), share, "ratio"));
    }
    out.push(metric(
        "fleet.admit_us",
        stats::median(&mut two.admit_us),
        "us",
    ));
    out.push(metric(
        "fleet.evictions",
        fleet_stats.evicted as f64,
        "count",
    ));
    out.push(metric(
        "fleet.ingress_deferred",
        fleet_stats.ingress.deferred as f64,
        "count",
    ));
    out.push(metric(
        "fleet.ingress_high_water",
        fleet_stats.ingress.high_water as f64,
        "count",
    ));
    drop(two);

    let totals = tracer.totals();
    let self_ns = |span: u16| totals[span as usize].1;
    let vticks = rebuild.vehicle_ticks;
    let layers = [
        ("sensors", self_ns(SENSORS_POLL) + twin_ns),
        ("comms", self_ns(COMMS_POLL) - twin_ns),
        ("estimator", self_ns(IMU_PREP)),
        ("lanes", self_ns(LANES_PREDICT) + self_ns(LANES_UPDATE)),
        ("adaptive", self_ns(ADAPTIVE_RUN_FOR)),
    ];
    let attributed = layers.iter().map(|(_, ns)| ns).sum::<f64>();
    let attributed_per_vtick = ns_per_vtick(attributed, vticks);
    let unattributed = one_ns_per_vtick - attributed_per_vtick;
    println!("\nattribution per vehicle-tick ({vticks} vehicle-ticks, 1 worker, untraced {one_ns_per_vtick:.1} ns):");
    for (layer, ns) in layers {
        let per = ns_per_vtick(ns, vticks);
        println!(
            "  {layer:<12} {per:>10.1} ns  {:>6.1}%",
            100.0 * per / one_ns_per_vtick
        );
    }
    println!(
        "  {:<12} {unattributed:>10.1} ns  {:>6.1}%",
        "unattributed",
        100.0 * unattributed / one_ns_per_vtick
    );
    println!(
        "  (rebuild bookkeeping outside any layer: {:.1} ns)",
        ns_per_vtick(self_ns(SHARD_EPOCH), vticks)
    );

    out.push(metric(
        "sensors.poll_ns_per_vtick",
        ns_per_vtick(layers[0].1, vticks),
        "ns",
    ));
    out.push(metric(
        "sensors.events_per_vtick",
        rebuild.counters.events as f64 / rebuild.counters.lane_ticks as f64,
        "count",
    ));
    out.push(metric(
        "comms.chain_ns_per_vtick",
        ns_per_vtick(layers[1].1, vticks),
        "ns",
    ));
    out.push(metric(
        "comms.frame_error_ratio",
        rebuild.frame_error_ratio(),
        "ratio",
    ));
    out.push(metric(
        "estimator.imu_prep_ns_per_vtick",
        ns_per_vtick(layers[2].1, vticks),
        "ns",
    ));
    out.push(metric(
        "lanes.predict_ns_per_vtick",
        ns_per_vtick(self_ns(LANES_PREDICT), vticks),
        "ns",
    ));
    out.push(metric(
        "lanes.update_ns_per_vtick",
        ns_per_vtick(self_ns(LANES_UPDATE), vticks),
        "ns",
    ));
    out.push(metric(
        "lanes.active_lane_ratio",
        rebuild.counters.active_lanes as f64 / rebuild.counters.executed_lanes as f64,
        "ratio",
    ));

    // ---- Adaptive sideband: the churn fleet's own sideband vehicles
    // from the rebuild; a standalone sample on the other workloads.
    let adaptive_figures = if adaptive.is_empty() {
        adaptive_probe(&sample(&lanes, PROBE_VEHICLES))
    } else {
        let sessions: Vec<&FusionSession> = rebuild.adaptive.iter().map(|(_, s, _)| s).collect();
        AdaptiveFigures::from_sessions(&sessions, self_ns(ADAPTIVE_RUN_FOR), ticks)
    };
    drop(rebuild);
    out.extend(adaptive_figures.metrics());

    // ---- Scalar filter and arithmetic substrates over recordings.
    let recs: Vec<Recorded> = match workload {
        Workload::ReplaySubstrates => record_roster(&lanes, 0),
        _ => sample(&lanes, PROBE_VEHICLES)
            .iter()
            .map(|spec| record_prefix(spec, PROBE_TICKS))
            .collect(),
    };
    out.extend(filter_probes(&recs, &out_dir, name, checks));

    // ---- Executor and trace summary.
    out.push(metric("exec.empty_epoch_us", empty_epoch_us(), "us"));
    out.push(metric(
        "exec.steals_per_epoch",
        profile.steals as f64 / profile.epochs as f64,
        "count",
    ));
    out.push(metric("exec.scaling_ratio", scaling, "ratio"));
    out.push(metric(
        "trace.attributed_ratio",
        attributed_per_vtick / one_ns_per_vtick,
        "ratio",
    ));
    out.push(metric(
        "trace.overhead_ratio",
        traced_wall / one_wall,
        "ratio",
    ));
    out.push(metric(
        "trace.unattributed_ns_per_vtick",
        unattributed,
        "ns",
    ));
    out
}

/// Every `len / n`-th spec (at most `n`).
fn sample(specs: &[ScenarioSpec], n: usize) -> Vec<ScenarioSpec> {
    let stride = specs.len().div_ceil(n).max(1);
    specs.iter().step_by(stride).cloned().collect()
}

/// A measurement staged at its dispatch point, waiting for its lane
/// group's batched flush (exactly what the fleet arena stages).
#[derive(Clone, Copy)]
struct Staged {
    z: Vec2,
    f_b: [f64; 3],
    time_s: f64,
    dt: f64,
}

struct RebuiltVehicle {
    source: Box<dyn SensorSource>,
    comms: bool,
    prep: ImuPrep<F64Arith>,
    monitor: Option<ResidualMonitor>,
    lever_arm: Vec3,
    /// The tick the fleet admitted it at.
    start: u64,
    clock: f64,
    last_update_time: f64,
    exhausted: bool,
    staged: Option<Staged>,
}

/// What the rebuild counts while it runs.
#[derive(Default)]
struct Counters {
    /// Lane vehicles polled.
    lane_ticks: u64,
    events: u64,
    /// Lanes carrying a measurement in a flushed group, and lanes the
    /// masked batch executed (the group width per flush).
    active_lanes: u64,
    executed_lanes: u64,
}

fn enter(tracer: &mut Option<&mut Tracer>, name: u16) {
    if let Some(t) = tracer {
        t.enter(name);
    }
}

fn exit(tracer: &mut Option<&mut Tracer>) {
    if let Some(t) = tracer {
        t.exit();
    }
}

struct RebuiltShard {
    vehicles: Vec<RebuiltVehicle>,
    groups: Vec<LaneIekf<F64Arith, L>>,
    front: F64Arith,
    frames: Vec<(u32, SensorEvent)>,
    scratch: Vec<SensorEvent>,
}

impl RebuiltShard {
    /// One shard epoch: ingest every live source one tick, then
    /// dispatch the frames slot-major with per-group masked flushes.
    /// Returns the vehicles it advanced.
    fn tick(&mut self, tick: u64, counters: &mut Counters, mut tracer: Option<&mut Tracer>) -> u64 {
        enter(&mut tracer, SHARD_EPOCH);
        self.frames.clear();
        let mut advanced = 0;
        for (s, v) in self.vehicles.iter_mut().enumerate() {
            if v.start > tick {
                continue;
            }
            advanced += 1;
            if v.exhausted {
                continue;
            }
            v.clock += TICK;
            self.scratch.clear();
            enter(&mut tracer, if v.comms { COMMS_POLL } else { SENSORS_POLL });
            v.source.poll(v.clock, &mut self.scratch);
            exit(&mut tracer);
            self.frames
                .extend(self.scratch.iter().map(|e| (s as u32, *e)));
            v.exhausted = v.source.is_exhausted();
            counters.lane_ticks += 1;
        }
        counters.events += self.frames.len() as u64;
        let mut cur_group = usize::MAX;
        for i in 0..self.frames.len() {
            let (s, event) = self.frames[i];
            let s = s as usize;
            let g = s / L;
            if g != cur_group {
                if cur_group != usize::MAX {
                    self.flush(cur_group, counters, &mut tracer);
                }
                cur_group = g;
            }
            match event {
                SensorEvent::Dmu(sample) => {
                    enter(&mut tracer, IMU_PREP);
                    self.vehicles[s].prep.on_dmu(&mut self.front, &sample);
                    exit(&mut tracer);
                }
                SensorEvent::Acc { time_s, z, .. } => {
                    if self.vehicles[s].staged.is_some() {
                        self.flush(g, counters, &mut tracer);
                    }
                    let v = &mut self.vehicles[s];
                    enter(&mut tracer, IMU_PREP);
                    let f_b = v
                        .prep
                        .compensated_force(&mut self.front, time_s, v.lever_arm);
                    exit(&mut tracer);
                    if let Some(f_b) = f_b {
                        let dt = (time_s - v.last_update_time).max(0.0);
                        v.last_update_time = time_s;
                        v.staged = Some(Staged { z, f_b, time_s, dt });
                    }
                }
            }
        }
        if cur_group != usize::MAX {
            self.flush(cur_group, counters, &mut tracer);
        }
        exit(&mut tracer);
        advanced
    }

    /// One group's staged lanes through a masked predict + update.
    fn flush(&mut self, g: usize, counters: &mut Counters, tracer: &mut Option<&mut Tracer>) {
        let base = g * L;
        let top = (base + L).min(self.vehicles.len());
        let mut active = [false; L];
        let mut zs = [Vec2::zeros(); L];
        let mut times = [0.0; L];
        let mut dts = [0.0; L];
        let mut fbs = [[0.0; L]; 3];
        let mut any = false;
        for (lane, v) in self.vehicles[base..top].iter_mut().enumerate() {
            if let Some(m) = v.staged.take() {
                active[lane] = true;
                any = true;
                zs[lane] = m.z;
                times[lane] = m.time_s;
                dts[lane] = m.dt;
                for (axis, fb) in fbs.iter_mut().enumerate() {
                    fb[lane] = m.f_b[axis];
                }
            }
        }
        if !any {
            return;
        }
        counters.active_lanes += active.iter().filter(|&&a| a).count() as u64;
        counters.executed_lanes += L as u64;
        let group = &mut self.groups[g];
        enter(tracer, LANES_PREDICT);
        group.predict_lanes(&dts);
        exit(tracer);
        enter(tracer, LANES_UPDATE);
        let records = group.update_lanes_masked(&zs, fbs, &times, &active);
        exit(tracer);
        for (lane, record) in records.iter().enumerate() {
            let Some(update) = record else { continue };
            if let Some(retune) = self.vehicles[base + lane]
                .monitor
                .as_mut()
                .and_then(|m| m.observe(update))
            {
                group.set_measurement_sigma(lane, retune.new_sigma);
            }
        }
    }
}

/// One fleet epoch rebuilt from public calls, single-threaded.
struct Rebuild {
    shards: Vec<RebuiltShard>,
    /// Fleet id of every (shard, slot).
    ids: Vec<Vec<VehicleId>>,
    /// Sideband sessions: (fleet id, session, first tick).
    adaptive: Vec<(VehicleId, FusionSession, u64)>,
    counters: Counters,
    /// Ticks run so far.
    tick: u64,
    vehicle_ticks: u64,
}

impl Rebuild {
    /// Mirrors a freshly admitted fleet: every initial lane vehicle in
    /// admission order, placed by the fleet's rule (least-loaded shard,
    /// ties to the lowest index), starting at the tick it was admitted;
    /// every sideband vehicle likewise.
    fn new(served: &Served) -> Self {
        let filter_config = served.fleet.config().filter;
        let mut shards: Vec<RebuiltShard> = (0..SHARDS)
            .map(|_| RebuiltShard {
                vehicles: Vec::new(),
                groups: Vec::new(),
                front: F64Arith::default(),
                frames: Vec::with_capacity(4096),
                scratch: Vec::with_capacity(64),
            })
            .collect();
        let mut ids = vec![Vec::new(); SHARDS];
        for (id, spec, start) in served.initial_lanes() {
            let (s, _) = shards
                .iter()
                .enumerate()
                .min_by_key(|(i, sh)| (sh.vehicles.len(), *i))
                .expect("at least one shard");
            let shard = &mut shards[s];
            let slot = shard.vehicles.len();
            if slot.is_multiple_of(L) {
                shard
                    .groups
                    .push(LaneIekf::with_arith(F64Arith::default(), filter_config));
            }
            let estimator = spec.tuning.estimator_config();
            let group = &mut shard.groups[slot / L];
            group.reset_lane(slot % L);
            group.set_measurement_sigma(slot % L, estimator.filter.measurement_sigma);
            ids[s].push(id);
            shard.vehicles.push(RebuiltVehicle {
                source: spec.into_source(spec.lower_trajectory()),
                comms: matches!(spec.channel, ChannelSpec::Comms { .. }),
                prep: ImuPrep::new(&mut shard.front),
                monitor: estimator
                    .monitor
                    .map(|m| ResidualMonitor::new(m, estimator.filter.measurement_sigma)),
                lever_arm: estimator.lever_arm,
                start,
                clock: 0.0,
                last_update_time: 0.0,
                exhausted: false,
                staged: None,
            });
        }
        let adaptive = served
            .adaptive
            .iter()
            .map(|(id, spec, start)| {
                let session = spec.into_adaptive_session(
                    spec.lower_trajectory(),
                    SubstrateId::Q16_16,
                    Box::new(HysteresisPolicy::default()),
                );
                (*id, session, *start)
            })
            .collect();
        Self {
            shards,
            ids,
            adaptive,
            counters: Counters::default(),
            tick: 0,
            vehicle_ticks: 0,
        }
    }

    /// One epoch in the fleet's inline (one-worker) order: every shard
    /// ingests then computes, then the sideband advances.
    fn tick(&mut self, mut tracer: Option<&mut Tracer>) {
        for shard in &mut self.shards {
            self.vehicle_ticks += shard.tick(self.tick, &mut self.counters, tracer.as_deref_mut());
        }
        for (_, session, start) in &mut self.adaptive {
            if *start <= self.tick {
                enter(&mut tracer, ADAPTIVE_RUN_FOR);
                session.run_for(TICK);
                exit(&mut tracer);
                self.vehicle_ticks += 1;
            }
        }
        self.tick += 1;
    }

    fn reset_counters(&mut self) {
        self.counters = Counters::default();
        self.vehicle_ticks = 0;
    }

    /// The rebuild must reproduce the real fleet bit for bit: every lane
    /// vehicle's estimate and every sideband session's.
    fn check_against(&self, served: &Served, checks: &mut Checks) {
        for (shard, ids) in self.shards.iter().zip(&self.ids) {
            for (slot, &id) in ids.iter().enumerate() {
                let rebuilt = shard.groups[slot / L].estimate(slot % L);
                let real = served.fleet.estimate(id);
                checks.check(real.is_some_and(|e| same_bits(&e, &rebuilt)), || {
                    format!("traced rebuild of lane vehicle {id} differs from the fleet")
                });
            }
        }
        for (id, session, _) in &self.adaptive {
            let real = served.fleet.estimate(*id);
            checks.check(
                real.is_some_and(|e| same_bits(&e, &session.estimate())),
                || format!("traced rebuild of sideband vehicle {id} differs from the fleet"),
            );
        }
    }

    /// Frame errors over frames seen, across every comms-chain source.
    fn frame_error_ratio(&self) -> f64 {
        let (mut errors, mut frames) = (0u64, 0u64);
        for v in self.shards.iter().flat_map(|s| &s.vehicles) {
            if let Some(st) = v.source.stream_stats() {
                let e = st.dmu_errors + st.acc_errors;
                errors += e;
                frames += st.dmu_samples + st.acc_samples + e;
            }
        }
        if frames == 0 {
            0.0
        } else {
            errors as f64 / frames as f64
        }
    }
}

/// The ideal-channel twin (same spec and seed) of every comms vehicle:
/// its poll time is the generation share of a comms poll.
struct Twins {
    sources: Vec<Box<dyn SensorSource>>,
    clock: f64,
    scratch: Vec<SensorEvent>,
}

impl Twins {
    fn new(lanes: &[ScenarioSpec]) -> Self {
        let sources = lanes
            .iter()
            .filter(|s| matches!(s.channel, ChannelSpec::Comms { .. }))
            .map(|spec| {
                let twin = spec.clone().with_channel(ChannelSpec::Ideal);
                twin.into_source(twin.lower_trajectory())
            })
            .collect();
        Self {
            sources,
            clock: 0.0,
            scratch: Vec::with_capacity(64),
        }
    }

    /// Polls every twin `ticks` ticks; returns the poll time, ns, less
    /// the timer's own cost per poll.
    fn advance(&mut self, ticks: u64, timer_cost_ns: f64) -> f64 {
        let mut total = 0.0;
        for _ in 0..ticks {
            self.clock += TICK;
            for source in &mut self.sources {
                self.scratch.clear();
                let t0 = Instant::now();
                source.poll(self.clock, &mut self.scratch);
                total += t0.elapsed().as_nanos() as f64 - timer_cost_ns;
            }
        }
        total
    }
}

/// Sideband figures, from sessions run under `AdaptiveBackend`.
struct AdaptiveFigures {
    ns_per_vtick: f64,
    switches: u64,
    saturations: u64,
    softfloat_tick_share: f64,
}

impl AdaptiveFigures {
    fn from_sessions(sessions: &[&FusionSession], run_for_ns: f64, ticks: u64) -> Self {
        let (mut switches, mut saturations, mut soft_s, mut total_s) = (0, 0, 0.0, 0.0);
        for session in sessions {
            let backend = session
                .backend_as::<AdaptiveBackend>()
                .expect("adaptive sessions run AdaptiveBackend");
            switches += backend.switch_count();
            saturations += backend.total_saturations();
            soft_s += time_on(
                backend.ledger(),
                backend.initial_substrate(),
                session.time_s(),
                SubstrateId::Softfloat,
            );
            total_s += session.time_s();
        }
        Self {
            ns_per_vtick: ns_per_vtick(run_for_ns, sessions.len() as u64 * ticks),
            switches,
            saturations,
            softfloat_tick_share: soft_s / total_s,
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("adaptive.run_for_ns_per_vtick", self.ns_per_vtick, "ns"),
            metric("adaptive.switches", self.switches as f64, "count"),
            metric("adaptive.saturations", self.saturations as f64, "count"),
            metric(
                "adaptive.softfloat_tick_share",
                self.softfloat_tick_share,
                "ratio",
            ),
        ]
    }
}

/// Stream time a session spent on `target`, walking its switch ledger
/// from the initial substrate up to `end_s`.
fn time_on(ledger: &ReconfigLedger, initial: SubstrateId, end_s: f64, target: SubstrateId) -> f64 {
    let (mut current, mut since, mut total) = (initial, 0.0, 0.0);
    for event in ledger.events() {
        if current == target {
            total += event.at_time_s - since;
        }
        current = event.to;
        since = event.at_time_s;
    }
    if current == target {
        total += end_s - since;
    }
    total
}

/// Standalone adaptive sessions for workloads without a sideband.
fn adaptive_probe(specs: &[ScenarioSpec]) -> AdaptiveFigures {
    let mut sessions: Vec<FusionSession> = specs
        .iter()
        .map(|spec| {
            spec.into_adaptive_session(
                spec.lower_trajectory(),
                SubstrateId::Q16_16,
                Box::new(HysteresisPolicy::default()),
            )
        })
        .collect();
    let mut ns = 0.0;
    for tick in 0..WARMUP_TICKS + PROBE_TICKS {
        for session in &mut sessions {
            let t0 = Instant::now();
            session.run_for(TICK);
            if tick >= WARMUP_TICKS {
                ns += t0.elapsed().as_nanos() as f64;
            }
        }
    }
    AdaptiveFigures::from_sessions(&sessions.iter().collect::<Vec<_>>(), ns, PROBE_TICKS)
}

/// What the traced estimator rebuild measured over one recording.
#[derive(Default)]
struct FilterProbe {
    updates: u64,
    accepted: u64,
    cycles: [u64; 3],
    saturations: u64,
}

/// `GenericBoresightEstimator::on_dmu`/`on_acc` rebuilt from the public
/// pieces with spans around the IMU front end, predict and update.
fn traced_estimator<A: Arith + Default + Clone>(
    spec: &ScenarioSpec,
    recording: &boresight::replay::Recording,
    tracer: &mut Tracer,
) -> (MisalignmentEstimate, FilterProbe) {
    let cfg = spec.config().estimator;
    let mut filter = GenericBoresightFilter::with_arith(A::default(), cfg.filter);
    let mut prep = ImuPrep::new(filter.arith_mut());
    let mut monitor = cfg
        .monitor
        .map(|m| ResidualMonitor::new(m, cfg.filter.measurement_sigma));
    let mut last_update_time = 0.0;
    let mut probe = FilterProbe::default();
    for event in recording.events() {
        match *event {
            SensorEvent::Dmu(ref sample) => {
                tracer.enter(F_PREP);
                prep.on_dmu(filter.arith_mut(), sample);
                tracer.exit();
            }
            SensorEvent::Acc { time_s, z, .. } => {
                tracer.enter(F_PREP);
                let f_b = prep.compensated_force(filter.arith_mut(), time_s, cfg.lever_arm);
                tracer.exit();
                let Some(f_b) = f_b else { continue };
                let dt = (time_s - last_update_time).max(0.0);
                last_update_time = time_s;
                tracer.enter(F_PREDICT);
                filter.predict(dt);
                tracer.exit();
                tracer.enter(F_UPDATE);
                let update = filter.update_t(z, f_b, time_s);
                tracer.exit();
                probe.updates += 1;
                if let Some(retune) = monitor.as_mut().and_then(|m| m.observe(&update)) {
                    filter.set_measurement_sigma(retune.new_sigma);
                }
            }
        }
    }
    let ledger = filter.phase_ledger();
    probe.cycles = [
        ledger.predict.cycles,
        ledger.gate.cycles,
        ledger.update.cycles,
    ];
    probe.accepted = filter.update_count();
    probe.saturations = filter.arith().saturations();
    let estimate = MisalignmentEstimate {
        angles: filter.angles(),
        one_sigma: filter.angle_sigma(),
        updates: filter.update_count(),
    };
    (estimate, probe)
}

/// Per-substrate scalar filter figures: an untraced session replay of
/// every recording, then the traced estimator rebuild, which must match
/// the session bit for bit.
fn filter_probes(
    recs: &[Recorded],
    out_dir: &std::path::Path,
    workload: &str,
    checks: &mut Checks,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let events: usize = recs.iter().map(|r| r.recording.event_count()).sum();
    for sub in SUBSTRATES {
        let mut tracer = Tracer::new(FILTER_SPANS, 2 * events);
        let mut total = FilterProbe::default();
        let mut session_ns = 0.0;
        let mut session_updates = 0;
        // Untraced session and traced rebuild take turns per recording,
        // so both see the same host conditions.
        for rec in recs {
            let mut session =
                replay_spec_session(&rec.spec.clone().with_substrate(sub), &rec.recording);
            let t0 = Instant::now();
            while !session.is_finished() {
                session.step(TICK);
            }
            session_ns += t0.elapsed().as_nanos() as f64;
            session_updates += session.stats().updates;
            let (estimate, probe) = match sub {
                Substrate::F64 => {
                    traced_estimator::<F64Arith>(&rec.spec, &rec.recording, &mut tracer)
                }
                Substrate::Softfloat => {
                    traced_estimator::<SoftArith>(&rec.spec, &rec.recording, &mut tracer)
                }
                _ => traced_estimator::<QArith<16>>(&rec.spec, &rec.recording, &mut tracer),
            };
            checks.check(same_bits(&estimate, &session.estimate()), || {
                format!(
                    "{} on {sub}: traced estimator differs from the session",
                    rec.spec.name
                )
            });
            total.updates += probe.updates;
            total.accepted += probe.accepted;
            total.saturations += probe.saturations;
            for (sum, c) in total.cycles.iter_mut().zip(probe.cycles) {
                *sum += c;
            }
        }
        checks.check(total.updates == session_updates, || {
            format!(
                "{sub}: traced estimator made {} updates, sessions {session_updates}",
                total.updates
            )
        });
        let _ = std::fs::write(
            out_dir.join(format!("trace-{workload}-filter-{}.csv", suffix(sub))),
            tracer.to_csv(),
        );
        let totals = tracer.totals();
        let per_update = |ns: f64| ns / total.updates as f64;
        let sfx = suffix(sub);
        out.push(metric(
            format!("filter.predict_ns.{sfx}"),
            per_update(totals[F_PREDICT as usize].1),
            "ns",
        ));
        out.push(metric(
            format!("filter.update_ns.{sfx}"),
            per_update(totals[F_UPDATE as usize].1),
            "ns",
        ));
        out.push(metric(
            format!("filter.accept_ratio.{sfx}"),
            total.accepted as f64 / total.updates as f64,
            "ratio",
        ));
        if sub != Substrate::F64 {
            for (phase, cycles) in ["predict", "gate", "update"].iter().zip(total.cycles) {
                out.push(metric(
                    format!("filter.cycles_{phase}.{sfx}"),
                    cycles as f64 / total.updates as f64,
                    "cycles",
                ));
            }
        }
        match sub {
            Substrate::F64 => {
                let traced: f64 = totals.iter().map(|t| t.1).sum();
                out.push(metric(
                    "session.overhead_ns_per_update.f64",
                    (session_ns - traced) / session_updates as f64,
                    "ns",
                ));
            }
            Substrate::Q16_16 => {
                out.push(metric(
                    "arith.saturations.q16_16",
                    total.saturations as f64,
                    "count",
                ));
            }
            _ => {}
        }
    }
    out
}

/// Median wall time of an empty `Pool::run_epoch` on the fleet's worker
/// count: the pool's wake-plus-barrier floor.
fn empty_epoch_us() -> f64 {
    let pool = Pool::new(WORKERS);
    for _ in 0..200 {
        pool.run_epoch(|_| {});
    }
    let mut us: Vec<f64> = (0..4000)
        .map(|_| {
            let t0 = Instant::now();
            pool.run_epoch(|_| {});
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&mut us)
}
