//! The two fleet workloads: `fleet-steady` (capacity) and `fleet-churn`
//! (admission, eviction and the adaptive sideband).

use crate::roster::{self, SHARDS, TICK};
use crate::stats::Checks;
use boresight::adaptive::{HysteresisPolicy, SubstrateId};
use boresight::arith::F64Arith;
use boresight::fleet::{Fleet, FleetConfig, VehicleId, DEFAULT_PROFILE_WINDOW};
use boresight::oracle::FusionOracle;
use boresight::spec::{ScenarioSpec, Substrate};
use boresight::FusionSession;
use std::collections::HashMap;
use std::time::Instant;

type LaneFleet = Fleet<F64Arith, 8>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetKind {
    Steady,
    Churn,
}

fn new_fleet() -> LaneFleet {
    Fleet::new(FleetConfig {
        shards: SHARDS,
        tick_dt: TICK,
        ..FleetConfig::default()
    })
}

/// A fleet plus what the benchmark needs to drive and check it.
pub struct Served {
    pub fleet: LaneFleet,
    kind: FleetKind,
    seed: u64,
    workers: usize,
    /// Lane vehicle id -> (spec, epoch it was admitted at).
    lanes: HashMap<u64, (ScenarioSpec, u64)>,
    /// The initial lane roster's ids in admission order.
    order: Vec<VehicleId>,
    /// Sideband vehicles in admission order: (id, spec, epoch admitted).
    pub adaptive: Vec<(VehicleId, ScenarioSpec, u64)>,
    /// Lane vehicles admitted so far (the churn roster index).
    next_k: usize,
    seen_completed: usize,
    /// Wall time of every `Fleet::admit` call, microseconds.
    pub admit_us: Vec<f64>,
}

impl Served {
    /// Admits `lanes` into the lane arena and `adaptive` onto the
    /// sideband (starting on q16.16 under the hysteresis policy), in two
    /// waves one epoch apart: even-indexed vehicles first, odd-indexed
    /// ones after the first epoch. DMU samples arrive every other tick,
    /// so a fleet admitted in one wave would alternate heavy and light
    /// epochs in lockstep; two waves give every epoch half the fleet's
    /// DMU samples, as unsynchronised vehicles on the road would.
    pub fn with_roster(
        kind: FleetKind,
        seed: u64,
        lanes: Vec<ScenarioSpec>,
        adaptive: Vec<ScenarioSpec>,
        workers: usize,
    ) -> Self {
        let mut served = Self {
            fleet: new_fleet(),
            kind,
            seed,
            workers,
            lanes: HashMap::new(),
            order: Vec::new(),
            adaptive: Vec::new(),
            next_k: 0,
            seen_completed: 0,
            admit_us: Vec::new(),
        };
        for wave in 0..2 {
            if wave == 1 {
                served.fleet.run_epochs(1, workers);
            }
            for spec in lanes.iter().skip(wave).step_by(2) {
                let id = served.admit_lane(spec.clone());
                served.order.push(id);
            }
            for spec in adaptive.iter().skip(wave).step_by(2) {
                let id = served.fleet.admit_adaptive(
                    spec,
                    SubstrateId::Q16_16,
                    Box::new(HysteresisPolicy::default()),
                );
                served
                    .adaptive
                    .push((id, spec.clone(), served.fleet.epoch()));
            }
        }
        served
    }

    /// The initial lane roster in admission order: (id, spec, epoch
    /// admitted).
    pub fn initial_lanes(&self) -> impl Iterator<Item = (VehicleId, &ScenarioSpec, u64)> {
        self.order
            .iter()
            .filter_map(|id| self.lanes.get(&id.0).map(|(spec, at)| (*id, spec, *at)))
    }

    fn admit_lane(&mut self, spec: ScenarioSpec) -> VehicleId {
        let t0 = Instant::now();
        let id = self
            .fleet
            .admit(&spec)
            .expect("catalog tuning is lane-compatible");
        self.admit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        self.lanes.insert(id.0, (spec, self.fleet.epoch()));
        self.next_k += 1;
        id
    }

    fn admit_next_churn(&mut self) {
        let spec = roster::churn_lane_spec(self.seed, self.next_k);
        self.admit_lane(spec);
    }

    /// Barrier work for churn: every lane vehicle that completed is
    /// replaced by a freshly admitted one.
    fn replace_completed(&mut self) {
        let done = self.fleet.completed().len();
        for i in self.seen_completed..done {
            let id = self.fleet.completed()[i].id;
            if self.lanes.remove(&id.0).is_some() && self.kind == FleetKind::Churn {
                self.admit_next_churn();
            }
        }
        self.seen_completed = done;
    }

    /// Runs `epochs` epochs, logging each one.
    ///
    /// `fleet-steady` runs one `run_epochs` call per profile window
    /// ([`DEFAULT_PROFILE_WINDOW`] epochs), so pipelined ingest stays on
    /// and no epoch sample is overwritten before it is read.
    /// `fleet-churn` runs one epoch per call, replacing completed
    /// vehicles on each barrier; the samples are read out whenever the
    /// profile window fills. Either way the fleet's epoch profile covers
    /// the last window of the run afterwards.
    pub fn run(&mut self, epochs: u64, log: &mut EpochLog) {
        let mut left = epochs;
        self.fleet.reset_epoch_profile();
        match self.kind {
            FleetKind::Steady => {
                while left > 0 {
                    let chunk = left.min(DEFAULT_PROFILE_WINDOW as u64);
                    let vehicles = self.fleet.len() as u64;
                    self.fleet.reset_epoch_profile();
                    self.fleet.run_epochs(chunk as usize, self.workers);
                    for sample in self.fleet.epoch_samples() {
                        log.push(sample.wall_us, sample.wall_us, vehicles);
                    }
                    left -= chunk;
                }
                self.replace_completed();
            }
            FleetKind::Churn => {
                let mut served_us = Vec::with_capacity(DEFAULT_PROFILE_WINDOW);
                while left > 0 {
                    let vehicles = self.fleet.len() as u64;
                    let t0 = Instant::now();
                    self.fleet.run_epochs(1, self.workers);
                    self.replace_completed();
                    served_us.push((t0.elapsed().as_secs_f64() * 1e6, vehicles));
                    left -= 1;
                    if served_us.len() == DEFAULT_PROFILE_WINDOW || left == 0 {
                        for (sample, &(us, vehicles)) in
                            self.fleet.epoch_samples().iter().zip(&served_us)
                        {
                            log.push(sample.wall_us, us, vehicles);
                        }
                        served_us.clear();
                        if left > 0 {
                            self.fleet.reset_epoch_profile();
                        }
                    }
                }
            }
        }
    }

    /// Picks up to `max` resident lane vehicles that have served at
    /// least `min_ticks` ticks, spread evenly over the directory, and
    /// captures everything the standalone-session comparison needs.
    pub fn sample(&self, max: usize, min_ticks: u64) -> Vec<Sampled> {
        let now = self.fleet.epoch();
        let mut eligible: Vec<VehicleId> = self
            .fleet
            .resident_ids()
            .into_iter()
            .filter(|id| {
                self.lanes
                    .get(&id.0)
                    .is_some_and(|(_, at)| now - at >= min_ticks)
            })
            .collect();
        eligible.sort();
        let stride = eligible.len().div_ceil(max).max(1);
        eligible
            .into_iter()
            .step_by(stride)
            .map(|id| {
                let (spec, at) = &self.lanes[&id.0];
                Sampled {
                    id,
                    spec: spec.clone(),
                    ticks: now - at,
                    bits: fleet_bits(&self.fleet, id),
                }
            })
            .collect()
    }

    /// Fusion-oracle checks on the sampled estimates and on every
    /// adaptive vehicle's estimate and reconfiguration ledger.
    pub fn oracle_checks(&self, sampled: &[Sampled], checks: &mut Checks) {
        let oracle = FusionOracle::default();
        for s in sampled {
            let est = self
                .fleet
                .estimate(s.id)
                .expect("sampled vehicle is resident");
            let verdicts = oracle.check_estimate(&est, Substrate::F64);
            checks.check(verdicts.is_empty(), || {
                format!("{}: oracle {verdicts:?}", s.id)
            });
        }
        for (id, _, _) in &self.adaptive {
            let (Some(est), Some(ledger)) =
                (self.fleet.estimate(*id), self.fleet.adaptive_ledger(*id))
            else {
                checks.check(false, || format!("adaptive {id} left the fleet"));
                continue;
            };
            let verdicts = oracle.check_estimate(&est, Substrate::Adaptive);
            let ledger_verdict = oracle.check_ledger(ledger, SubstrateId::Q16_16, est.updates);
            checks.check(verdicts.is_empty() && ledger_verdict.is_none(), || {
                format!("adaptive {id}: oracle {verdicts:?} {ledger_verdict:?}")
            });
        }
    }
}

/// Epochs per throughput block.
const BLOCK_EPOCHS: usize = 25;

/// What the benchmark saw of each epoch it ran.
#[derive(Debug, Default)]
pub struct EpochLog {
    /// Wall time of each epoch from the fleet's own profiler, ms.
    pub epoch_ms: Vec<f64>,
    /// Time each epoch took to serve as the benchmark saw it (churn adds
    /// the barrier's replacement admissions), ms, and the vehicles it
    /// advanced.
    pub served: Vec<(f64, u64)>,
}

impl EpochLog {
    fn push(&mut self, epoch_us: f64, served_us: f64, vehicles: u64) {
        self.epoch_ms.push(epoch_us * 1e-3);
        self.served.push((served_us * 1e-3, vehicles));
    }

    /// Serving wall time, seconds, and vehicle-ticks over every epoch.
    pub fn totals(&self) -> (f64, u64) {
        self.served
            .iter()
            .fold((0.0, 0), |(s, v), &(ms, n)| (s + ms * 1e-3, v + n))
    }

    /// Vehicle-ticks served per second: the median over
    /// [`BLOCK_EPOCHS`]-epoch blocks.
    pub fn vehicle_ticks_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .served
            .chunks(BLOCK_EPOCHS)
            .map(|block| {
                let (ms, n) = block
                    .iter()
                    .fold((0.0, 0), |(s, v), &(ms, n)| (s + ms, v + n));
                n as f64 / (ms * 1e-3)
            })
            .collect();
        crate::stats::median(&mut rates)
    }
}

/// A fleet vehicle captured at a checkpoint.
pub struct Sampled {
    pub id: VehicleId,
    pub spec: ScenarioSpec,
    /// Ticks it had been served when sampled.
    pub ticks: u64,
    pub bits: Vec<u64>,
}

/// Every per-vehicle observable the fleet exposes, bit-packed.
fn fleet_bits(fleet: &LaneFleet, id: VehicleId) -> Vec<u64> {
    let est = fleet.estimate(id).expect("resident");
    let stats = fleet.vehicle_stats(id).expect("resident");
    vec![
        est.angles.roll.to_bits(),
        est.angles.pitch.to_bits(),
        est.angles.yaw.to_bits(),
        est.one_sigma[0].to_bits(),
        est.one_sigma[1].to_bits(),
        est.one_sigma[2].to_bits(),
        est.updates,
        stats.events,
        stats.updates,
        stats.exceeded,
        fleet.retune_count(id).expect("resident"),
        fleet.measurement_sigma(id).expect("resident").to_bits(),
        fleet.local_time(id).expect("resident").to_bits(),
    ]
}

/// The same observables read off a standalone scalar session.
fn session_bits(spec: &ScenarioSpec, session: &FusionSession) -> Vec<u64> {
    let est = session.estimate();
    let stats = session.stats();
    let sigma = session.retunes().last().map_or(
        spec.tuning.estimator_config().filter.measurement_sigma,
        |r| r.new_sigma,
    );
    vec![
        est.angles.roll.to_bits(),
        est.angles.pitch.to_bits(),
        est.angles.yaw.to_bits(),
        est.one_sigma[0].to_bits(),
        est.one_sigma[1].to_bits(),
        est.one_sigma[2].to_bits(),
        est.updates,
        stats.events,
        stats.updates,
        stats.exceeded,
        session.retunes().len() as u64,
        sigma.to_bits(),
        session.time_s().to_bits(),
    ]
}

/// Re-runs every sampled vehicle as a standalone scalar session: the
/// fleet's bit-identity contract.
pub fn verify_sampled(sampled: &[Sampled], checks: &mut Checks) {
    for s in sampled {
        let mut session = s.spec.into_session(s.spec.lower_trajectory());
        for _ in 0..s.ticks {
            session.step(TICK);
        }
        checks.check(session_bits(&s.spec, &session) == s.bits, || {
            format!(
                "{} ({}): fleet differs from its standalone session",
                s.id, s.spec.name
            )
        });
    }
}
