//! Recorded streams replayed through scalar sessions on f64, softfloat
//! and q16.16, in lockstep epochs.
//!
//! One epoch advances every replay session one [`TICK`]; within it each
//! substrate's block of sessions is timed on its own, so the softfloat
//! cost (about 40x f64 per update) cannot hide an f64 change.

use crate::roster::TICK;
use crate::stats::{thread_cpu_s, Checks};
use boresight::estimator::MisalignmentEstimate;
use boresight::oracle::FusionOracle;
use boresight::replay::{record_spec, replay_spec_session, Recording, RecordingSink};
use boresight::spec::{ScenarioSpec, Substrate};
use boresight::FusionSession;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The substrates every replay runs on, in report order.
pub const SUBSTRATES: [Substrate; 3] = [Substrate::F64, Substrate::Softfloat, Substrate::Q16_16];

/// Metric-name suffix of a substrate (`q16.16` is not a valid name
/// character run everywhere, so it is spelled `q16_16`).
pub fn suffix(substrate: Substrate) -> &'static str {
    match substrate {
        Substrate::F64 => "f64",
        Substrate::Softfloat => "softfloat",
        Substrate::Q16_16 => "q16_16",
        Substrate::Adaptive => "adaptive",
    }
}

/// One recorded stream plus what replaying it on f64 must reproduce.
pub struct Recorded {
    pub spec: ScenarioSpec,
    pub recording: Recording,
    /// The original run's final estimate.
    pub estimate: MisalignmentEstimate,
    /// The original batch result's converged-half RMS error (when the
    /// original ran to the end of its stream).
    pub rms_deg: Option<f64>,
    /// Part of the fixed accuracy panel ([`crate::roster::panel`]):
    /// accuracy and cycle figures are read off panel recordings only.
    pub panel: bool,
}

/// Records `spec` to the end of its stream (the replay-substrates set-up).
pub fn record_full(spec: &ScenarioSpec) -> Recorded {
    let (result, recording) = record_spec(spec);
    Recorded {
        spec: spec.clone(),
        estimate: result.estimate,
        rms_deg: Some(result.error_rms_deg()),
        recording,
        panel: false,
    }
}

/// Records every spec to the end of its stream; the first `panel`
/// recordings form the accuracy panel.
pub fn record_roster(specs: &[ScenarioSpec], panel: usize) -> Vec<Recorded> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| Recorded {
            panel: i < panel,
            ..record_full(spec)
        })
        .collect()
}

/// Runs `spec` as a standalone scalar session for `ticks` fleet ticks
/// while recording that prefix of its stream.
pub fn record_prefix(spec: &ScenarioSpec, ticks: u64) -> Recorded {
    let cfg = spec.config();
    let sink = Arc::new(Mutex::new(RecordingSink::new(
        1.0 / cfg.acc_rate_hz,
        ticks as f64 * TICK,
    )));
    let mut session = spec
        .session_builder(spec.lower_trajectory())
        .sink(Arc::clone(&sink))
        .build();
    for _ in 0..ticks {
        session.step(TICK);
    }
    let mut recording = sink.lock().expect("recording sink").recording().clone();
    recording.annotate_from_session(&session);
    Recorded {
        spec: spec.clone(),
        recording,
        estimate: session.estimate(),
        rms_deg: None,
        panel: false,
    }
}

/// Lockstep epochs per throughput block (see
/// [`crate::stats::sustained_rate`]).
const BLOCK_EPOCHS: usize = 200;

/// One substrate's figures over the timed replay passes.
#[derive(Clone, Debug, Default)]
pub struct SubstrateFigures {
    /// Updates per second of the replaying thread's CPU time, per
    /// [`BLOCK_EPOCHS`]-epoch block.
    pub block_rates: Vec<f64>,
    /// Panel measurement updates returned (accepted or gate-rejected),
    /// first pass.
    pub updates: u64,
    /// Panel updates the gate accepted.
    pub accepted: u64,
    /// Panel modelled Sabre cycles (0 on f64, which is not
    /// cycle-modelled).
    pub cycles: u64,
    /// Converged-half RMS error per panel recording, degrees.
    pub rms_deg: Vec<f64>,
}

impl SubstrateFigures {
    pub fn updates_per_s(&self) -> f64 {
        crate::stats::sustained_rate(&self.block_rates)
    }

    pub fn accept_ratio(&self) -> f64 {
        self.accepted as f64 / self.updates as f64
    }

    pub fn cycles_per_update(&self) -> f64 {
        self.cycles as f64 / self.updates as f64
    }

    pub fn median_rms_deg(&self) -> f64 {
        let mut finite: Vec<f64> = self
            .rms_deg
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        crate::stats::median(&mut finite)
    }
}

/// Everything the timed lockstep replay measured.
#[derive(Debug, Default)]
pub struct ReplayFigures {
    pub substrates: [SubstrateFigures; 3],
    /// Wall time of every lockstep epoch, milliseconds.
    pub epoch_ms: Vec<f64>,
    /// Session ticks per second of each block.
    pub tick_rates: Vec<f64>,
    /// Session steps taken (one session advanced one tick).
    pub vehicle_ticks: u64,
    /// Sum of every epoch's wall time, seconds.
    pub wall_s: f64,
    pub passes: usize,
}

impl ReplayFigures {
    pub fn vehicle_ticks_per_s(&self) -> f64 {
        crate::stats::sustained_rate(&self.tick_rates)
    }
}

fn bits(e: &MisalignmentEstimate) -> [u64; 7] {
    [
        e.angles.roll.to_bits(),
        e.angles.pitch.to_bits(),
        e.angles.yaw.to_bits(),
        e.one_sigma[0].to_bits(),
        e.one_sigma[1].to_bits(),
        e.one_sigma[2].to_bits(),
        e.updates,
    ]
}

/// `true` when two estimates agree bit for bit.
pub fn same_bits(a: &MisalignmentEstimate, b: &MisalignmentEstimate) -> bool {
    bits(a) == bits(b)
}

/// Running totals of one throughput block.
#[derive(Default)]
struct Block {
    epochs: usize,
    ticks: u64,
    wall_s: f64,
    /// CPU seconds spent stepping each substrate's sessions.
    busy_s: [f64; 3],
    /// Cumulative session updates per substrate at the block's start.
    updates_at_start: [u64; 3],
}

fn total_updates(block: &[FusionSession]) -> u64 {
    block.iter().map(|s| s.stats().updates).sum()
}

/// Replays every recording on every substrate in lockstep epochs, pass
/// after pass. It advances one epoch at a time, so its timed epochs can
/// be interleaved with other work; session construction between passes
/// is not timed. The first pass is checked: f64 must reproduce each
/// original run bit for bit, softfloat must match f64 bit for bit, and
/// float estimates must pass the fusion oracle; later passes must
/// repeat the first.
pub struct Lockstep<'a> {
    recs: &'a [Recorded],
    oracle: FusionOracle,
    /// Sessions of the pass in flight, per substrate.
    sessions: Vec<Vec<FusionSession>>,
    /// Epoch index within the pass.
    epoch: usize,
    block: Block,
    /// Pass-0 estimate and RMS of every (substrate, recording).
    first_pass: Vec<Vec<MisalignmentEstimate>>,
    first_rms: Vec<Vec<f64>>,
    figures: ReplayFigures,
}

impl<'a> Lockstep<'a> {
    pub fn new(recs: &'a [Recorded]) -> Self {
        Self {
            recs,
            oracle: FusionOracle::default(),
            sessions: Self::sessions(recs),
            epoch: 0,
            block: Block::default(),
            first_pass: Vec::new(),
            first_rms: Vec::new(),
            figures: ReplayFigures::default(),
        }
    }

    fn sessions(recs: &[Recorded]) -> Vec<Vec<FusionSession>> {
        SUBSTRATES
            .iter()
            .map(|&sub| {
                recs.iter()
                    .map(|r| replay_spec_session(&r.spec.clone().with_substrate(sub), &r.recording))
                    .collect()
            })
            .collect()
    }

    /// Epoch time measured so far, seconds.
    pub fn wall_s(&self) -> f64 {
        self.figures.wall_s
    }

    /// Runs one lockstep epoch, or closes the pass when every session
    /// has finished.
    pub fn step(&mut self, checks: &mut Checks) {
        let mut epoch_s = 0.0;
        let mut stepped = 0u64;
        for (s, sessions) in self.sessions.iter_mut().enumerate() {
            let t0 = Instant::now();
            let cpu0 = thread_cpu_s();
            // Odd-indexed recordings start one epoch late, so every
            // epoch carries half the DMU samples (they arrive every
            // other tick) instead of alternating heavy and light.
            for (i, session) in sessions.iter_mut().enumerate() {
                if !session.is_finished() && self.epoch >= i % 2 {
                    session.step(TICK);
                    stepped += 1;
                }
            }
            // Throughput counts CPU time, so time the host steals from
            // the vCPU does not count against a substrate; the epoch's
            // latency is wall time.
            self.block.busy_s[s] += thread_cpu_s() - cpu0;
            let dt = t0.elapsed().as_secs_f64();
            epoch_s += dt;
        }
        self.epoch += 1;
        if stepped > 0 {
            let figures = &mut self.figures;
            figures.vehicle_ticks += stepped;
            figures.wall_s += epoch_s;
            figures.epoch_ms.push(epoch_s * 1e3);
            self.block.epochs += 1;
            self.block.ticks += stepped;
            self.block.wall_s += epoch_s;
        }
        if self.block.epochs == BLOCK_EPOCHS || (stepped == 0 && self.block.epochs > 0) {
            self.close_block();
        }
        if stepped == 0 {
            self.close_pass(checks);
        }
    }

    /// Runs epochs until at least `seconds` of epoch time is measured
    /// and at least one pass is complete.
    pub fn run_for(&mut self, seconds: f64, checks: &mut Checks) {
        while self.figures.wall_s < seconds || self.figures.passes == 0 {
            self.step(checks);
        }
    }

    /// Completes the first pass if it is still running, then hands over
    /// the figures.
    pub fn finish(mut self, checks: &mut Checks) -> ReplayFigures {
        while self.figures.passes == 0 {
            self.step(checks);
        }
        self.figures
    }

    fn close_block(&mut self) {
        let block = &self.block;
        self.figures
            .tick_rates
            .push(block.ticks as f64 / block.wall_s);
        let mut next = Block::default();
        for (s, sessions) in self.sessions.iter().enumerate() {
            next.updates_at_start[s] = total_updates(sessions);
            let done = next.updates_at_start[s] - block.updates_at_start[s];
            self.figures.substrates[s]
                .block_rates
                .push(done as f64 / block.busy_s[s]);
        }
        self.block = next;
    }

    /// Checks the finished pass and starts the next one.
    fn close_pass(&mut self, checks: &mut Checks) {
        let recs = self.recs;
        let sessions = std::mem::replace(&mut self.sessions, Self::sessions(recs));
        self.epoch = 0;
        let pass = self.figures.passes;
        for (s, sessions) in sessions.into_iter().enumerate() {
            let sub = SUBSTRATES[s];
            let mut estimates = Vec::with_capacity(sessions.len());
            let mut rmss = Vec::with_capacity(sessions.len());
            for (i, session) in sessions.into_iter().enumerate() {
                let estimate = session.estimate();
                if pass == 0 {
                    let stats = session.stats();
                    let (_, _, cycles) = sub.read_instrumentation(&session);
                    let rms = session.into_result().error_rms_deg();
                    if recs[i].panel {
                        let fig = &mut self.figures.substrates[s];
                        fig.updates += stats.updates;
                        fig.accepted += estimate.updates;
                        fig.cycles += cycles;
                        fig.rms_deg.push(rms);
                    }
                    let f64_ref = (s > 0).then(|| (&self.first_pass[0][i], self.first_rms[0][i]));
                    check_first_pass(checks, &self.oracle, &recs[i], sub, &estimate, rms, f64_ref);
                    rmss.push(rms);
                } else {
                    checks.check(same_bits(&estimate, &self.first_pass[s][i]), || {
                        format!(
                            "{} on {sub}: pass {pass} differs from pass 0",
                            recs[i].spec.name
                        )
                    });
                }
                estimates.push(estimate);
            }
            if pass == 0 {
                self.first_pass.push(estimates);
                self.first_rms.push(rmss);
            }
        }
        self.figures.passes += 1;
    }
}

/// The first-pass checks of one replayed session; `f64_ref` is the f64
/// replay of the same recording (estimate, RMS) for other substrates.
#[allow(clippy::too_many_arguments)]
fn check_first_pass(
    checks: &mut Checks,
    oracle: &FusionOracle,
    rec: &Recorded,
    sub: Substrate,
    estimate: &MisalignmentEstimate,
    rms: f64,
    f64_ref: Option<(&MisalignmentEstimate, f64)>,
) {
    let name = &rec.spec.name;
    match (sub, f64_ref) {
        (Substrate::F64, _) => {
            checks.check(same_bits(estimate, &rec.estimate), || {
                format!("{name}: f64 replay does not reproduce the recorded run")
            });
            if let Some(recorded) = rec.rms_deg {
                checks.check(rms.to_bits() == recorded.to_bits(), || {
                    format!("{name}: f64 replay RMS {rms} != recorded {recorded}")
                });
            }
        }
        (Substrate::Softfloat, Some((f64_estimate, f64_rms))) => {
            checks.check(
                same_bits(estimate, f64_estimate) && rms.to_bits() == f64_rms.to_bits(),
                || format!("{name}: softfloat differs from f64 (RMS {rms} vs {f64_rms})"),
            );
        }
        _ => {}
    }
    if matches!(sub, Substrate::F64 | Substrate::Softfloat) {
        let verdicts = oracle.check_estimate(estimate, sub);
        checks.check(verdicts.is_empty(), || {
            format!("{name} on {sub}: oracle {verdicts:?}")
        });
    }
}
