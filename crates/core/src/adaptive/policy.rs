//! Reconfiguration policies: *when* to swap substrates, and *to what*.

use super::context::ContextState;

/// The substrates the supervisor can hot-swap between — the frontier
/// benchmark's scalar datapaths. Distinct from
/// [`crate::spec::Substrate`], which names the static session axis;
/// this enum is the adaptive supervisor's richer target set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SubstrateId {
    /// Native `f64` (host FPU; not cycle-modelled).
    F64,
    /// Native `f32` (host FPU; not cycle-modelled).
    F32,
    /// Emulated IEEE binary64 with Sabre cycle accounting —
    /// bit-identical results to `f64`, honest cycle prices.
    Softfloat,
    /// Saturating Q16.16 fixed point.
    Q16_16,
    /// Saturating Q8.24 fixed point.
    Q8_24,
}

impl SubstrateId {
    /// Every switchable substrate, reference-first.
    pub fn all() -> [Self; 5] {
        [
            Self::F64,
            Self::F32,
            Self::Softfloat,
            Self::Q16_16,
            Self::Q8_24,
        ]
    }

    /// Short name (matches the frontier benchmark's substrate labels).
    pub fn label(self) -> &'static str {
        match self {
            Self::F64 => "f64",
            Self::F32 => "f32",
            Self::Softfloat => "softfloat",
            Self::Q16_16 => "q16.16",
            Self::Q8_24 => "q8.24",
        }
    }

    /// Parses a short name. `softfloat/f64` (the frontier cell
    /// spelling) and `fixed` (the legacy Q16.16 alias) are accepted.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "f64" => Some(Self::F64),
            "f32" => Some(Self::F32),
            "softfloat" | "softfloat/f64" => Some(Self::Softfloat),
            "q16.16" | "fixed" => Some(Self::Q16_16),
            "q8.24" => Some(Self::Q8_24),
            _ => None,
        }
    }

    /// Absolute error bound for converting one `f64` value of the
    /// given magnitude into this substrate — the module-level
    /// conversion-bound table as code, pinned by the snapshot
    /// round-trip proptests. Only meaningful inside
    /// [`SubstrateId::representable_limit`]; beyond it fixed point
    /// saturates.
    pub fn conversion_bound(self, magnitude: f64) -> f64 {
        match self {
            // Identity / same binary64 format.
            Self::F64 | Self::Softfloat => 0.0,
            // Half-ulp relative, plus the subnormal quantum below the
            // normal range.
            Self::F32 => magnitude * 2f64.powi(-24) + 2f64.powi(-149),
            // Half of the fixed-point LSB (from_f64 rounds to nearest).
            Self::Q16_16 => 2f64.powi(-17),
            Self::Q8_24 => 2f64.powi(-25),
        }
    }

    /// Largest magnitude this substrate represents without saturating.
    pub fn representable_limit(self) -> f64 {
        match self {
            Self::F64 | Self::Softfloat => f64::INFINITY,
            Self::F32 => f32::MAX as f64,
            Self::Q16_16 => 2f64.powi(15),
            Self::Q8_24 => 2f64.powi(7),
        }
    }
}

impl std::fmt::Display for SubstrateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Decides, once per context window, whether to reconfigure.
///
/// Policies are consulted by [`crate::adaptive::AdaptiveBackend`] with
/// the folded [`ContextState`] and the currently active substrate;
/// returning `Some(target)` with `target != active` triggers a
/// snapshot transfer. Policies own their hysteresis state (streaks,
/// hold-offs) — `decide` takes `&mut self`.
pub trait ReconfigPolicy: Send {
    /// Short policy name, recorded as each ledger event's reason.
    fn name(&self) -> &'static str;

    /// The verdict for this window: `None` / the active substrate to
    /// stay, or the substrate to switch to.
    fn decide(&mut self, ctx: &ContextState, active: SubstrateId) -> Option<SubstrateId>;
}

/// Never reconfigures — the reference policy behind the zero-switch
/// bit-identity pin (an adaptive session running this policy must be
/// bit-identical to the static session over the same substrate).
#[derive(Clone, Copy, Debug, Default)]
pub struct PinnedPolicy;

impl ReconfigPolicy for PinnedPolicy {
    fn name(&self) -> &'static str {
        "pinned"
    }

    fn decide(&mut self, _ctx: &ContextState, _active: SubstrateId) -> Option<SubstrateId> {
        None
    }
}

/// Threshold-with-hysteresis reconfiguration (the default policy).
///
/// Stress — a gate-exceed burst, fixed-point saturation, or link gaps
/// from a fault storm — upshifts immediately to the precision target.
/// Downshifting back to the cheap target requires three *consecutive*
/// quiet windows, so a storm's tail cannot make the supervisor thrash.
/// The stress thresholds are deliberately above the calm ones (classic
/// hysteresis band).
#[derive(Clone, Debug)]
pub struct HysteresisPolicy {
    stress_target: SubstrateId,
    calm_target: SubstrateId,
    calm_streak: u32,
}

impl HysteresisPolicy {
    /// Gate-exceed rate above which a window is stressed.
    const EXCEED_UPSHIFT: f64 = 0.08;
    /// Gate-exceed rate at or below which a window is calm.
    const EXCEED_DOWNSHIFT: f64 = 0.02;
    /// Saturation events per update above which a window is stressed.
    const SATURATION_UPSHIFT: f64 = 0.01;
    /// Link-gap rate above which a window is stressed.
    const GAP_UPSHIFT: f64 = 0.02;
    /// Link-gap rate at or below which a window is calm.
    const GAP_DOWNSHIFT: f64 = 0.005;
    /// Consecutive calm windows that earn a downshift.
    const CALM_WINDOWS: u32 = 3;

    /// A policy moving between an explicit stress/calm substrate pair.
    pub fn new(stress_target: SubstrateId, calm_target: SubstrateId) -> Self {
        Self {
            stress_target,
            calm_target,
            calm_streak: 0,
        }
    }

    /// `true` when a window demands the precision substrate.
    fn stressed(ctx: &ContextState) -> bool {
        ctx.exceed_rate > Self::EXCEED_UPSHIFT
            || ctx.saturation_rate > Self::SATURATION_UPSHIFT
            || ctx.gap_rate > Self::GAP_UPSHIFT
    }

    /// `true` when a window counts toward the calm streak.
    fn calm(ctx: &ContextState) -> bool {
        ctx.exceed_rate <= Self::EXCEED_DOWNSHIFT
            && ctx.saturation_rate == 0.0
            && ctx.gap_rate <= Self::GAP_DOWNSHIFT
    }
}

impl Default for HysteresisPolicy {
    /// Softfloat under stress, Q16.16 when calm: both ends of the
    /// default band are cycle-modelled, so the ledger's cost
    /// accounting stays honest (native `f64` reports zero cycles).
    /// Softfloat is bit-identical to `f64`, so the stress end loses
    /// no accuracy.
    fn default() -> Self {
        Self::new(SubstrateId::Softfloat, SubstrateId::Q16_16)
    }
}

impl ReconfigPolicy for HysteresisPolicy {
    fn name(&self) -> &'static str {
        "hysteresis"
    }

    fn decide(&mut self, ctx: &ContextState, active: SubstrateId) -> Option<SubstrateId> {
        if Self::stressed(ctx) {
            self.calm_streak = 0;
            if active != self.stress_target {
                return Some(self.stress_target);
            }
            return None;
        }
        if Self::calm(ctx) {
            self.calm_streak = self.calm_streak.saturating_add(1);
        } else {
            self.calm_streak = 0;
        }
        if self.calm_streak >= Self::CALM_WINDOWS && active != self.calm_target {
            self.calm_streak = 0;
            return Some(self.calm_target);
        }
        None
    }
}

/// One measured accuracy-vs-cycles point (a scalar `lanes == 1` cell
/// of `bench_baselines/BENCH_frontier.json`; the loader lives in the
/// bench crate, which depends on this one).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrontierPoint {
    /// The substrate the point prices.
    pub substrate: SubstrateId,
    /// Whole-run RMS misalignment error, degrees.
    pub rms_deg: f64,
    /// Modelled Sabre cycles per ACC sample (0 = not cycle-modelled).
    pub cycles_per_sample: f64,
}

/// Evidence-driven reconfiguration: under stress behave like
/// [`HysteresisPolicy`] (upshift to the precision target); once calm,
/// pick the **cheapest measured substrate meeting an RMS target** from
/// the committed frontier instead of a hard-wired calm substrate.
///
/// Only cycle-modelled points compete on price (a 0-cycle entry means
/// "not modelled", not "free"); if no point meets the target, the
/// policy holds the precision substrate.
#[derive(Clone, Debug)]
pub struct FrontierPolicy {
    points: Vec<FrontierPoint>,
    rms_target_deg: f64,
    stress: HysteresisPolicy,
}

impl FrontierPolicy {
    /// A policy over measured frontier points with an RMS target.
    pub fn new(points: Vec<FrontierPoint>, rms_target_deg: f64) -> Self {
        Self {
            points,
            rms_target_deg,
            stress: HysteresisPolicy::default(),
        }
    }

    /// The RMS target, degrees.
    pub fn rms_target_deg(&self) -> f64 {
        self.rms_target_deg
    }

    /// The cheapest cycle-modelled substrate whose measured RMS meets
    /// the target.
    pub fn cheapest_meeting_target(&self) -> Option<SubstrateId> {
        self.points
            .iter()
            .filter(|p| p.cycles_per_sample > 0.0 && p.rms_deg <= self.rms_target_deg)
            .min_by(|a, b| {
                a.cycles_per_sample
                    .partial_cmp(&b.cycles_per_sample)
                    .expect("finite frontier cycles")
            })
            .map(|p| p.substrate)
    }
}

impl ReconfigPolicy for FrontierPolicy {
    fn name(&self) -> &'static str {
        "frontier"
    }

    fn decide(&mut self, ctx: &ContextState, active: SubstrateId) -> Option<SubstrateId> {
        let calm_choice = self
            .cheapest_meeting_target()
            .unwrap_or(self.stress.stress_target);
        self.stress.calm_target = calm_choice;
        self.stress.decide(ctx, active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm_ctx() -> ContextState {
        ContextState {
            updates: 190,
            acc_samples: 200,
            ..ContextState::default()
        }
    }

    fn stormy_ctx() -> ContextState {
        ContextState {
            gap_rate: 0.10,
            exceed_rate: 0.12,
            updates: 150,
            acc_samples: 200,
            ..ContextState::default()
        }
    }

    #[test]
    fn hysteresis_upshifts_immediately_and_downshifts_after_streak() {
        let mut policy = HysteresisPolicy::default();
        assert_eq!(
            policy.decide(&stormy_ctx(), SubstrateId::Q16_16),
            Some(SubstrateId::Softfloat)
        );
        // Already on the stress target: hold.
        assert_eq!(policy.decide(&stormy_ctx(), SubstrateId::Softfloat), None);
        // Two calm windows are not yet a streak of three.
        assert_eq!(policy.decide(&calm_ctx(), SubstrateId::Softfloat), None);
        assert_eq!(policy.decide(&calm_ctx(), SubstrateId::Softfloat), None);
        assert_eq!(
            policy.decide(&calm_ctx(), SubstrateId::Softfloat),
            Some(SubstrateId::Q16_16)
        );
        // A storm inside the streak resets it.
        assert_eq!(policy.decide(&calm_ctx(), SubstrateId::Softfloat), None);
        assert_eq!(
            policy.decide(&stormy_ctx(), SubstrateId::Softfloat),
            None,
            "storm on the stress target holds"
        );
        assert_eq!(policy.decide(&calm_ctx(), SubstrateId::Softfloat), None);
    }

    #[test]
    fn frontier_picks_cheapest_point_meeting_target() {
        let points = vec![
            FrontierPoint {
                substrate: SubstrateId::Softfloat,
                rms_deg: 0.10,
                cycles_per_sample: 335_000.0,
            },
            FrontierPoint {
                substrate: SubstrateId::Q16_16,
                rms_deg: 0.9,
                cycles_per_sample: 1_300.0,
            },
            FrontierPoint {
                substrate: SubstrateId::Q8_24,
                rms_deg: 0.8,
                cycles_per_sample: 5_800.0,
            },
            // Not cycle-modelled: never competes on price.
            FrontierPoint {
                substrate: SubstrateId::F64,
                rms_deg: 0.10,
                cycles_per_sample: 0.0,
            },
        ];
        let mut policy = FrontierPolicy::new(points.clone(), 1.0);
        assert_eq!(
            policy.cheapest_meeting_target(),
            Some(SubstrateId::Q16_16),
            "both Q formats qualify; Q16.16 is cheaper"
        );
        for _ in 0..3 {
            policy.decide(&calm_ctx(), SubstrateId::Softfloat);
        }
        // A tighter target excludes Q16.16 but keeps Q8.24.
        let tight = FrontierPolicy::new(points.clone(), 0.85);
        assert_eq!(tight.cheapest_meeting_target(), Some(SubstrateId::Q8_24));
        // An impossible target holds the precision substrate.
        let mut none = FrontierPolicy::new(points, 0.01);
        assert_eq!(none.cheapest_meeting_target(), None);
        assert_eq!(
            none.decide(&stormy_ctx(), SubstrateId::Q16_16),
            Some(SubstrateId::Softfloat)
        );
    }

    #[test]
    fn substrate_ids_round_trip_their_labels() {
        for id in SubstrateId::all() {
            assert_eq!(SubstrateId::parse(id.label()), Some(id));
        }
        assert_eq!(
            SubstrateId::parse("softfloat/f64"),
            Some(SubstrateId::Softfloat)
        );
        assert_eq!(SubstrateId::parse("fixed"), Some(SubstrateId::Q16_16));
        assert_eq!(SubstrateId::parse("q4.28"), None);
    }
}
