//! Workload inputs: every scenario the benchmark feeds the program is
//! built here from the command-line seed, so one seed gives one set of
//! inputs.

use boresight::catalog;
use boresight::spec::ScenarioSpec;

/// Stream time per fleet epoch and per replay step (200 Hz).
pub const TICK: f64 = 0.005;
/// Fleet worker count: fixed, so figures do not follow the host's core
/// count.
pub const WORKERS: usize = 2;
/// Shard count for both fleet workloads.
pub const SHARDS: usize = 16;

/// `fleet-steady`: lane vehicles, all resident for the whole run.
pub const STEADY_VEHICLES: usize = 1024;
/// Long enough that no steady vehicle completes inside a run.
pub const STEADY_DURATION_S: f64 = 900.0;

/// `fleet-churn`: resident lane vehicles, each replaced on completion.
pub const CHURN_VEHICLES: usize = 256;
/// `fleet-churn`: adaptive-sideband vehicles (no churn).
pub const CHURN_ADAPTIVE: usize = 64;
/// Shortest and longest churn lifetime, seconds of stream.
pub const CHURN_LIFETIME_S: (f64, f64) = (4.0, 12.0);

/// `replay-substrates`: seeded recordings per catalog scenario (on top
/// of the accuracy panel).
pub const REPLAY_PER_SCENARIO: usize = 1;
/// `replay-substrates`: recorded stream length (catalog durations run
/// to 300 s and more; the cap keeps set-up short).
pub const REPLAY_DURATION_S: f64 = 20.0;

/// SplitMix64: a stateless hash from one seed word to the next.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Base of the scenario seeds for a workload seed (vehicle `i` runs
/// `base + i`). Kept below 2^40 so every offset stays distinct.
pub fn seed_base(seed: u64) -> u64 {
    splitmix(seed) >> 24
}

/// A uniform draw in `[0, 1)` for item `i` of a workload seed.
fn unit(seed: u64, i: u64) -> f64 {
    (splitmix(seed ^ splitmix(i)) >> 11) as f64 / (1u64 << 53) as f64
}

fn catalog_entry(i: usize) -> ScenarioSpec {
    let base = catalog::all();
    base[i % base.len()].clone()
}

/// The `fleet-steady` lane roster: the catalog, cycled, distinct seeds.
pub fn steady_roster(seed: u64) -> Vec<ScenarioSpec> {
    let base = seed_base(seed);
    (0..STEADY_VEHICLES)
        .map(|i| {
            catalog_entry(i)
                .with_duration(STEADY_DURATION_S)
                .with_seed(base + i as u64)
        })
        .collect()
}

/// The `k`-th lane vehicle `fleet-churn` ever admits (the first
/// [`CHURN_VEHICLES`] are the initial roster, later ones replace
/// completed vehicles), with its staggered lifetime.
pub fn churn_lane_spec(seed: u64, k: usize) -> ScenarioSpec {
    let (lo, hi) = CHURN_LIFETIME_S;
    let lifetime = lo + (hi - lo) * unit(seed, k as u64);
    catalog_entry(k)
        .with_duration(lifetime)
        .with_seed(seed_base(seed) + k as u64)
}

/// The `fleet-churn` adaptive-sideband roster.
pub fn churn_adaptive_roster(seed: u64) -> Vec<ScenarioSpec> {
    let base = seed_base(seed) + 1_000_000;
    (0..CHURN_ADAPTIVE)
        .map(|j| {
            catalog_entry(j)
                .with_duration(STEADY_DURATION_S)
                .with_seed(base + j as u64)
        })
        .collect()
}

/// The accuracy panel: every catalog scenario at its catalog seed,
/// duration capped. It does not depend on the workload seed, so the
/// accuracy and cycle figures read off it are exact, repeatable
/// functions of the program rather than of the draw of scenario noise
/// (across seeds, a 22-recording median of q16.16 RMS error moves by
/// about half its value and the q16.16 accept ratio by more than 100%).
pub fn panel() -> Vec<ScenarioSpec> {
    catalog::all()
        .into_iter()
        .map(|spec| spec.with_duration(REPLAY_DURATION_S))
        .collect()
}

/// The `replay-substrates` roster: the accuracy panel plus every
/// catalog scenario [`REPLAY_PER_SCENARIO`] more times at seeds drawn
/// from the workload seed.
pub fn replay_roster(seed: u64) -> Vec<ScenarioSpec> {
    let base = seed_base(seed) + 2_000_000;
    let n = catalog::all().len() * REPLAY_PER_SCENARIO;
    panel()
        .into_iter()
        .chain((0..n).map(|i| {
            catalog_entry(i)
                .with_duration(REPLAY_DURATION_S)
                .with_seed(base + i as u64)
        }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = steady_roster(7);
        let b = steady_roster(7);
        let c = steady_roster(8);
        assert_eq!(a.len(), STEADY_VEHICLES);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.seed == y.seed && x.name == y.name));
        assert!(a.iter().zip(&c).any(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn churn_lifetimes_are_staggered_in_range() {
        let lifetimes: Vec<f64> = (0..CHURN_VEHICLES)
            .map(|k| churn_lane_spec(3, k).duration_s)
            .collect();
        assert!(lifetimes
            .iter()
            .all(|&d| (CHURN_LIFETIME_S.0..CHURN_LIFETIME_S.1).contains(&d)));
        let short = lifetimes.iter().filter(|&&d| d < 8.0).count();
        assert!(short > CHURN_VEHICLES / 4 && short < 3 * CHURN_VEHICLES / 4);
    }
}
