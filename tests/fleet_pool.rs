//! Pool-reuse stress for the persistent epoch executor: one
//! [`exec::Pool`] serves the same fleet workload twice in a row — with
//! mid-run admission and eviction — at worker counts from inline to
//! wider-than-the-shard-set, and every run is bit-identical to the
//! serial schedule. After the pool's warm-up, no thread is ever
//! spawned again.

use sensor_fusion_fpga::fusion::arith::F64Arith;
use sensor_fusion_fpga::fusion::catalog;
use sensor_fusion_fpga::fusion::exec::{self, Pool};
use sensor_fusion_fpga::fusion::fleet::{Fleet, FleetConfig, VehicleId};
use sensor_fusion_fpga::fusion::spec::ScenarioSpec;

const TICK: f64 = 0.005;
const SHARDS: usize = 8;
const EPOCHS_A: usize = 40;
const EPOCHS_B: usize = 40;

fn roster(n: usize, duration_s: f64) -> Vec<ScenarioSpec> {
    let base = catalog::all();
    (0..n)
        .map(|i| {
            base[i % base.len()]
                .clone()
                .with_duration(duration_s)
                .with_seed(8800 + i as u64)
        })
        .collect()
}

/// Every per-vehicle observable the fleet exposes, bit-packed.
fn fleet_bits(fleet: &Fleet<F64Arith, 8>, id: VehicleId) -> Vec<u64> {
    let est = fleet.estimate(id).expect("vehicle resident");
    let stats = fleet.vehicle_stats(id).expect("vehicle resident");
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
        fleet.retune_count(id).expect("vehicle resident"),
        fleet
            .measurement_sigma(id)
            .expect("vehicle resident")
            .to_bits(),
    ]
}

/// One full serving round: admit the roster, run, evict one vehicle
/// mid-run, admit a late joiner, run again; return every observable
/// the round produced. `pool` = `None` runs the serial inline
/// scheduler (the reference), `Some` runs on the given persistent
/// pool via [`Fleet::run_epochs_on`].
fn serve_round(specs: &[ScenarioSpec], late: &ScenarioSpec, pool: Option<&Pool>) -> Vec<Vec<u64>> {
    let mut fleet: Fleet<F64Arith, 8> = Fleet::new(FleetConfig {
        shards: SHARDS,
        tick_dt: TICK,
        ..FleetConfig::default()
    });
    let ids: Vec<VehicleId> = specs
        .iter()
        .map(|spec| fleet.admit(spec).expect("catalog tuning is compatible"))
        .collect();
    let run = |fleet: &mut Fleet<F64Arith, 8>, epochs: usize| match pool {
        Some(pool) => fleet.run_epochs_on(epochs, pool),
        None => fleet.run_epochs(epochs, 1),
    };
    run(&mut fleet, EPOCHS_A);
    let evicted = fleet.evict(ids[3]).expect("was resident");
    let late_id = fleet.admit(late).expect("compatible");
    run(&mut fleet, EPOCHS_B);

    let mut out: Vec<Vec<u64>> = ids
        .iter()
        .filter(|&&id| id != ids[3])
        .map(|&id| fleet_bits(&fleet, id))
        .collect();
    out.push(fleet_bits(&fleet, late_id));
    out.push(vec![
        evicted.estimate.angles.roll.to_bits(),
        evicted.estimate.angles.pitch.to_bits(),
        evicted.estimate.angles.yaw.to_bits(),
        evicted.estimate.updates,
        fleet.local_time(late_id).expect("resident").to_bits(),
    ]);
    out
}

#[test]
fn one_pool_serves_repeated_runs_bit_identically_without_respawning() {
    let specs = roster(24, 30.0);
    let late = catalog::paper_dynamic().with_duration(30.0).with_seed(9902);
    let reference = serve_round(&specs, &late, None);

    for workers in [1, 2, SHARDS, SHARDS + 7] {
        let pool = Pool::new(workers);
        assert_eq!(pool.workers(), workers);
        let spawned_after_warmup = exec::threads_spawned();
        for round in 0..2 {
            let got = serve_round(&specs, &late, Some(&pool));
            assert_eq!(
                got, reference,
                "fleet diverged from the serial schedule at \
                 {workers} workers, round {round}"
            );
        }
        assert_eq!(
            exec::threads_spawned(),
            spawned_after_warmup,
            "a thread was spawned after warm-up at {workers} workers"
        );
    }
}
