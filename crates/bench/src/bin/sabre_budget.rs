//! Performance study **P2**: the Kalman software budget on the Sabre
//! soft core.
//!
//! The paper runs the filter as C compiled to the Sabre with Softfloat
//! emulation and reports that the system works in real time (while
//! noting "optimization of the performance ... was not a design
//! goal"). This binary measures the per-update floating-point workload
//! of the fusion filter with exact operation counts from our Softfloat
//! layer, converts it to Sabre cycles with the documented cost model,
//! and maps the real-time envelope across core clocks and sensor
//! rates. It also reports the end-to-end system simulation's budget.
//!
//! Run with `cargo run --release -p bench_suite --bin sabre_budget`.

use bench_suite::{print_table, SmallAngleSource};
use boresight::arith::SoftArith;
use boresight::system::{run_system, SystemConfig};
use boresight::{ArithKf3, FusionSession};
use mathx::EulerAngles;

fn main() {
    // Measure the per-update cost over a representative excitation,
    // streamed through a fusion session.
    let n = 2000usize;
    let truth = EulerAngles::from_degrees(2.0, -1.0, 1.5);
    let mut session = FusionSession::builder()
        .source(SmallAngleSource::new(truth, n, 200.0, 0.007, 11))
        .backend(ArithKf3::with_defaults(SoftArith::default()))
        .build();
    session.run_to_end();
    let backend: &ArithKf3<SoftArith> = session.backend_as().expect("softfloat backend");
    let stats = backend.kf().arith().fpu.stats();
    let cycles_per_update = stats.cycles as f64 / n as f64;

    print_table(
        "P2a: softfloat workload per 3-state filter update",
        &["op", "count/update", "cycles/update"],
        &[
            vec![
                "add/sub f64".into(),
                format!("{:.1}", stats.add_f64 as f64 / n as f64),
                format!("{:.0}", stats.add_f64 as f64 * 75.0 / n as f64),
            ],
            vec![
                "mul f64".into(),
                format!("{:.1}", stats.mul_f64 as f64 / n as f64),
                format!("{:.0}", stats.mul_f64 as f64 * 135.0 / n as f64),
            ],
            vec![
                "div f64".into(),
                format!("{:.1}", stats.div_f64 as f64 / n as f64),
                format!("{:.0}", stats.div_f64 as f64 * 420.0 / n as f64),
            ],
            vec![
                "conversions".into(),
                format!("{:.1}", stats.convert as f64 / n as f64),
                format!("{:.0}", stats.convert as f64 * 30.0 / n as f64),
            ],
            vec![
                "TOTAL".into(),
                format!("{:.1}", stats.total_ops() as f64 / n as f64),
                format!("{cycles_per_update:.0}"),
            ],
        ],
    );

    // Real-time envelope: utilization = cycles/update * rate / clock.
    let mut rows = Vec::new();
    for clock_mhz in [10.0, 25.0, 50.0] {
        let mut row = vec![format!("{clock_mhz:.0} MHz")];
        for rate in [100.0, 200.0, 400.0] {
            let util = cycles_per_update * rate / (clock_mhz * 1e6);
            row.push(format!(
                "{:.1}%{}",
                util * 100.0,
                if util < 1.0 { "" } else { " (!)" }
            ));
        }
        rows.push(row);
    }
    print_table(
        "P2b: Sabre CPU utilization by core clock x update rate",
        &["core clock", "100 Hz", "200 Hz", "400 Hz"],
        &rows,
    );

    // End-to-end check from the full system simulation.
    let mut cfg = SystemConfig::demo(EulerAngles::from_degrees(2.0, -1.5, 2.5));
    cfg.scenario.duration_s = 30.0;
    cfg.shadow_updates = 500;
    let profile = vehicle::profile::presets::urban_drive(cfg.scenario.duration_s);
    let report = run_system(&profile, &cfg);
    print_table(
        "P2c: end-to-end system budget (30 s urban drive)",
        &["quantity", "value"],
        &[
            vec![
                "Kalman cycles/update".into(),
                format!("{:.0}", report.kalman_cycles_per_update),
            ],
            vec![
                "Kalman float ops/update".into(),
                format!("{:.1}", report.kalman_ops_per_update),
            ],
            vec![
                "Kalman CPU @ 25 MHz".into(),
                format!("{:.1}%", report.kalman_cpu_utilization * 100.0),
            ],
            vec![
                "Sabre publish cycles (total)".into(),
                format!("{}", report.sabre_cycles),
            ],
            vec![
                "video fps budget (pipeline)".into(),
                format!("{:.0}", report.video_fps_budget),
            ],
            vec![
                "misalignment error (deg, worst)".into(),
                format!(
                    "{:.3}",
                    report.error_deg.iter().fold(0.0f64, |m, e| m.max(e.abs()))
                ),
            ],
        ],
    );
    println!("\nexpected shape: the filter fits comfortably in real time on a");
    println!("soft core (paper: works, unoptimized), and the video path sustains");
    println!("far more than the 25-30 fps the cameras deliver.");
}
