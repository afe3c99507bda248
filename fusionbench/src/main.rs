//! The repo benchmark: one command, three workloads, end-to-end
//! metrics by default and a traced per-layer breakdown with `--trace 1`.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path fusionbench/Cargo.toml -- \
//!     --workload fleet-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (each in its own process, closed loop, 2 fleet workers):
//!
//! - `fleet-steady`: 1024 lane vehicles cycling the catalog, 16 shards,
//!   nobody completes; the capacity workload.
//! - `fleet-churn`: 256 lane vehicles with 4-12 s lifetimes, each
//!   replaced on the next barrier, plus 64 adaptive-sideband vehicles
//!   starting on q16.16 under the hysteresis policy.
//! - `replay-substrates`: every catalog scenario recorded in set-up, then
//!   replayed through scalar sessions on f64, softfloat and q16.16,
//!   single-threaded.
//!
//! Both fleet workloads also re-run a sample of their vehicles as
//! standalone sessions (the bit-identity check) and replay the fixed
//! accuracy panel on the three substrates, so every workload reports
//! every metric. The last stdout line is the JSON result; the run exits
//! non-zero when any correctness check fails. See `README.md` for what
//! each metric measures.

mod fleet;
mod probe;
mod replay;
mod roster;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// JSON number with every digit Rust's shortest round-trip form keeps.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fusionbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = workloads::Workload::parse(&args.workload) else {
        eprintln!(
            "fusionbench: unknown workload {:?} (expected one of {:?})",
            args.workload,
            workloads::Workload::NAMES
        );
        return ExitCode::from(2);
    };
    let mut checks = stats::Checks::default();
    let metrics = if args.trace {
        probe::run(kind, args.seed, &mut checks)
    } else {
        workloads::run(kind, args.seed, args.seconds, &mut checks)
    };
    for m in &metrics {
        checks.check(m.value.is_finite(), || {
            format!("metric {} is not finite", m.name)
        });
    }

    println!(
        "\n{} ({}, seed {}, {} s)",
        args.workload,
        if args.trace {
            "traced, per layer"
        } else {
            "end to end"
        },
        args.seed,
        args.seconds
    );
    for m in &metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  correctness: {} of {} checks failed (failed_ratio {})",
        checks.failed(),
        checks.attempted,
        checks.ratio()
    );
    for failure in &checks.failures {
        println!("  FAILED: {failure}");
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failures.is_empty(),
        checks.attempted.max(1),
        checks.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
