//! The benchmark's own statistics: medians, guarded and per-block
//! percentiles, sustained block figures, per-vehicle-tick
//! normalisation, the failure ratio and a per-thread CPU clock.

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise the tail is too thin to repeat run to run.
pub const MIN_TAIL: usize = 10;

/// Median of `values` (mean of the two middle values for even counts).
/// `NaN` for an empty slice. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// The nearest-rank `q` percentile of an ascending slice (`q` in
/// `(0, 1]`), or `None` when fewer than [`MIN_TAIL`] samples lie above
/// the reported rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_TAIL).then(|| sorted[rank - 1])
}

/// This thread's CPU time, seconds (`CLOCK_THREAD_CPUTIME_ID`): time the
/// host steals from the vCPU does not count.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` matches the C `struct timespec` layout on
    // 64-bit Linux, and `clock_gettime` only writes into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Share of blocks a sustained figure must hold in.
pub const SUSTAINED: f64 = 0.9;

/// The nearest-rank `q` quantile of unsorted `values` (`NaN` if empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The rate that [`SUSTAINED`] of the blocks reach: the low quantile of
/// per-block rates. Used for single-threaded replays; the README says
/// why.
pub fn sustained_rate(block_rates: &[f64]) -> f64 {
    quantile(block_rates, 1.0 - SUSTAINED)
}

/// The latency that [`SUSTAINED`] of the blocks stay within: the high
/// quantile of per-block values (see [`sustained_rate`]).
pub fn sustained_latency(block_values: &[f64]) -> f64 {
    quantile(block_values, SUSTAINED)
}

/// The median over consecutive blocks of `block` samples of each
/// block's `q` percentile ([`percentile`] rules per block; a trailing
/// partial block is left out). `None` when no block qualifies. A burst
/// of interference on a shared host then moves the tail of one block,
/// not the reported figure.
pub fn block_percentile(samples: &[f64], block: usize, q: f64) -> Option<f64> {
    let mut per_block: Vec<f64> = samples
        .chunks_exact(block)
        .filter_map(|chunk| {
            let mut sorted = chunk.to_vec();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, q)
        })
        .collect();
    (!per_block.is_empty()).then(|| median(&mut per_block))
}

/// Nanoseconds per vehicle-tick: a layer's total time spread over every
/// vehicle-tick of the run that produced it (`NaN` for an empty run).
pub fn ns_per_vtick(total_ns: f64, vehicle_ticks: u64) -> f64 {
    if vehicle_ticks == 0 {
        f64::NAN
    } else {
        total_ns / vehicle_ticks as f64
    }
}

/// Failed checks over attempted checks (0 when nothing was attempted).
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Tallies correctness checks: every check is attempted once and
/// either passes or is recorded as a failure with its reason.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `detail` is only built when it failed.
    pub fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(detail());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn ratio(&self) -> f64 {
        failed_ratio(self.failed(), self.attempted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1000 leaves exactly ten samples above it.
        assert_eq!(percentile(&sorted, 0.99), Some(990.0));
        assert_eq!(percentile(&sorted, 0.5), Some(500.0));
        // Rank 991 leaves nine: too thin.
        assert_eq!(percentile(&sorted, 0.991), None);
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.99), None);
        assert_eq!(percentile(&short, 0.9), Some(90.0));
        assert_eq!(percentile(&short, 0.0), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn block_percentile_takes_the_median_block_tail() {
        // Three blocks of 1000 whose p99s are 990, 1990 and a burst-hit
        // 99_000: the median block tail ignores the burst.
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        samples.extend((1..=1000).map(|v| f64::from(v) + 1000.0));
        samples.extend((1..=1000).map(|v| f64::from(v) * 100.0));
        assert_eq!(block_percentile(&samples, 1000, 0.99), Some(1990.0));
        // A trailing partial block does not count; too few samples at all
        // gives nothing.
        assert_eq!(block_percentile(&samples[..1500], 1000, 0.99), Some(990.0));
        assert_eq!(block_percentile(&samples[..999], 1000, 0.99), None);
    }

    #[test]
    fn sustained_figures_take_the_slow_side_of_the_blocks() {
        let blocks: Vec<f64> = (1..=20).map(f64::from).collect();
        // Rank 2 of 20 from the bottom for rates, 18 for latencies.
        assert_eq!(sustained_rate(&blocks), 2.0);
        assert_eq!(sustained_latency(&blocks), 18.0);
        assert_eq!(sustained_rate(&[5.0]), 5.0);
        assert!(sustained_rate(&[]).is_nan());
    }

    #[test]
    fn per_vehicle_tick_normalisation() {
        // 1024 vehicles x 200 ticks sharing 2.048 ms of layer time.
        assert_eq!(ns_per_vtick(2_048_000.0, 1024 * 200), 10.0);
        assert!(ns_per_vtick(5.0, 0).is_nan());
    }

    #[test]
    fn failed_ratio_counts_each_failed_check() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!("passing checks build no detail"));
        checks.check(false, || "vehicle 7 diverged".into());
        checks.check(true, String::new);
        checks.check(false, || "replay 3 differs".into());
        assert_eq!(checks.attempted, 4);
        assert_eq!(checks.failed(), 2);
        assert_eq!(checks.ratio(), 0.5);
        assert_eq!(failed_ratio(0, 0), 0.0);
    }
}
