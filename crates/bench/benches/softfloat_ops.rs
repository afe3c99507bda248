//! P2: softfloat operation benchmarks (host throughput of the
//! emulation layer itself; cycle costs on Sabre come from the cost
//! model, not wall time).
//!
//! The f64 cases draw their operands from a fixed, filter-like stream
//! instead of one repeated pair, so the branch predictor cannot learn
//! a single path: mixed signs, exponents spread over 2^-30..2^30 and
//! about 40% `±0` operands, like the seeds and structural zeros of the
//! IEKF's multiply-adds. Each iteration is one operation on the next
//! operand set of the stream, so the printed time is ns per op.

use boresight::arith::{Arith, SoftArith};
use criterion::{criterion_group, criterion_main, Criterion};
use fpga::softfloat::{f64impl, Sf64, SoftFpu};
use rand::{RngExt as _, SeedableRng as _};
use std::hint::black_box;

/// Operand sets in the stream (a power of two).
const STREAM: usize = 4096;

/// One filter-like operand: `±0` with probability 0.4, otherwise a
/// normal with a random sign and an exponent in [-30, 30].
fn operand(rng: &mut rand::rngs::StdRng) -> Sf64 {
    let sign = if rng.random_bool(0.5) { -1.0 } else { 1.0 };
    if rng.random_bool(0.4) {
        return Sf64::from_f64(sign * 0.0);
    }
    let mantissa = rng.random_range(1.0..2.0);
    let exp = rng.random_range(-30..=30);
    Sf64::from_f64(sign * mantissa * 2f64.powi(exp))
}

/// The operand stream: `STREAM` triples `(a, b, c)`.
fn stream() -> Vec<(Sf64, Sf64, Sf64)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x50F7);
    (0..STREAM)
        .map(|_| (operand(&mut rng), operand(&mut rng), operand(&mut rng)))
        .collect()
}

/// Benchmarks `op` over the stream, one operand set per iteration.
fn bench_stream<R>(
    c: &mut Criterion,
    name: &str,
    ops: &[(Sf64, Sf64, Sf64)],
    mut op: impl FnMut(Sf64, Sf64, Sf64) -> R,
) {
    let mut i = 0;
    c.bench_function(name, |bench| {
        bench.iter(|| {
            let (a, b, x) = ops[i];
            i = (i + 1) & (STREAM - 1);
            op(black_box(a), black_box(b), black_box(x))
        })
    });
}

fn bench_softfloat(c: &mut Criterion) {
    let ops = stream();
    bench_stream(c, "softfloat/add_f64", &ops, |a, b, _| f64impl::add(a, b));
    bench_stream(c, "softfloat/sub_f64", &ops, |a, b, _| f64impl::sub(a, b));
    bench_stream(c, "softfloat/mul_f64", &ops, |a, b, _| f64impl::mul(a, b));
    // The double-rounded multiply-add `SoftArith::fma` runs.
    bench_stream(c, "softfloat/mul_add_f64", &ops, |a, b, x| {
        f64impl::add(x, f64impl::mul(a, b))
    });
    bench_stream(c, "softfloat/div_f64", &ops, |a, b, _| f64impl::div(a, b));
    bench_stream(c, "softfloat/sqrt_f64", &ops, |a, _, _| {
        f64impl::sqrt(a.abs())
    });

    let mut fpu = SoftFpu::new();
    bench_stream(c, "softfloat/fpu_add_f64", &ops, |a, b, _| {
        fpu.add_f64(a, b)
    });
    let mut fpu = SoftFpu::new();
    bench_stream(c, "softfloat/fpu_mul_f64", &ops, |a, b, _| {
        fpu.mul_f64(a, b)
    });
    let mut fpu = SoftFpu::new();
    bench_stream(c, "softfloat/fpu_mul_add_f64", &ops, |a, b, x| {
        let p = fpu.mul_f64(a, b);
        fpu.add_f64(x, p)
    });
    let mut arith = SoftArith::default();
    bench_stream(c, "softfloat/soft_arith_fma", &ops, |a, b, x| {
        arith.fma(a, b, x)
    });
}

criterion_group!(benches, bench_softfloat);
criterion_main!(benches);
