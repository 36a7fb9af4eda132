//! Cost of one best-reply computation (the OPTIMAL algorithm, Theorem
//! 2.1) as the system grows, against the generic exponentiated-gradient
//! solver — quantifying the paper's point that the closed form makes the
//! per-iteration work trivial.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lb_bench::scaled_rates;
use lb_game::best_reply::{water_fill_flows, water_fill_flows_into, WaterFillScratch};
use lb_game::gradient::exponentiated_gradient_flows;
use std::hint::black_box;

fn bench_water_filling_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimal_water_filling");
    for n in [16, 64, 256, 1024, 4096] {
        let rates = scaled_rates(n);
        let demand = rates.iter().sum::<f64>() * 0.6;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| water_fill_flows(black_box(&rates), black_box(demand)).unwrap());
        });
    }
    group.finish();
}

fn bench_gradient_vs_closed_form(c: &mut Criterion) {
    let mut group = c.benchmark_group("best_reply_solvers_n16");
    let rates = scaled_rates(16);
    let demand = rates.iter().sum::<f64>() * 0.6;
    group.bench_function("water_filling_closed_form", |b| {
        b.iter(|| water_fill_flows(black_box(&rates), black_box(demand)).unwrap());
    });
    group.bench_function("exponentiated_gradient_2000_iters", |b| {
        b.iter(|| {
            exponentiated_gradient_flows(black_box(&rates), black_box(demand), 2000).unwrap()
        });
    });
    group.finish();
}

fn bench_scratch_reuse(c: &mut Criterion) {
    // The allocation-free entry point the solver hot loop uses, against
    // the allocating wrapper — the delta is exactly the per-call cost of
    // allocating the sort-key and output buffers.
    let mut group = c.benchmark_group("water_filling_scratch_reuse");
    for n in [16, 256, 4096] {
        let rates = scaled_rates(n);
        let demand = rates.iter().sum::<f64>() * 0.6;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("alloc_per_call", n), &n, |b, _| {
            b.iter(|| water_fill_flows(black_box(&rates), black_box(demand)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("reused_scratch", n), &n, |b, _| {
            let mut scratch = WaterFillScratch::default();
            let mut out = Vec::new();
            b.iter(|| {
                water_fill_flows_into(black_box(&rates), black_box(demand), &mut scratch, &mut out)
                    .unwrap();
                out[0]
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_water_filling_scaling,
    bench_gradient_vs_closed_form,
    bench_scratch_reuse
);
criterion_main!(benches);
