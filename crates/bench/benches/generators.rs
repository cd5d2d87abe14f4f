//! Criterion bench for graph construction: `gnp_directed`'s geometric-skip
//! walk straight into the out-CSR, at `n ∈ {2¹², 2¹⁴, 2¹⁶}`. The
//! experiment sweeps build thousands of these graphs. CI's perf-smoke
//! job gates `gen_gnp_directed` against `BENCH_baseline.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use radio_graph::generate::gnp_directed;
use radio_util::derive_rng;
use std::hint::black_box;

fn bench_gnp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen_gnp_directed");
    for &n in &[4096usize, 16384, 65536] {
        let p = 6.0 * (n as f64).ln() / n as f64;
        let m = (n as f64 * n as f64 * p) as u64;
        group.throughput(Throughput::Elements(m));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                black_box(gnp_directed(n, p, &mut derive_rng(i, b"bench", 0)))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gnp);
criterion_main!(benches);
