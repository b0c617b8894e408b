//! CPU wall-clock comparison of the planned SpMV updates the blocked solve
//! runs — CSR and DCSR storage — on the block shapes the adaptive selector
//! distinguishes (short uniform rows vs long skewed rows, dense vs
//! hyper-sparse row population).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use recblock_kernels::exec::{ExecPool, SpmvPlan, TuneParams};
use recblock_kernels::spmv;
use recblock_matrix::{generate, Csr, Dcsr};
use std::time::Duration;

fn blocks() -> Vec<(&'static str, Csr<f64>)> {
    vec![
        ("short_rows_dense", generate::rect_random::<f64>(40_000, 40_000, 5.0, 0.0, 0.0, 1)),
        ("short_rows_empty70", generate::rect_random::<f64>(40_000, 40_000, 5.0, 0.7, 0.0, 2)),
        ("long_rows", generate::rect_random::<f64>(8_000, 8_000, 48.0, 0.0, 0.0, 3)),
        ("skewed_rows", generate::rect_random::<f64>(20_000, 20_000, 8.0, 0.2, 4.0, 4)),
    ]
}

fn bench_spmv(c: &mut Criterion) {
    let mut g = c.benchmark_group("spmv_update");
    g.measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200))
        .sample_size(10);
    let pool = ExecPool::global();
    let tune = TuneParams::default();
    for (name, a) in blocks() {
        let ncols = a.ncols();
        let x: Vec<f64> = (0..ncols).map(|i| (i % 13) as f64 / 6.5 - 1.0).collect();
        let d: Dcsr<f64> = a.to_dcsr();
        let y0 = vec![0.0f64; a.nrows()];

        let plan = SpmvPlan::for_csr(&a, &tune);
        g.bench_with_input(BenchmarkId::new("csr_planned", name), &a, |bench, a| {
            bench.iter_batched(
                || y0.clone(),
                |mut y| spmv::csr_update_planned(a, &plan, &x, &mut y, pool).unwrap(),
                BatchSize::LargeInput,
            )
        });
        let dplan = SpmvPlan::for_dcsr(&d, &tune);
        g.bench_with_input(BenchmarkId::new("dcsr_planned", name), &d, |bench, d| {
            bench.iter_batched(
                || y0.clone(),
                |mut y| spmv::dcsr_update_planned(d, &dplan, &x, &mut y, pool).unwrap(),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_spmv);
criterion_main!(benches);
