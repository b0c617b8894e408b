//! CPU wall-clock comparison of the SpTRSV methods (solve phase only,
//! preprocessing excluded — the repeated-solve regime of Table 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recblock::blocked::DepthRule;
use recblock::solver::{RecBlockSolver, SolverOptions};
use recblock_kernels::sptrsv::{serial_csr, CusparseLikeSolver, LevelSetSolver, SyncFreeSolver};
use recblock_matrix::{generate, Csr};
use std::time::Duration;

fn matrices() -> Vec<(&'static str, Csr<f64>)> {
    vec![
        ("kkt_20k", generate::kkt_like::<f64>(20_000, 8_000, 4, 1)),
        (
            "layered_20k",
            generate::layered::<f64>(20_000, 40, 3.0, generate::LayerShape::Uniform, 2),
        ),
        ("hub_20k", generate::hub_power_law::<f64>(20_000, 16, 3, 200, 3)),
        // Level-heavy case: 100 levels wide enough (~300 rows) that each
        // one runs as a parallel launch — the regime where per-level
        // synchronisation dominates.
        (
            "deep_layered_30k",
            generate::layered::<f64>(30_000, 100, 3.0, generate::LayerShape::Uniform, 5),
        ),
    ]
}

fn bench_sptrsv(c: &mut Criterion) {
    let mut g = c.benchmark_group("sptrsv_solve");
    g.measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(200))
        .sample_size(10);
    for (name, l) in matrices() {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();

        g.bench_with_input(BenchmarkId::new("serial", name), &l, |bench, l| {
            bench.iter(|| serial_csr(l, &b).unwrap())
        });

        let levelset = LevelSetSolver::new(l.clone()).unwrap();
        g.bench_with_input(BenchmarkId::new("levelset", name), &levelset, |bench, s| {
            bench.iter(|| s.solve(&b).unwrap())
        });

        let mut x = vec![0.0f64; n];
        g.bench_with_input(
            BenchmarkId::new("levelset_engine_into", name),
            &levelset,
            |bench, s| bench.iter(|| s.solve_into(&b, &mut x).unwrap()),
        );

        let syncfree = SyncFreeSolver::new(&l).unwrap();
        g.bench_with_input(BenchmarkId::new("syncfree", name), &syncfree, |bench, s| {
            bench.iter(|| s.solve(&b).unwrap())
        });

        let cusparse = CusparseLikeSolver::analyse(l.clone()).unwrap();
        g.bench_with_input(BenchmarkId::new("cusparse_like", name), &cusparse, |bench, s| {
            bench.iter(|| s.solve(&b).unwrap())
        });
        g.bench_with_input(
            BenchmarkId::new("cusparse_like_engine_into", name),
            &cusparse,
            |bench, s| bench.iter(|| s.solve_into(&b, &mut x).unwrap()),
        );

        let opts = SolverOptions { depth: DepthRule::Fixed(4), ..SolverOptions::default() };
        let block = RecBlockSolver::new(&l, opts).unwrap();
        g.bench_with_input(BenchmarkId::new("recblock", name), &block, |bench, s| {
            bench.iter(|| s.solve(&b).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sptrsv);
criterion_main!(benches);
