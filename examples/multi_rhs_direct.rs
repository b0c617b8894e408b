//! Direct-solver solve phase with multiple right-hand sides — the paper's
//! other headline scenario: "one of the most crucial performance
//! bottlenecks of direct solvers with multiple right-hand sides".
//!
//! One preprocessing pass, then 64 right-hand sides solved through the
//! blocked structure; compared against the serial reference for correctness
//! and against re-analysing per solve for cost.
//!
//! Run with: `cargo run --release --example multi_rhs_direct`

use recblock::blocked::DepthRule;
use recblock::solver::{RecBlockSolver, SolverOptions};
use recblock_kernels::sptrsm::MultiVector;
use recblock_kernels::sptrsv::serial_csr;
use recblock_matrix::generate;
use recblock_matrix::vector::max_rel_diff;

fn main() {
    let n = 60_000;
    let k = 64;
    // A KKT-style system: the structure a sparse direct factorisation of an
    // optimisation problem hands to its solve phase.
    let l = generate::kkt_like::<f64>(n, n / 2, 6, 11);
    println!("factor: {} rows, {} nonzeros; {k} right-hand sides", l.nrows(), l.nnz());

    let opts = SolverOptions { depth: DepthRule::Fixed(4), ..SolverOptions::default() };
    let t0 = std::time::Instant::now();
    let solver = RecBlockSolver::new(&l, opts).expect("solvable factor");
    let prep = t0.elapsed();
    println!("preprocessing: {:.1} ms (paid once)", prep.as_secs_f64() * 1e3);

    // Assemble B column-major.
    let data: Vec<f64> =
        (0..n * k).map(|i| ((i * 2_654_435_761) % 1000) as f64 / 500.0 - 1.0).collect();
    let b = MultiVector::from_columns(n, k, data).expect("dimensions");

    // solve_multi splits the 64 columns into panels of 8 and walks the
    // block list once per panel: every nonzero is loaded once for 8
    // columns, and each column is bit-identical to its own single solve.
    // (A plan with a sync-free block would solve column by column.)
    let t1 = std::time::Instant::now();
    let x = solver.solve_multi(&b).expect("solve");
    let solve = t1.elapsed();
    println!(
        "{k} solves: {:.1} ms total, {:.2} ms per rhs",
        solve.as_secs_f64() * 1e3,
        solve.as_secs_f64() * 1e3 / k as f64
    );
    println!(
        "preprocessing amortised over {k} solves: {:.1}% of total time",
        100.0 * prep.as_secs_f64() / (prep.as_secs_f64() + solve.as_secs_f64())
    );

    // Verify a sample of columns against the serial reference.
    for j in [0usize, k / 2, k - 1] {
        let reference = serial_csr(&l, b.col(j)).expect("serial solve");
        let diff = max_rel_diff(x.col(j), &reference);
        println!("column {j:2}: max relative difference vs serial = {diff:.2e}");
        assert!(diff < 1e-10);
    }
    println!("all sampled columns match the serial reference");
}
