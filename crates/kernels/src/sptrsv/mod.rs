//! Sparse triangular solve kernels (`L x = b`, `L` lower triangular).

mod cusparse_like;
mod levelset;
mod parallel_diag;
mod serial;
mod syncfree;
mod syncfree_csr;

pub use cusparse_like::CusparseLikeSolver;
pub use levelset::LevelSetSolver;
pub use parallel_diag::{is_diagonal_only, parallel_diag, parallel_diag_into, parallel_diag_panel};
pub use serial::{serial_csc, serial_csr};
pub use syncfree::SyncFreeSolver;
pub use syncfree_csr::SyncFreeCsrSolver;

use recblock_matrix::levelset::LevelSets;
use recblock_matrix::{Csr, MatrixError, Scalar};

/// Default worker count shared by the sync-free variants.
pub(crate) fn syncfree_default_threads() -> usize {
    syncfree::default_threads()
}

/// Check that `levels` is an execution order for `l`: `l` is square, the
/// levels cover its rows, and every off-diagonal entry's column lies in an
/// earlier level than its row. The level schedules solve a level's rows
/// concurrently, so a dependency inside one level (or on a later one)
/// would have two threads read and write one `x` entry at once. One
/// `O(nnz)` pass, run by every constructor that accepts external levels.
pub(crate) fn check_level_order<S: Scalar>(
    l: &Csr<S>,
    levels: &LevelSets,
) -> Result<(), MatrixError> {
    let n = l.nrows();
    if l.ncols() != n || levels.n() != n {
        return Err(MatrixError::DimensionMismatch {
            what: "level sets vs square matrix",
            expected: n,
            actual: if l.ncols() != n { l.ncols() } else { levels.n() },
        });
    }
    for i in 0..n {
        let lvl = levels.level_of(i);
        if let Some(&col) = l.row(i).0.iter().find(|&&c| c != i && levels.level_of(c) >= lvl) {
            return Err(MatrixError::LevelOrder { row: i, col });
        }
    }
    Ok(())
}
