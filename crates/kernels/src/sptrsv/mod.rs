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

/// Default worker count shared by the sync-free variants.
pub(crate) fn syncfree_default_threads() -> usize {
    syncfree::default_threads()
}
