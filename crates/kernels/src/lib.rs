//! SpTRSV and SpMV kernel zoo for the recblock suite.
//!
//! This crate implements, as real multithreaded CPU code, every kernel the
//! paper's adaptive recursive block algorithm chooses among (Section 3.4):
//!
//! **Four SpTRSV kernels** for triangular (sub-)matrices:
//! * [`sptrsv::parallel_diag`] — "completely parallel": the block is purely
//!   diagonal, every component solves independently;
//! * [`sptrsv::LevelSetSolver`] — the classic Anderson/Saad–Saltz level-set
//!   schedule (Algorithm 2), one parallel sweep per level with a barrier
//!   between levels;
//! * [`sptrsv::SyncFreeSolver`] — the synchronisation-free algorithm of Liu
//!   et al. (Algorithm 3): CSC storage, producer-written per-entry update
//!   slots, busy-waiting — one "kernel launch", no barriers;
//! * [`sptrsv::CusparseLikeSolver`] — a cuSPARSE-csrsv2-style baseline:
//!   a separate (expensive) analysis phase plus a level-scheduled solve that
//!   merges small adjacent levels per launch, after Naumov's report.
//!
//! **SpMV updates** for square/rectangular sub-matrices ([`spmv`]): the
//! *update* form `y ← y − A·x` that the block algorithms consume, over CSR
//! or DCSR storage (the selector's scalar/vector distinction prices the GPU
//! cost model; on the CPU both run one planned, nnz-balanced update).
//!
//! Plus the serial reference ([`sptrsv::serial_csr`]), multi-RHS solves
//! ([`sptrsm`]) and an ILU(0) factorisation ([`ilu`]) used by the
//! preconditioned-iterative-solver example.
//!
//! All steady-state parallelism runs on the [`exec`] execution engine:
//! preplanned nnz-balanced schedules, a persistent allocation-free worker
//! pool, and one deterministic inner reduction ([`exec::row_dot`]) shared by
//! every kernel so results are bit-reproducible across kernels and thread
//! counts.

#![warn(missing_docs)]

pub mod exec;
pub mod ilu;
pub mod krylov;
pub mod spmv;
pub mod sptrsm;
pub mod sptrsv;
pub mod trace;

pub use exec::{
    ExecPool, LevelSchedule, ScheduleMode, SolveWorkspace, SpmvPlan, TaskGraphStats, TaskSchedule,
    TuneParams,
};
pub use sptrsv::{CusparseLikeSolver, LevelSetSolver, SyncFreeSolver};
pub use trace::{EventKind, SolveTrace, TraceEvent};
