//! Per-block SpMV solver: a square/rectangular block bound to its selected
//! kernel and storage format.

use crate::adaptive::Selector;
use recblock_gpu_sim::cost::{self, SpmvKind};
use recblock_gpu_sim::{CostParams, DeviceSpec, KernelTime, SpmvProfile};
use recblock_kernels::exec::{ExecPool, SpmvPlan, TuneParams};
use recblock_kernels::spmv;
use recblock_matrix::{Csr, Dcsr, MatrixError, Scalar};

/// Storage actually materialised for the block. Public so a persistence
/// layer can serialize the exact arrays and rebuild the solver without
/// re-running selection ([`SqSolver::from_parts`]).
#[derive(Debug, Clone)]
pub enum SqStorage<S> {
    /// Compressed sparse rows.
    Csr(Csr<S>),
    /// Doubly-compressed sparse rows (empty rows elided).
    Dcsr(Dcsr<S>),
}

impl<S: Scalar> SqStorage<S> {
    fn nrows(&self) -> usize {
        match self {
            SqStorage::Csr(a) => a.nrows(),
            SqStorage::Dcsr(a) => a.nrows(),
        }
    }

    fn ncols(&self) -> usize {
        match self {
            SqStorage::Csr(a) => a.ncols(),
            SqStorage::Dcsr(a) => a.ncols(),
        }
    }

    fn nnz(&self) -> usize {
        match self {
            SqStorage::Csr(a) => a.nnz(),
            SqStorage::Dcsr(a) => a.nnz(),
        }
    }
}

/// A square/rectangular block ready to apply `y ← y − A·x` with the kernel
/// the adaptive selection chose for it.
#[derive(Debug, Clone)]
pub struct SqSolver<S> {
    kind: SpmvKind,
    storage: SqStorage<S>,
    profile: SpmvProfile,
    plan: SpmvPlan,
}

impl<S: Scalar> SqSolver<S> {
    /// Profile the block, select its kernel, and materialise the matching
    /// storage. With `allow_dcsr = false` (ablation) DCSR selections are
    /// downgraded to their CSR counterparts.
    pub fn build(a: Csr<S>, selector: &Selector, allow_dcsr: bool) -> Self {
        Self::build_tuned(a, selector, allow_dcsr, TuneParams::default())
    }

    /// As [`SqSolver::build`] with explicit engine tuning: the apply-side
    /// chunk plan ([`SpmvPlan`]) is computed under `tune.chunk_nnz`.
    pub fn build_tuned(a: Csr<S>, selector: &Selector, allow_dcsr: bool, tune: TuneParams) -> Self {
        let profile = SpmvProfile::analyse(&a);
        let mut kind = selector.spmv(profile.nnz_per_row(), profile.empty_ratio());
        // Load-imbalance guard (small extension over the paper's Algorithm 7,
        // which keys on averages only): a block whose longest row dwarfs the
        // average would strand one thread of the scalar kernel for the whole
        // launch; give such blocks a warp per row instead.
        let avg = profile.nnz_per_row().max(1.0);
        if profile.max_row as f64 > 32.0 * avg {
            kind = match kind {
                SpmvKind::ScalarCsr => SpmvKind::VectorCsr,
                SpmvKind::ScalarDcsr => SpmvKind::VectorDcsr,
                k => k,
            };
        }
        if !allow_dcsr {
            kind = match kind {
                SpmvKind::ScalarDcsr => SpmvKind::ScalarCsr,
                SpmvKind::VectorDcsr => SpmvKind::VectorCsr,
                k => k,
            };
        }
        let storage = match kind {
            SpmvKind::ScalarDcsr | SpmvKind::VectorDcsr => SqStorage::Dcsr(a.to_dcsr()),
            _ => SqStorage::Csr(a),
        };
        let plan = Self::plan_for(&storage, &tune);
        SqSolver { kind, storage, profile, plan }
    }

    fn plan_for(storage: &SqStorage<S>, tune: &TuneParams) -> SpmvPlan {
        match storage {
            SqStorage::Csr(a) => SpmvPlan::for_csr(a, tune),
            SqStorage::Dcsr(a) => SpmvPlan::for_dcsr(a, tune),
        }
    }

    /// Rebuild a solver from persisted parts, skipping profiling and
    /// selection. Validates that the storage format matches the kernel and
    /// that the profile's dimensions match the stored arrays.
    pub fn from_parts(
        kind: SpmvKind,
        storage: SqStorage<S>,
        profile: SpmvProfile,
    ) -> Result<Self, MatrixError> {
        Self::from_parts_tuned(kind, storage, profile, TuneParams::default())
    }

    /// As [`SqSolver::from_parts`] with explicit engine tuning (the plan
    /// store passes the tuning the plan was persisted with). The chunk plan
    /// is re-derived from the storage — it is cheap (`O(rows)`) and
    /// deterministic, so identical tuning reproduces the identical plan.
    pub fn from_parts_tuned(
        kind: SpmvKind,
        storage: SqStorage<S>,
        profile: SpmvProfile,
        tune: TuneParams,
    ) -> Result<Self, MatrixError> {
        let dcsr_kind = matches!(kind, SpmvKind::ScalarDcsr | SpmvKind::VectorDcsr);
        let dcsr_storage = matches!(storage, SqStorage::Dcsr(_));
        if dcsr_kind != dcsr_storage {
            return Err(MatrixError::DimensionMismatch {
                what: "sq solver storage format vs kernel",
                expected: dcsr_kind as usize,
                actual: dcsr_storage as usize,
            });
        }
        if profile.nrows != storage.nrows()
            || profile.ncols != storage.ncols()
            || profile.nnz != storage.nnz()
        {
            return Err(MatrixError::DimensionMismatch {
                what: "sq solver profile vs storage",
                expected: storage.nrows(),
                actual: profile.nrows,
            });
        }
        let plan = Self::plan_for(&storage, &tune);
        Ok(SqSolver { kind, storage, profile, plan })
    }

    /// Re-plan this block under different engine tuning, keeping the
    /// selected kernel and materialised storage. Only the apply-side chunk
    /// plan depends on [`TuneParams`], and it is cheap (`O(rows)`) and
    /// deterministic — the autotuner uses this to try candidate tunings
    /// without re-running profiling or selection.
    pub fn retuned(&self, tune: TuneParams) -> Self {
        SqSolver {
            kind: self.kind,
            storage: self.storage.clone(),
            profile: self.profile,
            plan: Self::plan_for(&self.storage, &tune),
        }
    }

    /// The materialised storage (the persistence surface matching
    /// [`SqSolver::from_parts`]).
    pub fn storage(&self) -> &SqStorage<S> {
        &self.storage
    }

    /// The selected kernel.
    pub fn kind(&self) -> SpmvKind {
        self.kind
    }

    /// The block's structural profile.
    pub fn profile(&self) -> &SpmvProfile {
        &self.profile
    }

    /// Rows of the block.
    pub fn nrows(&self) -> usize {
        self.profile.nrows
    }

    /// Columns of the block.
    pub fn ncols(&self) -> usize {
        self.profile.ncols
    }

    /// The preplanned nnz-balanced chunk boundaries used by
    /// [`SqSolver::apply`].
    pub fn plan(&self) -> &SpmvPlan {
        &self.plan
    }

    /// Apply `y ← y − A·x` over the selected storage.
    ///
    /// Executes the preplanned chunk schedule on the global [`ExecPool`] —
    /// zero heap allocations, and bit-identical across kernel kinds because
    /// every row reduces through the shared deterministic reduction. The
    /// scalar/vector kind distinction keeps driving storage selection and
    /// the GPU cost model; on the CPU engine both execute the same planned
    /// schedule.
    pub fn apply(&self, x: &[S], y: &mut [S]) -> Result<(), MatrixError> {
        self.apply_panel::<1>(x, y)
    }

    /// [`SqSolver::apply`] on `W`-wide row-interleaved panels (`x` holds
    /// `ncols·W` entries, `y` holds `nrows·W`): one pass over the block for
    /// `W` columns, each bit-identical to [`SqSolver::apply`] on it.
    pub fn apply_panel<const W: usize>(&self, x: &[S], y: &mut [S]) -> Result<(), MatrixError> {
        let pool = ExecPool::global();
        match &self.storage {
            SqStorage::Csr(a) => spmv::csr_update_panel::<S, W>(a, &self.plan, x, y, pool),
            SqStorage::Dcsr(a) => spmv::dcsr_update_panel::<S, W>(a, &self.plan, x, y, pool),
        }
    }

    /// Predicted GPU time of this block's SpMV under the cost model.
    pub fn simulated_time(
        &self,
        working_set: usize,
        dev: &DeviceSpec,
        params: &CostParams,
    ) -> KernelTime {
        self.simulated_time_bytes(S::BYTES, working_set, dev, params)
    }

    /// As [`SqSolver::simulated_time`] with an explicit element width.
    pub fn simulated_time_bytes(
        &self,
        scalar_bytes: usize,
        working_set: usize,
        dev: &DeviceSpec,
        params: &CostParams,
    ) -> KernelTime {
        cost::spmv(self.kind, &self.profile, scalar_bytes, working_set, dev, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    #[test]
    fn build_selects_and_applies() {
        // Dense-ish short rows, no empties → scalar-CSR.
        let a = generate::rect_random::<f64>(300, 200, 4.0, 0.0, 0.0, 1);
        let expect: Vec<f64> = a.spmv_dense(&vec![1.0; 200]).unwrap();
        let s = SqSolver::build(a, &Selector::default(), true);
        assert_eq!(s.kind(), SpmvKind::ScalarCsr);
        let mut y = vec![0.0; 300];
        s.apply(&vec![1.0; 200], &mut y).unwrap();
        let neg: Vec<f64> = expect.iter().map(|v| -v).collect();
        assert!(max_rel_diff(&y, &neg) < 1e-12);
    }

    #[test]
    fn hypersparse_block_goes_dcsr() {
        let a = generate::rect_random::<f64>(1000, 1000, 2.0, 0.8, 0.0, 2);
        let s = SqSolver::build(a, &Selector::default(), true);
        assert_eq!(s.kind(), SpmvKind::ScalarDcsr);
    }

    #[test]
    fn dcsr_downgrade_when_disallowed() {
        let a = generate::rect_random::<f64>(1000, 1000, 2.0, 0.8, 0.0, 3);
        let s = SqSolver::build(a, &Selector::default(), false);
        assert_eq!(s.kind(), SpmvKind::ScalarCsr);
    }

    #[test]
    fn long_rows_go_vector() {
        let a = generate::rect_random::<f64>(400, 4000, 40.0, 0.0, 0.0, 4);
        let s = SqSolver::build(a, &Selector::default(), true);
        assert_eq!(s.kind(), SpmvKind::VectorCsr);
    }

    #[test]
    fn all_kernels_apply_identically() {
        let a = generate::rect_random::<f64>(500, 400, 6.0, 0.3, 1.0, 5);
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut reference = vec![0.0; 500];
        spmv::scalar_csr(&a, &x, &mut reference).unwrap();
        for kind in SpmvKind::ALL {
            let s = SqSolver::build(
                a.clone(),
                &Selector::Fixed(crate::adaptive::TriKernel::SyncFree, kind),
                true,
            );
            assert_eq!(s.kind(), kind);
            let mut y = vec![0.0; 500];
            s.apply(&x, &mut y).unwrap();
            assert!(max_rel_diff(&y, &reference) < 1e-12, "{:?}", kind);
        }
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let a = generate::rect_random::<f64>(300, 250, 4.0, 0.2, 0.0, 7);
        let built = SqSolver::build(a, &Selector::default(), true);
        let rebuilt =
            SqSolver::from_parts(built.kind(), built.storage().clone(), *built.profile()).unwrap();
        let x: Vec<f64> = (0..250).map(|i| (i as f64 * 0.03).cos()).collect();
        let (mut y1, mut y2) = (vec![0.0; 300], vec![0.0; 300]);
        built.apply(&x, &mut y1).unwrap();
        rebuilt.apply(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);
        // Mismatched storage format for the kernel is rejected.
        assert!(SqSolver::from_parts(
            SpmvKind::ScalarDcsr,
            built.storage().clone(),
            *built.profile()
        )
        .is_err());
        // Mismatched profile dimensions are rejected.
        let bad = SpmvProfile { nrows: 1, ..*built.profile() };
        assert!(SqSolver::from_parts(built.kind(), built.storage().clone(), bad).is_err());
    }

    #[test]
    fn simulated_time_positive() {
        let a = generate::rect_random::<f64>(200, 200, 3.0, 0.2, 0.0, 6);
        let s = SqSolver::build(a, &Selector::default(), true);
        let t = s.simulated_time(1 << 20, &DeviceSpec::titan_rtx_turing(), &CostParams::default());
        assert!(t.total_s > 0.0);
        assert_eq!(t.launches, 1);
    }
}
