//! The improved recursive block data structure (the paper's Section 3.3)
//! and its loop executor (Algorithm 7's driver).
//!
//! [`BlockedTri`] is built once in a preprocessing stage:
//!
//! 1. the matrix is **recursively reordered** by level sets ([`crate::reorder`],
//!    Figure 3),
//! 2. the recursive bisection is **flattened into execution order** — the
//!    in-order sequence `T₀ S₀ T₁ S₁ …` of Figure 3(d) — so the solve phase
//!    is a plain loop rather than a recursion,
//! 3. every triangular block gets the SpTRSV kernel and every square block
//!    the SpMV kernel and storage (CSR or DCSR) the **adaptive selection**
//!    chooses from its statistics (Algorithm 7).
//!
//! Solving then gathers `b` into the reordered space, walks the block list,
//! and scatters the solution back.

use crate::adaptive::{Selector, TriKernel};
use crate::explain::{self, BlockDecision, BlockDecisionKind, LevelShape, SelectionReport};
use crate::partition::{self, PlanNode};
use crate::report::SimBreakdown;
use crate::sqsolver::SqSolver;
use crate::traffic::TrafficCounts;
use crate::trisolver::TriSolver;
use recblock_gpu_sim::cost::SpmvKind;
use recblock_gpu_sim::TriProfile;
use recblock_gpu_sim::{CostParams, DeviceSpec, KernelTime};
use recblock_kernels::exec::TuneParams;
use recblock_kernels::trace::{EventKind, SolveTrace};
use recblock_matrix::permute::Permutation;
use recblock_matrix::{Csr, MatrixError, Scalar};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub use recblock_kernels::exec::SolveWorkspace;

/// How the recursion depth is chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum DepthRule {
    /// The paper's rule: halve until the next block would drop below
    /// `20 × cuda_cores` rows of the given device.
    Auto(DeviceSpec),
    /// Fixed depth (`2^depth` leaves).
    Fixed(usize),
}

/// Preprocessing options for [`BlockedTri`].
#[derive(Debug, Clone)]
pub struct BlockedOptions {
    /// Recursion-depth rule.
    pub depth: DepthRule,
    /// Apply the recursive level-set reordering (Section 3.3). Disabling it
    /// is the `ablation_reorder` baseline.
    pub reorder: bool,
    /// Kernel selection policy (adaptive Algorithm 7 by default).
    pub selector: Selector,
    /// Allow DCSR storage for hyper-sparse squares. Disabling it is the
    /// `ablation_dcsr` baseline.
    pub allow_dcsr: bool,
    /// Worker threads for sync-free blocks.
    pub syncfree_threads: usize,
    /// Execution-engine thresholds (level coarsening, nnz chunking) applied
    /// to every block's preplanned schedule.
    pub tune: TuneParams,
}

impl Default for BlockedOptions {
    fn default() -> Self {
        BlockedOptions {
            depth: DepthRule::Auto(DeviceSpec::titan_rtx_turing()),
            reorder: true,
            selector: Selector::default(),
            allow_dcsr: true,
            syncfree_threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
                .min(16),
            tune: TuneParams::default(),
        }
    }
}

/// The payload of one block in execution order.
// The Tri variant carries the inline level schedule and is much larger than
// Square, but there are only a handful of blocks per plan (one per tree
// node), so boxing would add an indirection to the hot walk for no savings.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum BlockData<S> {
    Tri { solver: TriSolver<S>, profile: TriProfile },
    Square(SqSolver<S>),
}

/// One block of the execution-order list.
#[derive(Debug, Clone)]
struct Block<S> {
    rows: Range<usize>,
    cols: Range<usize>,
    data: BlockData<S>,
}

/// Public structural summary of one block (see
/// [`BlockedTri::block_summaries`]).
#[derive(Debug, Clone)]
pub struct BlockSummary {
    /// Row range in the reordered matrix.
    pub rows: Range<usize>,
    /// Column range in the reordered matrix.
    pub cols: Range<usize>,
    /// Shape-specific payload.
    pub kind: BlockKindSummary,
}

/// Shape-specific part of a [`BlockSummary`].
#[derive(Debug, Clone)]
pub enum BlockKindSummary {
    /// Triangular block: selected SpTRSV kernel and cost-model profile.
    Tri {
        /// The kernel the selection assigned.
        kernel: TriKernel,
        /// The block's structural profile.
        profile: recblock_gpu_sim::TriProfile,
    },
    /// Square block: selected SpMV kernel and profile.
    Square {
        /// The kernel the selection assigned.
        kernel: SpmvKind,
        /// The block's structural profile.
        profile: recblock_gpu_sim::SpmvProfile,
    },
}

/// Borrowed view of one block's full solver state, in execution order —
/// the read side of the persistence surface (see [`BlockedTri::block_views`]).
#[derive(Debug)]
pub struct BlockView<'a, S> {
    /// Row range in the reordered matrix.
    pub rows: Range<usize>,
    /// Column range in the reordered matrix.
    pub cols: Range<usize>,
    /// Shape-specific solver state.
    pub kind: BlockViewKind<'a, S>,
}

/// Shape-specific part of a [`BlockView`].
#[derive(Debug)]
pub enum BlockViewKind<'a, S> {
    /// Triangular block: its solver (kernel + preprocessed state) and
    /// cost-model profile.
    Tri {
        /// The preprocessed per-block solver.
        solver: &'a TriSolver<S>,
        /// The block's structural profile.
        profile: &'a TriProfile,
    },
    /// Square block: its SpMV solver (kernel + storage + profile).
    Square(&'a SqSolver<S>),
}

/// Owned deconstruction of one block — the write side of the persistence
/// surface (see [`BlockedTri::from_parts`]).
#[derive(Debug, Clone)]
pub struct BlockParts<S> {
    /// Row range in the reordered matrix.
    pub rows: Range<usize>,
    /// Column range in the reordered matrix.
    pub cols: Range<usize>,
    /// Shape-specific solver state.
    pub kind: BlockPartsKind<S>,
}

/// Shape-specific part of a [`BlockParts`].
// Mirrors `BlockData` (few instances, boxing buys nothing — see there).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum BlockPartsKind<S> {
    /// Triangular block.
    Tri {
        /// The preprocessed per-block solver.
        solver: TriSolver<S>,
        /// The block's structural profile.
        profile: TriProfile,
    },
    /// Square block.
    Square(SqSolver<S>),
}

/// Everything needed to reconstruct a [`BlockedTri`] without re-running
/// preprocessing: permutation, block ranges in execution order, and each
/// block's fully-preprocessed solver state.
#[derive(Debug, Clone)]
pub struct BlockedTriParts<S> {
    /// Rows of the system.
    pub n: usize,
    /// Nonzeros of the system.
    pub nnz: usize,
    /// Recursion depth used by the original build.
    pub depth: usize,
    /// The reordering permutation (`perm[new] = old`).
    pub perm: Permutation,
    /// Engine tuning the blocks' schedules were planned under. Persisted so
    /// a reload reproduces the original plan exactly.
    pub tune: TuneParams,
    /// Blocks in execution order.
    pub blocks: Vec<BlockParts<S>>,
}

/// Census of which kernels the adaptive selection assigned.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelCensus {
    /// `(kernel, block count)` for the triangular blocks.
    pub tri: Vec<(TriKernel, usize)>,
    /// `(kernel, block count)` for the square blocks.
    pub spmv: Vec<(SpmvKind, usize)>,
}

/// The improved recursive block structure: reordered, flattened, with
/// per-block kernels selected — ready to solve many right-hand sides.
#[derive(Debug, Clone)]
pub struct BlockedTri<S> {
    n: usize,
    nnz: usize,
    depth: usize,
    perm: Permutation,
    /// `true` when `perm` is the identity — gather/scatter degrade to plain
    /// copies (or are skipped entirely) on the solve hot path.
    ident: bool,
    tune: TuneParams,
    blocks: Vec<Block<S>>,
    traffic: TrafficCounts,
    report: SelectionReport,
}

/// Is `perm[new] = old` the identity map?
fn perm_is_identity(perm: &Permutation) -> bool {
    perm.forward().iter().enumerate().all(|(new, &old)| new == old)
}

impl<S: Scalar> BlockedTri<S> {
    /// Preprocess `l` (the paper's whole preprocessing stage).
    pub fn build(l: &Csr<S>, opts: &BlockedOptions) -> Result<Self, MatrixError> {
        recblock_matrix::triangular::check_solvable_lower(l)?;
        let n = l.nrows();
        let depth = match &opts.depth {
            DepthRule::Auto(dev) => partition::depth_for(n, dev.min_block_rows()),
            DepthRule::Fixed(d) => *d,
        };
        let t_reorder = Instant::now();
        let (matrix, perm) = if opts.reorder {
            crate::reorder::recursive_levelset_reorder(l, depth)?
        } else {
            (l.clone(), Permutation::identity(n))
        };
        let reorder_time = opts.reorder.then(|| t_reorder.elapsed());
        let plan = partition::recursive_plan(n, depth);
        let mut traffic = TrafficCounts::default();
        for node in &plan {
            match node {
                PlanNode::Tri { rows } => traffic.tri(rows.len()),
                PlanNode::Square { rows, cols } => traffic.spmv(rows.len(), cols.len()),
            }
        }
        // Blocks are independent once the matrix is reordered: extract,
        // profile and preprocess them in parallel (this is the bulk of the
        // Table 5 preprocessing cost).
        let blocks = build_blocks(&plan, &matrix, opts)?;
        let report = make_report(
            n,
            l.nnz(),
            depth,
            &blocks,
            &opts.selector,
            Some(opts.allow_dcsr),
            &opts.tune,
            reorder_time,
            false,
        );
        let ident = perm_is_identity(&perm);
        Ok(BlockedTri {
            n,
            nnz: l.nnz(),
            depth,
            perm,
            ident,
            tune: opts.tune,
            blocks,
            traffic,
            report,
        })
    }

    /// Rows of the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nonzeros of the system.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Recursion depth used.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of blocks in execution order (`2^(d+1) − 1`).
    pub fn nblocks(&self) -> usize {
        self.blocks.len()
    }

    /// The reordering permutation (`perm[new] = old`).
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Engine tuning every block schedule was planned under.
    pub fn tune(&self) -> TuneParams {
        self.tune
    }

    /// Dense-counted traffic of one solve (Tables 1–2 accounting).
    pub fn traffic(&self) -> TrafficCounts {
        self.traffic
    }

    /// The per-block kernel-selection report recorded when this plan was
    /// built (or re-derived when it was reloaded from persisted parts).
    pub fn selection_report(&self) -> &SelectionReport {
        &self.report
    }

    /// Structural summaries of every block in execution order — the
    /// introspection surface for tuning/agreement studies (Figure 5's data
    /// collection over real blocks).
    pub fn block_summaries(&self) -> Vec<BlockSummary> {
        self.blocks
            .iter()
            .map(|b| match &b.data {
                BlockData::Tri { solver, profile } => BlockSummary {
                    rows: b.rows.clone(),
                    cols: b.cols.clone(),
                    kind: BlockKindSummary::Tri {
                        kernel: solver.kernel(),
                        profile: profile.clone(),
                    },
                },
                BlockData::Square(sq) => BlockSummary {
                    rows: b.rows.clone(),
                    cols: b.cols.clone(),
                    kind: BlockKindSummary::Square { kernel: sq.kind(), profile: *sq.profile() },
                },
            })
            .collect()
    }

    /// Borrowed views of every block's full solver state in execution
    /// order — what a persistence layer serializes (matrices in their final
    /// storage formats, level schedules, profiles), so reloading skips the
    /// whole preprocessing stage.
    pub fn block_views(&self) -> impl Iterator<Item = BlockView<'_, S>> + '_ {
        self.blocks.iter().map(|b| BlockView {
            rows: b.rows.clone(),
            cols: b.cols.clone(),
            kind: match &b.data {
                BlockData::Tri { solver, profile } => BlockViewKind::Tri { solver, profile },
                BlockData::Square(sq) => BlockViewKind::Square(sq),
            },
        })
    }

    /// Reconstruct a structure from persisted parts, skipping the reorder /
    /// extraction / profiling / selection work of [`BlockedTri::build`].
    ///
    /// Validates the shape invariants the solve loop relies on: the
    /// permutation covers `n`, every block range lies inside `0..n`,
    /// triangular blocks sit on the diagonal, each block's solver matches
    /// its range, and block nonzeros sum to `nnz`. Traffic counters are
    /// recomputed from the block shapes (they are structure-independent).
    pub fn from_parts(parts: BlockedTriParts<S>) -> Result<Self, MatrixError> {
        let BlockedTriParts { n, nnz, depth, perm, tune, blocks } = parts;
        if perm.len() != n {
            return Err(MatrixError::DimensionMismatch {
                what: "blocked parts permutation",
                expected: n,
                actual: perm.len(),
            });
        }
        let mut traffic = TrafficCounts::default();
        let mut block_nnz = 0usize;
        let mut out = Vec::with_capacity(blocks.len());
        for b in blocks {
            if b.rows.start > b.rows.end
                || b.cols.start > b.cols.end
                || b.rows.end > n
                || b.cols.end > n
            {
                return Err(MatrixError::IndexOutOfBounds {
                    what: "blocked parts range",
                    index: b.rows.end.max(b.cols.end),
                    bound: n,
                });
            }
            let data = match b.kind {
                BlockPartsKind::Tri { solver, profile } => {
                    if b.rows != b.cols {
                        return Err(MatrixError::DimensionMismatch {
                            what: "blocked parts tri block off the diagonal",
                            expected: b.rows.start,
                            actual: b.cols.start,
                        });
                    }
                    if solver.n() != b.rows.len() {
                        return Err(MatrixError::DimensionMismatch {
                            what: "blocked parts tri solver size",
                            expected: b.rows.len(),
                            actual: solver.n(),
                        });
                    }
                    block_nnz += solver.nnz();
                    traffic.tri(b.rows.len());
                    BlockData::Tri { solver, profile }
                }
                BlockPartsKind::Square(sq) => {
                    if sq.nrows() != b.rows.len() || sq.ncols() != b.cols.len() {
                        return Err(MatrixError::DimensionMismatch {
                            what: "blocked parts square solver size",
                            expected: b.rows.len(),
                            actual: sq.nrows(),
                        });
                    }
                    block_nnz += sq.profile().nnz;
                    traffic.spmv(b.rows.len(), b.cols.len());
                    BlockData::Square(sq)
                }
            };
            out.push(Block { rows: b.rows, cols: b.cols, data });
        }
        if block_nnz != nnz {
            return Err(MatrixError::DimensionMismatch {
                what: "blocked parts nonzero conservation",
                expected: nnz,
                actual: block_nnz,
            });
        }
        // The original selector and options are not persisted: re-derive the
        // decision trail with the defaults and let the reconciliation in
        // `explain` note any block where the stored kernel disagrees. The
        // persisted tune *is* known and is named in those messages.
        let report =
            make_report(n, nnz, depth, &out, &Selector::default(), None, &tune, None, true);
        let ident = perm_is_identity(&perm);
        Ok(BlockedTri { n, nnz, depth, perm, ident, tune, blocks: out, traffic, report })
    }

    /// Re-plan every block's execution schedule under `tune`, keeping the
    /// reorder permutation, the block partition, and each block's selected
    /// kernel and storage exactly as built. This is the autotuner's
    /// replay primitive: trying a candidate tuning costs only schedule
    /// re-planning (`O(nnz)` worst case), not the full preprocessing stage
    /// — no reorder, no extraction, no profiling, no selection. The
    /// decision trail is re-derived so [`BlockedTri::selection_report`]
    /// reconciles against the retained kernels under the new tuning.
    pub fn retuned(&self, tune: TuneParams) -> Result<Self, MatrixError> {
        let blocks = self
            .blocks
            .iter()
            .map(|b| -> Result<Block<S>, MatrixError> {
                let data = match &b.data {
                    BlockData::Tri { solver, profile } => {
                        BlockData::Tri { solver: solver.retuned(tune)?, profile: profile.clone() }
                    }
                    BlockData::Square(sq) => BlockData::Square(sq.retuned(tune)),
                };
                Ok(Block { rows: b.rows.clone(), cols: b.cols.clone(), data })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let report = make_report(
            self.n,
            self.nnz,
            self.depth,
            &blocks,
            &Selector::default(),
            None,
            &tune,
            self.report.reorder_time,
            true,
        );
        Ok(BlockedTri {
            n: self.n,
            nnz: self.nnz,
            depth: self.depth,
            perm: self.perm.clone(),
            ident: self.ident,
            tune,
            blocks,
            traffic: self.traffic,
            report,
        })
    }

    /// Which kernels the selection assigned, per block count.
    pub fn census(&self) -> KernelCensus {
        let mut census = KernelCensus::default();
        for b in &self.blocks {
            match &b.data {
                BlockData::Tri { solver, .. } => bump_tri(&mut census.tri, solver.kernel()),
                BlockData::Square(sq) => bump_spmv(&mut census.spmv, sq.kind()),
            }
        }
        census
    }

    /// Solve `L x = b`: [`BlockedTri::solve_into`] on a fresh workspace.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>, MatrixError> {
        let mut x = vec![S::ZERO; self.n];
        self.solve_into(b, &mut x, &mut SolveWorkspace::new())?;
        Ok(x)
    }

    /// Solve into caller-provided buffers, reusing a [`SolveWorkspace`] so
    /// repeated solves (the iterative scenario) run the whole block walk —
    /// gather, every per-block kernel, scatter — without a single heap
    /// allocation once the workspace has warmed up. Each triangular block
    /// executes its preplanned schedule in place via
    /// [`TriSolver::solve_into`]; each square block applies its preplanned
    /// SpMV chunking via [`SqSolver::apply`].
    pub fn solve_into(
        &self,
        b: &[S],
        x_out: &mut [S],
        ws: &mut SolveWorkspace<S>,
    ) -> Result<(), MatrixError> {
        if b.len() != self.n || x_out.len() != self.n {
            return Err(MatrixError::DimensionMismatch {
                what: "blocked solve buffers",
                expected: self.n,
                actual: b.len().min(x_out.len()),
            });
        }
        let (work, x) = ws.pair(self.n);
        // Gather b into the reordered space. An identity permutation (the
        // reorder found nothing to move, or reordering was disabled)
        // degrades to a straight memcpy.
        let t0 = SolveTrace::start();
        if self.ident {
            work.copy_from_slice(b);
        } else {
            for (new, &old) in self.perm.forward().iter().enumerate() {
                work[new] = b[old];
            }
        }
        SolveTrace::finish(t0, EventKind::Gather, 0, self.n as u32, 0);
        if self.ident {
            // Identity fast path: solve straight into the caller's buffer
            // and skip the scatter pass (and its extra n-vector of traffic)
            // entirely.
            self.walk_blocks::<1>(work, x_out)?;
            let t0 = SolveTrace::start();
            SolveTrace::finish(t0, EventKind::Scatter, 0, 0, 0);
            return Ok(());
        }
        self.walk_blocks::<1>(work, x)?;
        // Scatter back to the original ordering.
        let t0 = SolveTrace::start();
        for (new, &old) in self.perm.forward().iter().enumerate() {
            x_out[old] = x[new];
        }
        SolveTrace::finish(t0, EventKind::Scatter, 0, self.n as u32, 0);
        Ok(())
    }

    /// The block walk shared by single solves and multi-RHS panels: `work`
    /// holds the gathered right-hand side (mutated by square blocks) and
    /// `x` receives the solution in reordered space, both as `W`-wide
    /// row-interleaved panels (`W = 1` for a single column), so block row
    /// range `r` is the sub-slice `r.start·W..r.end·W`.
    fn walk_blocks<const W: usize>(&self, work: &mut [S], x: &mut [S]) -> Result<(), MatrixError> {
        let span = |r: &Range<usize>| r.start * W..r.end * W;
        for (bi, block) in self.blocks.iter().enumerate() {
            let t0 = SolveTrace::start();
            match &block.data {
                BlockData::Tri { solver, .. } => {
                    solver.solve_panel::<W>(&work[span(&block.rows)], &mut x[span(&block.rows)])?;
                    SolveTrace::finish(
                        t0,
                        EventKind::BlockTri,
                        bi as u32,
                        block.rows.len() as u32,
                        0,
                    );
                }
                BlockData::Square(sq) => {
                    sq.apply_panel::<W>(&x[span(&block.cols)], &mut work[span(&block.rows)])?;
                    SolveTrace::finish(
                        t0,
                        EventKind::BlockSquare,
                        bi as u32,
                        block.rows.len() as u32,
                        sq.plan().nchunks().min(u16::MAX as usize) as u16,
                    );
                }
            }
        }
        Ok(())
    }

    /// Multi-right-hand-side solve `L X = B`: [`BlockedTri::solve_multi_ws`]
    /// on a fresh workspace.
    pub fn solve_multi(
        &self,
        b: &recblock_kernels::sptrsm::MultiVector<S>,
    ) -> Result<recblock_kernels::sptrsm::MultiVector<S>, MatrixError> {
        let mut out = recblock_kernels::sptrsm::MultiVector::zeros(self.n, b.k());
        self.solve_multi_ws(b, &mut out, &mut SolveWorkspace::new())?;
        Ok(out)
    }

    /// The multi-RHS path, with a caller-held [`SolveWorkspace`].
    ///
    /// The `k` columns of `b` are split greedily into panels of 8, 4, 2
    /// and 1 ([`recblock_kernels::exec::panels`]). Each panel is
    /// gather-transposed once into the workspace as a row-interleaved
    /// `n × W` block, the block list is walked once with every kernel
    /// running its `W`-wide form — each nonzero and column index is loaded
    /// once per panel, not once per column — and the solution is
    /// transpose-scattered back into `out`. Every column is bit-identical
    /// to [`BlockedTri::solve_into`] on it. A plan with a sync-free block
    /// solves column by column instead: the CSC sync-free kernel has no
    /// multi-column form.
    ///
    /// The workspace only grows, so once it has held the widest panel,
    /// batches of any width run with zero heap allocations.
    pub fn solve_multi_ws(
        &self,
        b: &recblock_kernels::sptrsm::MultiVector<S>,
        out: &mut recblock_kernels::sptrsm::MultiVector<S>,
        ws: &mut SolveWorkspace<S>,
    ) -> Result<(), MatrixError> {
        if b.n() != self.n {
            return Err(MatrixError::DimensionMismatch {
                what: "blocked multi-rhs rows",
                expected: self.n,
                actual: b.n(),
            });
        }
        if out.n() != self.n || out.k() != b.k() {
            return Err(MatrixError::DimensionMismatch {
                what: "blocked multi-rhs output shape",
                expected: self.n * b.k(),
                actual: out.n() * out.k(),
            });
        }
        let syncfree = self
            .blocks
            .iter()
            .any(|blk| matches!(blk.data, BlockData::Tri { solver: TriSolver::SyncFree(_), .. }));
        if syncfree {
            for j in 0..b.k() {
                self.solve_into(b.col(j), out.col_mut(j), ws)?;
            }
            return Ok(());
        }
        for cols in recblock_kernels::exec::panels(b.k()) {
            match cols.len() {
                8 => self.solve_panel::<8>(b, out, cols, ws)?,
                4 => self.solve_panel::<4>(b, out, cols, ws)?,
                2 => self.solve_panel::<2>(b, out, cols, ws)?,
                _ => self.solve_into(b.col(cols.start), out.col_mut(cols.start), ws)?,
            }
        }
        Ok(())
    }

    /// One `W`-wide panel of [`BlockedTri::solve_multi_ws`]: gather-transpose
    /// columns `cols` of `b`, walk the blocks, transpose-scatter into `out`.
    fn solve_panel<const W: usize>(
        &self,
        b: &recblock_kernels::sptrsm::MultiVector<S>,
        out: &mut recblock_kernels::sptrsm::MultiVector<S>,
        cols: Range<usize>,
        ws: &mut SolveWorkspace<S>,
    ) -> Result<(), MatrixError> {
        let perm = (!self.ident).then(|| self.perm.forward());
        let (work, x) = ws.pair(self.n * W);
        let t0 = SolveTrace::start();
        b.gather_panel::<W>(cols.clone(), perm, work);
        SolveTrace::finish(t0, EventKind::Gather, 0, self.n as u32, 0);
        self.walk_blocks::<W>(work, x)?;
        let t0 = SolveTrace::start();
        out.scatter_panel::<W>(cols, perm, x);
        SolveTrace::finish(t0, EventKind::Scatter, 0, self.n as u32, 0);
        Ok(())
    }

    /// Predicted GPU time per part under the cost model.
    pub fn simulated_breakdown(&self, dev: &DeviceSpec, params: &CostParams) -> SimBreakdown {
        self.simulated_breakdown_bytes(S::BYTES, dev, params)
    }

    /// As [`BlockedTri::simulated_breakdown`] with an explicit element
    /// width, so one built structure prices both precisions (Figure 7).
    pub fn simulated_breakdown_bytes(
        &self,
        scalar_bytes: usize,
        dev: &DeviceSpec,
        params: &CostParams,
    ) -> SimBreakdown {
        let mut sim = SimBreakdown::default();
        for block in &self.blocks {
            match &block.data {
                BlockData::Tri { solver, profile } => {
                    let ws = block.rows.len() * 3 * scalar_bytes;
                    sim.tri = sim.tri.seq(solver.simulated_time_bytes(
                        profile,
                        scalar_bytes,
                        ws,
                        dev,
                        params,
                    ));
                }
                BlockData::Square(sq) => {
                    let ws = (block.rows.len() + block.cols.len()) * 2 * scalar_bytes;
                    sim.spmv = sim.spmv.seq(sq.simulated_time_bytes(scalar_bytes, ws, dev, params));
                }
            }
        }
        sim
    }

    /// Total predicted GPU solve time.
    pub fn simulated_time(&self, dev: &DeviceSpec, params: &CostParams) -> KernelTime {
        self.simulated_breakdown(dev, params).total()
    }

    /// Predicted GPU preprocessing time (reorder + rebuild; Table 5).
    pub fn simulated_prep_time(&self, params: &CostParams) -> f64 {
        recblock_gpu_sim::cost::block_prep_time(self.nnz, params)
    }
}

/// Extract, profile and preprocess every plan node, returning the blocks in
/// plan order. Several nodes build on a `std::thread::scope` team of
/// `min(available_parallelism, nodes)` threads, each claiming the next node
/// from an atomic cursor; a single node builds inline.
fn build_blocks<S: Scalar>(
    plan: &[PlanNode],
    matrix: &Csr<S>,
    opts: &BlockedOptions,
) -> Result<Vec<Block<S>>, MatrixError> {
    let nthreads = std::thread::available_parallelism().map_or(1, |p| p.get()).min(plan.len());
    if nthreads <= 1 {
        return plan.iter().map(|node| build_block(node, matrix, opts)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut built: Vec<(usize, Result<Block<S>, MatrixError>)> = std::thread::scope(|scope| {
        let team: Vec<_> = (0..nthreads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(node) = plan.get(i) else { return mine };
                        mine.push((i, build_block(node, matrix, opts)));
                    }
                })
            })
            .collect();
        team.into_iter()
            .flat_map(|t| t.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    built.sort_unstable_by_key(|&(i, _)| i);
    built.into_iter().map(|(_, block)| block).collect()
}

/// Build one block of the reordered `matrix`: a triangular leaf gets the
/// SpTRSV kernel the selection chooses, a square block its SpMV kernel and
/// storage.
fn build_block<S: Scalar>(
    node: &PlanNode,
    matrix: &Csr<S>,
    opts: &BlockedOptions,
) -> Result<Block<S>, MatrixError> {
    Ok(match node {
        PlanNode::Tri { rows } => {
            let tri = matrix.submatrix(rows.clone(), rows.clone());
            let (solver, profile) = TriSolver::build_adaptive_tuned(
                tri,
                &opts.selector,
                opts.syncfree_threads,
                opts.tune,
            )?;
            Block {
                rows: rows.clone(),
                cols: rows.clone(),
                data: BlockData::Tri { solver, profile },
            }
        }
        PlanNode::Square { rows, cols } => {
            let sq = matrix.submatrix(rows.clone(), cols.clone());
            let solver = SqSolver::build_tuned(sq, &opts.selector, opts.allow_dcsr, opts.tune);
            Block { rows: rows.clone(), cols: cols.clone(), data: BlockData::Square(solver) }
        }
    })
}

/// Assemble the explainability report for a built (or reloaded) block list.
/// `allow_dcsr = None` and `derived = true` mark a persisted plan whose
/// original options are unknown; `tune` is the engine tuning the plan's
/// schedules were actually planned under, so reconciliation messages can
/// name a persisted tuning instead of misreporting process defaults.
#[allow(clippy::too_many_arguments)]
fn make_report<S: Scalar>(
    n: usize,
    nnz: usize,
    depth: usize,
    blocks: &[Block<S>],
    selector: &Selector,
    allow_dcsr: Option<bool>,
    tune: &TuneParams,
    reorder_time: Option<Duration>,
    derived: bool,
) -> SelectionReport {
    let decisions = blocks
        .iter()
        .enumerate()
        .map(|(index, b)| match &b.data {
            BlockData::Tri { solver, profile } => BlockDecision {
                index,
                rows: b.rows.clone(),
                cols: b.cols.clone(),
                nnz: solver.nnz(),
                kind: BlockDecisionKind::Tri {
                    decision: explain::tri_decision(selector, profile, solver.kernel(), tune),
                    nnz_per_row: profile.nnz_per_row(),
                    nlevels: profile.nlevels(),
                    shape: LevelShape::from_level_rows(&profile.level_rows),
                    schedule: solver.schedule_stats(),
                    schedule_mode: solver.schedule_mode(),
                    tasks: solver.task_stats(),
                },
            },
            BlockData::Square(sq) => BlockDecision {
                index,
                rows: b.rows.clone(),
                cols: b.cols.clone(),
                nnz: sq.profile().nnz,
                kind: BlockDecisionKind::Square {
                    decision: explain::spmv_decision(
                        selector,
                        sq.profile(),
                        sq.kind(),
                        allow_dcsr,
                        tune,
                    ),
                    nnz_per_row: sq.profile().nnz_per_row(),
                    empty_ratio: sq.profile().empty_ratio(),
                    nchunks: sq.plan().nchunks(),
                },
            },
        })
        .collect();
    SelectionReport { n, nnz, depth, reorder_time, derived, blocks: decisions }
}

fn bump_tri(v: &mut Vec<(TriKernel, usize)>, k: TriKernel) {
    if let Some(e) = v.iter_mut().find(|(kk, _)| *kk == k) {
        e.1 += 1;
    } else {
        v.push((k, 1));
    }
}

fn bump_spmv(v: &mut Vec<(SpmvKind, usize)>, k: SpmvKind) {
    if let Some(e) = v.iter_mut().find(|(kk, _)| *kk == k) {
        e.1 += 1;
    } else {
        v.push((k, 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recblock_kernels::sptrsv::serial_csr;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    fn opts(depth: usize) -> BlockedOptions {
        BlockedOptions { depth: DepthRule::Fixed(depth), ..BlockedOptions::default() }
    }

    fn check(l: Csr<f64>, depth: usize) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 29) as f64) - 14.0).collect();
        let reference = serial_csr(&l, &b).unwrap();
        let s = BlockedTri::build(&l, &opts(depth)).unwrap();
        let x = s.solve(&b).unwrap();
        assert!(max_rel_diff(&x, &reference) < 1e-10, "depth={depth}");
    }

    #[test]
    fn matches_serial_various_depths() {
        let l = generate::random_lower::<f64>(700, 4.0, 51);
        for depth in 0..6usize {
            check(l.clone(), depth);
        }
    }

    #[test]
    fn matches_serial_on_structures() {
        check(generate::grid2d::<f64>(26, 25, 52), 3);
        check(generate::chain::<f64>(400, 53), 4);
        check(generate::kkt_like::<f64>(1200, 500, 3, 54), 3);
        check(generate::hub_power_law::<f64>(900, 7, 2, 40, 55), 3);
        check(generate::layered::<f64>(800, 15, 2.0, generate::LayerShape::Uniform, 56), 3);
    }

    #[test]
    fn no_reorder_still_correct() {
        let l = generate::layered::<f64>(600, 10, 2.0, generate::LayerShape::Uniform, 57);
        let o = BlockedOptions { reorder: false, ..opts(3) };
        let s = BlockedTri::build(&l, &o).unwrap();
        let b = vec![1.5; 600];
        assert!(max_rel_diff(&s.solve(&b).unwrap(), &serial_csr(&l, &b).unwrap()) < 1e-10);
    }

    #[test]
    fn no_dcsr_still_correct() {
        let l = generate::hub_power_law::<f64>(800, 6, 2, 0, 58);
        let o = BlockedOptions { allow_dcsr: false, ..opts(3) };
        let s = BlockedTri::build(&l, &o).unwrap();
        let b = vec![0.5; 800];
        assert!(max_rel_diff(&s.solve(&b).unwrap(), &serial_csr(&l, &b).unwrap()) < 1e-10);
        for (k, _) in s.census().spmv {
            assert!(!matches!(k, SpmvKind::ScalarDcsr | SpmvKind::VectorDcsr));
        }
    }

    #[test]
    fn block_count_matches_plan() {
        let l = generate::random_lower::<f64>(512, 3.0, 59);
        let s = BlockedTri::build(&l, &opts(3)).unwrap();
        assert_eq!(s.nblocks(), (1 << 4) - 1);
        assert_eq!(s.depth(), 3);
    }

    #[test]
    fn auto_depth_follows_device_rule() {
        let l = generate::random_lower::<f64>(2000, 3.0, 60);
        let dev = DeviceSpec::titan_rtx_turing();
        let o = BlockedOptions { depth: DepthRule::Auto(dev.clone()), ..BlockedOptions::default() };
        let s = BlockedTri::build(&l, &o).unwrap();
        // 2000 rows ≪ 92160: no split.
        assert_eq!(s.depth(), 0);
        assert_eq!(s.nblocks(), 1);
    }

    #[test]
    fn reordering_creates_diagonal_leaves() {
        // Two-level KKT: after reorder, early leaves are pure diagonal and
        // take the completely-parallel kernel.
        let l = generate::kkt_like::<f64>(2048, 800, 3, 61);
        let s = BlockedTri::build(&l, &opts(2)).unwrap();
        let census = s.census();
        let diag_blocks = census
            .tri
            .iter()
            .find(|(k, _)| *k == TriKernel::CompletelyParallel)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        assert!(diag_blocks >= 1, "census: {:?}", census);
    }

    #[test]
    fn repeated_solves_consistent() {
        let l = generate::grid2d::<f64>(30, 30, 62);
        let s = BlockedTri::build(&l, &opts(3)).unwrap();
        let b: Vec<f64> = (0..900).map(|i| (i as f64 * 0.1).cos()).collect();
        let x1 = s.solve(&b).unwrap();
        let x2 = s.solve(&b).unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn traffic_matches_recursive_formula_on_dense() {
        let n = 256;
        let l = generate::dense_lower::<f64>(n, 63);
        let o = BlockedOptions { reorder: false, ..opts(3) };
        let s = BlockedTri::build(&l, &o).unwrap();
        let t = s.traffic();
        assert_eq!(t.b_updates as f64, crate::traffic::recursive_b_updates(n, 8));
        assert_eq!(t.x_loads as f64, crate::traffic::recursive_x_loads(n, 8));
    }

    #[test]
    fn simulated_times_positive_and_composed() {
        let l = generate::layered::<f64>(1000, 8, 2.0, generate::LayerShape::Uniform, 64);
        let s = BlockedTri::build(&l, &opts(3)).unwrap();
        let dev = DeviceSpec::titan_rtx_turing();
        let params = CostParams::default();
        let sim = s.simulated_breakdown(&dev, &params);
        assert!(sim.tri.total_s > 0.0 && sim.spmv.total_s > 0.0);
        let total = s.simulated_time(&dev, &params);
        assert!((total.total_s - sim.total().total_s).abs() < 1e-12);
        assert!(s.simulated_prep_time(&params) > 0.0);
    }

    #[test]
    fn solve_multi_matches_per_column_solve() {
        use recblock_kernels::sptrsm::MultiVector;
        let l = generate::kkt_like::<f64>(900, 350, 3, 72);
        let s = BlockedTri::build(&l, &opts(3)).unwrap();
        let k = 5;
        let data: Vec<f64> = (0..900 * k).map(|i| ((i % 41) as f64) - 20.0).collect();
        let b = MultiVector::from_columns(900, k, data).unwrap();
        let fused = s.solve_multi(&b).unwrap();
        let mut ws = SolveWorkspace::new();
        let mut xj = vec![0.0; 900];
        for j in 0..k {
            // Fused and per-column walks run the same per-block kernels in
            // the same order, so they are bit-identical.
            s.solve_into(b.col(j), &mut xj, &mut ws).unwrap();
            assert_eq!(fused.col(j), &xj[..], "column {j}");
        }
    }

    #[test]
    fn solve_multi_checks_rows() {
        use recblock_kernels::sptrsm::MultiVector;
        let l = generate::diagonal::<f64>(40, 73);
        let s = BlockedTri::build(&l, &opts(1)).unwrap();
        assert!(s.solve_multi(&MultiVector::<f64>::zeros(30, 2)).is_err());
    }

    #[test]
    fn solve_into_matches_solve() {
        let l = generate::layered::<f64>(600, 9, 2.0, generate::LayerShape::Uniform, 70);
        let s = BlockedTri::build(&l, &opts(3)).unwrap();
        let b: Vec<f64> = (0..600).map(|i| (i % 7) as f64 - 3.0).collect();
        let expected = s.solve(&b).unwrap();
        let mut ws = SolveWorkspace::new();
        let mut x = vec![0.0; 600];
        s.solve_into(&b, &mut x, &mut ws).unwrap();
        assert_eq!(x, expected);
        // Workspace reuse across different right-hand sides.
        let b2: Vec<f64> = b.iter().map(|v| v * 2.0).collect();
        s.solve_into(&b2, &mut x, &mut ws).unwrap();
        assert_eq!(x, s.solve(&b2).unwrap());
    }

    #[test]
    fn solve_into_checks_buffer_sizes() {
        let l = generate::diagonal::<f64>(50, 71);
        let s = BlockedTri::build(&l, &opts(1)).unwrap();
        let mut ws = SolveWorkspace::new();
        let mut x = vec![0.0; 49];
        assert!(s.solve_into(&vec![1.0; 50], &mut x, &mut ws).is_err());
    }

    fn parts_of(s: &BlockedTri<f64>) -> BlockedTriParts<f64> {
        BlockedTriParts {
            n: s.n(),
            nnz: s.nnz(),
            depth: s.depth(),
            perm: s.permutation().clone(),
            tune: s.tune(),
            blocks: s
                .block_views()
                .map(|v| BlockParts {
                    rows: v.rows.clone(),
                    cols: v.cols.clone(),
                    kind: match v.kind {
                        BlockViewKind::Tri { solver, profile } => {
                            BlockPartsKind::Tri { solver: solver.clone(), profile: profile.clone() }
                        }
                        BlockViewKind::Square(sq) => BlockPartsKind::Square(sq.clone()),
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn parts_roundtrip_solves_identically() {
        let l = generate::kkt_like::<f64>(1000, 400, 3, 74);
        let s = BlockedTri::build(&l, &opts(3)).unwrap();
        let rebuilt = BlockedTri::from_parts(parts_of(&s)).unwrap();
        assert_eq!(rebuilt.nblocks(), s.nblocks());
        assert_eq!(rebuilt.traffic(), s.traffic());
        assert_eq!(rebuilt.census(), s.census());
        let b: Vec<f64> = (0..1000).map(|i| ((i % 17) as f64) - 8.0).collect();
        // Bit-identical: the rebuilt structure holds the same matrices and
        // schedules, so the arithmetic runs in exactly the same order.
        assert_eq!(rebuilt.solve(&b).unwrap(), s.solve(&b).unwrap());
    }

    #[test]
    fn retuned_keeps_structure_and_solves_identically() {
        use recblock_kernels::exec::ScheduleMode;
        let l = generate::layered::<f64>(800, 14, 2.0, generate::LayerShape::Uniform, 76);
        let s = BlockedTri::build(&l, &opts(2)).unwrap();
        let b: Vec<f64> = (0..800).map(|i| ((i % 19) as f64) - 9.0).collect();
        let expected = s.solve(&b).unwrap();
        for mode in [ScheduleMode::LevelSync, ScheduleMode::PointToPoint] {
            let tune = TuneParams { schedule_mode: mode, chunk_nnz: 2048, ..s.tune() };
            let r = s.retuned(tune).unwrap();
            // Partition, permutation and kernel selection are untouched.
            assert_eq!(r.nblocks(), s.nblocks());
            assert_eq!(r.census(), s.census());
            assert_eq!(r.permutation().forward(), s.permutation().forward());
            assert_eq!(r.tune(), tune);
            assert_eq!(r.traffic(), s.traffic());
            // The deterministic reduction makes every schedule bit-identical.
            assert_eq!(r.solve(&b).unwrap(), expected, "{mode:?}");
        }
    }

    #[test]
    fn from_parts_report_is_derived_but_names_stored_kernels() {
        let l = generate::kkt_like::<f64>(1000, 400, 3, 74);
        let s = BlockedTri::build(&l, &opts(3)).unwrap();
        let rebuilt = BlockedTri::from_parts(parts_of(&s)).unwrap();
        let (orig, derived) = (s.selection_report(), rebuilt.selection_report());
        assert!(!orig.derived && derived.derived);
        assert!(derived.reorder_time.is_none(), "reorder cost is not persisted");
        assert_eq!(orig.blocks.len(), derived.blocks.len());
        // The derived report must agree on every chosen kernel (it is
        // reconciled against the stored solvers, whatever the thresholds).
        for (a, b) in orig.blocks.iter().zip(&derived.blocks) {
            assert_eq!(a.kernel_name(), b.kernel_name(), "block {}", a.index);
        }
    }

    #[test]
    fn from_parts_rejects_inconsistencies() {
        let l = generate::random_lower::<f64>(300, 3.0, 75);
        let s = BlockedTri::build(&l, &opts(2)).unwrap();
        // Wrong total nonzeros.
        let mut p = parts_of(&s);
        p.nnz += 1;
        assert!(BlockedTri::from_parts(p).is_err());
        // Permutation of the wrong length.
        let mut p = parts_of(&s);
        p.perm = recblock_matrix::permute::Permutation::identity(299);
        assert!(BlockedTri::from_parts(p).is_err());
        // Block range beyond n.
        let mut p = parts_of(&s);
        p.blocks[0].rows.end = 301;
        assert!(BlockedTri::from_parts(p).is_err());
        // Tri block moved off the diagonal.
        let mut p = parts_of(&s);
        p.blocks[0].cols = 1..1 + p.blocks[0].cols.len();
        assert!(BlockedTri::from_parts(p).is_err());
    }

    #[test]
    fn f32_blocked_solve() {
        let l = generate::random_lower::<f32>(500, 4.0, 65);
        let s = BlockedTri::build(&l, &opts(2)).unwrap();
        let b = vec![1.0f32; 500];
        let x = s.solve(&b).unwrap();
        let r = recblock_matrix::vector::residual_inf(&l, &x, &b).unwrap();
        assert!(r < 1e-4);
    }

    #[test]
    fn rejects_bad_inputs() {
        let l = generate::random_lower::<f64>(100, 3.0, 66);
        let s = BlockedTri::build(&l, &opts(2)).unwrap();
        assert!(s.solve(&[1.0; 99]).is_err());
        let bad =
            Csr::<f64>::try_new(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1., 1., 1.]).unwrap();
        assert!(BlockedTri::build(&bad, &opts(1)).is_err());
    }
}
