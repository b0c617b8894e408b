//! The simulated-GPU timing split shared by the block solvers.

use recblock_gpu_sim::KernelTime;

/// Simulated-GPU split of one solve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimBreakdown {
    /// Predicted time of the triangular kernels.
    pub tri: KernelTime,
    /// Predicted time of the SpMV kernels.
    pub spmv: KernelTime,
}

impl SimBreakdown {
    /// Combined predicted kernel time.
    pub fn total(&self) -> KernelTime {
        self.tri.seq(self.spmv)
    }
}
