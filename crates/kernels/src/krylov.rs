//! Preconditioned Krylov solvers — the iterative-scenario substrate.
//!
//! The paper motivates fast SpTRSV with "accelerating convergence of
//! preconditioned sparse iterative solvers": each iteration applies a
//! preconditioner `M⁻¹` built from triangular factors. This module supplies
//! conjugate gradients (for SPD systems) and BiCGStab (for general
//! systems), both over a [`Preconditioner`] trait so the triangular-solve
//! backend — serial, or the recursive block solver — is pluggable.

use recblock_matrix::{Csr, MatrixError, Scalar};

/// Application of `z = M⁻¹ r` — one preconditioning step.
pub trait Preconditioner<S: Scalar> {
    /// Apply the preconditioner to a residual.
    fn apply(&self, r: &[S]) -> Result<Vec<S>, MatrixError>;
}

/// The identity preconditioner (plain CG / BiCGStab).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl<S: Scalar> Preconditioner<S> for IdentityPreconditioner {
    fn apply(&self, r: &[S]) -> Result<Vec<S>, MatrixError> {
        Ok(r.to_vec())
    }
}

impl<S: Scalar> Preconditioner<S> for crate::ilu::Ilu0<S> {
    fn apply(&self, r: &[S]) -> Result<Vec<S>, MatrixError> {
        crate::ilu::Ilu0::apply(self, r)
    }
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct KrylovResult<S> {
    /// The computed solution.
    pub x: Vec<S>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual (2-norm).
    pub residual: f64,
    /// `true` if the tolerance was reached within the iteration budget.
    pub converged: bool,
}

/// Solver controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrylovOptions {
    /// Relative 2-norm residual tolerance.
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
}

impl Default for KrylovOptions {
    fn default() -> Self {
        KrylovOptions { tolerance: 1e-10, max_iterations: 500 }
    }
}

fn dot<S: Scalar>(a: &[S], b: &[S]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x.to_f64() * y.to_f64()).sum()
}

fn axpy<S: Scalar>(y: &mut [S], alpha: f64, x: &[S]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += S::from_f64(alpha) * xi;
    }
}

fn norm2<S: Scalar>(v: &[S]) -> f64 {
    dot(v, v).sqrt()
}

fn check_system<S: Scalar>(a: &Csr<S>, b: &[S]) -> Result<(), MatrixError> {
    if a.nrows() != a.ncols() {
        return Err(MatrixError::DimensionMismatch {
            what: "krylov operator (square required)",
            expected: a.nrows(),
            actual: a.ncols(),
        });
    }
    if b.len() != a.nrows() {
        return Err(MatrixError::DimensionMismatch {
            what: "krylov rhs",
            expected: a.nrows(),
            actual: b.len(),
        });
    }
    Ok(())
}

/// Preconditioned conjugate gradients for symmetric positive definite `A`.
pub fn pcg<S: Scalar, P: Preconditioner<S>>(
    a: &Csr<S>,
    b: &[S],
    m: &P,
    opts: &KrylovOptions,
) -> Result<KrylovResult<S>, MatrixError> {
    check_system(a, b)?;
    let n = a.nrows();
    let b_norm = norm2(b).max(f64::MIN_POSITIVE);
    let mut x = vec![S::ZERO; n];
    let mut r = b.to_vec();
    let mut z = m.apply(&r)?;
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut res = norm2(&r) / b_norm;
    let mut it = 0usize;
    while res > opts.tolerance && it < opts.max_iterations {
        let ap = a.spmv_dense(&p)?;
        let pap = dot(&p, &ap);
        if pap == 0.0 {
            break; // breakdown (A not SPD on this subspace)
        }
        let alpha = rz / pap;
        axpy(&mut x, alpha, &p);
        axpy(&mut r, -alpha, &ap);
        res = norm2(&r) / b_norm;
        if res <= opts.tolerance {
            it += 1;
            break;
        }
        z = m.apply(&r)?;
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, &zi) in p.iter_mut().zip(&z) {
            *pi = zi + S::from_f64(beta) * *pi;
        }
        it += 1;
    }
    Ok(KrylovResult { x, iterations: it, residual: res, converged: res <= opts.tolerance })
}

/// Preconditioned BiCGStab for general (nonsymmetric) `A`.
pub fn bicgstab<S: Scalar, P: Preconditioner<S>>(
    a: &Csr<S>,
    b: &[S],
    m: &P,
    opts: &KrylovOptions,
) -> Result<KrylovResult<S>, MatrixError> {
    check_system(a, b)?;
    let n = a.nrows();
    let b_norm = norm2(b).max(f64::MIN_POSITIVE);
    let mut x = vec![S::ZERO; n];
    let mut r = b.to_vec();
    let r0 = r.clone();
    let mut rho = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut v = vec![S::ZERO; n];
    let mut p = vec![S::ZERO; n];
    let mut res = norm2(&r) / b_norm;
    let mut it = 0usize;
    while res > opts.tolerance && it < opts.max_iterations {
        let rho_new = dot(&r0, &r);
        if rho_new == 0.0 {
            break; // breakdown
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + S::from_f64(beta) * (p[i] - S::from_f64(omega) * v[i]);
        }
        let ph = m.apply(&p)?;
        v = a.spmv_dense(&ph)?;
        let r0v = dot(&r0, &v);
        if r0v == 0.0 {
            break;
        }
        alpha = rho / r0v;
        let mut s = r.clone();
        axpy(&mut s, -alpha, &v);
        if norm2(&s) / b_norm <= opts.tolerance {
            axpy(&mut x, alpha, &ph);
            r = s;
            res = norm2(&r) / b_norm;
            it += 1;
            break;
        }
        let sh = m.apply(&s)?;
        let t = a.spmv_dense(&sh)?;
        let tt = dot(&t, &t);
        if tt == 0.0 {
            break;
        }
        omega = dot(&t, &s) / tt;
        axpy(&mut x, alpha, &ph);
        axpy(&mut x, omega, &sh);
        r = s;
        axpy(&mut r, -omega, &t);
        res = norm2(&r) / b_norm;
        it += 1;
        if omega == 0.0 {
            break;
        }
    }
    Ok(KrylovResult { x, iterations: it, residual: res, converged: res <= opts.tolerance })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilu::ilu0;
    use recblock_matrix::coo::Coo;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    /// Symmetric diagonally dominant operator.
    fn spd(n: usize, seed: u64) -> Csr<f64> {
        let l = generate::random_lower::<f64>(n, 3.0, seed);
        let lt = l.transpose();
        let mut coo = Coo::<f64>::with_capacity(n, n, 2 * l.nnz());
        for (i, j, v) in l.iter() {
            coo.push(i, j, v).unwrap();
        }
        for (i, j, v) in lt.iter() {
            coo.push(i, j, v).unwrap();
        }
        coo.to_csr()
    }

    /// Nonsymmetric diagonally dominant operator.
    fn nonsym(n: usize, seed: u64) -> Csr<f64> {
        let l = generate::random_lower::<f64>(n, 3.0, seed);
        let u = generate::random_lower::<f64>(n, 2.0, seed + 1).transpose();
        let mut coo = Coo::<f64>::with_capacity(n, n, l.nnz() + u.nnz());
        for (i, j, v) in l.iter() {
            coo.push(i, j, v).unwrap();
        }
        for (i, j, v) in u.iter() {
            coo.push(i, j, v).unwrap();
        }
        coo.to_csr()
    }

    fn manufactured(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 29) as f64) / 14.5 - 1.0).collect()
    }

    #[test]
    fn cg_solves_spd_system() {
        let a = spd(500, 1);
        let xt = manufactured(500);
        let b = a.spmv_dense(&xt).unwrap();
        let res = pcg(&a, &b, &IdentityPreconditioner, &KrylovOptions::default()).unwrap();
        assert!(res.converged, "residual {}", res.residual);
        assert!(max_rel_diff(&res.x, &xt) < 1e-7);
    }

    #[test]
    fn ilu_preconditioning_cuts_cg_iterations() {
        let a = spd(800, 2);
        let xt = manufactured(800);
        let b = a.spmv_dense(&xt).unwrap();
        let plain = pcg(&a, &b, &IdentityPreconditioner, &KrylovOptions::default()).unwrap();
        let f = ilu0(&a).unwrap();
        let prec = pcg(&a, &b, &f, &KrylovOptions::default()).unwrap();
        assert!(prec.converged && plain.converged);
        assert!(
            prec.iterations < plain.iterations,
            "ilu {} vs plain {}",
            prec.iterations,
            plain.iterations
        );
    }

    #[test]
    fn bicgstab_solves_nonsymmetric_system() {
        let a = nonsym(600, 3);
        let xt = manufactured(600);
        let b = a.spmv_dense(&xt).unwrap();
        let f = ilu0(&a).unwrap();
        let res = bicgstab(&a, &b, &f, &KrylovOptions::default()).unwrap();
        assert!(res.converged, "residual {}", res.residual);
        assert!(max_rel_diff(&res.x, &xt) < 1e-6);
    }

    #[test]
    fn bicgstab_with_identity_still_converges_on_dominant_system() {
        let a = nonsym(300, 4);
        let xt = manufactured(300);
        let b = a.spmv_dense(&xt).unwrap();
        let res = bicgstab(&a, &b, &IdentityPreconditioner, &KrylovOptions::default()).unwrap();
        assert!(res.converged);
    }

    #[test]
    fn iteration_budget_respected() {
        let a = spd(400, 5);
        let b = manufactured(400);
        let opts = KrylovOptions { tolerance: 1e-30, max_iterations: 3 };
        let res = pcg(&a, &b, &IdentityPreconditioner, &opts).unwrap();
        assert!(!res.converged);
        assert!(res.iterations <= 3);
    }

    #[test]
    fn dimension_checks() {
        let a = spd(10, 6);
        assert!(pcg(&a, &[1.0; 5], &IdentityPreconditioner, &KrylovOptions::default()).is_err());
        assert!(
            bicgstab(&a, &[1.0; 5], &IdentityPreconditioner, &KrylovOptions::default()).is_err()
        );
        let rect = Csr::<f64>::zero(3, 4);
        assert!(pcg(&rect, &[1.0; 3], &IdentityPreconditioner, &KrylovOptions::default()).is_err());
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = spd(50, 7);
        let res = pcg(&a, &[0.0; 50], &IdentityPreconditioner, &KrylovOptions::default()).unwrap();
        assert!(res.converged);
        assert_eq!(res.x, vec![0.0; 50]);
    }
}
