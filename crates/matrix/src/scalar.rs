//! Floating-point scalar abstraction (`f32`/`f64`) with atomic cells.
//!
//! The sync-free SpTRSV kernels (Algorithm 3 of the paper and its CSR form)
//! publish solved values and updates between threads through
//! [`ScalarAtomic`] cells, which hold a float's bits in an atomic integer.

use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Atomic cell holding a floating-point value.
///
/// `load`/`store` use acquire/release ordering so that a value published by
/// one solver thread is visible to the busy-waiting consumer, mirroring the
/// GPU memory-fence semantics the sync-free algorithm relies on.
pub trait ScalarAtomic: Send + Sync {
    /// The scalar type stored in the cell.
    type Value: Copy;

    /// Create a cell holding `v`.
    fn new(v: Self::Value) -> Self;
    /// Acquire-load the current value.
    fn load(&self) -> Self::Value;
    /// Release-store `v`. A NaN with the [`unset`](ScalarAtomic::unset)
    /// bit pattern is stored as a quiet NaN, so a stored value never reads
    /// as unset.
    fn store(&self, v: Self::Value);
    /// Create a cell that holds no value yet. It holds a signalling-NaN bit
    /// pattern, which no arithmetic result has unless an input carried it.
    fn unset() -> Self;
    /// Acquire-load the value, or `None` while the cell is still
    /// [`unset`](ScalarAtomic::unset).
    fn try_load(&self) -> Option<Self::Value>;
}

/// Bits of an unset [`AtomicF32`]: a signalling NaN (quiet bit clear).
const UNSET_F32: u32 = 0x7F80_0001;
/// Bits of an unset [`AtomicF64`]: a signalling NaN (quiet bit clear).
const UNSET_F64: u64 = 0x7FF0_0000_0000_0001;

/// Atomic `f32` built on [`AtomicU32`].
#[derive(Debug, Default)]
pub struct AtomicF32(AtomicU32);

/// Atomic `f64` built on [`AtomicU64`].
#[derive(Debug, Default)]
pub struct AtomicF64(AtomicU64);

impl ScalarAtomic for AtomicF32 {
    type Value = f32;

    fn new(v: f32) -> Self {
        AtomicF32(AtomicU32::new(v.to_bits()))
    }

    fn load(&self) -> f32 {
        f32::from_bits(self.0.load(Ordering::Acquire))
    }

    fn store(&self, v: f32) {
        let bits = v.to_bits();
        let bits = if bits == UNSET_F32 { f32::NAN.to_bits() } else { bits };
        self.0.store(bits, Ordering::Release);
    }

    fn unset() -> Self {
        AtomicF32(AtomicU32::new(UNSET_F32))
    }

    fn try_load(&self) -> Option<f32> {
        let bits = self.0.load(Ordering::Acquire);
        (bits != UNSET_F32).then(|| f32::from_bits(bits))
    }
}

impl ScalarAtomic for AtomicF64 {
    type Value = f64;

    fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    fn store(&self, v: f64) {
        let bits = v.to_bits();
        let bits = if bits == UNSET_F64 { f64::NAN.to_bits() } else { bits };
        self.0.store(bits, Ordering::Release);
    }

    fn unset() -> Self {
        AtomicF64(AtomicU64::new(UNSET_F64))
    }

    fn try_load(&self) -> Option<f64> {
        let bits = self.0.load(Ordering::Acquire);
        (bits != UNSET_F64).then(|| f64::from_bits(bits))
    }
}

/// Floating-point element type of all matrices and vectors in the suite.
///
/// Implemented for `f32` and `f64`. The paper evaluates both precisions
/// (its Figure 7); keeping every kernel generic over `Scalar` lets a single
/// code path serve both.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + Default
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Size of one element in bytes — the GPU cost model charges memory
    /// traffic per element, which is what makes the double/single precision
    /// ratio experiment (Figure 7) meaningful.
    const BYTES: usize;
    /// Short name used in reports ("f32"/"f64").
    const NAME: &'static str;

    /// Atomic cell type for this scalar.
    type Atomic: ScalarAtomic<Value = Self>;

    /// Lossy conversion from `f64` (used by generators and test fixtures).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (used by norms and reports).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `true` if the value is finite (not NaN/±inf).
    fn is_finite(self) -> bool;
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 4;
    const NAME: &'static str = "f32";

    type Atomic = AtomicF32;

    fn from_f64(v: f64) -> Self {
        v as f32
    }

    fn to_f64(self) -> f64 {
        self as f64
    }

    fn abs(self) -> Self {
        f32::abs(self)
    }

    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 8;
    const NAME: &'static str = "f64";

    type Atomic = AtomicF64;

    fn from_f64(v: f64) -> Self {
        v
    }

    fn to_f64(self) -> f64 {
        self
    }

    fn abs(self) -> Self {
        f64::abs(self)
    }

    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_f64_roundtrip() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
    }

    #[test]
    fn atomic_f32_roundtrip() {
        let a = AtomicF32::new(0.5);
        assert_eq!(a.load(), 0.5);
        a.store(3.75);
        assert_eq!(a.load(), 3.75);
    }

    #[test]
    fn unset_cells_read_none_until_stored() {
        let a = AtomicF64::unset();
        assert_eq!(a.try_load(), None);
        a.store(-0.0);
        assert_eq!(a.try_load().map(f64::to_bits), Some((-0.0f64).to_bits()));
        let b = AtomicF32::unset();
        assert_eq!(b.try_load(), None);
        b.store(f32::NAN);
        assert!(b.try_load().is_some_and(f32::is_nan));
    }

    #[test]
    fn a_value_with_the_unset_bits_is_stored_as_a_quiet_nan() {
        let a = AtomicF64::new(1.0);
        a.store(f64::from_bits(UNSET_F64));
        assert_eq!(a.try_load().map(f64::to_bits), Some(f64::NAN.to_bits()));
        let b = AtomicF32::new(1.0);
        b.store(f32::from_bits(UNSET_F32));
        assert_eq!(b.try_load().map(f32::to_bits), Some(f32::NAN.to_bits()));
    }

    #[test]
    fn scalar_constants() {
        assert_eq!(<f64 as Scalar>::ZERO, 0.0);
        assert_eq!(<f32 as Scalar>::ONE, 1.0);
        assert_eq!(<f32 as Scalar>::BYTES, 4);
        assert_eq!(<f64 as Scalar>::BYTES, 8);
        assert_eq!(<f64 as Scalar>::NAME, "f64");
    }

    #[test]
    fn scalar_conversions() {
        assert_eq!(f32::from_f64(1.5), 1.5f32);
        assert_eq!(2.5f64.to_f64(), 2.5);
        assert_eq!((-3.0f64).abs(), 3.0);
        assert!(!(f64::NAN).is_finite());
        assert!(1.0f32.is_finite());
    }
}
