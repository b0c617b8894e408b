//! Error type shared by the sparse-matrix substrate.

use std::fmt;

/// Errors produced while constructing, converting or reading sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// An index array refers to a row/column outside the matrix dimensions.
    IndexOutOfBounds {
        /// Human-readable description of which array was invalid.
        what: &'static str,
        /// The offending index value.
        index: usize,
        /// The exclusive bound it violated.
        bound: usize,
    },
    /// A pointer array (`row_ptr`/`col_ptr`) is not monotonically
    /// non-decreasing, has the wrong length, or does not end at `nnz`.
    MalformedPointer(&'static str),
    /// Column (or row) indices within a row (or column) are not strictly
    /// increasing.
    UnsortedIndices {
        /// The row or column in which the violation occurred.
        lane: usize,
    },
    /// The matrix was expected to be (lower/upper) triangular but is not.
    NotTriangular {
        /// Row of the violating entry.
        row: usize,
        /// Column of the violating entry.
        col: usize,
    },
    /// A diagonal entry needed for a triangular solve is missing or zero.
    SingularDiagonal {
        /// Row whose diagonal is missing/zero.
        row: usize,
    },
    /// Dimension mismatch between operands (e.g. matrix and vector).
    DimensionMismatch {
        /// What was being combined.
        what: &'static str,
        /// Expected extent.
        expected: usize,
        /// Actual extent.
        actual: usize,
    },
    /// A level decomposition is not an execution order for its matrix:
    /// row `row` depends on column `col`, which is not in an earlier level.
    LevelOrder {
        /// Row of the violating entry.
        row: usize,
        /// Column of the violating entry.
        col: usize,
    },
    /// A permutation array is not a bijection on `0..n`.
    InvalidPermutation(&'static str),
    /// The same (row, column) coordinate appears more than once in the
    /// input (0-based coordinates; for symmetric Matrix Market files this
    /// includes the mirrored position of an off-diagonal entry).
    DuplicateEntry {
        /// Row of the repeated coordinate.
        row: usize,
        /// Column of the repeated coordinate.
        col: usize,
    },
    /// Matrix Market parsing failure.
    Parse(String),
    /// Underlying I/O failure (message-only so the error stays `Clone`/`Eq`).
    Io(String),
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::IndexOutOfBounds { what, index, bound } => {
                write!(f, "{what}: index {index} out of bounds (< {bound} required)")
            }
            MatrixError::MalformedPointer(what) => write!(f, "malformed pointer array: {what}"),
            MatrixError::UnsortedIndices { lane } => {
                write!(f, "indices within lane {lane} are not strictly increasing")
            }
            MatrixError::NotTriangular { row, col } => {
                write!(f, "entry ({row}, {col}) violates the requested triangular shape")
            }
            MatrixError::SingularDiagonal { row } => {
                write!(f, "missing or zero diagonal at row {row}")
            }
            MatrixError::DimensionMismatch { what, expected, actual } => {
                write!(f, "dimension mismatch in {what}: expected {expected}, got {actual}")
            }
            MatrixError::LevelOrder { row, col } => {
                write!(f, "entry ({row}, {col}) depends on a column not in an earlier level")
            }
            MatrixError::InvalidPermutation(what) => write!(f, "invalid permutation: {what}"),
            MatrixError::DuplicateEntry { row, col } => {
                write!(f, "duplicate entry at ({row}, {col})")
            }
            MatrixError::Parse(msg) => write!(f, "parse error: {msg}"),
            MatrixError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for MatrixError {}

impl From<std::io::Error> for MatrixError {
    fn from(e: std::io::Error) -> Self {
        MatrixError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MatrixError::IndexOutOfBounds { what: "col_idx", index: 9, bound: 5 };
        assert!(e.to_string().contains("col_idx"));
        assert!(e.to_string().contains('9'));

        let e = MatrixError::SingularDiagonal { row: 3 };
        assert!(e.to_string().contains("diagonal"));

        let e = MatrixError::DimensionMismatch { what: "spmv", expected: 4, actual: 5 };
        assert!(e.to_string().contains("spmv"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: MatrixError = io.into();
        assert!(matches!(e, MatrixError::Io(_)));
    }
}
