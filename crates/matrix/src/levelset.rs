//! Level-set analysis of lower-triangular systems.
//!
//! The classic construction of Anderson & Saad and Saltz (Section 2.1.2 of
//! the paper): seeing `L` as a dependency DAG, component `i` is placed in
//! level `1 + max(level of its dependencies)`. All components of a level can
//! be solved in parallel; levels must run in order.
//!
//! The paper uses this analysis three ways, all served by this module:
//! * the level-set SpTRSV kernel consumes [`LevelSets::level_items`],
//! * the adaptive selector reads `nlevels` (Figure 5(a)),
//! * the improved recursive block format reorders rows/columns by level
//!   ([`LevelSets::permutation`], Section 3.3 / Figure 3).

use crate::csr::Csr;
use crate::error::MatrixError;
use crate::permute::Permutation;
use crate::scalar::Scalar;
use crate::triangular::check_solvable_lower;

/// The level-set decomposition of a lower-triangular matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSets {
    /// `level_ptr[l]..level_ptr[l+1]` indexes `items` for level `l`.
    level_ptr: Vec<usize>,
    /// Component indices grouped by level; within a level, ascending.
    items: Vec<usize>,
    /// `level_of[i]` is the level of component `i`.
    level_of: Vec<usize>,
}

impl LevelSets {
    /// Analyse a solvable lower-triangular CSR matrix.
    pub fn analyse<S: Scalar>(l: &Csr<S>) -> Result<Self, MatrixError> {
        check_solvable_lower(l)?;
        Ok(Self::analyse_unchecked(l))
    }

    /// Analyse without the solvability precheck. The matrix must be lower
    /// triangular (entries with `col > row` would be ignored silently).
    pub fn analyse_unchecked<S: Scalar>(l: &Csr<S>) -> Self {
        let n = l.nrows();
        let mut level_of = vec![0usize; n];
        let mut nlevels = 0usize;
        for i in 0..n {
            let (cols, _) = l.row(i);
            let mut lvl = 0usize;
            for &j in cols {
                if j < i {
                    let cand = level_of[j] + 1;
                    if cand > lvl {
                        lvl = cand;
                    }
                }
            }
            level_of[i] = lvl;
            if lvl + 1 > nlevels {
                nlevels = lvl + 1;
            }
        }
        if n == 0 {
            return LevelSets { level_ptr: vec![0], items: Vec::new(), level_of };
        }
        // Counting sort components by level; stable, so components within a
        // level keep their original ascending order ("physically moved
        // together", Section 3.3).
        let mut level_ptr = vec![0usize; nlevels + 1];
        for &lvl in &level_of {
            level_ptr[lvl + 1] += 1;
        }
        for l in 0..nlevels {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut items = vec![0usize; n];
        let mut next = level_ptr.clone();
        for (i, &lvl) in level_of.iter().enumerate() {
            items[next[lvl]] = i;
            next[lvl] += 1;
        }
        LevelSets { level_ptr, items, level_of }
    }

    /// Rebuild a decomposition from its stored arrays (the persistence
    /// path: a plan store saves `level_ptr` and `items`, then reconstructs
    /// here instead of re-running [`LevelSets::analyse`]).
    ///
    /// Validates that `level_ptr` is monotone and spans `items` exactly and
    /// that `items` enumerates `0..n` once each; `level_of` is recomputed.
    /// The *topological* property (every dependency in an earlier level)
    /// needs the matrix, so the solvers that accept external levels check
    /// it when they are built.
    pub fn from_parts(level_ptr: Vec<usize>, items: Vec<usize>) -> Result<Self, MatrixError> {
        if level_ptr.is_empty() || level_ptr[0] != 0 {
            return Err(MatrixError::MalformedPointer("level_ptr must start at 0"));
        }
        if level_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(MatrixError::MalformedPointer("level_ptr must be non-decreasing"));
        }
        if *level_ptr.last().unwrap() != items.len() {
            return Err(MatrixError::MalformedPointer("level_ptr must end at items.len()"));
        }
        let n = items.len();
        let mut level_of = vec![usize::MAX; n];
        for lvl in 0..level_ptr.len() - 1 {
            for &i in &items[level_ptr[lvl]..level_ptr[lvl + 1]] {
                if i >= n {
                    return Err(MatrixError::IndexOutOfBounds {
                        what: "level items",
                        index: i,
                        bound: n,
                    });
                }
                if level_of[i] != usize::MAX {
                    return Err(MatrixError::InvalidPermutation("level items repeat a component"));
                }
                level_of[i] = lvl;
            }
        }
        // Every slot filled ⇔ items is a bijection of 0..n.
        debug_assert!(level_of.iter().all(|&l| l != usize::MAX));
        Ok(LevelSets { level_ptr, items, level_of })
    }

    /// Number of levels.
    pub fn nlevels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// Number of components.
    pub fn n(&self) -> usize {
        self.level_of.len()
    }

    /// Pointer array over [`Self::level_items`].
    pub fn level_ptr(&self) -> &[usize] {
        &self.level_ptr
    }

    /// All components grouped by level.
    pub fn items(&self) -> &[usize] {
        &self.items
    }

    /// Level of component `i`.
    pub fn level_of(&self, i: usize) -> usize {
        self.level_of[i]
    }

    /// Components of level `l`.
    pub fn level_items(&self, l: usize) -> &[usize] {
        &self.items[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// Number of components in level `l` — the "parallelism" of that level.
    pub fn level_size(&self, l: usize) -> usize {
        self.level_ptr[l + 1] - self.level_ptr[l]
    }

    /// (min, average, max) level sizes — the parallelism columns of the
    /// paper's Table 4.
    pub fn parallelism(&self) -> (usize, f64, usize) {
        if self.nlevels() == 0 {
            return (0, 0.0, 0);
        }
        let mut min = usize::MAX;
        let mut max = 0usize;
        for l in 0..self.nlevels() {
            let s = self.level_size(l);
            min = min.min(s);
            max = max.max(s);
        }
        (min, self.n() as f64 / self.nlevels() as f64, max)
    }

    /// The level-order permutation (`perm[new] = old`): components sorted by
    /// level, original order preserved within a level. Because level order is
    /// a topological order of the dependency DAG, symmetric permutation by it
    /// keeps the matrix lower triangular.
    pub fn permutation(&self) -> Permutation {
        Permutation::from_forward(self.items.clone())
            .expect("level items enumerate each component exactly once")
    }

    /// Level-order permutation with an explicit within-level order. Any
    /// within-level order preserves triangularity (components of one level
    /// are mutually independent); sorting heavy rows last within their level
    /// pushes their off-level nonzeros toward the square blocks, the effect
    /// the paper's Section 3.3 observes of level sorting.
    pub fn permutation_ordered<S: Scalar>(
        &self,
        l: &crate::csr::Csr<S>,
        order: WithinLevelOrder,
    ) -> Permutation {
        let mut items = self.items.clone();
        if order != WithinLevelOrder::ByIndex {
            for lv in 0..self.nlevels() {
                let slice = &mut items[self.level_ptr[lv]..self.level_ptr[lv + 1]];
                match order {
                    WithinLevelOrder::ByIndex => {}
                    WithinLevelOrder::ShortRowsFirst => {
                        slice.sort_by_key(|&i| (l.row_nnz(i), i));
                    }
                    WithinLevelOrder::LongRowsFirst => {
                        slice.sort_by_key(|&i| (usize::MAX - l.row_nnz(i), i));
                    }
                }
            }
        }
        Permutation::from_forward(items)
            .expect("within-level reordering keeps the enumeration a bijection")
    }
}

/// How components are ordered inside one level set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WithinLevelOrder {
    /// Original index order (stable; the default).
    #[default]
    ByIndex,
    /// Shortest rows first — heavy rows sink to the end of their level.
    ShortRowsFirst,
    /// Longest rows first.
    LongRowsFirst,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permute::permute_symmetric;

    /// The 8×8 example of the paper's Figure 1: 15 nonzeros, 4 level sets
    /// {0,1,6}, {2,3,4}, {5}, {7}.
    pub fn figure1_matrix() -> Csr<f64> {
        let mut coo = crate::coo::Coo::<f64>::new(8, 8);
        let entries = [
            (0, 0),
            (1, 1),
            (2, 0),
            (2, 2),
            (3, 1),
            (3, 3),
            (4, 1),
            (4, 4),
            (5, 2),
            (5, 3),
            (5, 5),
            (6, 6),
            (7, 4),
            (7, 5),
            (7, 7),
        ];
        for &(i, j) in &entries {
            coo.push(i, j, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn figure1_has_four_levels() {
        let l = figure1_matrix();
        assert_eq!(l.nnz(), 15);
        let ls = LevelSets::analyse(&l).unwrap();
        assert_eq!(ls.nlevels(), 4);
        assert_eq!(ls.level_items(0), &[0, 1, 6]);
        assert_eq!(ls.level_items(1), &[2, 3, 4]);
        assert_eq!(ls.level_items(2), &[5]);
        assert_eq!(ls.level_items(3), &[7]);
    }

    #[test]
    fn figure1_parallelism() {
        let ls = LevelSets::analyse(&figure1_matrix()).unwrap();
        let (min, avg, max) = ls.parallelism();
        assert_eq!(min, 1);
        assert_eq!(max, 3);
        assert!((avg - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_one_level() {
        let d = Csr::<f64>::identity(10);
        let ls = LevelSets::analyse(&d).unwrap();
        assert_eq!(ls.nlevels(), 1);
        assert_eq!(ls.level_size(0), 10);
    }

    #[test]
    fn chain_matrix_is_fully_serial() {
        // Bidiagonal: level i for row i.
        let mut coo = crate::coo::Coo::<f64>::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 2.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, 1.0).unwrap();
            }
        }
        let ls = LevelSets::analyse(&coo.to_csr()).unwrap();
        assert_eq!(ls.nlevels(), 5);
        let (min, avg, max) = ls.parallelism();
        assert_eq!((min, max), (1, 1));
        assert!((avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn levels_respect_dependencies() {
        let l = figure1_matrix();
        let ls = LevelSets::analyse(&l).unwrap();
        for (i, j, _) in l.iter() {
            if j < i {
                assert!(ls.level_of(j) < ls.level_of(i), "dep ({i},{j}) violates level order");
            }
        }
    }

    #[test]
    fn permutation_keeps_lower_triangular() {
        let l = figure1_matrix();
        let ls = LevelSets::analyse(&l).unwrap();
        let p = ls.permutation();
        let b = permute_symmetric(&l, &p).unwrap();
        assert!(b.is_solvable_lower());
    }

    #[test]
    fn ordered_permutations_stay_valid_and_topological() {
        use crate::permute::permute_symmetric;
        let l = crate::generate::random_lower::<f64>(300, 4.0, 7);
        let ls = LevelSets::analyse(&l).unwrap();
        for order in [
            WithinLevelOrder::ByIndex,
            WithinLevelOrder::ShortRowsFirst,
            WithinLevelOrder::LongRowsFirst,
        ] {
            let p = ls.permutation_ordered(&l, order);
            let b = permute_symmetric(&l, &p).unwrap();
            assert!(b.is_solvable_lower(), "{order:?}");
        }
    }

    #[test]
    fn short_rows_first_sorts_within_levels() {
        let l = crate::generate::random_lower::<f64>(200, 5.0, 8);
        let ls = LevelSets::analyse(&l).unwrap();
        let p = ls.permutation_ordered(&l, WithinLevelOrder::ShortRowsFirst);
        // Within each level the mapped-from rows have non-decreasing length.
        let mut pos = 0usize;
        for lv in 0..ls.nlevels() {
            let size = ls.level_size(lv);
            let lens: Vec<usize> = (pos..pos + size).map(|new| l.row_nnz(p.old_of(new))).collect();
            assert!(lens.windows(2).all(|w| w[0] <= w[1]), "level {lv} unsorted");
            pos += size;
        }
    }

    #[test]
    fn analyse_rejects_non_triangular() {
        let a = Csr::<f64>::try_new(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1., 1., 1.]).unwrap();
        assert!(LevelSets::analyse(&a).is_err());
    }

    #[test]
    fn empty_matrix() {
        let a = Csr::<f64>::zero(0, 0);
        let ls = LevelSets::analyse(&a).unwrap();
        assert_eq!(ls.nlevels(), 0);
        assert_eq!(ls.n(), 0);
    }

    #[test]
    fn from_parts_roundtrips_analysis() {
        let l = crate::generate::random_lower::<f64>(250, 4.0, 9);
        let ls = LevelSets::analyse(&l).unwrap();
        let rebuilt = LevelSets::from_parts(ls.level_ptr().to_vec(), ls.items().to_vec()).unwrap();
        assert_eq!(rebuilt, ls);
    }

    #[test]
    fn from_parts_rejects_malformed() {
        // Pointer does not start at zero.
        assert!(LevelSets::from_parts(vec![1, 2], vec![0, 1]).is_err());
        // Pointer decreases.
        assert!(LevelSets::from_parts(vec![0, 2, 1], vec![0, 1]).is_err());
        // Pointer does not span items.
        assert!(LevelSets::from_parts(vec![0, 1], vec![0, 1]).is_err());
        // Item out of range.
        assert!(LevelSets::from_parts(vec![0, 2], vec![0, 5]).is_err());
        // Repeated item.
        assert!(LevelSets::from_parts(vec![0, 2], vec![1, 1]).is_err());
        // Empty decomposition is fine.
        assert_eq!(LevelSets::from_parts(vec![0], vec![]).unwrap().nlevels(), 0);
    }

    #[test]
    fn level_of_matches_items() {
        let ls = LevelSets::analyse(&figure1_matrix()).unwrap();
        for l in 0..ls.nlevels() {
            for &i in ls.level_items(l) {
                assert_eq!(ls.level_of(i), l);
            }
        }
    }
}
