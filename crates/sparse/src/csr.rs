//! Compressed Sparse Row — the working format of every kernel.

use std::fmt;

use crate::coo::Coo;
use crate::dense::DenseMatrix;

/// Structural defects [`Csr::validate`] detects.
#[derive(Debug, Clone, PartialEq)]
pub enum CsrError {
    /// `row_ptr` has the wrong length (must be `nrows + 1`).
    RowPtrLength {
        /// Actual length found.
        found: usize,
        /// Expected length.
        expected: usize,
    },
    /// `row_ptr` decreases between two rows.
    RowPtrNotMonotone {
        /// First offending row.
        row: usize,
    },
    /// `row_ptr` does not start at 0 or end at `nnz`.
    RowPtrBounds,
    /// `col_idx` and `vals` lengths disagree.
    ArrayLengthMismatch,
    /// A column index is out of range.
    ColumnOutOfRange {
        /// Entry index.
        entry: usize,
        /// The bad column.
        col: u32,
    },
    /// Columns within a row are not strictly increasing.
    UnsortedRow {
        /// The offending row.
        row: usize,
    },
    /// A stored value is NaN or infinite.
    NonFiniteValue {
        /// Entry index.
        entry: usize,
    },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::RowPtrLength { found, expected } => {
                write!(f, "row_ptr length {found}, expected {expected}")
            }
            CsrError::RowPtrNotMonotone { row } => {
                write!(f, "row_ptr decreases at row {row}")
            }
            CsrError::RowPtrBounds => write!(f, "row_ptr must start at 0 and end at nnz"),
            CsrError::ArrayLengthMismatch => write!(f, "col_idx and vals lengths differ"),
            CsrError::ColumnOutOfRange { entry, col } => {
                write!(f, "entry {entry} has column {col} out of range")
            }
            CsrError::UnsortedRow { row } => write!(f, "row {row} has unsorted columns"),
            CsrError::NonFiniteValue { entry } => write!(f, "entry {entry} is not finite"),
        }
    }
}

impl std::error::Error for CsrError {}

/// CSR sparse matrix with f32 values.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s entries. Length
    /// `nrows + 1`.
    pub row_ptr: Vec<u32>,
    /// Column index of each entry, sorted within a row.
    pub col_idx: Vec<u32>,
    /// Value of each entry.
    pub vals: Vec<f32>,
}

impl Csr {
    /// Empty matrix of the given shape.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n as u32).collect(),
            col_idx: (0..n as u32).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Column indices of row `r`.
    pub fn row_cols(&self, r: usize) -> &[u32] {
        let (s, e) = self.row_range(r);
        &self.col_idx[s..e]
    }

    /// Values of row `r`.
    pub fn row_vals(&self, r: usize) -> &[f32] {
        let (s, e) = self.row_range(r);
        &self.vals[s..e]
    }

    /// Entry range of row `r`.
    pub fn row_range(&self, r: usize) -> (usize, usize) {
        (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize)
    }

    /// Degree (nnz) of row `r`.
    pub fn degree(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Overall density `nnz / (nrows·ncols)`.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// Convert back to COO.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            let (s, e) = self.row_range(r);
            for i in s..e {
                coo.push(r as u32, self.col_idx[i], self.vals[i]);
            }
        }
        coo
    }

    /// Materialize as a dense row-major matrix (test/debug sizes only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            let (s, e) = self.row_range(r);
            for i in s..e {
                d[(r, self.col_idx[i] as usize)] = self.vals[i];
            }
        }
        d
    }

    /// Transpose (also serves as CSC view of the same matrix).
    pub fn transpose(&self) -> Csr {
        let mut row_ptr = vec![0u32; self.ncols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![0f32; self.nnz()];
        let mut next = row_ptr.clone();
        for r in 0..self.nrows {
            let (s, e) = self.row_range(r);
            for i in s..e {
                let c = self.col_idx[i] as usize;
                let dst = next[c] as usize;
                col_idx[dst] = r as u32;
                vals[dst] = self.vals[i];
                next[c] += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Reference SpMM: `Z = self · x`, straightforward and trusted. All
    /// kernels are tested against this. Rows are computed on the
    /// `hc-parallel` pool; each output row is owned by one worker and
    /// accumulated in CSR entry order, so the result is bit-identical at
    /// any thread count.
    ///
    /// ```
    /// use graph_sparse::{Coo, DenseMatrix};
    /// let a = Coo::from_triples(2, 2, [(0, 1, 2.0)]).to_csr();
    /// let x = DenseMatrix::from_rows(&[&[1.0], &[3.0]]);
    /// assert_eq!(a.spmm_reference(&x).row(0), &[6.0]);
    /// ```
    pub fn spmm_reference(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.ncols, x.rows,
            "dimension mismatch: A is {}x{}, X is {}x{}",
            self.nrows, self.ncols, x.rows, x.cols
        );
        let mut z = DenseMatrix::zeros(self.nrows, x.cols);
        if self.nrows == 0 || x.cols == 0 {
            return z;
        }
        let work = 2 * self.nnz() as u64 * x.cols as u64;
        hc_parallel::par_chunks_mut(&mut z.data, x.cols, work, |r, out| {
            let (s, e) = self.row_range(r);
            for i in s..e {
                let v = self.vals[i];
                let xrow = x.row(self.col_idx[i] as usize);
                for (o, &xv) in out.iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        });
        z
    }

    /// Row-normalized adjacency with self-loops:
    /// `Ā = D̃^{-1/2} (A + I) D̃^{-1/2}` — the GCN propagation matrix
    /// (Kipf & Welling), i.e. the paper's `Ā` in Eq. 1.
    pub fn gcn_normalize(&self) -> Csr {
        assert_eq!(self.nrows, self.ncols, "adjacency must be square");
        // A + I
        let mut coo = self.to_coo();
        for i in 0..self.nrows {
            coo.push(i as u32, i as u32, 1.0);
        }
        let a_hat = coo.to_csr();
        let deg: Vec<f32> = (0..a_hat.nrows)
            .map(|r| a_hat.row_vals(r).iter().sum())
            .collect();
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let mut out = a_hat;
        for r in 0..out.nrows {
            let (s, e) = out.row_range(r);
            for i in s..e {
                let c = out.col_idx[i] as usize;
                out.vals[i] *= inv_sqrt[r] * inv_sqrt[c];
            }
        }
        out
    }

    /// Apply a vertex permutation: row & column `i` of the result correspond
    /// to old vertex `perm[i]`. Used by the LOA layout optimizer; the
    /// permuted matrix represents the same graph relabeled.
    pub fn permute_symmetric(&self, perm: &[u32]) -> Csr {
        assert_eq!(self.nrows, self.ncols, "symmetric permutation needs square");
        assert_eq!(perm.len(), self.nrows);
        let mut inv = vec![0u32; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            inv[old as usize] = new as u32;
        }
        let mut coo = Coo::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            let (s, e) = self.row_range(r);
            for i in s..e {
                coo.push(inv[r], inv[self.col_idx[i] as usize], self.vals[i]);
            }
        }
        coo.to_csr()
    }

    /// Check every structural invariant the kernels rely on. Run this on
    /// any externally supplied matrix (file loads, FFI) before handing it
    /// to a kernel; internally constructed matrices hold these by
    /// construction.
    pub fn validate(&self) -> Result<(), CsrError> {
        if self.row_ptr.len() != self.nrows + 1 {
            return Err(CsrError::RowPtrLength {
                found: self.row_ptr.len(),
                expected: self.nrows + 1,
            });
        }
        if self.col_idx.len() != self.vals.len() {
            return Err(CsrError::ArrayLengthMismatch);
        }
        if self.row_ptr.first() != Some(&0)
            || self.row_ptr.last().copied() != Some(self.nnz() as u32)
        {
            return Err(CsrError::RowPtrBounds);
        }
        // Monotonicity and range first: the per-entry pass below indexes
        // col_idx through row_ptr, so these must hold before touching it.
        for r in 0..self.nrows {
            if self.row_ptr[r] > self.row_ptr[r + 1] {
                return Err(CsrError::RowPtrNotMonotone { row: r });
            }
            if self.row_ptr[r + 1] as usize > self.nnz() {
                return Err(CsrError::RowPtrBounds);
            }
        }
        for r in 0..self.nrows {
            let (s, e) = self.row_range(r);
            for i in s..e {
                if self.col_idx[i] as usize >= self.ncols {
                    return Err(CsrError::ColumnOutOfRange {
                        entry: i,
                        col: self.col_idx[i],
                    });
                }
                if i > s && self.col_idx[i] <= self.col_idx[i - 1] {
                    return Err(CsrError::UnsortedRow { row: r });
                }
            }
        }
        if let Some(entry) = self.vals.iter().position(|v| !v.is_finite()) {
            return Err(CsrError::NonFiniteValue { entry });
        }
        Ok(())
    }

    /// Bytes of the CSR arrays (what PCIe would carry, per §VI-B1).
    pub fn byte_size(&self) -> u64 {
        (self.row_ptr.len() * 4 + self.col_idx.len() * 4 + self.vals.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // [1 0 2]
        // [0 0 0]
        // [0 3 4]
        Coo::from_triples(3, 3, [(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0), (2, 2, 4.0)]).to_csr()
    }

    #[test]
    fn roundtrip_coo() {
        let c = small();
        assert_eq!(c.to_coo().to_csr(), c);
    }

    #[test]
    fn degrees_and_density() {
        let c = small();
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.degree(1), 0);
        assert_eq!(c.degree(2), 2);
        assert!((c.density() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let c = small();
        assert_eq!(c.transpose().transpose(), c);
    }

    #[test]
    fn transpose_matches_dense() {
        let c = small();
        let d = c.to_dense();
        let t = c.transpose().to_dense();
        for r in 0..3 {
            for col in 0..3 {
                assert_eq!(d[(r, col)], t[(col, r)]);
            }
        }
    }

    #[test]
    fn spmm_reference_matches_dense_multiply() {
        let c = small();
        let x = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let z = c.spmm_reference(&x);
        // row0 = 1*[1,2] + 2*[5,6] = [11,14]
        assert_eq!(z.row(0), &[11.0, 14.0]);
        assert_eq!(z.row(1), &[0.0, 0.0]);
        // row2 = 3*[3,4] + 4*[5,6] = [29,36]
        assert_eq!(z.row(2), &[29.0, 36.0]);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let x = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let z = Csr::identity(2).spmm_reference(&x);
        assert_eq!(z, x);
    }

    #[test]
    fn gcn_normalize_rows_of_regular_graph() {
        // 2-cycle: A+I has all degrees 2 ⇒ every entry 1/2.
        let a = Coo::from_triples(2, 2, [(0, 1, 1.0), (1, 0, 1.0)]).to_csr();
        let n = a.gcn_normalize();
        for r in 0..2 {
            for &v in n.row_vals(r) {
                assert!((v - 0.5).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn permute_symmetric_preserves_structure() {
        let a =
            Coo::from_triples(3, 3, [(0, 1, 5.0), (1, 0, 5.0), (1, 2, 7.0), (2, 1, 7.0)]).to_csr();
        // Reverse the vertex order.
        let p = a.permute_symmetric(&[2, 1, 0]);
        assert_eq!(p.nnz(), a.nnz());
        // Old edge (0,1,5.0) is now (2,1,5.0).
        let d = p.to_dense();
        assert_eq!(d[(2, 1)], 5.0);
        assert_eq!(d[(1, 2)], 5.0);
        assert_eq!(d[(0, 1)], 7.0);
    }

    #[test]
    fn validate_accepts_well_formed_and_rejects_corruption() {
        let good = small();
        assert!(good.validate().is_ok());
        assert!(Csr::identity(5).validate().is_ok());
        assert!(Csr::empty(3, 3).validate().is_ok());

        // Failure injection, one defect at a time.
        let mut m = good.clone();
        m.row_ptr.pop();
        assert!(matches!(m.validate(), Err(CsrError::RowPtrLength { .. })));

        let mut m = good.clone();
        m.row_ptr[1] = 99;
        assert!(matches!(
            m.validate(),
            Err(CsrError::RowPtrNotMonotone { .. }) | Err(CsrError::RowPtrBounds)
        ));

        let mut m = good.clone();
        m.col_idx[0] = 77;
        assert!(matches!(
            m.validate(),
            Err(CsrError::ColumnOutOfRange { entry: 0, col: 77 })
        ));

        let mut m = good.clone();
        m.col_idx.swap(0, 1);
        assert!(matches!(
            m.validate(),
            Err(CsrError::UnsortedRow { row: 0 })
        ));

        let mut m = good.clone();
        m.vals[2] = f32::NAN;
        assert!(matches!(
            m.validate(),
            Err(CsrError::NonFiniteValue { entry: 2 })
        ));

        let mut m = good.clone();
        m.vals.pop();
        assert!(matches!(m.validate(), Err(CsrError::ArrayLengthMismatch)));

        let mut m = good;
        m.row_ptr[3] = 3;
        assert!(matches!(m.validate(), Err(CsrError::RowPtrBounds)));
    }

    #[test]
    fn identity_permutation_is_noop() {
        let a = small();
        // make square & symmetric-ish not needed; use identity perm
        let p: Vec<u32> = (0..3).collect();
        assert_eq!(a.permute_symmetric(&p), a);
    }
}
