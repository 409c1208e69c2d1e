//! Coordinate-format sparse matrices — the interchange format.
//!
//! Graph generators and file loaders produce COO; kernels consume CSR.

use crate::csr::Csr;

/// A sparse matrix as (row, col, value) triples.
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row indices, one per non-zero.
    pub rows: Vec<u32>,
    /// Column indices, one per non-zero.
    pub cols: Vec<u32>,
    /// Values, one per non-zero.
    pub vals: Vec<f32>,
}

impl Coo {
    /// An empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Build from triples, validating indices.
    pub fn from_triples(
        nrows: usize,
        ncols: usize,
        triples: impl IntoIterator<Item = (u32, u32, f32)>,
    ) -> Self {
        let mut coo = Coo::new(nrows, ncols);
        for (r, c, v) in triples {
            coo.push(r, c, v);
        }
        coo
    }

    /// Append one entry. Panics on out-of-range indices.
    pub fn push(&mut self, row: u32, col: u32, val: f32) {
        assert!((row as usize) < self.nrows, "row {row} out of range");
        assert!((col as usize) < self.ncols, "col {col} out of range");
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Number of stored entries (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Sort by (row, col) and sum duplicate coordinates.
    pub fn deduplicate(&mut self) {
        let mut idx: Vec<usize> = (0..self.nnz()).collect();
        idx.sort_by_key(|&i| (self.rows[i], self.cols[i]));
        let mut rows = Vec::with_capacity(idx.len());
        let mut cols = Vec::with_capacity(idx.len());
        let mut vals: Vec<f32> = Vec::with_capacity(idx.len());
        for &i in &idx {
            if let (Some(&lr), Some(&lc)) = (rows.last(), cols.last()) {
                if lr == self.rows[i] && lc == self.cols[i] {
                    *vals.last_mut().expect("parallel arrays") += self.vals[i];
                    continue;
                }
            }
            rows.push(self.rows[i]);
            cols.push(self.cols[i]);
            vals.push(self.vals[i]);
        }
        self.rows = rows;
        self.cols = cols;
        self.vals = vals;
    }

    /// Convert to CSR (duplicates are summed).
    pub fn to_csr(&self) -> Csr {
        let mut me = self.clone();
        me.deduplicate();
        let mut row_ptr = vec![0u32; me.nrows + 1];
        for &r in &me.rows {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..me.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Csr {
            nrows: me.nrows,
            ncols: me.ncols,
            row_ptr,
            col_idx: me.cols,
            vals: me.vals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_nnz() {
        let mut c = Coo::new(3, 3);
        c.push(0, 1, 1.0);
        c.push(2, 2, 2.0);
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "row 5 out of range")]
    fn push_validates_row() {
        let mut c = Coo::new(3, 3);
        c.push(5, 0, 1.0);
    }

    #[test]
    fn deduplicate_sums_values() {
        let mut c = Coo::from_triples(2, 2, [(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        c.deduplicate();
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.vals[0], 3.5);
    }

    #[test]
    fn deduplicate_sorts() {
        let mut c = Coo::from_triples(3, 3, [(2, 1, 1.0), (0, 2, 1.0), (0, 0, 1.0)]);
        c.deduplicate();
        assert_eq!(c.rows, vec![0, 0, 2]);
        assert_eq!(c.cols, vec![0, 2, 1]);
    }

    #[test]
    fn to_csr_counts_rows() {
        let c = Coo::from_triples(3, 4, [(0, 1, 1.0), (0, 3, 2.0), (2, 0, 3.0)]);
        let csr = c.to_csr();
        assert_eq!(csr.row_ptr, vec![0, 2, 2, 3]);
        assert_eq!(csr.col_idx, vec![1, 3, 0]);
        assert_eq!(csr.nnz(), 3);
    }
}
