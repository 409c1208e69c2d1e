//! Row-window features driving core selection (§IV-B).
//!
//! The paper identifies two dominant characteristics: *sparsity*, which
//! governs the CUDA-core computation cost, and the *number of non-zero
//! columns*, which governs the Tensor-core memory-access cost. Other factors
//! (e.g. the distribution of non-zeros within the window) vary execution
//! time by under 10 % and are deliberately ignored.

use graph_sparse::RowWindow;

/// The selector's feature vector for one row window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowFeatures {
    /// Number of non-zero columns (`x1` in the encoded model).
    pub nnz_cols: f64,
    /// Sparsity of the condensed window (`x2`).
    pub sparsity: f64,
}

impl WindowFeatures {
    /// Extract features from a condensed row window.
    pub fn of(w: &RowWindow) -> Self {
        WindowFeatures {
            nnz_cols: w.nnz_cols() as f64,
            sparsity: w.sparsity(),
        }
    }

    /// Build from raw counts (used by the training pipeline, which knows the
    /// generator parameters without materializing windows).
    pub fn from_counts(rows: usize, nnz_cols: usize, nnz: usize) -> Self {
        let cells = rows * nnz_cols;
        WindowFeatures {
            nnz_cols: nnz_cols as f64,
            sparsity: if cells == 0 {
                1.0
            } else {
                1.0 - nnz as f64 / cells as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_sparse::{Coo, RowWindowPartition};

    #[test]
    fn matches_window_accessors() {
        let coo = Coo::from_triples(16, 64, [(0, 0, 1.0), (1, 5, 1.0), (2, 5, 1.0)]);
        let p = RowWindowPartition::build(&coo.to_csr());
        let f = WindowFeatures::of(&p.windows[0]);
        assert_eq!(f.nnz_cols, 2.0);
        assert!((f.sparsity - (1.0 - 3.0 / 32.0)).abs() < 1e-12);
    }

    #[test]
    fn from_counts_agrees_with_of() {
        let coo = Coo::from_triples(16, 64, [(0, 0, 1.0), (1, 5, 1.0), (2, 9, 1.0)]);
        let p = RowWindowPartition::build(&coo.to_csr());
        let a = WindowFeatures::of(&p.windows[0]);
        let b = WindowFeatures::from_counts(16, 3, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_counts() {
        let f = WindowFeatures::from_counts(16, 0, 0);
        assert_eq!(f.sparsity, 1.0);
        assert_eq!(f.nnz_cols, 0.0);
    }
}
