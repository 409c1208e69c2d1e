//! Edge-churn batches over CSR graphs: the dynamic-graph ingestion format.
//!
//! Production graph traffic mutates: edges arrive and expire between
//! requests on the same structure. A [`DeltaCsr`] is one validated batch of
//! edge inserts and deletes against a specific CSR shape. It is the unit
//! the serving layer re-plans over — [`DeltaCsr::apply`] produces the
//! post-mutation matrix, [`DeltaCsr::first_dirty_row`] feeds the
//! suffix-only fingerprint recompute
//! ([`crate::fingerprint::FingerprintState::update`]), and
//! [`DeltaCsr::dirty_rows`] tells the planner which row windows must be
//! re-condensed.
//!
//! Every malformed batch is a typed [`DeltaError`], never a panic: dupes,
//! out-of-range endpoints, inserting an edge that already exists, deleting
//! one that does not, and shape mismatches at apply time are all errors the
//! serving layer turns into request failures.

use std::fmt;

use crate::csr::Csr;

/// Defects a [`DeltaCsr`] batch can carry, split between construction-time
/// (list hygiene, ranges) and apply-time (disagreement with the base
/// matrix) checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaError {
    /// An edit names a row outside the declared shape.
    RowOutOfRange {
        /// The bad row.
        row: u32,
        /// Rows the delta declares.
        nrows: usize,
    },
    /// An edit names a column outside the declared shape.
    ColOutOfRange {
        /// The bad column.
        col: u32,
        /// Columns the delta declares.
        ncols: usize,
    },
    /// The same edge appears twice in the insert list.
    DuplicateInsert {
        /// Row of the repeated edge.
        row: u32,
        /// Column of the repeated edge.
        col: u32,
    },
    /// The same edge appears twice in the delete list.
    DuplicateDelete {
        /// Row of the repeated edge.
        row: u32,
        /// Column of the repeated edge.
        col: u32,
    },
    /// An edge appears in both the insert and the delete list.
    InsertAndDelete {
        /// Row of the conflicted edge.
        row: u32,
        /// Column of the conflicted edge.
        col: u32,
    },
    /// An inserted value is NaN or ±Inf.
    NonFiniteValue {
        /// Row of the bad insert.
        row: u32,
        /// Column of the bad insert.
        col: u32,
    },
    /// The base matrix's shape differs from the delta's declared shape.
    ShapeMismatch {
        /// Shape the delta was built for (rows, cols).
        expected: (usize, usize),
        /// Shape of the matrix it was applied to.
        got: (usize, usize),
    },
    /// An insert names an edge the base matrix already has.
    EdgePresent {
        /// Row of the colliding insert.
        row: u32,
        /// Column of the colliding insert.
        col: u32,
    },
    /// A delete names an edge the base matrix does not have.
    EdgeAbsent {
        /// Row of the missing edge.
        row: u32,
        /// Column of the missing edge.
        col: u32,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::RowOutOfRange { row, nrows } => {
                write!(f, "edit row {row} out of range (nrows {nrows})")
            }
            DeltaError::ColOutOfRange { col, ncols } => {
                write!(f, "edit column {col} out of range (ncols {ncols})")
            }
            DeltaError::DuplicateInsert { row, col } => {
                write!(f, "edge ({row}, {col}) inserted twice")
            }
            DeltaError::DuplicateDelete { row, col } => {
                write!(f, "edge ({row}, {col}) deleted twice")
            }
            DeltaError::InsertAndDelete { row, col } => {
                write!(f, "edge ({row}, {col}) both inserted and deleted")
            }
            DeltaError::NonFiniteValue { row, col } => {
                write!(f, "insert at ({row}, {col}) is not finite")
            }
            DeltaError::ShapeMismatch { expected, got } => write!(
                f,
                "delta built for {}x{} applied to {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            DeltaError::EdgePresent { row, col } => {
                write!(f, "insert ({row}, {col}): edge already present")
            }
            DeltaError::EdgeAbsent { row, col } => {
                write!(f, "delete ({row}, {col}): edge not present")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// One validated batch of edge inserts and deletes against a CSR of a
/// declared shape.
///
/// Construction sorts both lists row-major and rejects malformed batches
/// ([`DeltaError`]); the shape itself never changes — dynamic *vertices*
/// are out of scope, only edge churn. Presence/absence of the named edges
/// is checked against the concrete base matrix at [`DeltaCsr::apply`]
/// time, so one delta can be validated once and applied to any matrix with
/// the structure it was built for.
///
/// ```
/// use graph_sparse::{Coo, DeltaCsr};
///
/// let a = Coo::from_triples(4, 4, [(0, 1, 1.0), (2, 3, 1.0)]).to_csr();
/// let d = DeltaCsr::new(4, 4, vec![(2, 0, 5.0)], vec![(0, 1)]).unwrap();
/// let b = d.apply(&a).unwrap();
/// assert_eq!(b.nnz(), 2);
/// assert_eq!(b.row_cols(2), &[0, 3]);
/// assert_eq!(d.first_dirty_row(), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaCsr {
    nrows: usize,
    ncols: usize,
    /// `(row, col, value)` edges to add, sorted row-major.
    inserts: Vec<(u32, u32, f32)>,
    /// `(row, col)` edges to remove, sorted row-major.
    deletes: Vec<(u32, u32)>,
}

impl DeltaCsr {
    /// Build a batch for matrices of shape `nrows x ncols`, validating
    /// ranges, finiteness and edge-list hygiene. Empty batches are legal
    /// no-ops.
    pub fn new(
        nrows: usize,
        ncols: usize,
        mut inserts: Vec<(u32, u32, f32)>,
        mut deletes: Vec<(u32, u32)>,
    ) -> Result<DeltaCsr, DeltaError> {
        for &(row, col, val) in &inserts {
            check_range(row, col, nrows, ncols)?;
            if !val.is_finite() {
                return Err(DeltaError::NonFiniteValue { row, col });
            }
        }
        for &(row, col) in &deletes {
            check_range(row, col, nrows, ncols)?;
        }
        inserts.sort_unstable_by_key(|&(r, c, _)| (r, c));
        deletes.sort_unstable();
        if let Some(w) = inserts
            .windows(2)
            .find(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        {
            return Err(DeltaError::DuplicateInsert {
                row: w[0].0,
                col: w[0].1,
            });
        }
        if let Some(w) = deletes.windows(2).find(|w| w[0] == w[1]) {
            return Err(DeltaError::DuplicateDelete {
                row: w[0].0,
                col: w[0].1,
            });
        }
        // Both lists are sorted: a linear merge finds any edge named twice.
        let (mut i, mut j) = (0, 0);
        while i < inserts.len() && j < deletes.len() {
            let ins = (inserts[i].0, inserts[i].1);
            match ins.cmp(&deletes[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    return Err(DeltaError::InsertAndDelete {
                        row: ins.0,
                        col: ins.1,
                    })
                }
            }
        }
        Ok(DeltaCsr {
            nrows,
            ncols,
            inserts,
            deletes,
        })
    }

    /// Rows of the shape this delta was built for.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the shape this delta was built for.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The insert list, sorted row-major.
    pub fn inserts(&self) -> &[(u32, u32, f32)] {
        &self.inserts
    }

    /// The delete list, sorted row-major.
    pub fn deletes(&self) -> &[(u32, u32)] {
        &self.deletes
    }

    /// Total edits in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when the batch edits nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Smallest row any edit touches, or `None` for an empty batch. This
    /// is where the incremental fingerprint resumes its suffix recompute.
    pub fn first_dirty_row(&self) -> Option<usize> {
        let ins = self.inserts.first().map(|&(r, _, _)| r as usize);
        let del = self.deletes.first().map(|&(r, _)| r as usize);
        match (ins, del) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Sorted, deduplicated rows the batch touches — the planner derives
    /// its dirty row windows from this.
    pub fn dirty_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self
            .inserts
            .iter()
            .map(|&(r, _, _)| r as usize)
            .chain(self.deletes.iter().map(|&(r, _)| r as usize))
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Apply the batch to `base`, producing the post-mutation matrix.
    /// Checks that `base` has the declared shape, that every insert names
    /// an absent edge and every delete a present one; rows not named by
    /// any edit are copied verbatim, so per-row column order stays sorted.
    pub fn apply(&self, base: &Csr) -> Result<Csr, DeltaError> {
        if base.nrows != self.nrows || base.ncols != self.ncols {
            return Err(DeltaError::ShapeMismatch {
                expected: (self.nrows, self.ncols),
                got: (base.nrows, base.ncols),
            });
        }
        let new_nnz = (base.nnz() + self.inserts.len()).saturating_sub(self.deletes.len());
        let mut row_ptr = Vec::with_capacity(base.nrows + 1);
        let mut col_idx = Vec::with_capacity(new_nnz);
        let mut vals = Vec::with_capacity(new_nnz);
        row_ptr.push(0u32);
        let (mut i, mut j) = (0, 0); // cursors into inserts / deletes
        for r in 0..base.nrows {
            let cols = base.row_cols(r);
            let row_vals = base.row_vals(r);
            let ins_end = advance(&mut i, self.inserts.len(), |k| {
                self.inserts[k].0 as usize == r
            });
            let del_end = advance(&mut j, self.deletes.len(), |k| {
                self.deletes[k].0 as usize == r
            });
            let ins = &self.inserts[ins_end.0..ins_end.1];
            let del = &self.deletes[del_end.0..del_end.1];
            if ins.is_empty() && del.is_empty() {
                col_idx.extend_from_slice(cols);
                vals.extend_from_slice(row_vals);
            } else {
                merge_row(r as u32, cols, row_vals, ins, del, &mut col_idx, &mut vals)?;
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Ok(Csr {
            nrows: base.nrows,
            ncols: base.ncols,
            row_ptr,
            col_idx,
            vals,
        })
    }
}

fn check_range(row: u32, col: u32, nrows: usize, ncols: usize) -> Result<(), DeltaError> {
    if row as usize >= nrows {
        return Err(DeltaError::RowOutOfRange { row, nrows });
    }
    if col as usize >= ncols {
        return Err(DeltaError::ColOutOfRange { col, ncols });
    }
    Ok(())
}

/// Advance `cursor` while `still(k)` holds; returns the consumed range.
fn advance(cursor: &mut usize, len: usize, still: impl Fn(usize) -> bool) -> (usize, usize) {
    let start = *cursor;
    while *cursor < len && still(*cursor) {
        *cursor += 1;
    }
    (start, *cursor)
}

/// Merge one row's existing entries with its sorted inserts, dropping its
/// deletes; all three inputs are sorted by column, so one linear pass
/// keeps the output sorted and detects presence/absence violations.
fn merge_row(
    row: u32,
    cols: &[u32],
    row_vals: &[f32],
    ins: &[(u32, u32, f32)],
    del: &[(u32, u32)],
    col_idx: &mut Vec<u32>,
    vals: &mut Vec<f32>,
) -> Result<(), DeltaError> {
    let (mut e, mut i, mut d) = (0, 0, 0);
    while e < cols.len() || i < ins.len() {
        let next_ins = ins.get(i).map(|&(_, c, _)| c);
        let take_insert = match (cols.get(e), next_ins) {
            (Some(&ec), Some(ic)) => {
                if ec == ic {
                    return Err(DeltaError::EdgePresent { row, col: ic });
                }
                ic < ec
            }
            (None, Some(_)) => true,
            _ => false,
        };
        if take_insert {
            col_idx.push(ins[i].1);
            vals.push(ins[i].2);
            i += 1;
            continue;
        }
        let c = cols[e];
        if d < del.len() && del[d].1 == c {
            d += 1; // deleted: drop the entry
        } else {
            col_idx.push(c);
            vals.push(row_vals[e]);
        }
        e += 1;
    }
    if d < del.len() {
        return Err(DeltaError::EdgeAbsent { row, col: del[d].1 });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::fingerprint::StructureFingerprint;
    use crate::gen;

    fn base() -> Csr {
        Coo::from_triples(
            6,
            6,
            [
                (0, 1, 1.0),
                (0, 4, 2.0),
                (2, 2, 3.0),
                (5, 0, 4.0),
                (5, 5, 5.0),
            ],
        )
        .to_csr()
    }

    #[test]
    fn apply_inserts_and_deletes_and_stays_valid() {
        let a = base();
        let d = DeltaCsr::new(6, 6, vec![(2, 0, 9.0), (3, 3, 8.0)], vec![(0, 4), (5, 0)])
            .expect("valid batch");
        let b = d.apply(&a).expect("applies");
        b.validate().expect("result is a valid CSR");
        assert_eq!(b.nnz(), 5);
        assert_eq!(b.row_cols(0), &[1]);
        assert_eq!(b.row_cols(2), &[0, 2]);
        assert_eq!(b.row_cols(3), &[3]);
        assert_eq!(b.row_cols(5), &[5]);
        assert_eq!(d.first_dirty_row(), Some(0));
        assert_eq!(d.dirty_rows(), vec![0, 2, 3, 5]);
    }

    #[test]
    fn construction_rejects_malformed_batches() {
        assert_eq!(
            DeltaCsr::new(6, 6, vec![(6, 0, 1.0)], vec![]),
            Err(DeltaError::RowOutOfRange { row: 6, nrows: 6 })
        );
        assert_eq!(
            DeltaCsr::new(6, 6, vec![], vec![(0, 6)]),
            Err(DeltaError::ColOutOfRange { col: 6, ncols: 6 })
        );
        assert_eq!(
            DeltaCsr::new(6, 6, vec![(1, 1, 1.0), (1, 1, 2.0)], vec![]),
            Err(DeltaError::DuplicateInsert { row: 1, col: 1 })
        );
        assert_eq!(
            DeltaCsr::new(6, 6, vec![], vec![(2, 2), (2, 2)]),
            Err(DeltaError::DuplicateDelete { row: 2, col: 2 })
        );
        assert_eq!(
            DeltaCsr::new(6, 6, vec![(3, 3, 1.0)], vec![(3, 3)]),
            Err(DeltaError::InsertAndDelete { row: 3, col: 3 })
        );
        assert_eq!(
            DeltaCsr::new(6, 6, vec![(1, 1, f32::NAN)], vec![]),
            Err(DeltaError::NonFiniteValue { row: 1, col: 1 })
        );
    }

    #[test]
    fn apply_rejects_disagreements_with_the_base() {
        let a = base();
        let present = DeltaCsr::new(6, 6, vec![(0, 1, 9.0)], vec![]).expect("constructs");
        assert_eq!(
            present.apply(&a),
            Err(DeltaError::EdgePresent { row: 0, col: 1 })
        );
        let absent = DeltaCsr::new(6, 6, vec![], vec![(1, 1)]).expect("constructs");
        assert_eq!(
            absent.apply(&a),
            Err(DeltaError::EdgeAbsent { row: 1, col: 1 })
        );
        let shape = DeltaCsr::new(7, 6, vec![], vec![]).expect("constructs");
        assert_eq!(
            shape.apply(&a),
            Err(DeltaError::ShapeMismatch {
                expected: (7, 6),
                got: (6, 6)
            })
        );
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let a = gen::erdos_renyi(40, 200, 9);
        let d = DeltaCsr::new(40, 40, vec![], vec![]).expect("empty is legal");
        assert!(d.is_empty());
        assert_eq!(d.first_dirty_row(), None);
        let b = d.apply(&a).expect("applies");
        assert_eq!(StructureFingerprint::of(&a), StructureFingerprint::of(&b));
        assert_eq!(a, b);
    }
}
