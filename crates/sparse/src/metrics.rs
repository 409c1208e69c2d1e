//! Structural graph metrics.
//!
//! These quantify the properties the evaluation attributes to its datasets
//! — degree skew, clustering, neighbour-ID locality, and row-window shape —
//! and back the claims in `DESIGN.md` that each synthetic analogue carries
//! the structure its real counterpart is credited with.

use crate::csr::Csr;
use crate::window::RowWindowPartition;

/// Degree-distribution summary.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Arithmetic mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: usize,
    /// Maximum degree.
    pub max: usize,
    /// Fraction of isolated (degree-0) vertices.
    pub isolated: f64,
    /// Skew indicator: max / median (≫ 1 for power laws).
    pub skew: f64,
}

/// Compute degree statistics.
pub fn degree_stats(a: &Csr) -> DegreeStats {
    let mut degs: Vec<usize> = (0..a.nrows).map(|r| a.degree(r)).collect();
    degs.sort_unstable();
    let n = degs.len().max(1);
    let mean = degs.iter().sum::<usize>() as f64 / n as f64;
    let median = degs[n / 2];
    let max = degs.last().copied().unwrap_or(0);
    let isolated = degs.iter().filter(|&&d| d == 0).count() as f64 / n as f64;
    DegreeStats {
        mean,
        median,
        max,
        isolated,
        skew: max as f64 / median.max(1) as f64,
    }
}

/// Global clustering coefficient (transitivity): `3·triangles / wedges`,
/// computed exactly by sorted-neighbourhood intersection. Quadratic in
/// degree — intended for analogue-scale graphs.
pub fn clustering_coefficient(a: &Csr) -> f64 {
    assert_eq!(a.nrows, a.ncols);
    let mut triangles = 0u64;
    let mut wedges = 0u64;
    for u in 0..a.nrows {
        let nu = a.row_cols(u);
        let d = nu.len() as u64;
        wedges += d.saturating_sub(1) * d / 2;
        // Count edges among u's neighbours (each triangle seen 3×).
        for (i, &v) in nu.iter().enumerate() {
            let nv = a.row_cols(v as usize);
            for &w in &nu[i + 1..] {
                if nv.binary_search(&w).is_ok() {
                    triangles += 1;
                }
            }
        }
    }
    if wedges == 0 {
        0.0
    } else {
        // Each triangle contributes one closed wedge per corner and was
        // counted once per corner above.
        triangles as f64 / wedges as f64
    }
}

/// Mean normalized neighbour-ID distance: `E[|col − row|] / n`. Near 0 for
/// banded/mesh layouts, ≈ ⅓ for uniformly scattered IDs — the §VI-B1
/// locality property.
pub fn locality_spread(a: &Csr) -> f64 {
    if a.nnz() == 0 || a.nrows == 0 {
        return 0.0;
    }
    let mut total = 0f64;
    for r in 0..a.nrows {
        for &c in a.row_cols(r) {
            total += (c as i64 - r as i64).unsigned_abs() as f64;
        }
    }
    total / a.nnz() as f64 / a.nrows as f64
}

/// Fraction of within-row column gaps exceeding `gap` — the far-gather
/// ratio that the cuSPARSE locality pathology keys on.
pub fn far_gather_fraction(a: &Csr, gap: u32) -> f64 {
    let mut far = 0u64;
    let mut total = 0u64;
    for r in 0..a.nrows {
        let cols = a.row_cols(r);
        for w in cols.windows(2) {
            total += 1;
            if w[1] - w[0] > gap {
                far += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        far as f64 / total as f64
    }
}

/// Row-window shape summary (the Fig. 8 axes, aggregated).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Non-empty windows.
    pub windows: usize,
    /// Mean sparsity of non-empty windows.
    pub mean_sparsity: f64,
    /// Mean non-zero-column count.
    pub mean_nnz_cols: f64,
    /// Mean computing intensity (Eq. 5).
    pub mean_intensity: f64,
}

/// Summarize the row windows of a matrix.
pub fn window_stats(a: &Csr) -> WindowStats {
    let part = RowWindowPartition::build(a);
    let live: Vec<_> = part.windows.iter().filter(|w| !w.is_empty()).collect();
    let n = live.len().max(1) as f64;
    WindowStats {
        windows: live.len(),
        mean_sparsity: live.iter().map(|w| w.sparsity()).sum::<f64>() / n,
        mean_nnz_cols: live.iter().map(|w| w.nnz_cols() as f64).sum::<f64>() / n,
        mean_intensity: live.iter().map(|w| w.computing_intensity()).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::Coo;

    #[test]
    fn degree_stats_of_regular_graph() {
        let a = gen::banded(100, 3, 0);
        let s = degree_stats(&a);
        assert!((s.mean - 5.82).abs() < 0.2); // 6 minus boundary effects
        assert_eq!(s.median, 6);
        assert!(s.skew <= 1.1);
        assert_eq!(s.isolated, 0.0);
    }

    #[test]
    fn power_law_graph_is_skewed() {
        let a = gen::barabasi_albert(1000, 3, 1);
        let s = degree_stats(&a);
        assert!(s.skew > 4.0, "BA skew {:.1}", s.skew);
    }

    #[test]
    fn triangle_counts_on_known_graphs() {
        // Complete graph K4: transitivity 1.
        let mut coo = Coo::new(4, 4);
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    coo.push(u, v, 1.0);
                }
            }
        }
        assert!((clustering_coefficient(&coo.to_csr()) - 1.0).abs() < 1e-9);
        // Star graph: no triangles.
        let mut coo = Coo::new(5, 5);
        for v in 1..5u32 {
            coo.push(0, v, 1.0);
            coo.push(v, 0, 1.0);
        }
        assert_eq!(clustering_coefficient(&coo.to_csr()), 0.0);
    }

    #[test]
    fn community_graphs_cluster_more_than_random() {
        let comm = gen::community(400, 2400, 20, 0.95, 2);
        let er = gen::erdos_renyi(400, 2400, 2);
        assert!(clustering_coefficient(&comm) > 3.0 * clustering_coefficient(&er));
    }

    #[test]
    fn locality_separates_banded_from_scattered() {
        let banded = gen::banded(2048, 4, 0);
        let scattered = gen::scatter_relabel(&banded, 1);
        assert!(locality_spread(&banded) < 0.01);
        assert!(locality_spread(&scattered) > 0.2);
        assert!(far_gather_fraction(&banded, 64) < 0.05);
        // Uniformly scattered IDs over 2048 vertices: consecutive sorted
        // gaps average ~2048/9 ≫ 64.
        assert!(far_gather_fraction(&scattered, 64) > 0.5);
    }

    #[test]
    fn window_stats_consistency() {
        let a = gen::molecules(512, 1200, 3);
        let s = window_stats(&a);
        assert!(s.windows > 0);
        assert!((0.0..=1.0).contains(&s.mean_sparsity));
        // intensity · cols ≈ nnz per window on average (rough consistency).
        assert!(s.mean_intensity >= 1.0);
    }

    #[test]
    fn empty_graph_metrics_are_defined() {
        let a = Csr::empty(10, 10);
        assert_eq!(locality_spread(&a), 0.0);
        assert_eq!(clustering_coefficient(&a), 0.0);
        assert_eq!(far_gather_fraction(&a, 64), 0.0);
        assert_eq!(degree_stats(&a).isolated, 1.0);
    }
}
