//! Property tests over the sparse formats and IO paths.

use graph_sparse::{gen, io, Coo, Csr, DenseMatrix, MeTcf};
use proptest::prelude::*;

fn arb_entries() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f32)>)> {
    (2usize..80, 2usize..80).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0..r as u32, 0..c as u32, -5.0f32..5.0), 0..300)
            .prop_map(move |es| (r, c, es))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coo_csr_roundtrip_preserves_matrix((r, c, es) in arb_entries()) {
        let csr = Coo::from_triples(r, c, es).to_csr();
        let back = csr.to_coo().to_csr();
        prop_assert_eq!(back, csr);
    }

    #[test]
    fn csr_rows_are_sorted_and_within_bounds((r, c, es) in arb_entries()) {
        let csr = Coo::from_triples(r, c, es).to_csr();
        for row in 0..csr.nrows {
            let cols = csr.row_cols(row);
            for w in cols.windows(2) {
                prop_assert!(w[0] < w[1], "unsorted or duplicate column");
            }
            for &col in cols {
                prop_assert!((col as usize) < csr.ncols);
            }
        }
        prop_assert_eq!(*csr.row_ptr.last().unwrap() as usize, csr.nnz());
    }

    #[test]
    fn transpose_preserves_spmm_transposed((r, c, es) in arb_entries(), seed in 0u64..50) {
        let a = Coo::from_triples(r, c, es).to_csr();
        // (Aᵀ·y)ᵀ == yᵀ·A: check via dense equivalence.
        let y = DenseMatrix::random_features(a.nrows, 4, seed);
        let lhs = a.transpose().spmm_reference(&y);
        let dense = a.to_dense();
        let rhs = dense.transposed().matmul(&y);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn metcf_is_lossless((r, c, es) in arb_entries(), seed in 0u64..50) {
        let a = Coo::from_triples(r, c, es).to_csr();
        let m = MeTcf::from_csr(&a);
        prop_assert_eq!(m.nnz(), a.nnz());
        let x = DenseMatrix::random_features(c, 4, seed);
        let want = a.spmm_reference(&x);
        prop_assert!(want.max_abs_diff(&m.spmm_reference(&x)) < 1e-3);
    }

    #[test]
    fn symmetric_permutation_is_an_isomorphism(n in 2usize..60, edges in 0usize..200, seed in 0u64..50) {
        let a = if edges == 0 {
            Csr::empty(n, n)
        } else {
            gen::erdos_renyi(n, edges, seed)
        };
        // Random permutation via scatter_relabel.
        let b = gen::scatter_relabel(&a, seed ^ 99);
        prop_assert_eq!(b.nnz(), a.nnz());
        let mut da: Vec<usize> = (0..n).map(|r| a.degree(r)).collect();
        let mut db: Vec<usize> = (0..n).map(|r| b.degree(r)).collect();
        da.sort_unstable();
        db.sort_unstable();
        prop_assert_eq!(da, db);
    }

    #[test]
    fn gcn_normalize_keeps_rows_bounded(n in 2usize..60, edges in 1usize..200, seed in 0u64..50) {
        // Symmetric normalization: each entry ≤ 1, and row sums ≤ √(deg+1).
        let a = gen::erdos_renyi(n, edges, seed);
        let norm = a.gcn_normalize();
        for &v in &norm.vals {
            prop_assert!(v > 0.0 && v <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn edge_list_io_roundtrips_structure(n in 2usize..60, edges in 1usize..150, seed in 0u64..50) {
        let g = gen::erdos_renyi(n, edges, seed);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let back = io::read_edge_list(std::io::BufReader::new(&buf[..])).unwrap();
        prop_assert_eq!(back.nnz(), g.nnz());
        // Degree multiset survives relabeling.
        let mut da: Vec<usize> = (0..g.nrows).map(|r| g.degree(r)).collect();
        let mut db: Vec<usize> = (0..back.nrows).map(|r| back.degree(r)).collect();
        da.sort_unstable();
        db.sort_unstable();
        prop_assert_eq!(da.iter().filter(|&&d| d > 0).collect::<Vec<_>>(),
                        db.iter().filter(|&&d| d > 0).collect::<Vec<_>>());
    }
}
