//! Registry of synthetic analogues for the paper's 14 datasets (Table II).
//!
//! The originals live at SNAP / TUDataset / KONECT and are not available
//! offline, so each registry entry records the real vertex/edge/dimension
//! counts plus a *structure class* capturing the property the evaluation
//! attributes to it (degree skew, community density, neighbour-ID locality).
//! [`DatasetId::load`] generates a graph of that class, scaled down by a
//! divisor (default 64×) so experiments finish at workstation speed; the
//! average degree — which controls window density — is preserved exactly.

use std::collections::HashMap;
use std::sync::Arc;

use hc_parallel::sync::Mutex;

use crate::csr::Csr;
use crate::gen;

/// Default scale divisor applied to vertex and edge counts.
pub const DEFAULT_SCALE: usize = 64;

/// The 14 evaluation datasets of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum DatasetId {
    CS, // Citeseer
    CR, // Cora
    PM, // Pubmed
    PT, // PROTEINS
    DD,
    AZ, // Amazon
    YS, // Yeast
    OC, // OVCAR
    GH, // Github
    YH, // YeastH
    RD, // Reddit
    TT, // Twitch
    CP, // CitPatents
    DP, // Depedia
}

/// Structural class driving the generator choice (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Citation-style power-law graph with reasonable locality.
    Citation,
    /// Union of small dense molecules / protein graphs: strong communities.
    ProteinCommunity,
    /// Power-law graph whose vertex IDs are randomly scattered — the poor
    /// locality the paper blames for cuSPARSE's collapse on AZ/DP (§VI-B1).
    Scattered,
    /// Heavy-tailed social graph (Reddit/Twitch-like).
    PowerLaw,
    /// Sparse biological interaction network with moderate communities and
    /// low average degree (YS/OC/YH).
    Community,
    /// Mesh-like layout with high neighbour locality ("favorable original
    /// layout", DP in Fig. 14).
    Mesh,
    /// Molecule collection whose shipped layout is already aligned — LOA
    /// finds nothing to fix (GH in Fig. 14).
    CleanMolecules,
}

/// Static description of one dataset (real-world counts from Table II).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which dataset.
    pub id: DatasetId,
    /// Full name as printed in Table II.
    pub name: &'static str,
    /// Real vertex count.
    pub vertices: usize,
    /// Real edge count (directed entries of the adjacency matrix).
    pub edges: usize,
    /// Feature dimension used in the evaluation.
    pub dim: usize,
    /// Structure class for the generator.
    pub structure: Structure,
}

/// A loaded (generated) dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The spec it was generated from.
    pub spec: DatasetSpec,
    /// Scale divisor used.
    pub scale: usize,
    /// Symmetric adjacency matrix (unnormalized, unit weights).
    pub adj: Csr,
}

impl DatasetId {
    /// All 14 datasets, Table II order.
    pub const ALL: [DatasetId; 14] = [
        DatasetId::CS,
        DatasetId::CR,
        DatasetId::PM,
        DatasetId::PT,
        DatasetId::DD,
        DatasetId::AZ,
        DatasetId::YS,
        DatasetId::OC,
        DatasetId::GH,
        DatasetId::YH,
        DatasetId::RD,
        DatasetId::TT,
        DatasetId::CP,
        DatasetId::DP,
    ];

    /// The 13 datasets of Fig. 10 (DP's GNN runs OOM in the paper; it is
    /// still included in SpMM comparisons).
    pub const SPMM_SET: [DatasetId; 13] = [
        DatasetId::CS,
        DatasetId::CR,
        DatasetId::PM,
        DatasetId::PT,
        DatasetId::DD,
        DatasetId::AZ,
        DatasetId::YS,
        DatasetId::OC,
        DatasetId::GH,
        DatasetId::YH,
        DatasetId::RD,
        DatasetId::TT,
        DatasetId::CP,
    ];

    /// The five large datasets used by the ablations (Tables IV–VI, XI–XV).
    pub const ABLATION_SET: [DatasetId; 5] = [
        DatasetId::YS,
        DatasetId::OC,
        DatasetId::YH,
        DatasetId::RD,
        DatasetId::TT,
    ];

    /// Two-letter code used in the paper's tables.
    pub fn code(self) -> &'static str {
        self.spec().name_code
    }

    /// Static spec for this dataset.
    pub fn spec(self) -> SpecEntry {
        REGISTRY
            .iter()
            .find(|e| e.id == self)
            .copied()
            .expect("all ids registered")
    }

    /// Load (generate) the dataset at the default 64× scale.
    pub fn load(self) -> Dataset {
        self.load_scaled(DEFAULT_SCALE)
    }

    /// Load through the process-wide cache: generation runs once per
    /// (dataset, scale) pair no matter how many threads or call sites ask.
    pub fn load_cached(self, scale: usize) -> Arc<Dataset> {
        type Cache = HashMap<(DatasetId, usize), Arc<Dataset>>;
        static CACHE: Mutex<Option<Cache>> = Mutex::named("dataset-cache", None);
        let mut guard = CACHE.lock();
        let map = guard.get_or_insert_with(HashMap::new);
        if let Some(ds) = map.get(&(self, scale)) {
            return Arc::clone(ds);
        }
        // Generation can be slow; holding the lock keeps the semantics
        // simple and generation single-flight. Callers needing concurrency
        // across *different* datasets should pre-warm sequentially.
        let ds = Arc::new(self.load_scaled(scale));
        map.insert((self, scale), Arc::clone(&ds));
        ds
    }

    /// Load at a custom scale divisor (1 = full size — slow for DP).
    pub fn load_scaled(self, scale: usize) -> Dataset {
        let e = self.spec();
        let scale = scale.max(1);
        let v = (e.vertices / scale).max(64);
        // Preserve average degree: edges scale with the vertex ratio.
        let undirected = ((e.edges / 2) as f64 * v as f64 / e.vertices as f64).round() as usize;
        let undirected = undirected.max(v / 2);
        let seed = 0x4C53_704D ^ (self as u64);
        let adj = match e.structure {
            Structure::Citation => gen::barabasi_albert(v, (undirected / v).max(1), seed),
            Structure::ProteinCommunity => {
                // Molecule collections (TUDataset): hubs + intra-molecule
                // bonds, lightly shuffled — a sizable minority of windows
                // stays hub-aligned and Tensor-suited, as the paper's Fig. 8
                // scatter shows for PT.
                let base = gen::molecules(v, undirected, seed);
                gen::local_shuffle(&base, 32, seed ^ 0x10ca1)
            }
            Structure::Scattered => {
                // Amazon-style co-purchase graphs are strongly clustered
                // (hub products with many co-purchases); what is
                // pathological about their shipped layout is the scattered
                // vertex numbering, which we apply on top.
                let base = gen::molecules(v, undirected, seed);
                gen::scatter_relabel(&base, seed ^ 0xa5a5)
            }
            Structure::PowerLaw => {
                let base = gen::social(v, undirected, seed);
                gen::local_shuffle(&base, 64, seed ^ 0x50c)
            }
            Structure::Community => {
                // Low-degree biological graphs (yeast interactions, OVCAR
                // assays): star-dominated molecules whose shipped layout
                // interleaves them — exactly the slack LOA recovers.
                let base = gen::molecules(v, undirected, seed);
                gen::local_shuffle(&base, 64, seed ^ 0xb10)
            }
            Structure::Mesh => gen::mesh_noisy(v, undirected, 0.15, seed),
            Structure::CleanMolecules => gen::molecules(v, undirected, seed),
        };
        Dataset {
            spec: DatasetSpec {
                id: self,
                name: e.name,
                vertices: e.vertices,
                edges: e.edges,
                dim: e.dim,
                structure: e.structure,
            },
            scale,
            adj,
        }
    }
}

/// Internal registry row.
#[derive(Debug, Clone, Copy)]
pub struct SpecEntry {
    /// Dataset id.
    pub id: DatasetId,
    /// Full name.
    pub name: &'static str,
    /// Two-letter code.
    pub name_code: &'static str,
    /// Real vertices.
    pub vertices: usize,
    /// Real directed edges.
    pub edges: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Structure class.
    pub structure: Structure,
}

const REGISTRY: [SpecEntry; 14] = [
    SpecEntry {
        id: DatasetId::CS,
        name: "Citeseer",
        name_code: "CS",
        vertices: 3_327,
        edges: 9_464,
        dim: 3_703,
        structure: Structure::Citation,
    },
    SpecEntry {
        id: DatasetId::CR,
        name: "Cora",
        name_code: "CR",
        vertices: 2_708,
        edges: 10_858,
        dim: 1_433,
        structure: Structure::Citation,
    },
    SpecEntry {
        id: DatasetId::PM,
        name: "Pubmed",
        name_code: "PM",
        vertices: 19_717,
        edges: 88_676,
        dim: 500,
        structure: Structure::Citation,
    },
    SpecEntry {
        id: DatasetId::PT,
        name: "PROTEINS",
        name_code: "PT",
        vertices: 43_471,
        edges: 162_088,
        dim: 29,
        structure: Structure::ProteinCommunity,
    },
    SpecEntry {
        id: DatasetId::DD,
        name: "DD",
        name_code: "DD",
        vertices: 334_925,
        edges: 1_686_092,
        dim: 89,
        structure: Structure::ProteinCommunity,
    },
    SpecEntry {
        id: DatasetId::AZ,
        name: "Amazon",
        name_code: "AZ",
        vertices: 410_236,
        edges: 3_356_824,
        dim: 96,
        structure: Structure::Scattered,
    },
    SpecEntry {
        id: DatasetId::YS,
        name: "Yeast",
        name_code: "YS",
        vertices: 1_710_902,
        edges: 3_636_546,
        dim: 74,
        structure: Structure::Community,
    },
    SpecEntry {
        id: DatasetId::OC,
        name: "OVCAR",
        name_code: "OC",
        vertices: 1_889_542,
        edges: 3_946_402,
        dim: 66,
        structure: Structure::Community,
    },
    SpecEntry {
        id: DatasetId::GH,
        name: "Github",
        name_code: "GH",
        vertices: 1_448_038,
        edges: 5_971_562,
        dim: 64,
        structure: Structure::CleanMolecules,
    },
    SpecEntry {
        id: DatasetId::YH,
        name: "YeastH",
        name_code: "YH",
        vertices: 3_138_114,
        edges: 6_487_230,
        dim: 75,
        structure: Structure::Community,
    },
    SpecEntry {
        id: DatasetId::RD,
        name: "Reddit",
        name_code: "RD",
        vertices: 4_859_280,
        edges: 10_149_830,
        dim: 96,
        structure: Structure::PowerLaw,
    },
    SpecEntry {
        id: DatasetId::TT,
        name: "Twitch",
        name_code: "TT",
        vertices: 3_771_081,
        edges: 22_011_034,
        dim: 96,
        structure: Structure::PowerLaw,
    },
    SpecEntry {
        id: DatasetId::CP,
        name: "CitPatents",
        name_code: "CP",
        vertices: 3_774_768,
        edges: 16_518_948,
        dim: 96,
        structure: Structure::Citation,
    },
    SpecEntry {
        id: DatasetId::DP,
        name: "Depedia",
        name_code: "DP",
        vertices: 18_268_981,
        edges: 172_183_984,
        dim: 96,
        structure: Structure::Mesh,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_ids() {
        for id in DatasetId::ALL {
            let e = id.spec();
            assert_eq!(e.id, id);
            assert!(e.vertices > 0 && e.edges > 0 && e.dim > 0);
        }
    }

    #[test]
    fn table2_counts_match_paper() {
        assert_eq!(DatasetId::CS.spec().vertices, 3_327);
        assert_eq!(DatasetId::RD.spec().edges, 10_149_830);
        assert_eq!(DatasetId::DP.spec().vertices, 18_268_981);
        assert_eq!(DatasetId::PT.spec().dim, 29);
    }

    #[test]
    fn load_preserves_average_degree() {
        let d = DatasetId::PM.load_scaled(32);
        let spec = DatasetId::PM.spec();
        let real_deg = spec.edges as f64 / spec.vertices as f64;
        let got_deg = d.adj.nnz() as f64 / d.adj.nrows as f64;
        assert!(
            (got_deg - real_deg).abs() / real_deg < 0.5,
            "degree drift: real {real_deg:.2}, got {got_deg:.2}"
        );
    }

    #[test]
    fn cached_load_returns_shared_instances() {
        let a = DatasetId::CR.load_cached(1024);
        let b = DatasetId::CR.load_cached(1024);
        assert!(Arc::ptr_eq(&a, &b));
        let c = DatasetId::CR.load_cached(512);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.adj, DatasetId::CR.load_scaled(1024).adj);
    }

    #[test]
    fn load_is_deterministic() {
        let a = DatasetId::CR.load_scaled(16);
        let b = DatasetId::CR.load_scaled(16);
        assert_eq!(a.adj, b.adj);
    }

    #[test]
    fn loaded_adjacency_is_symmetric() {
        for id in [DatasetId::CS, DatasetId::AZ, DatasetId::GH] {
            let d = id.load_scaled(128);
            assert_eq!(d.adj.transpose(), d.adj, "{id:?} not symmetric");
        }
    }

    #[test]
    fn scattered_dataset_has_worse_locality_than_mesh() {
        let az = DatasetId::AZ.load_scaled(256);
        let gh = DatasetId::GH.load_scaled(256);
        let spread = |g: &Csr| -> f64 {
            let mut total = 0f64;
            let mut n = 0usize;
            for r in 0..g.nrows {
                for &c in g.row_cols(r) {
                    total += (c as i64 - r as i64).abs() as f64;
                    n += 1;
                }
            }
            total / n.max(1) as f64 / g.nrows as f64
        };
        assert!(spread(&az.adj) > 4.0 * spread(&gh.adj));
    }
}
