//! Seeded input generation. Every graph, feature matrix, delta and
//! traffic choice a workload feeds the library comes from here, as a pure
//! function of the run's `--seed`.

use graph_sparse::datasets::Structure;
use graph_sparse::{gen, Csr, DatasetId, DeltaCsr};

/// SplitMix64 finalizer: decorrelates derived seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic stream of uniform draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed, 0x5eed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0, 0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// The Table II analogue of `id` at scale divisor `scale`, with the same
/// structure class and average degree as the library's registry but a
/// graph drawn from `seed` instead of the registry's fixed seed.
pub fn analogue(id: DatasetId, scale: usize, seed: u64) -> Csr {
    let e = id.spec();
    let v = (e.vertices / scale.max(1)).max(64);
    let undirected = ((e.edges / 2) as f64 * v as f64 / e.vertices as f64).round() as usize;
    shaped(id, v, undirected.max(v / 2), seed)
}

/// A graph of `id`'s structure class with `v` vertices and `undirected`
/// edges, drawn from `seed`.
pub fn shaped(id: DatasetId, v: usize, undirected: usize, seed: u64) -> Csr {
    let s = mix(seed, id as u64 + 1);
    match id.spec().structure {
        Structure::Citation => gen::barabasi_albert(v, (undirected / v).max(1), s),
        Structure::ProteinCommunity => {
            gen::local_shuffle(&gen::molecules(v, undirected, s), 32, s ^ 0x10ca1)
        }
        Structure::Scattered => gen::scatter_relabel(&gen::molecules(v, undirected, s), s ^ 0xa5a5),
        Structure::PowerLaw => gen::local_shuffle(&gen::social(v, undirected, s), 64, s ^ 0x50c),
        Structure::Community => {
            gen::local_shuffle(&gen::molecules(v, undirected, s), 64, s ^ 0xb10)
        }
        Structure::Mesh => gen::mesh_noisy(v, undirected, 0.15, s),
        Structure::CleanMolecules => gen::molecules(v, undirected, s),
    }
}

/// An edge-churn batch against `a`: `edits` rows in a late band of the
/// matrix each lose their first edge and gain one absent edge.
pub fn churn_delta(a: &Csr, edits: usize, rng: &mut Rng) -> DeltaCsr {
    let mut rows: Vec<usize> = Vec::new();
    let band = (a.nrows / 4).max(1);
    while rows.len() < edits.min(band) {
        let r = a.nrows - band + rng.below(band);
        if !rows.contains(&r) && !a.row_cols(r).is_empty() && a.row_cols(r).len() < a.ncols {
            rows.push(r);
        }
    }
    let mut inserts = Vec::new();
    let mut deletes = Vec::new();
    for r in rows {
        let cols = a.row_cols(r);
        deletes.push((r as u32, cols[0]));
        let c = loop {
            let c = rng.below(a.ncols) as u32;
            if cols.binary_search(&c).is_err() {
                break c;
            }
        };
        inserts.push((r as u32, c, 1.0));
    }
    DeltaCsr::new(a.nrows, a.ncols, inserts, deletes).expect("generated delta is well formed")
}
