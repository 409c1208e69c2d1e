//! Tables III–V: ablations of the §IV-D kernel optimizations.

use gpu_sim::DeviceSpec;
use graph_sparse::DatasetId;
use hc_core::{CudaSpmm, SpmmKernel, TensorSpmm};

use crate::harness::{f3, DatasetCache, Table};

/// Table III: the generalization technique on datasets with unaligned
/// embedding dimensions.
pub fn table03(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&["Dataset", "Generalization", "No optimization", "Speedup"]);
    // DD (89), YS (74), OC (66), YH (75) — the paper's unaligned-dim picks.
    for id in [DatasetId::DD, DatasetId::YS, DatasetId::OC, DatasetId::YH] {
        let ds = cache.get(id);
        let dim = ds.spec.dim;
        assert_ne!(dim % 32, 0, "table III needs unaligned dims");
        let a = ds.adj.clone();
        let opt = CudaSpmm::optimized();
        let plain = CudaSpmm {
            generalized: false,
            ..CudaSpmm::default()
        };
        let to = opt.spmm_run(&a, dim, dev).time_ms;
        let tp = plain.spmm_run(&a, dim, dev).time_ms;
        t.row(vec![
            id.code().into(),
            format!("{}ms", f3(to)),
            format!("{}ms", f3(tp)),
            format!("{:.1}%", (tp - to) / to * 100.0),
        ]);
    }
    format!("Table III: effectiveness of generalization\n{}", t.render())
}

/// Table IV: shared-memory CSR staging on the five large datasets.
pub fn table04(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&["Dataset", "Shared memory", "No optimization", "Speedup"]);
    for id in DatasetId::ABLATION_SET {
        let a = cache.get(id).adj.clone();
        let with = CudaSpmm::optimized();
        let without = CudaSpmm {
            shared_mem_edges: false,
            ..CudaSpmm::default()
        };
        let tw = with.spmm_run(&a, 32, dev).time_ms;
        let to = without.spmm_run(&a, 32, dev).time_ms;
        t.row(vec![
            id.code().into(),
            format!("{}ms", f3(tw)),
            format!("{}ms", f3(to)),
            format!("{:.2}%", (to - tw) / tw * 100.0),
        ]);
    }
    format!(
        "Table IV: effectiveness of shared-memory staging\n{}",
        t.render()
    )
}

/// Table V: the Tensor-core data-loading strategy (only Tensor-core
/// calculation time, like the paper).
pub fn table05(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&["Dataset", "Opt. data loading", "No optimization", "Speedup"]);
    for id in DatasetId::ABLATION_SET {
        let a = cache.get(id).adj.clone();
        let to = TensorSpmm::optimized().spmm_run(&a, 32, dev).time_ms;
        let tp = TensorSpmm::unoptimized().spmm_run(&a, 32, dev).time_ms;
        t.row(vec![
            id.code().into(),
            format!("{}ms", f3(to)),
            format!("{}ms", f3(tp)),
            format!("{:.2}%", (tp - to) / to * 100.0),
        ]);
    }
    format!(
        "Table V: effectiveness of the data-loading strategy\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> DatasetCache {
        DatasetCache::with_scale(512)
    }

    fn speedups(out: &str) -> Vec<f64> {
        out.lines()
            .filter(|l| l.ends_with('%'))
            .map(|l| {
                l.split_whitespace()
                    .last()
                    .unwrap()
                    .trim_end_matches('%')
                    .parse()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn all_ablations_show_positive_speedups() {
        let mut cache = small_cache();
        let dev = DeviceSpec::rtx3090();
        for out in [
            table03(&mut cache, &dev),
            table04(&mut cache, &dev),
            table05(&mut cache, &dev),
        ] {
            let s = speedups(&out);
            assert!(!s.is_empty());
            for v in s {
                assert!(v > 0.0, "ablation should help:\n{out}");
            }
        }
    }

    #[test]
    fn data_loading_speedup_larger_than_shared_memory() {
        // The paper: data loading ≈17.5 %, shared memory ≈2.85 %.
        let mut cache = small_cache();
        let dev = DeviceSpec::rtx3090();
        let s4: f64 = speedups(&table04(&mut cache, &dev)).iter().sum();
        let s5: f64 = speedups(&table05(&mut cache, &dev)).iter().sum();
        assert!(s5 > s4, "loading ablation should dominate: {s5} vs {s4}");
    }
}
