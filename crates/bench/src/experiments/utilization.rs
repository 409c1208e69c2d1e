//! Tables XIII–XV: Tensor-core utilization, per-core execution time, and
//! compute/memory throughput.

use baselines::{DtcSpmm, GeSpmm, SputnikSpmm, TcGnnSpmm};
use gpu_sim::DeviceSpec;
use graph_sparse::{Csr, DatasetId};
use hc_core::{HcSpmm, Loa, SpmmKernel};

use crate::harness::{f3, DatasetCache, Table};

/// The deployed HC-SpMM pipeline applies LOA before long training runs
/// (§VI-C3), so utilization is measured on the optimized layout.
fn loa_layout(cache: &mut DatasetCache, id: DatasetId) -> Csr {
    let ds = cache.get(id);
    Loa::default().optimize(&ds.adj).0
}

/// Table XIII: Tensor-core utilization (%) for the Tensor-using kernels.
pub fn table13(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&["Dataset", "DTC-SpMM", "TC-GNN", "HC-SpMM"]);
    for id in DatasetId::ABLATION_SET {
        let a = loa_layout(cache, id);
        let dim = cache.get(id).spec.dim.min(512);
        let util = |k: &dyn SpmmKernel| {
            let run = k.spmm_run(&a, dim, dev);
            f3(run.profile.tensor_core_utilization(dev, run.time_ms))
        };
        t.row(vec![
            id.code().into(),
            util(&DtcSpmm::default()),
            util(&TcGnnSpmm::default()),
            util(&HcSpmm::default()),
        ]);
    }
    format!("Table XIII: Tensor cores' utilization (%)\n{}", t.render())
}

/// Table XIV: execution time (ms) split by core type within HC-SpMM.
pub fn table14(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&["GPU cores", "YS", "OC", "YH", "RD", "TT"]);
    let mut cuda_row = vec!["CUDA cores".to_string()];
    let mut tensor_row = vec!["Tensor cores".to_string()];
    for id in DatasetId::ABLATION_SET {
        let a = loa_layout(cache, id);
        let dim = cache.get(id).spec.dim.min(512);
        let hc = HcSpmm::default();
        let pre = hc.preprocess(&a, dev);
        let (tc, tt) = hc.per_core_time(&pre, dim, dev);
        cuda_row.push(f3(tc));
        tensor_row.push(f3(tt));
    }
    t.row(cuda_row);
    t.row(tensor_row);
    format!("Table XIV: per-core execution time (ms)\n{}", t.render())
}

/// Table XV: compute and memory throughput (%) for all kernels.
pub fn table15(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let kernels: Vec<Box<dyn SpmmKernel>> = vec![
        Box::new(TcGnnSpmm::default()),
        Box::new(SputnikSpmm),
        Box::new(GeSpmm),
        Box::new(DtcSpmm::default()),
        Box::new(HcSpmm::default()),
    ];
    let mut t = Table::new(&["Type", "Method", "YS", "OC", "YH", "RD", "TT"]);
    for metric in ["Computing", "Memory"] {
        for k in &kernels {
            let mut row = vec![metric.to_string(), k.name().to_string()];
            for id in DatasetId::ABLATION_SET {
                let ds = cache.get(id);
                let run = k.spmm_run(&ds.adj, ds.spec.dim.min(512), dev);
                let v = if metric == "Computing" {
                    run.profile.compute_throughput(dev, run.time_ms)
                } else {
                    run.profile.memory_throughput(dev, run.time_ms)
                };
                row.push(f3(v));
            }
            t.row(row);
        }
    }
    format!(
        "Table XV: computing and memory throughput (%)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hc_has_highest_memory_throughput() {
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let out = table15(&mut cache, &dev);
        // Parse the Memory block: HC-SpMM row must dominate each column.
        let mem: Vec<Vec<f64>> = out
            .lines()
            .filter(|l| l.trim_start().starts_with("Memory"))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|w| w.parse().ok())
                    .collect()
            })
            .collect();
        assert_eq!(mem.len(), 5);
        let hc = mem.last().unwrap();
        for row in mem.iter().take(4) {
            for (h, r) in hc.iter().zip(row) {
                assert!(h >= &(r * 0.7), "HC memory throughput unexpectedly low");
            }
        }
    }
}
