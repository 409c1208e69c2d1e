//! Figs. 11–13 / Tables VIII–IX (GNN training), Table VI (kernel fusion)
//! and Table XII (memory usage).

use gnn::aggregator::{Aggregator, HcAggregator, KernelAggregator};
use gnn::gin::gin_propagation;
use gnn::memory::{training_memory_bytes, Framework};
use gnn::train::{mean_timing, synthetic_labels, Trainer};
use gnn::{Gcn, Gin};
use gpu_sim::DeviceSpec;
use graph_sparse::{DatasetId, DenseMatrix};
use hc_core::fusion::{fused_agg_update_run, unfused_agg_update_run};
use hc_core::HcSpmm;

use crate::harness::{f3, DatasetCache, Table};

/// Hidden width used by the end-to-end models.
const HIDDEN: usize = 32;
/// Output classes (Table II: "we uniformly use 22").
const CLASSES: usize = 22;

/// Fig. 11 + Fig. 12 (and Table VIII's absolute numbers): GCN forward and
/// backward epoch time per framework, in ms.
pub fn fig11_12_gcn(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&[
        "Dataset",
        "phase",
        "GE-SpMM",
        "TC-GNN",
        "HC-SpMM",
        "HC speedup vs GE",
    ]);
    for id in DatasetId::SPMM_SET {
        let ds = cache.get(id);
        let dim = ds.spec.dim.min(512);
        let a = ds.adj.gcn_normalize();
        let x = DenseMatrix::random_features(a.nrows, dim, id as u64);
        let labels = synthetic_labels(a.nrows, CLASSES);
        let tr = Trainer {
            lr: 0.01,
            epochs: 1,
        };

        let run = |agg: &dyn Aggregator| {
            let mut m = Gcn::new(dim, HIDDEN, CLASSES, 3);
            mean_timing(&tr.train_gcn(&mut m, &a, &x, &labels, agg, dev))
        };
        let hc = run(&HcAggregator::new(&a, dev));
        let ge = run(&KernelAggregator::new(baselines::GeSpmm));
        let tc = run(&KernelAggregator::new(baselines::TcGnnSpmm::default()));

        t.row(vec![
            id.code().into(),
            "Forward".into(),
            f3(ge.forward_ms),
            f3(tc.forward_ms),
            f3(hc.forward_ms),
            format!("{:.2}x", ge.forward_ms / hc.forward_ms),
        ]);
        t.row(vec![
            id.code().into(),
            "Backward".into(),
            f3(ge.backward_ms),
            f3(tc.backward_ms),
            f3(hc.backward_ms),
            format!("{:.2}x", ge.backward_ms / hc.backward_ms),
        ]);
    }
    format!(
        "Figs. 11/12 + Table VIII: GCN average epoch time (ms)\n{}",
        t.render()
    )
}

/// Fig. 13 (and Table IX): GIN forward/backward on the five large datasets.
pub fn fig13_gin(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&[
        "Dataset",
        "phase",
        "GE-SpMM",
        "TC-GNN",
        "HC-SpMM",
        "HC speedup vs GE",
    ]);
    for id in DatasetId::ABLATION_SET {
        let ds = cache.get(id);
        let dim = ds.spec.dim.min(512);
        let s = gin_propagation(&ds.adj, 0.1);
        let x = DenseMatrix::random_features(s.nrows, dim, id as u64);
        let labels = synthetic_labels(s.nrows, CLASSES);
        let tr = Trainer {
            lr: 0.01,
            epochs: 1,
        };

        let run = |agg: &dyn Aggregator| {
            let mut m = Gin::new(dim, HIDDEN, CLASSES, 5);
            mean_timing(&tr.train_gin(&mut m, &s, &x, &labels, agg, dev))
        };
        let hc = run(&HcAggregator::new(&s, dev));
        let ge = run(&KernelAggregator::new(baselines::GeSpmm));
        let tc = run(&KernelAggregator::new(baselines::TcGnnSpmm::default()));

        t.row(vec![
            id.code().into(),
            "Forward".into(),
            f3(ge.forward_ms),
            f3(tc.forward_ms),
            f3(hc.forward_ms),
            format!("{:.2}x", ge.forward_ms / hc.forward_ms),
        ]);
        t.row(vec![
            id.code().into(),
            "Backward".into(),
            f3(ge.backward_ms),
            f3(tc.backward_ms),
            f3(hc.backward_ms),
            format!("{:.2}x", ge.backward_ms / hc.backward_ms),
        ]);
    }
    format!(
        "Fig. 13 + Table IX: GIN average epoch time (ms)\n{}",
        t.render()
    )
}

/// Table VI: a single backward GNN layer (Aggregation+Update) with and
/// without kernel fusion.
pub fn table06(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&["Dataset", "Fusing kernel", "No optimization", "Speedup"]);
    for id in DatasetId::ABLATION_SET {
        let ds = cache.get(id);
        let dim = ds.spec.dim.min(512);
        let a = ds.adj.gcn_normalize();
        let g = DenseMatrix::random_features(a.nrows, dim, id as u64);
        let hc = HcSpmm::default();
        let pre = hc.preprocess(&a, dev);
        let (_, fused) = fused_agg_update_run(&hc, &pre, &a, &g, HIDDEN, dev);
        let (_, unfused) = unfused_agg_update_run(&hc, &pre, &a, &g, HIDDEN, dev);
        let (tf, tu) = (fused.time_ms, unfused.time_ms);
        t.row(vec![
            id.code().into(),
            format!("{}ms", f3(tf)),
            format!("{}ms", f3(tu)),
            format!("{:.2}%", (tu - tf) / tf * 100.0),
        ]);
    }
    format!("Table VI: effectiveness of kernel fusion\n{}", t.render())
}

/// Table XII: modeled training memory (MB) per framework.
pub fn table12(cache: &mut DatasetCache) -> String {
    let mut t = Table::new(&["Dataset", "GE-SpMM", "TC-GNN", "HC-SpMM", "HC/GE"]);
    for id in DatasetId::ABLATION_SET {
        let ds = cache.get(id);
        let dim = ds.spec.dim;
        let mb = |fw| training_memory_bytes(fw, &ds.adj, dim, HIDDEN, CLASSES) as f64 / 1e6;
        let ge = mb(Framework::GeSpmm);
        let tc = mb(Framework::TcGnn);
        let hc = mb(Framework::HcSpmm);
        t.row(vec![
            id.code().into(),
            format!("{ge:.0}"),
            format!("{tc:.0}"),
            format!("{hc:.0}"),
            format!("{:.2}%", (hc / ge - 1.0) * 100.0),
        ]);
    }
    format!(
        "Table XII: memory usage (MB, at harness scale)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> DatasetCache {
        DatasetCache::with_scale(512)
    }

    #[test]
    fn fusion_speedups_positive_everywhere() {
        let mut cache = small_cache();
        let dev = DeviceSpec::rtx3090();
        let out = table06(&mut cache, &dev);
        for l in out.lines().filter(|l| l.ends_with('%')) {
            let v: f64 = l
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(v > 0.0, "fusion must help:\n{out}");
        }
    }

    #[test]
    fn memory_table_orders_frameworks() {
        let mut cache = small_cache();
        let out = table12(&mut cache);
        for l in out.lines().skip(3).filter(|l| l.contains('%')) {
            let w: Vec<&str> = l.split_whitespace().collect();
            let ge: f64 = w[1].parse().unwrap();
            let tc: f64 = w[2].parse().unwrap();
            let hc: f64 = w[3].parse().unwrap();
            assert!(tc <= ge && ge <= hc, "ordering broken: {l}");
        }
    }
}
