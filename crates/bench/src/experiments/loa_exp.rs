//! Figs. 14–16: the LOA layout-optimization experiments.

use gnn::aggregator::HcAggregator;
use gnn::train::{mean_timing, synthetic_labels, Trainer};
use gnn::Gcn;
use gpu_sim::DeviceSpec;
use graph_sparse::{DatasetId, DenseMatrix};
use hc_core::{HcSpmm, Loa, SpmmKernel};

use crate::harness::{bar_chart, f3, DatasetCache, Table};

/// Datasets Fig. 14 evaluates (all SpMM datasets except DP, which OOMs the
/// paper's GNN runs; GH is kept to show the ≈0 case).
const LOA_SET: [DatasetId; 12] = [
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
];

/// Fig. 14: SpMM time before vs after LOA, and the improvement.
pub fn fig14(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&["Dataset", "before(us)", "after(us)", "improvement"]);
    let mut bars = Vec::new();
    for id in LOA_SET {
        let ds = cache.get(id);
        let dim = ds.spec.dim.min(512);
        let a = ds.adj.clone();
        let hc = HcSpmm::default();
        let before = hc.spmm_run(&a, dim, dev).time_ms;
        let (opt, _) = Loa::default().optimize(&a);
        let after = hc.spmm_run(&opt, dim, dev).time_ms;
        let imp = (before - after) / before * 100.0;
        t.row(vec![
            id.code().into(),
            f3(before * 1e3),
            f3(after * 1e3),
            format!("{imp:.2}%"),
        ]);
        bars.push((id.code().to_string(), imp.max(0.0)));
    }
    format!(
        "Fig. 14: improvement of layout optimization (SpMM time)\n{}\nimprovement (%):\n{}",
        t.render(),
        bar_chart(&bars, 40)
    )
}

/// Fig. 15: row windows per core type before and after LOA.
pub fn fig15(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&[
        "Dataset",
        "CUDA before",
        "Tensor before",
        "CUDA after",
        "Tensor after",
    ]);
    for id in LOA_SET {
        let ds = cache.get(id);
        let a = ds.adj.clone();
        let hc = HcSpmm::default();
        let (cb, tb) = hc.preprocess(&a, dev).window_split();
        let (opt, _) = Loa::default().optimize(&a);
        let (ca, ta) = hc.preprocess(&opt, dev).window_split();
        t.row(vec![
            id.code().into(),
            cb.to_string(),
            tb.to_string(),
            ca.to_string(),
            ta.to_string(),
        ]);
    }
    format!(
        "Fig. 15: row windows suitable for each core type\n{}",
        t.render()
    )
}

/// Fig. 16: LOA preprocessing overhead vs 200-epoch GCN training time.
pub fn fig16(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    const EPOCHS: f64 = 200.0;
    let mut t = Table::new(&[
        "Dataset",
        "LOA (s)",
        "200-epoch train (s)",
        "overhead",
        "LOA benefit",
    ]);
    for id in LOA_SET {
        let ds = cache.get(id);
        let dim = ds.spec.dim.min(512);
        let a = ds.adj.gcn_normalize();
        let x = DenseMatrix::random_features(a.nrows, dim, id as u64);
        let labels = synthetic_labels(a.nrows, 8);
        let mut model = Gcn::new(dim, 32, 8, 3);
        let agg = HcAggregator::new(&a, dev);
        let tr = Trainer {
            lr: 0.01,
            epochs: 1,
        };
        let epoch = mean_timing(&tr.train_gcn(&mut model, &a, &x, &labels, &agg, dev));
        let train_s = (epoch.forward_ms + epoch.backward_ms) * EPOCHS / 1e3;
        let rep = Loa::default().run(&ds.adj);
        // Benefit: SpMM-time saving from Fig. 14 applied to the aggregation
        // share of training (reported for context).
        let hc = HcSpmm::default();
        let before = hc.spmm_run(&ds.adj, dim, dev).time_ms;
        let opt = ds.adj.permute_symmetric(&rep.perm);
        let after = hc.spmm_run(&opt, dim, dev).time_ms;
        t.row(vec![
            id.code().into(),
            f3(rep.seconds),
            f3(train_s),
            format!("{:.2}%", rep.seconds / train_s * 100.0),
            format!("{:.2}%", (before - after) / before * 100.0),
        ]);
    }
    format!(
        "Fig. 16: LOA overhead relative to 200-epoch GCN training\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loa_helps_scattered_datasets_most() {
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let out = fig14(&mut cache, &dev);
        let find = |code: &str| -> f64 {
            out.lines()
                .find(|l| l.trim_start().starts_with(code))
                .unwrap()
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        // AZ (scattered) must improve more than GH (mesh, already good).
        let az = find("AZ");
        let gh = find("GH");
        assert!(az > gh, "AZ ({az}%) should improve more than GH ({gh}%)");
    }
}
