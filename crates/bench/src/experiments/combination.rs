//! §IV-A ablation: row-window hybrid unit vs the straightforward per-tile
//! strategy (Fig. 4a vs Fig. 4b). Not a numbered table in the paper — the
//! text reports only "overhead up to 31 %" (footnote 4) — but the argument
//! drives the central design choice, so we regenerate the measurement.

use gpu_sim::DeviceSpec;
use graph_sparse::DatasetId;
use hc_core::{HcSpmm, Loa, SpmmKernel, StraightforwardHybrid};

use crate::harness::{f3, DatasetCache, Table};

/// Compare the two combination strategies across the ablation datasets, on
/// LOA-optimized layouts (the deployed configuration): mixed dense/sparse
/// tiles inside a window are exactly where the per-tile strategy pays its
/// merging overhead.
pub fn run(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&[
        "Dataset",
        "row window (us)",
        "per-tile (us)",
        "per-tile overhead",
    ]);
    // PT/DD/GH/AZ have the wide mixed windows (dense molecule head, sparse
    // bond tail) where per-tile dispatch must merge results; the
    // low-degree star datasets have single-tile windows and nothing to
    // merge.
    for id in [DatasetId::PT, DatasetId::DD, DatasetId::GH, DatasetId::AZ] {
        let ds = cache.get(id);
        let dim = ds.spec.dim.min(512);
        let a = Loa::default().optimize(&ds.adj).0;
        let rw = HcSpmm::default().spmm_run(&a, dim, dev).time_ms;
        let pt = StraightforwardHybrid::default()
            .spmm_run(&a, dim, dev)
            .time_ms;
        t.row(vec![
            id.code().into(),
            f3(rw * 1e3),
            f3(pt * 1e3),
            format!("{:+.2}%", (pt - rw) / rw * 100.0),
        ]);
    }
    format!(
        "Combination-strategy ablation (§IV-A): row-window unit vs per-16x8-tile hybrid\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tile_strategy_is_never_better() {
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let out = run(&mut cache, &dev);
        for l in out.lines().filter(|l| l.contains('%')) {
            let v: f64 = l
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(v >= -2.0, "per-tile should not win: {out}");
        }
    }
}
