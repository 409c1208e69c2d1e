//! Fig. 10 (SpMM kernel comparison), Table X (sparsity sweep), Table XVI
//! (GPU architectures), Table VII (FP types) and Table XI (preprocessing).

use baselines::{
    cpu_spmm_time_ms, CusparseSpmm, DtcSpmm, GeSpmm, SputnikHalfSpmm, SputnikSpmm, TcGnnSpmm,
    TileCsrSpmm,
};
use gpu_sim::{DeviceKind, DeviceSpec, Precision};
use graph_sparse::{gen, DatasetId};
use hc_core::{HcSpmm, SpmmKernel};

use crate::harness::{bar_chart, f3, geomean, DatasetCache, Table};

/// Per-dataset feature width: the Table II dimension. Every table here
/// reads simulated (or roofline-modeled) time only, which depends on the
/// width and never on feature values, so no feature matrix is built.
fn dim_for(cache: &mut DatasetCache, id: DatasetId) -> usize {
    cache.get(id).spec.dim.min(512)
}

/// Fig. 10: all kernels on the SpMM datasets, normalized to cuSPARSE
/// (plus the absolute µs, which is Table XVI's RTX 3090 block, and the
/// CPU comparison of §VI-B1).
pub fn fig10(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let kernels: Vec<Box<dyn SpmmKernel>> = vec![
        Box::new(SputnikSpmm),
        Box::new(GeSpmm),
        Box::new(TcGnnSpmm::default()),
        Box::new(DtcSpmm::default()),
        Box::new(HcSpmm::default()),
    ];
    let mut t = Table::new(&[
        "Dataset",
        "cuSPARSE(us)",
        "Sputnik",
        "GE-SpMM",
        "TC-GNN",
        "DTC-SpMM",
        "HC-SpMM",
        "CPU(x)",
    ]);
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); kernels.len()];
    let mut cpu_speedups = Vec::new();
    for id in DatasetId::ALL {
        let dim = dim_for(cache, id);
        let a = cache.get(id).adj.clone();
        let base = CusparseSpmm.spmm_run(&a, dim, dev).time_ms;
        let mut cells = vec![id.code().to_string(), f3(base * 1e3)];
        let mut hc_ms = base;
        for (k, kern) in kernels.iter().enumerate() {
            let ms = kern.spmm_run(&a, dim, dev).time_ms;
            speedups[k].push(base / ms);
            cells.push(format!("{:.2}x", base / ms));
            if k + 1 == kernels.len() {
                hc_ms = ms; // HC-SpMM is last; reuse its measurement
            }
        }
        let cpu = cpu_spmm_time_ms(&a, dim);
        cpu_speedups.push(cpu / hc_ms);
        cells.push(format!("{:.0}x", cpu / hc_ms));
        t.row(cells);
    }
    let mut cells = vec!["geomean".to_string(), "-".into()];
    let names = ["Sputnik", "GE-SpMM", "TC-GNN", "DTC-SpMM", "HC-SpMM"];
    let mut bars = Vec::new();
    for (s, name) in speedups.iter().zip(names) {
        let g = geomean(s);
        cells.push(format!("{g:.2}x"));
        bars.push((name.to_string(), g));
    }
    cells.push(format!("{:.0}x", geomean(&cpu_speedups)));
    t.row(cells);
    format!(
        "Fig. 10: speedup over cuSPARSE (higher is better); CPU(x) = PyTorch-CPU time / HC-SpMM time\n{}\ngeomean speedup vs cuSPARSE:\n{}",
        t.render(),
        bar_chart(&bars, 40)
    )
}

/// Table X: kernel runtimes on synthetic block-sparse matrices of varying
/// in-block sparsity (Appendix D), in µs.
pub fn table10(dev: &DeviceSpec) -> String {
    let kernels: Vec<Box<dyn SpmmKernel>> = vec![
        Box::new(SputnikSpmm),
        Box::new(GeSpmm),
        Box::new(TcGnnSpmm::default()),
        Box::new(DtcSpmm::default()),
        Box::new(HcSpmm::default()),
    ];
    let mut t = Table::new(&["Method", "80%", "85%", "90%", "95%"]);
    let sparsities = [0.80, 0.85, 0.90, 0.95];
    let mats: Vec<_> = sparsities
        .iter()
        .map(|&s| gen::block_sparse(512, s, 7))
        .collect();
    for kern in &kernels {
        let mut cells = vec![kern.name().to_string()];
        for m in &mats {
            cells.push(f3(kern.spmm_run(m, 32, dev).time_ms * 1e3));
        }
        t.row(cells);
    }
    format!(
        "Table X: runtime (us) on synthetic matrices by sparsity\n{}",
        t.render()
    )
}

/// Table XVI: HC-SpMM and baselines across the three GPU presets, µs.
pub fn table16(cache: &mut DatasetCache) -> String {
    let mut t = Table::new(&[
        "Dataset", "GPU", "Sputnik", "GE-SpMM", "TC-GNN", "DTC-SpMM", "cuSPARSE", "HC-SpMM",
    ]);
    for id in DatasetId::ALL {
        let dim = dim_for(cache, id);
        let a = cache.get(id).adj.clone();
        for kind in DeviceKind::ALL {
            let dev = DeviceSpec::new(kind);
            let us = |k: &dyn SpmmKernel| f3(k.spmm_run(&a, dim, &dev).time_ms * 1e3);
            t.row(vec![
                id.code().into(),
                kind.name().into(),
                us(&SputnikSpmm),
                us(&GeSpmm),
                us(&TcGnnSpmm::default()),
                us(&DtcSpmm::default()),
                us(&CusparseSpmm),
                us(&HcSpmm::default()),
            ]);
        }
    }
    format!(
        "Table XVI: SpMM overhead (us) across GPU architectures\n{}",
        t.render()
    )
}

/// Table VII: SpMM time (µs) across FP types — Sputnik (half-optimized),
/// TC-GNN (half), HC-SpMM (half and bfloat16).
pub fn table07(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&[
        "Dataset",
        "Sputnik(half)",
        "TC-GNN(half)",
        "Tile-CSR(half)",
        "HC-SpMM(half)",
        "HC-SpMM(bfloat)",
    ]);
    for id in DatasetId::SPMM_SET {
        let dim = dim_for(cache, id);
        let a = cache.get(id).adj.clone();
        let us = |k: &dyn SpmmKernel| f3(k.spmm_run(&a, dim, dev).time_ms * 1e3);
        t.row(vec![
            id.code().into(),
            us(&SputnikHalfSpmm),
            us(&TcGnnSpmm {
                precision: Precision::Fp16,
            }),
            us(&TileCsrSpmm),
            us(&HcSpmm::with_precision(Precision::Fp16)),
            us(&HcSpmm::with_precision(Precision::Bf16)),
        ]);
    }
    format!(
        "Table VII: SpMM overhead (us) on reduced-precision FP types\n{}",
        t.render()
    )
}

/// Table XI: preprocessing overhead (ms) — DTC-SpMM, TC-GNN, HC-SpMM.
pub fn table11(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut t = Table::new(&["Dataset", "DTC-SpMM", "TC-GNN", "HC-SpMM", "HC pre/SpMM"]);
    for id in DatasetId::ABLATION_SET {
        let dim = dim_for(cache, id);
        let a = cache.get(id).adj.clone();
        let hc = HcSpmm::default();
        let pre = hc.preprocess(&a, dev);
        let spmm_ms = hc.spmm_preprocessed_run(&pre, dim, dev).time_ms;
        t.row(vec![
            id.code().into(),
            f3(DtcSpmm::default().preprocess_run(&a, dev).time_ms),
            f3(TcGnnSpmm::default().preprocess_run(&a, dev).time_ms),
            f3(pre.run.time_ms),
            format!("{:.1}x", pre.run.time_ms / spmm_ms),
        ]);
    }
    format!("Table XI: preprocessing overhead (ms)\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> DatasetCache {
        DatasetCache::with_scale(512)
    }

    #[test]
    fn hc_wins_geomean_in_fig10() {
        let mut cache = small_cache();
        let dev = DeviceSpec::rtx3090();
        let out = fig10(&mut cache, &dev);
        let geo: Vec<f64> = out
            .lines()
            .find(|l| l.trim_start().starts_with("geomean"))
            .unwrap()
            .split_whitespace()
            .filter_map(|w| w.trim_end_matches('x').parse().ok())
            .collect();
        // Columns: Sputnik, GE, TC-GNN, DTC, HC, CPU — HC (index 4) must be
        // the largest GPU-kernel speedup.
        let hc = geo[4];
        for (i, g) in geo.iter().take(5).enumerate() {
            assert!(hc >= *g, "HC geomean {hc} below column {i} ({g})");
        }
        assert!(hc > 1.0, "HC must beat cuSPARSE: {hc}");
    }

    #[test]
    fn table10_hc_best_at_every_sparsity() {
        let dev = DeviceSpec::rtx3090();
        let out = table10(&dev);
        let rows: Vec<Vec<f64>> = out
            .lines()
            .filter(|l| {
                l.contains("Sputnik")
                    || l.contains("GE-SpMM")
                    || l.contains("TC-GNN")
                    || l.contains("DTC")
                    || l.contains("HC-SpMM")
            })
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|w| w.parse().ok())
                    .collect()
            })
            .collect();
        assert_eq!(rows.len(), 5);
        let hc = &rows[4];
        for col in 0..4 {
            for r in rows.iter().take(4) {
                // These block matrices sit right at the selector's decision
                // boundary, where the ~95 %-accurate model misassigns a few
                // windows: allow HC within 5 % of the best kernel.
                assert!(
                    hc[col] <= r[col] * 1.05,
                    "HC not within 5% of best at sparsity col {col}: {hc:?} vs {r:?}"
                );
            }
        }
    }
}
