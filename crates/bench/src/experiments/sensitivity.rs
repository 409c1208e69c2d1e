//! Fig. 17: sensitivity of SpMM performance to the logistic-regression
//! parameters (Appendix E).

use gpu_sim::DeviceSpec;
use graph_sparse::DatasetId;
use hc_core::{HcSpmm, Selector, SpmmKernel};

use crate::harness::{DatasetCache, Table};

/// Sweep each model parameter ±50 % on YH and RD and report the SpMM-time
/// change relative to the default model.
pub fn fig17(cache: &mut DatasetCache, dev: &DeviceSpec) -> String {
    let mut out = String::from("Fig. 17: sensitivity of performance to LR parameters\n");
    for id in [DatasetId::YH, DatasetId::RD] {
        let ds = cache.get(id);
        let dim = ds.spec.dim.min(512);
        let a = ds.adj.clone();
        let base_time = HcSpmm::default().spmm_run(&a, dim, dev).time_ms;
        let mut t = Table::new(&["param", "-50%", "-25%", "+25%", "+50%"]);
        for (name, pick) in [("w1", 0usize), ("w2", 1), ("b", 2)] {
            let mut row = vec![name.to_string()];
            for delta in [-0.5, -0.25, 0.25, 0.5] {
                let mut s = Selector::DEFAULT;
                match pick {
                    0 => s.w1 *= 1.0 + delta,
                    1 => s.w2 *= 1.0 + delta,
                    _ => s.b *= 1.0 + delta,
                }
                let hc = HcSpmm {
                    selector: s,
                    ..HcSpmm::default()
                };
                let tms = hc.spmm_run(&a, dim, dev).time_ms;
                row.push(format!("{:+.2}%", (tms - base_time) / base_time * 100.0));
            }
            t.row(row);
        }
        out.push_str(&format!(
            "[{}] relative SpMM time change:\n{}",
            id.code(),
            t.render()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbations_never_speed_things_up_much() {
        // The default model is (near-)optimal: perturbing it should not
        // improve performance beyond noise.
        let mut cache = DatasetCache::with_scale(512);
        let dev = DeviceSpec::rtx3090();
        let out = fig17(&mut cache, &dev);
        // Only data cells carry an explicit sign prefix ("+x%"/"-x%"
        // with a decimal point); header labels like "-50%" do not.
        for tok in out
            .split_whitespace()
            .filter(|t| t.ends_with('%') && t.contains('.'))
        {
            if let Ok(v) = tok.trim_end_matches('%').parse::<f64>() {
                assert!(v > -8.0, "perturbed model suspiciously faster: {v}%\n{out}");
            }
        }
    }
}
