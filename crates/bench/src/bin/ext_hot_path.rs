//! Extension: hot-path workspace reuse — the warm plan's cost-cache and
//! scratch counters, with its outputs checked bit-exact against cold plans.
fn main() {
    let mut c = bench::harness::DatasetCache::new();
    let (text, _) =
        bench::experiments::extensions::hot_path(&mut c, &gpu_sim::DeviceSpec::rtx3090());
    println!("{text}");
}
