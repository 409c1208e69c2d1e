//! Extension: multi-tenant serving load — cohorted front vs the in-order front.
fn main() {
    let mut c = bench::harness::DatasetCache::new();
    let (text, _) =
        bench::experiments::extensions::serving_load(&mut c, &gpu_sim::DeviceSpec::rtx3090());
    println!("{text}");
}
