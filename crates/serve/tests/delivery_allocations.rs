//! Every served output exists once: delivery moves responses, it never
//! copies them.
//!
//! Each served request allocates its `rows × dim` f32 output when it
//! executes. From there the output must only move: into the epoch's
//! delivery at the barrier, into the sink, and into the report. The
//! durable front delivers right after its marker fsync and then may
//! snapshot; neither step may copy an output. The test picks an output
//! size that no other allocation in the run shares, and a counting global
//! allocator counts the output-sized allocations each front makes.
//!
//! Single `#[test]` in its own binary on purpose: the allocator is
//! process-global, so a concurrent test would pollute its count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use gpu_sim::DeviceSpec;
use graph_sparse::{gen, Csr, DeltaCsr, DenseMatrix};
use hc_core::PlanSpec;
use hc_serve::{
    DurabilityConfig, DurableFront, Front, FrontConfig, FrontEvent, FrontReport, FrontRequest,
    Mutation, Request, TenantId,
};

const ROWS: usize = 500;
const DIM: usize = 23;
/// One output's bytes. The graphs are square, so the features share
/// this size too; they are built before the counter is armed.
const OUTPUT_BYTES: usize = ROWS * DIM * std::mem::size_of::<f32>();
const EPOCH: usize = 8;

/// `System`, counting requests of exactly `OUTPUT_BYTES` while armed.
struct CountOutputs;

static ARMED: AtomicBool = AtomicBool::new(false);
static OUTPUTS: AtomicUsize = AtomicUsize::new(0);

/// Must not allocate. Relaxed is enough: the workers' spawn orders the
/// arming before their allocations, and the count publishes no other
/// data.
fn record(size: usize) {
    if size == OUTPUT_BYTES && ARMED.load(Ordering::Relaxed) {
        OUTPUTS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `record` neither allocates nor
// touches the memory.
unsafe impl GlobalAlloc for CountOutputs {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountOutputs = CountOutputs;

/// Run `f` and count the output-sized allocations it made.
fn output_allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    OUTPUTS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, OUTPUTS.load(Ordering::SeqCst))
}

fn served(rep: &FrontReport) -> usize {
    rep.responses.iter().filter(|r| r.z().is_some()).count()
}

fn serve(g: &Arc<Csr>, i: usize) -> FrontEvent {
    FrontEvent::Serve(FrontRequest {
        tenant: TenantId((i % 3) as u32),
        request: Request {
            graph: Arc::clone(g),
            features: DenseMatrix::random_features(g.ncols, DIM, i as u64),
        },
    })
}

/// Five epochs over three structures, with one mutation in epoch 1 whose
/// result the later epochs serve.
fn trace() -> Vec<FrontEvent> {
    let g0 = Arc::new(gen::erdos_renyi(ROWS, 1_500, 31));
    let g1 = Arc::new(gen::erdos_renyi(ROWS, 1_700, 32));
    let g2 = Arc::new(gen::erdos_renyi(ROWS, 1_900, 33));
    let (r, c) = (0..ROWS)
        .find_map(|r| g0.row_cols(r).first().map(|&c| (r as u32, c)))
        .expect("graph has edges");
    let delta = DeltaCsr::new(ROWS, ROWS, vec![], vec![(r, c)]).expect("valid delta");
    let g0b = Arc::new(delta.apply(&g0).expect("delta applies"));

    let mut events = Vec::new();
    for i in 0..39 {
        if i == 10 {
            events.push(FrontEvent::Mutate(Mutation {
                base: Arc::clone(&g0),
                delta: delta.clone(),
            }));
        }
        let g = match (i % 3, i < 10) {
            (0, true) => &g0,
            (0, false) => &g0b,
            (1, _) => &g1,
            _ => &g2,
        };
        events.push(serve(g, i));
    }
    events
}

#[test]
fn each_served_output_is_allocated_once() {
    let dev = DeviceSpec::rtx3090();
    let events = trace();
    let cfg = FrontConfig {
        workers: 2,
        arrivals_per_epoch: EPOCH,
        ..Default::default()
    };
    let front = || Front::new(1 << 30, PlanSpec::hybrid(), 2, cfg);

    let (plain, plain_outputs) = output_allocations(|| front().run_events(&events, &dev));
    assert_eq!(plain.counters.epochs, 5);
    assert_eq!(plain.counters.patched_plans, 1, "the mutation patches");
    assert_eq!(served(&plain), 39, "faults are off: every request serves");
    assert_eq!(
        plain_outputs,
        served(&plain),
        "Front::run_events allocated {plain_outputs} {OUTPUT_BYTES}-byte buffers \
         for {} served outputs",
        served(&plain)
    );

    let dir = std::env::temp_dir();
    let path = |ext: &str| -> PathBuf {
        dir.join(format!("hc-delivery-alloc-{}.{ext}", std::process::id()))
    };
    let dcfg = DurabilityConfig {
        wal_path: path("wal"),
        snapshot_path: path("snap"),
        snapshot_every: 2,
    };
    let _ = std::fs::remove_file(&dcfg.snapshot_path);
    let mut df = DurableFront::create(front(), dcfg.clone()).expect("create the WAL");
    let (attempt, durable_outputs) = output_allocations(|| df.run(&events, &dev));
    let snapshotted = dcfg.snapshot_path.exists();
    let _ = std::fs::remove_file(&dcfg.wal_path);
    let _ = std::fs::remove_file(&dcfg.snapshot_path);
    let attempt = attempt.expect("durable run");
    assert!(snapshotted, "the run must write a snapshot");
    let durable = attempt.report.expect("no crash is injected");
    assert_eq!(durable.responses, plain.responses);
    assert_eq!(durable.mutations, plain.mutations);
    assert_eq!(
        durable_outputs,
        served(&durable),
        "DurableFront::run allocated {durable_outputs} {OUTPUT_BYTES}-byte buffers \
         for {} served outputs",
        served(&durable)
    );
    assert!(
        attempt.delivered.is_empty() && attempt.delivered_mutations.is_empty(),
        "a completed attempt's responses live only in its report"
    );
}
