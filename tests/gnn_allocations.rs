//! The GNN backward passes build no input-width temporaries.
//!
//! Each model's first backward layer ends in a dX-side product whose
//! result nobody reads: GCN's `(Ā·dZ1)·W1ᵀ`, GIN's `S·(dZ1·W1ᵀ)` and
//! `DeepGcn`'s first-layer `(Ā·grad)·W0ᵀ`. The frameworks the paper models
//! launch them, so they stay billed on the simulated clock, but the host
//! must not compute them. Every other backward temporary is at most
//! hidden-width, so the largest allocation made during `backward` must stay
//! below one `rows × in_dim` f32 matrix. A counting global allocator
//! records it.
//!
//! Single `#[test]` in its own binary on purpose: the allocator is
//! process-global, so a concurrent test would pollute its record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use gnn::gin::gin_propagation;
use gnn::optim::Sgd;
use gnn::train::synthetic_labels;
use gnn::{ops, Aggregator, DeepGcn, Gcn, Gin, HcAggregator, KernelAggregator};
use gpu_sim::DeviceSpec;
use graph_sparse::{gen, Csr, DenseMatrix};

const ROWS: usize = 2_048;
const IN_DIM: usize = 96;
const HIDDEN: usize = 32;
const CLASSES: usize = 8;
const LR: f32 = 0.05;

/// `System`, recording the largest single request while armed.
struct LargestAllocation;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// Must not allocate. Relaxed is enough: the pool's job hand-off orders
/// the arming before any worker's allocation, and the maximum publishes no
/// other data.
fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `record` neither allocates nor
// touches the memory.
unsafe impl GlobalAlloc for LargestAllocation {
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
static GLOBAL: LargestAllocation = LargestAllocation;

/// Run `f`; when `armed`, returns the largest single allocation it made.
fn largest_allocation(armed: bool, f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::SeqCst);
    ARMED.store(armed, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    LARGEST.load(Ordering::SeqCst)
}

/// After one warm-up epoch, the largest allocation of `Gcn::backward`.
fn gcn(a: &Csr, x: &DenseMatrix, labels: &[usize], agg: &dyn Aggregator) -> usize {
    let dev = DeviceSpec::rtx3090();
    let mut m = Gcn::new(IN_DIM, HIDDEN, CLASSES, 1);
    let mut largest = 0;
    for epoch in 0..2 {
        let (cache, _) = m.forward(a, x, agg, &dev);
        let (_, dlogits, _) = ops::softmax_cross_entropy(&cache.logits, labels, &dev);
        largest = largest_allocation(epoch > 0, || {
            m.backward(a, x, &cache, &dlogits, agg, LR, &dev);
        });
    }
    largest
}

/// The same for `Gin::backward` over the propagation matrix `s`.
fn gin(s: &Csr, x: &DenseMatrix, labels: &[usize], agg: &dyn Aggregator) -> usize {
    let dev = DeviceSpec::rtx3090();
    let mut m = Gin::new(IN_DIM, HIDDEN, CLASSES, 2);
    let mut largest = 0;
    for epoch in 0..2 {
        let (cache, _) = m.forward(s, x, agg, &dev);
        let (_, dlogits, _) = ops::softmax_cross_entropy(&cache.logits, labels, &dev);
        largest = largest_allocation(epoch > 0, || {
            m.backward(s, x, &cache, &dlogits, agg, LR, &dev);
        });
    }
    largest
}

/// The same for a three-layer `DeepGcn::backward`.
fn deep(a: &Csr, x: &DenseMatrix, labels: &[usize], agg: &dyn Aggregator) -> usize {
    let dev = DeviceSpec::rtx3090();
    let mut m = DeepGcn::new(&[IN_DIM, HIDDEN, HIDDEN / 2, CLASSES], 3);
    let mut opt = Sgd { lr: LR };
    let mut largest = 0;
    for epoch in 0..2 {
        let (cache, _) = m.forward(a, x, agg, &dev);
        let logits = cache.h.last().expect("logits");
        let (_, dlogits, _) = ops::softmax_cross_entropy(logits, labels, &dev);
        largest = largest_allocation(epoch > 0, || {
            m.backward(a, &cache, &dlogits, agg, &mut opt, &dev);
        });
    }
    largest
}

#[test]
fn backward_allocates_nothing_input_wide() {
    let dev = DeviceSpec::rtx3090();
    let g = gen::community(ROWS, ROWS * 8, 32, 0.9, 5);
    let a = g.gcn_normalize();
    let s = gin_propagation(&g, 0.1);
    let x = DenseMatrix::random_features(ROWS, IN_DIM, 6);
    let labels = synthetic_labels(ROWS, CLASSES);
    let input_wide = ROWS * IN_DIM * std::mem::size_of::<f32>();

    // Each backend aggregates over Ā for GCN and DeepGcn, over S for GIN.
    let check = |name: &str, on_a: &dyn Aggregator, on_s: &dyn Aggregator| {
        for (model, largest) in [
            ("GCN", gcn(&a, &x, &labels, on_a)),
            ("GIN", gin(&s, &x, &labels, on_s)),
            ("DeepGcn", deep(&a, &x, &labels, on_a)),
        ] {
            assert!(
                largest < input_wide,
                "{model} backward on {name} allocated {largest} bytes at once \
                 (a {ROWS}x{IN_DIM} f32 matrix is {input_wide})"
            );
        }
    };
    check(
        "fused HC-SpMM",
        &HcAggregator::new(&a, &dev),
        &HcAggregator::new(&s, &dev),
    );
    check(
        "unfused HC-SpMM",
        &HcAggregator::new_unfused(&a, &dev),
        &HcAggregator::new_unfused(&s, &dev),
    );
    let ge = KernelAggregator::new(baselines::GeSpmm);
    check("GE-SpMM", &ge, &ge);
}
