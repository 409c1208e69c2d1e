//! A front whose workers all panic must report the panic, not hang.
//!
//! The scheduler hands cohorts to the workers through a bounded channel
//! whose capacity is the worker count, and `send` waits for room. Once
//! every worker had panicked nobody drained the queue, so with more
//! cohorts left than the queue holds the scheduler waited forever and the
//! scope join never reported the panic. A worker that unwinds now closes
//! the channel, so the scheduler stops dispatching and the call ends with
//! its "front workers must not panic" report.
//!
//! The trigger is a deliberately corrupted resident plan: its per-window
//! core choices are cut to one entry, so executing it indexes past their
//! end. Each front serves eight single-member cohorts on it with two
//! workers, on a helper thread that must finish within a deadline.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use gpu_sim::DeviceSpec;
use graph_sparse::{gen, DenseMatrix};
use hc_core::{Plan, PlanSpec};
use hc_serve::{
    DurabilityConfig, DurableFront, Front, FrontConfig, FrontEvent, FrontRequest, Request, TenantId,
};

/// Far above what eight tiny requests take; a hung scheduler never ends.
const DEADLINE: Duration = Duration::from_secs(60);
const REPORT: &str = "front workers must not panic";

/// A front whose cache holds a corrupted plan for `g`'s structure.
fn poisoned_front(g: &graph_sparse::Csr, dev: &DeviceSpec) -> Front {
    let front = Front::new(
        1 << 30,
        PlanSpec::hybrid(),
        2,
        FrontConfig {
            workers: 2,
            max_cohort: 1,
            ..Default::default()
        },
    );
    let mut plan = Plan::prepare(g, PlanSpec::hybrid(), dev);
    assert!(
        plan.pre.choices.len() > 1,
        "the graph spans several windows"
    );
    plan.pre.choices.truncate(1);
    front.cache().restore_resident(Arc::new(plan));
    front
}

/// Run `f` on a helper thread; the message it panicked with, or `None` if
/// it returned. Fails the test if `f` is still running at the deadline:
/// a hung thread cannot be joined, so it is then left behind.
fn panic_within_deadline(what: &str, f: impl FnOnce() + Send + 'static) -> Option<String> {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let message = catch_unwind(AssertUnwindSafe(f)).err().map(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        });
        let _ = tx.send(message);
    });
    let message = rx.recv_timeout(DEADLINE).unwrap_or_else(|_| {
        panic!("{what} still running after {DEADLINE:?}: the scheduler deadlocked")
    });
    helper.join().expect("the helper catches the call's panic");
    message
}

#[test]
fn panicking_workers_end_the_call_instead_of_hanging_it() {
    let dev = DeviceSpec::rtx3090();
    let g = Arc::new(gen::erdos_renyi(128, 600, 41));
    let events: Vec<FrontEvent> = (0..8)
        .map(|i| {
            FrontEvent::Serve(FrontRequest {
                tenant: TenantId(i % 4),
                request: Request {
                    graph: Arc::clone(&g),
                    features: DenseMatrix::random_features(g.ncols, 8, u64::from(i)),
                },
            })
        })
        .collect();

    let front = poisoned_front(&g, &dev);
    let evs = events.clone();
    let got = panic_within_deadline("Front::run_events", move || {
        front.run_events(&evs, &DeviceSpec::rtx3090());
    });
    let msg = got.expect("serving a corrupted plan must panic");
    assert!(msg.contains(REPORT), "Front::run_events: {msg:?}");

    let dir = std::env::temp_dir();
    let path = |ext: &str| dir.join(format!("hc-worker-panic-{}.{ext}", std::process::id()));
    let cfg = DurabilityConfig {
        wal_path: path("wal"),
        snapshot_path: path("snap"),
        snapshot_every: 2,
    };
    let _ = std::fs::remove_file(&cfg.wal_path);
    let _ = std::fs::remove_file(&cfg.snapshot_path);
    let mut df =
        DurableFront::create(poisoned_front(&g, &dev), cfg.clone()).expect("create the WAL");
    let got = panic_within_deadline("DurableFront::run", move || {
        let _ = df.run(&events, &DeviceSpec::rtx3090());
    });
    let _ = std::fs::remove_file(&cfg.wal_path);
    let _ = std::fs::remove_file(&cfg.snapshot_path);
    let msg = got.expect("serving a corrupted plan must panic");
    assert!(msg.contains(REPORT), "DurableFront::run: {msg:?}");
}
