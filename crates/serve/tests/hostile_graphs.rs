//! Malformed graphs through every serving front. A request graph or a
//! mutation base that fails `Csr::validate` must come back as a typed
//! `HcError::BadInput` from `Front::run_events`, from `DurableFront::run`
//! and from a crash/recover/resume cycle alike: never a panic, and a
//! malformed base never flags a plan stale, patches one or reaches the
//! WAL.

use std::path::PathBuf;
use std::sync::Arc;

use gpu_sim::{CrashConfig, DeviceSpec};
use graph_sparse::{gen, Csr, CsrError, DeltaCsr, DenseMatrix};
use hc_core::{HcError, PlanSpec};
use hc_serve::{
    run_to_completion, DurabilityConfig, DurableFront, Front, FrontConfig, FrontEvent, FrontReport,
    FrontRequest, Mutation, Outcome, Request, TenantId, Wal, WalRecord,
};

fn scratch(name: &str) -> DurabilityConfig {
    let dir = std::env::temp_dir();
    let path = |ext: &str| dir.join(format!("hc-hostile-{}-{name}.{ext}", std::process::id()));
    let cfg = DurabilityConfig {
        wal_path: path("wal"),
        snapshot_path: path("snap"),
        snapshot_every: 2,
    };
    cleanup(&cfg);
    cfg
}

fn cleanup(cfg: &DurabilityConfig) {
    let _ = std::fs::remove_file(&cfg.wal_path);
    let _ = std::fs::remove_file(&cfg.snapshot_path);
    let mut tmp = cfg.snapshot_path.as_os_str().to_owned();
    tmp.push(".tmp");
    let _ = std::fs::remove_file(PathBuf::from(tmp));
}

fn serve(g: &Arc<Csr>, i: u64) -> FrontEvent {
    FrontEvent::Serve(FrontRequest {
        tenant: TenantId((i % 3) as u32),
        request: Request {
            graph: Arc::clone(g),
            features: DenseMatrix::random_features(g.ncols, 8, i),
        },
    })
}

fn mk_front() -> Front {
    Front::new(
        1 << 30,
        PlanSpec::hybrid(),
        2,
        FrontConfig {
            workers: 2,
            arrivals_per_epoch: 2,
            ..Default::default()
        },
    )
}

/// A structurally effective delta against `g`: one absent edge inserted
/// in the last row.
fn insert_delta(g: &Csr) -> DeltaCsr {
    let r = g.nrows - 1;
    let c = (0..g.ncols as u32)
        .find(|c| !g.row_cols(r).contains(c))
        .expect("the last row has a free cell");
    DeltaCsr::new(g.nrows, g.ncols, vec![(r as u32, c, 1.0)], vec![]).expect("valid delta")
}

/// Malformed copies of `g`, each with the error validation names.
fn malformed(g: &Csr) -> Vec<(Arc<Csr>, CsrError)> {
    // `row_ptr` decreases at row 5: hashing would slice `col_idx`
    // backwards.
    let mut non_monotone = g.clone();
    non_monotone.row_ptr[5] = non_monotone.row_ptr[6] + 2;
    // `row_ptr` one entry short: hashing would index past its end.
    let mut short = g.clone();
    short.row_ptr.pop();
    // A column past `ncols`: hashing succeeds, only validation objects.
    let mut wide = g.clone();
    wide.col_idx[0] = 10_000;
    // `g`'s structure with a NaN value: it fingerprints as `g`, so only
    // validation keeps it from flagging `g`'s plan stale and patching it.
    let mut nan = g.clone();
    nan.vals[0] = f32::NAN;
    vec![
        (
            Arc::new(non_monotone),
            CsrError::RowPtrNotMonotone { row: 5 },
        ),
        (
            Arc::new(short),
            CsrError::RowPtrLength {
                found: g.nrows,
                expected: g.nrows + 1,
            },
        ),
        (
            Arc::new(wide),
            CsrError::ColumnOutOfRange {
                entry: 0,
                col: 10_000,
            },
        ),
        (Arc::new(nan), CsrError::NonFiniteValue { entry: 0 }),
    ]
}

/// Everything deterministic in a report — all of it except `wall_ms`.
fn assert_reports_equal(got: &FrontReport, want: &FrontReport, ctx: &str) {
    assert_eq!(got.responses, want.responses, "{ctx}: responses");
    assert_eq!(got.counters, want.counters, "{ctx}: counters");
    assert_eq!(got.mutations, want.mutations, "{ctx}: mutation outcomes");
    assert_eq!(got.latency, want.latency, "{ctx}: latency stats");
    assert_eq!(got.tenants, want.tenants, "{ctx}: tenant stats");
    assert_eq!(got.cache, want.cache, "{ctx}: cache stats");
}

#[test]
fn malformed_mutation_base_fails_typed_through_both_fronts() {
    let dev = DeviceSpec::rtx3090();
    let g = Arc::new(gen::erdos_renyi(96, 420, 911));
    let delta = insert_delta(&g);
    for (k, (base, err)) in malformed(&g).into_iter().enumerate() {
        // Epoch 0 makes g's plan resident; epoch 1 carries the mutation
        // on the malformed base between two serves on g.
        let mut events: Vec<FrontEvent> = (0..3).map(|i| serve(&g, i)).collect();
        events.push(FrontEvent::Mutate(Mutation {
            base,
            delta: delta.clone(),
        }));
        events.extend((3..6).map(|i| serve(&g, i)));

        let rep = mk_front().run_events(&events, &dev);
        assert_eq!(rep.mutations.len(), 1, "case {k}");
        let m = &rep.mutations[0];
        assert_eq!(m.old_fp, Err(HcError::BadInput(err)), "case {k}");
        assert_eq!(m.new_fp, None, "case {k}");
        assert!(!m.patched, "case {k}: a malformed base patches nothing");
        assert_eq!((m.swap, m.patch_sim_ms), (None, 0.0), "case {k}");
        let c = rep.counters;
        assert_eq!((c.mutations, c.patched_plans), (1, 0), "case {k}");
        assert_eq!(c.stale_served, 0, "case {k}: nothing was flagged stale");
        assert_eq!(rep.cache.swaps, 0, "case {k}");
        assert_eq!((c.ok, c.failed), (6, 0), "case {k}");
        assert!(rep.responses.iter().all(|r| !r.stale), "case {k}");

        let cfg = scratch(&format!("base{k}"));
        let mut df = DurableFront::create(mk_front(), cfg.clone()).expect("create the WAL");
        let attempt = df.run(&events, &dev).expect("durable run");
        let durable = attempt.report.expect("no crash is injected");
        assert_reports_equal(&durable, &rep, &format!("case {k}"));
        let replay = Wal::replay(&cfg.wal_path).expect("replay the WAL");
        assert!(
            replay
                .records
                .iter()
                .all(|r| matches!(r, WalRecord::Marker(_))),
            "case {k}: a malformed base must log nothing"
        );
        cleanup(&cfg);
    }
}

#[test]
fn malformed_request_graph_answers_alike_through_every_front() {
    let dev = DeviceSpec::rtx3090();
    let g = Arc::new(gen::erdos_renyi(96, 420, 912));
    let delta = insert_delta(&g);
    let g2 = Arc::new(delta.apply(&g).expect("delta applies"));
    let bad = malformed(&g);
    // Epochs of two: every malformed graph beside healthy traffic, and a
    // patched mutation, so recovery has a root, a delta and a snapshot
    // to rebuild from.
    let events = vec![
        serve(&bad[0].0, 0),
        serve(&g, 1),
        serve(&g, 2),
        serve(&bad[1].0, 3),
        FrontEvent::Mutate(Mutation {
            base: Arc::clone(&g),
            delta,
        }),
        serve(&g, 4),
        serve(&g2, 5),
        serve(&bad[2].0, 6),
        serve(&bad[3].0, 7),
        serve(&g2, 8),
        serve(&bad[0].0, 9),
    ];

    let control = mk_front().run_events(&events, &dev);
    let failed: Vec<(usize, Outcome)> = control
        .responses
        .iter()
        .filter(|r| r.outcome.is_failed())
        .map(|r| (r.trace_index, r.outcome.clone()))
        .collect();
    let want: Vec<(usize, Outcome)> = [(0, 0), (3, 1), (7, 2), (8, 3), (10, 0)]
        .into_iter()
        .map(|(ti, b)| (ti, Outcome::Failed(HcError::BadInput(bad[b].1.clone()))))
        .collect();
    assert_eq!(failed, want);
    assert_eq!((control.counters.ok, control.counters.failed), (5, 5));
    assert_eq!(control.counters.patched_plans, 1);

    let cfg = scratch("requests");
    let mut df = DurableFront::create(mk_front(), cfg.clone()).expect("create the WAL");
    let attempt = df.run(&events, &dev).expect("durable run");
    assert_reports_equal(
        &attempt.report.expect("no crash is injected"),
        &control,
        "DurableFront::run",
    );
    cleanup(&cfg);

    let probe = run_to_completion(&mk_front, &cfg, &events, &dev, CrashConfig::off())
        .expect("uncrashed durable run");
    cleanup(&cfg);
    assert_reports_equal(&probe.report, &control, "uncrashed run_to_completion");
    assert!(
        probe.crash_points >= 5,
        "{} crash points",
        probe.crash_points
    );
    for k in 0..probe.crash_points {
        let cfg = scratch(&format!("requests-k{k}"));
        let out = run_to_completion(&mk_front, &cfg, &events, &dev, CrashConfig::at(k))
            .unwrap_or_else(|e| panic!("crash point {k}: recovery failed: {e}"));
        cleanup(&cfg);
        assert_eq!(out.crashes.len(), 1, "crash point {k} must fire once");
        assert_reports_equal(&out.report, &control, &format!("crash point {k}"));
    }
}
