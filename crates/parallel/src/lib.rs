//! # hc-parallel — deterministic scoped worker pool
//!
//! Host-side multi-threading for the HC-SpMM reproduction. Every parallel
//! region in the workspace goes through this crate so that one knob (the
//! `--threads` CLI flag, the `HC_THREADS` environment variable, or
//! [`set_threads`]) controls them all.
//!
//! ## Determinism guarantee
//!
//! All entry points decompose work into *indexed slots* — output slot `i`
//! is computed by exactly one worker, from inputs that do not depend on
//! scheduling, with the same per-slot arithmetic order as the serial loop.
//! Worker threads only race for *which* slot they compute next, never for
//! the slot's contents, so results are bit-identical to the serial
//! execution at any thread count. Reductions (sums, argmins, …) are the
//! caller's job: collect per-slot partials with [`par_map_indexed`] and
//! fold them in index order on the calling thread.
//!
//! ## Pool shape
//!
//! The pool is *scoped*: each parallel region spawns up to [`threads`]
//! workers via [`sync::thread::scope`] (std scoped threads underneath),
//! which lets closures borrow the caller's data without `'static` bounds.
//! Work items are handed out in deterministic index batches from a
//! [`sync::Mutex`]-guarded queue, so a skewed item (a dense row
//! window among sparse ones) does not serialize the region the way static
//! chunking would. A panic in any worker is re-raised on the calling
//! thread once the region drains.
//!
//! All synchronization goes through the [`sync`] facade so the pool's
//! internals are explorable by `hc-check`'s model scheduler under
//! `--cfg hc_check` (and lintable by its `lint-sync` pass).
//!
//! ## Calibrated engagement (the serial fast path)
//!
//! Whether a region actually spawns workers is decided per call from the
//! caller's `work` hint (scalar operations, the same unit the simulated
//! cost model reports) and a one-time host [`calibration`]: the estimated
//! serial time saved by fanning out over `min(threads, physical cores)`
//! workers must repay the measured thread-spawn cost several times over,
//! and `work` must clear the [`MIN_PARALLEL_WORK`] floor. Regions that do
//! not qualify run inline on the calling thread and are counted as
//! *serial fallbacks* (see [`pool_stats`]) — on a single-core host every
//! region falls back, which is exactly the fast path: forced `--threads N`
//! parallelism there is pure overhead. Because the parallel and serial
//! executions are bit-identical, the engagement decision is a pure
//! scheduling choice and never changes results.

pub mod fsio;
pub mod sync;

use std::mem::{ManuallyDrop, MaybeUninit};
use std::sync::OnceLock;
use std::time::Instant;

use sync::{AtomicU64, AtomicU8, AtomicUsize, Mutex, Ordering};

/// Process-wide thread-count override set by [`set_threads`] (0 = unset).
/// Untracked: a quiescent configuration cell, not contended state.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new_untracked(0);

/// Scalar-operation threshold below which parallel regions always run
/// inline, regardless of calibration: at ~1 ns/op, 32 Ki ops is well under
/// the cost of standing up even two workers.
pub const MIN_PARALLEL_WORK: u64 = 1 << 15;

/// How many times the spawn cost must be repaid by the estimated parallel
/// saving before a region fans out. Spawning is only worth it when the
/// region is clearly — not marginally — large enough.
const SPAWN_REPAY_FACTOR: f64 = 4.0;

/// Target batch duration handed out per queue lock, in nanoseconds. Large
/// enough that queue locking stays cold, small enough that a skewed batch
/// can be absorbed by the other workers.
const TARGET_BATCH_NS: f64 = 20_000.0;

/// Set the process-wide worker count. `0` clears the override, restoring
/// the `HC_THREADS` / available-parallelism default. Wired to the CLI's
/// `--threads` flag.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The current [`set_threads`] override (`0` when unset). Lets callers
/// save/restore the configuration around a measurement at a forced count.
pub fn thread_override() -> usize {
    THREAD_OVERRIDE.load(Ordering::Relaxed)
}

/// Effective worker count for parallel regions, in priority order:
/// [`set_threads`] override, then the `HC_THREADS` environment variable,
/// then `std::thread::available_parallelism()`.
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Some(n) = std::env::var("HC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    sync::thread::available_parallelism()
}

/// How parallel regions decide between fanning out and the serial fast
/// path. The default [`Auto`](ParallelMode::Auto) applies the calibrated
/// profitability model; the other two exist for tests and measurements
/// that must pin one side of the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelMode {
    /// Calibrated decision (the default): fan out only when the estimated
    /// saving repays the spawn cost on this host.
    Auto,
    /// Always fan out when `threads() > 1` and there is more than one
    /// item, ignoring calibration. For exercising the pool itself.
    Force,
    /// Never fan out. Equivalent to `threads() == 1` for every region.
    Never,
}

static PARALLEL_MODE: AtomicU8 = AtomicU8::new_untracked(0);

/// Override the engagement policy process-wide (see [`ParallelMode`]).
/// Results are bit-identical in every mode; only scheduling changes.
pub fn set_parallel_mode(mode: ParallelMode) {
    let v = match mode {
        ParallelMode::Auto => 0,
        ParallelMode::Force => 1,
        ParallelMode::Never => 2,
    };
    PARALLEL_MODE.store(v, Ordering::Relaxed);
}

/// The current engagement policy.
pub fn parallel_mode() -> ParallelMode {
    match PARALLEL_MODE.load(Ordering::Relaxed) {
        1 => ParallelMode::Force,
        2 => ParallelMode::Never,
        _ => ParallelMode::Auto,
    }
}

/// One-time host measurement that prices the parallel/serial decision.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Measured cost of standing up one scoped worker thread, ns.
    pub spawn_ns: f64,
    /// Measured host nanoseconds per scalar-op work unit.
    pub ns_per_unit: f64,
    /// Physical parallelism of the host (`available_parallelism`),
    /// independent of the configured [`threads`] count. Workers beyond
    /// this count cannot speed anything up.
    pub cores: usize,
}

static CALIBRATION: OnceLock<Calibration> = OnceLock::new();

fn measure_calibration() -> Calibration {
    let cores = sync::thread::available_parallelism();
    // ns per scalar work unit: time a simple dependent arithmetic loop
    // (the same flavour of work the kernels' hot loops do) and take the
    // best of a few reps so preemption only inflates discarded samples.
    const UNITS: u64 = 1 << 16;
    let mut ns_per_unit = f64::MAX;
    let mut sink = 0u64;
    for rep in 0..3u64 {
        let t = Instant::now();
        let mut acc = rep;
        for k in 0..UNITS {
            acc = acc.wrapping_mul(31).wrapping_add(k);
        }
        let dt = t.elapsed().as_nanos() as f64 / UNITS as f64;
        sink = sink.wrapping_add(acc);
        ns_per_unit = ns_per_unit.min(dt);
    }
    std::hint::black_box(sink);
    let ns_per_unit = ns_per_unit.clamp(0.05, 100.0);
    // Spawn cost: time an empty two-worker scoped region, best of a few.
    let mut spawn_ns = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        let r = sync::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|_| {});
            }
        });
        debug_assert!(r.is_ok());
        spawn_ns = spawn_ns.min(t.elapsed().as_nanos() as f64 / 2.0);
    }
    let spawn_ns = spawn_ns.clamp(1_000.0, 50_000_000.0);
    Calibration {
        spawn_ns,
        ns_per_unit,
        cores,
    }
}

/// The lazily measured host [`Calibration`] (one measurement per process,
/// a few hundred microseconds on first use).
///
/// Measurements persist to `target/hc-calibration.json` keyed by core
/// count (override the location with `HC_CALIBRATION_PATH`, disable
/// persistence by setting it empty), so repeated bench runs skip the
/// re-measurement. An absent, unparsable or out-of-range entry falls
/// back to a fresh measurement. Under an active `hc-check` model run a
/// fixed synthetic calibration is returned instead, keeping the
/// engagement decision deterministic across explored interleavings.
pub fn calibration() -> Calibration {
    #[cfg(hc_check)]
    if sync::model::active_here() {
        return Calibration {
            spawn_ns: 20_000.0,
            ns_per_unit: 1.0,
            cores: 1,
        };
    }
    *CALIBRATION.get_or_init(|| {
        let cores = sync::thread::available_parallelism();
        let path = calibration_path();
        if let Some(p) = &path {
            if let Some(cal) = load_calibration(p, cores) {
                return cal;
            }
        }
        let cal = measure_calibration();
        if let Some(p) = &path {
            save_calibration(p, cal);
        }
        cal
    })
}

/// Where calibration entries persist: `HC_CALIBRATION_PATH` when set
/// (empty string disables persistence), else `hc-calibration.json` inside
/// the enclosing cargo `target` directory (found by walking up from the
/// running executable), else `target/hc-calibration.json` relative to the
/// working directory.
fn calibration_path() -> Option<std::path::PathBuf> {
    match std::env::var("HC_CALIBRATION_PATH") {
        Ok(v) if v.is_empty() => None,
        Ok(v) => Some(std::path::PathBuf::from(v)),
        Err(_) => {
            let from_exe = std::env::current_exe().ok().and_then(|exe| {
                exe.ancestors()
                    .find(|a| a.file_name().is_some_and(|n| n == "target"))
                    .map(|t| t.join("hc-calibration.json"))
            });
            Some(
                from_exe.unwrap_or_else(|| {
                    std::path::PathBuf::from("target").join("hc-calibration.json")
                }),
            )
        }
    }
}

/// Every numeric value following `"key":` occurrences in `text`, in order.
fn nums_after(text: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(idx) = text[pos..].find(&pat) {
        let after_key = pos + idx + pat.len();
        let Some(colon) = text[after_key..].find(':') else {
            break;
        };
        let num_start = after_key + colon + 1;
        let rest = text[num_start..].trim_start();
        let trimmed = text[num_start..].len() - rest.len();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(rest.len());
        if let Ok(v) = rest[..end].parse::<f64>() {
            out.push(v);
        }
        pos = num_start + trimmed + end;
    }
    out
}

/// Parse every valid calibration entry out of a persisted file. Entries
/// with out-of-range values (a stale or corrupt file) are dropped.
fn parse_calibration_entries(text: &str) -> Vec<Calibration> {
    if nums_after(text, "version").first().copied() != Some(1.0) {
        return Vec::new();
    }
    let cores = nums_after(text, "cores");
    let spawn = nums_after(text, "spawn_ns");
    let unit = nums_after(text, "ns_per_unit");
    cores
        .iter()
        .zip(spawn.iter())
        .zip(unit.iter())
        .filter_map(|((&c, &s), &u)| {
            let cores_ok = (1.0..=1_000_000.0).contains(&c) && c.fract() == 0.0;
            let spawn_ok = (1_000.0..=50_000_000.0).contains(&s);
            let unit_ok = (0.05..=100.0).contains(&u);
            (cores_ok && spawn_ok && unit_ok).then_some(Calibration {
                spawn_ns: s,
                ns_per_unit: u,
                cores: c as usize,
            })
        })
        .collect()
}

fn render_calibration_entries(entries: &[Calibration]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|c| {
            format!(
                "{{\"cores\":{},\"spawn_ns\":{:.1},\"ns_per_unit\":{:.4}}}",
                c.cores, c.spawn_ns, c.ns_per_unit
            )
        })
        .collect();
    format!("{{\"version\":1,\"entries\":[{}]}}\n", body.join(","))
}

/// Load the persisted calibration for `cores`, if present and valid.
fn load_calibration(path: &std::path::Path, cores: usize) -> Option<Calibration> {
    let text = std::fs::read_to_string(path).ok()?;
    parse_calibration_entries(&text)
        .into_iter()
        .find(|c| c.cores == cores)
}

/// Merge `cal` into the persisted file (best-effort: IO errors simply
/// mean the next run re-measures).
fn save_calibration(path: &std::path::Path, cal: Calibration) {
    let mut entries: Vec<Calibration> = std::fs::read_to_string(path)
        .ok()
        .map(|t| parse_calibration_entries(&t))
        .unwrap_or_default();
    entries.retain(|c| c.cores != cal.cores);
    entries.push(cal);
    entries.sort_by_key(|c| c.cores);
    let _ = fsio::atomic_write(path, render_calibration_entries(&entries).as_bytes());
}

/// Regions that fanned out over worker threads since the last
/// [`reset_pool_stats`].
static PARALLEL_REGIONS: AtomicU64 = AtomicU64::new(0);
/// Regions that wanted parallelism (`threads() > 1`, non-empty) but took
/// the serial fast path because the work would not repay the spawn cost.
static SERIAL_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the engagement counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Regions that spawned workers.
    pub parallel_regions: u64,
    /// Regions that took the serial fast path despite `threads() > 1`.
    pub serial_fallbacks: u64,
}

/// Read the engagement counters accumulated since the last reset.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        parallel_regions: PARALLEL_REGIONS.load(Ordering::Relaxed),
        serial_fallbacks: SERIAL_FALLBACKS.load(Ordering::Relaxed),
    }
}

/// Zero the engagement counters (e.g. before a measured region).
pub fn reset_pool_stats() {
    PARALLEL_REGIONS.store(0, Ordering::Relaxed);
    SERIAL_FALLBACKS.store(0, Ordering::Relaxed);
}

/// Whether a region of `work` scalar operations would fan out under the
/// current configuration, calibration and [`ParallelMode`].
pub fn should_parallelize(work: u64) -> bool {
    decide(work, threads())
}

/// The engagement decision: pure function of the work hint, the
/// configured thread count, the host calibration and the mode override.
fn decide(work: u64, nthreads: usize) -> bool {
    if nthreads <= 1 {
        return false;
    }
    match parallel_mode() {
        ParallelMode::Force => true,
        ParallelMode::Never => false,
        ParallelMode::Auto => {
            if work < MIN_PARALLEL_WORK {
                return false;
            }
            let cal = calibration();
            let t_eff = nthreads.min(cal.cores);
            if t_eff <= 1 {
                // More workers than cores cannot reduce wall time; forced
                // --threads N on a single-core host stays serial.
                return false;
            }
            let serial_ns = work as f64 * cal.ns_per_unit;
            let saved_ns = serial_ns * (1.0 - 1.0 / t_eff as f64);
            saved_ns > SPAWN_REPAY_FACTOR * cal.spawn_ns * nthreads as f64
        }
    }
}

/// Work-derived batch grain: aim for [`TARGET_BATCH_NS`] of estimated work
/// per queue lock, clamped so every worker still sees several batches (a
/// skewed batch can be absorbed) and at least one item moves per claim.
fn batch_grain(n: usize, work: u64, nthreads: usize) -> usize {
    let cal = calibration();
    let per_item_ns = (work as f64 / n as f64).max(1.0) * cal.ns_per_unit;
    let balance_cap = n.div_ceil(nthreads * 4).max(1);
    let by_cost = (TARGET_BATCH_NS / per_item_ns).floor() as usize;
    by_cost.clamp(1, balance_cap)
}

/// Run `f(state, i, item)` for every `(i, item)`, distributing items over
/// the pool. Items are claimed in deterministic index batches; `f` must
/// not rely on cross-item execution order (it cannot observe one anyway
/// without interior mutability). Each worker, or the calling thread when
/// the region runs inline, builds one `state` with `init` and passes it to
/// every item it claims.
fn run_indexed<S, I, Init, F>(items: Vec<(usize, I)>, work: u64, init: &Init, f: &F)
where
    I: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize, I) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let nthreads = threads().min(n);
    if !decide(work, nthreads) {
        if threads() > 1 && n > 1 {
            SERIAL_FALLBACKS.fetch_add(1, Ordering::Relaxed);
        }
        let mut state = init();
        for (i, item) in items {
            f(&mut state, i, item);
        }
        return;
    }
    PARALLEL_REGIONS.fetch_add(1, Ordering::Relaxed);
    let grain = batch_grain(n, work, nthreads);
    let queue = Mutex::named("pool-queue", items.into_iter());
    let result = sync::thread::scope(|scope| {
        for _ in 0..nthreads {
            scope.spawn(|_| {
                let mut state = init();
                loop {
                    let batch: Vec<(usize, I)> = {
                        let mut q = queue.lock();
                        q.by_ref().take(grain).collect()
                    };
                    if batch.is_empty() {
                        return;
                    }
                    for (i, item) in batch {
                        f(&mut state, i, item);
                    }
                }
            });
        }
    });
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
}

/// Split `data` into `chunk_size`-sized chunks (the last may be shorter)
/// and run `f(chunk_index, chunk)` over the pool. Each chunk is visited
/// exactly once; chunk `i` always holds elements
/// `data[i*chunk_size .. (i+1)*chunk_size]`, so output placement is
/// independent of scheduling. `work` is the region's total scalar-op hint
/// (see [`MIN_PARALLEL_WORK`]).
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, work: u64, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    chunks_with_state(data, chunk_size, work, &|| (), &|_, i, chunk| f(i, chunk));
}

/// [`par_chunks_mut`] with per-worker state (see [`par_map_indexed_init`]).
fn chunks_with_state<T, S, Init, F>(
    data: &mut [T],
    chunk_size: usize,
    work: u64,
    init: &Init,
    f: &F,
) where
    T: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    if data.is_empty() {
        return;
    }
    // Serial fast path without materializing the chunk list.
    let nthreads = threads().min(data.len().div_ceil(chunk_size));
    if !decide(work, nthreads) {
        if threads() > 1 && data.len() > chunk_size {
            SERIAL_FALLBACKS.fetch_add(1, Ordering::Relaxed);
        }
        let mut state = init();
        for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
            f(&mut state, i, chunk);
        }
        return;
    }
    let chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_size).enumerate().collect();
    run_indexed(chunks, work, init, f);
}

/// Deterministic parallel map over an index range: returns
/// `(0..n).map(f).collect()`, computed on the pool. Slot `i` of the output
/// is `f(i)` regardless of thread count.
///
/// Results are written straight into the output allocation (no
/// `Option` round-trip, no second traversal). If `f` panics, the panic
/// propagates and already-initialized slots are leaked — never dropped
/// twice or read uninitialized.
pub fn par_map_indexed<R, F>(n: usize, work: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indexed_init(n, work, || (), |_, i| f(i))
}

/// [`par_map_indexed`] with per-worker scratch: every worker, or the
/// calling thread when the region runs inline, builds one `state` with
/// `init` and hands it to each `f(state, i)` it computes, so a buffer is
/// allocated once per worker instead of once per item. Slot `i` must
/// depend on `i` alone, never on what earlier items left in `state`;
/// then the output is `(0..n).map(f)` at any thread count, as for
/// [`par_map_indexed`].
pub fn par_map_indexed_init<S, R, Init, F>(n: usize, work: u64, init: Init, f: F) -> Vec<R>
where
    R: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit<R>` requires no initialization, so extending
    // the length over freshly reserved capacity is sound.
    unsafe { out.set_len(n) };
    chunks_with_state(&mut out, 1, work, &init, &|state, i, slot| {
        slot[0].write(f(state, i));
    });
    let mut out = ManuallyDrop::new(out);
    let (ptr, len, cap) = (out.as_mut_ptr(), out.len(), out.capacity());
    // SAFETY: every slot `0..n` was written exactly once above
    // (`chunks_with_state` visits each chunk exactly once and a write-only
    // panic would have propagated before reaching here), so the buffer is
    // fully initialized `R`s; `MaybeUninit<R>` has `R`'s layout, and
    // `ManuallyDrop` ensures exactly one owner of the allocation.
    unsafe { Vec::from_raw_parts(ptr.cast::<R>(), len, cap) }
}

/// Deterministic parallel map over a slice: `items.iter().map(f).collect()`
/// computed on the pool, with output order preserved.
pub fn par_map<T, R, F>(items: &[T], work: u64, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), work, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Work hint that always clears the profitability model (when forced
    /// or on a multi-core host).
    const BIG: u64 = u64::MAX;

    /// Serializes tests that touch the process-wide thread/mode overrides.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::named("test-override", ());

    /// RAII guard: force the pool to engage so its machinery is exercised
    /// even on single-core CI hosts, restoring `Auto` on drop.
    struct ForcePool;
    impl ForcePool {
        fn new() -> Self {
            set_parallel_mode(ParallelMode::Force);
            ForcePool
        }
    }
    impl Drop for ForcePool {
        fn drop(&mut self) {
            set_parallel_mode(ParallelMode::Auto);
        }
    }

    #[test]
    fn zero_and_one_item_workloads() {
        let empty: Vec<i32> = par_map_indexed(0, BIG, |i| i as i32);
        assert!(empty.is_empty());
        let one = par_map_indexed(1, BIG, |i| i * 10);
        assert_eq!(one, vec![0]);
        let mut data: [u8; 0] = [];
        par_chunks_mut(&mut data, 4, BIG, |_, _| panic!("no chunks to visit"));
    }

    #[test]
    fn map_matches_serial_at_any_thread_count() {
        let _guard = OVERRIDE_LOCK.lock();
        let _force = ForcePool::new();
        let items: Vec<u64> = (0..10_000).collect();
        let serial: Vec<u64> = items.iter().map(|&v| v.wrapping_mul(v) ^ 0xabcd).collect();
        let saved = thread_override();
        for t in [1, 2, 3, 8, 64] {
            set_threads(t);
            let got = par_map(&items, BIG, |&v| v.wrapping_mul(v) ^ 0xabcd);
            assert_eq!(got, serial, "thread count {t}");
        }
        set_threads(saved);
    }

    #[test]
    fn chunks_are_disjoint_and_complete() {
        let _guard = OVERRIDE_LOCK.lock();
        let _force = ForcePool::new();
        let saved = thread_override();
        set_threads(7);
        let mut data = vec![0u32; 1000];
        par_chunks_mut(&mut data, 16, BIG, |i, chunk| {
            for (j, cell) in chunk.iter_mut().enumerate() {
                *cell = (i * 16 + j) as u32 + 1;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
        set_threads(saved);
    }

    #[test]
    fn init_state_is_built_once_per_worker() {
        let _guard = OVERRIDE_LOCK.lock();
        let saved = thread_override();
        for (mode, t) in [
            (ParallelMode::Never, 4),
            (ParallelMode::Force, 1),
            (ParallelMode::Force, 2),
            (ParallelMode::Force, 8),
        ] {
            set_parallel_mode(mode);
            set_threads(t);
            let inits = AtomicUsize::new_untracked(0);
            // The state is scratch a slot must not depend on: each item
            // clears it before use.
            let got = par_map_indexed_init(
                1000,
                BIG,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                },
                |buf: &mut Vec<usize>, i| {
                    buf.clear();
                    buf.extend(0..i % 7);
                    i * 10 + buf.len()
                },
            );
            let want: Vec<usize> = (0..1000).map(|i| i * 10 + i % 7).collect();
            assert_eq!(got, want, "{mode:?} at {t} threads");
            let built = inits.load(Ordering::Relaxed);
            let workers = if mode == ParallelMode::Never { 1 } else { t };
            assert!(
                (1..=workers).contains(&built),
                "{mode:?} at {t} threads built {built} states"
            );
        }
        set_parallel_mode(ParallelMode::Auto);
        set_threads(saved);
    }

    #[test]
    fn skewed_workloads_still_deterministic() {
        let _guard = OVERRIDE_LOCK.lock();
        // One item 1000× heavier than the rest: dynamic batching means the
        // other workers absorb the remaining items, and output is unchanged.
        let _force = ForcePool::new();
        let saved = thread_override();
        set_threads(4);
        let costly = |i: usize| -> u64 {
            let iters = if i == 0 { 200_000 } else { 200 };
            (0..iters).fold(i as u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        };
        let par = par_map_indexed(64, BIG, costly);
        set_threads(1);
        let serial = par_map_indexed(64, BIG, costly);
        assert_eq!(par, serial);
        set_threads(saved);
    }

    #[test]
    fn worker_panic_propagates() {
        let _guard = OVERRIDE_LOCK.lock();
        let _force = ForcePool::new();
        let saved = thread_override();
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            par_map_indexed(256, BIG, |i| {
                if i == 97 {
                    panic!("worker 97 exploded");
                }
                i
            })
        });
        set_threads(saved);
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("worker 97 exploded"), "payload: {msg:?}");
    }

    #[test]
    fn small_work_runs_inline() {
        // Below MIN_PARALLEL_WORK the region must still produce the same
        // result (and not deadlock when nested inside another region).
        let got = par_map_indexed(8, 10, |i| {
            // a nested tiny region
            par_map_indexed(4, 10, move |j| i * 4 + j)
        });
        let want: Vec<Vec<usize>> = (0..8)
            .map(|i| (0..4).map(|j| i * 4 + j).collect())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn set_threads_overrides_and_clears() {
        let _guard = OVERRIDE_LOCK.lock();
        let saved = thread_override();
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(thread_override(), 3);
        set_threads(0);
        assert!(threads() >= 1);
        set_threads(saved);
    }

    #[test]
    fn calibration_is_sane_and_cached() {
        let a = calibration();
        assert!(a.spawn_ns >= 1_000.0 && a.spawn_ns <= 50_000_000.0);
        assert!(a.ns_per_unit >= 0.05 && a.ns_per_unit <= 100.0);
        assert!(a.cores >= 1);
        let b = calibration();
        assert_eq!(a.spawn_ns.to_bits(), b.spawn_ns.to_bits(), "cached");
    }

    #[test]
    fn serial_fallback_and_parallel_regions_are_counted() {
        let _guard = OVERRIDE_LOCK.lock();
        let saved = thread_override();
        set_threads(4);

        // Never mode: a large region still runs serially and counts as a
        // fallback (the configuration wanted parallelism).
        set_parallel_mode(ParallelMode::Never);
        reset_pool_stats();
        let v = par_map_indexed(128, BIG, |i| i);
        assert_eq!(v.len(), 128);
        let s = pool_stats();
        assert_eq!(s.parallel_regions, 0);
        assert_eq!(s.serial_fallbacks, 1);

        // Force mode: the same region fans out.
        set_parallel_mode(ParallelMode::Force);
        reset_pool_stats();
        let v = par_map_indexed(128, BIG, |i| i);
        assert_eq!(v.len(), 128);
        let s = pool_stats();
        assert_eq!(s.parallel_regions, 1);
        assert_eq!(s.serial_fallbacks, 0);

        set_parallel_mode(ParallelMode::Auto);
        // Auto mode, trivial work: serial fast path.
        reset_pool_stats();
        let v = par_map_indexed(128, 16, |i| i);
        assert_eq!(v.len(), 128);
        assert_eq!(pool_stats().parallel_regions, 0);

        set_threads(saved);
    }

    #[test]
    fn engagement_decision_respects_cores_and_floor() {
        let _guard = OVERRIDE_LOCK.lock();
        let saved = thread_override();
        set_threads(8);
        set_parallel_mode(ParallelMode::Auto);
        // Below the floor: never parallel, whatever the host looks like.
        assert!(!should_parallelize(MIN_PARALLEL_WORK - 1));
        // Huge work: parallel exactly when the host has >1 core to use.
        let cal = calibration();
        assert_eq!(should_parallelize(u64::MAX / 2), cal.cores > 1);
        set_threads(saved);
    }

    #[test]
    fn par_map_indexed_drops_each_result_exactly_once() {
        static DROPS: AtomicUsize = AtomicUsize::new_untracked(0);
        struct Counted(#[allow(dead_code)] usize);
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _guard = OVERRIDE_LOCK.lock();
        let _force = ForcePool::new();
        let saved = thread_override();
        set_threads(4);
        DROPS.store(0, Ordering::Relaxed);
        let v = par_map_indexed(512, BIG, Counted);
        assert_eq!(v.len(), 512);
        drop(v);
        assert_eq!(DROPS.load(Ordering::Relaxed), 512);
        set_threads(saved);
    }

    #[test]
    fn calibration_persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hc-cal-test-{}", std::process::id()));
        let path = dir.join("hc-calibration.json");
        let _ = std::fs::remove_file(&path);

        // Missing file: nothing to load.
        assert!(load_calibration(&path, 4).is_none());

        let cal = Calibration {
            spawn_ns: 123_456.0,
            ns_per_unit: 0.75,
            cores: 4,
        };
        save_calibration(&path, cal);
        let loaded = load_calibration(&path, 4).expect("entry for 4 cores");
        assert_eq!(loaded.cores, 4);
        assert!((loaded.spawn_ns - cal.spawn_ns).abs() < 1.0);
        assert!((loaded.ns_per_unit - cal.ns_per_unit).abs() < 1e-3);
        // Keyed by core count: a different host shape misses.
        assert!(load_calibration(&path, 8).is_none());

        // Merging keeps other core counts and replaces the same one.
        save_calibration(
            &path,
            Calibration {
                spawn_ns: 9_000.0,
                ns_per_unit: 0.10,
                cores: 8,
            },
        );
        save_calibration(
            &path,
            Calibration {
                spawn_ns: 200_000.0,
                ns_per_unit: 0.50,
                cores: 4,
            },
        );
        let four = load_calibration(&path, 4).expect("replaced entry");
        assert!((four.spawn_ns - 200_000.0).abs() < 1.0);
        let eight = load_calibration(&path, 8).expect("merged entry");
        assert!((eight.spawn_ns - 9_000.0).abs() < 1.0);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn calibration_persistence_rejects_stale_or_garbage() {
        // Unparsable text yields no entries.
        assert!(parse_calibration_entries("not json at all").is_empty());
        // Wrong version is treated as stale wholesale.
        assert!(parse_calibration_entries(
            "{\"version\":2,\"entries\":[{\"cores\":4,\"spawn_ns\":5000.0,\"ns_per_unit\":0.5}]}"
        )
        .is_empty());
        // Out-of-range values are dropped (clock glitch, corrupt write).
        assert!(parse_calibration_entries(
            "{\"version\":1,\"entries\":[{\"cores\":4,\"spawn_ns\":1.0,\"ns_per_unit\":0.5}]}"
        )
        .is_empty());
        assert!(parse_calibration_entries(
            "{\"version\":1,\"entries\":[{\"cores\":0,\"spawn_ns\":5000.0,\"ns_per_unit\":0.5}]}"
        )
        .is_empty());
        // A valid entry parses exactly.
        let good = parse_calibration_entries(
            "{\"version\":1,\"entries\":[{\"cores\":16,\"spawn_ns\":5000.0,\"ns_per_unit\":0.5}]}",
        );
        assert_eq!(good.len(), 1);
        assert_eq!(good[0].cores, 16);
    }

    #[test]
    fn batch_grain_is_bounded() {
        // Cheap items: grain capped by the load-balance bound.
        let g = batch_grain(1_000, 1_000, 4);
        assert!(g >= 1 && g <= 1_000_usize.div_ceil(16));
        // Expensive items: grain collapses to one item per claim.
        assert_eq!(batch_grain(64, u64::MAX, 4), 1);
    }
}
