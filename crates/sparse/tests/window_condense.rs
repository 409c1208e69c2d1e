//! The window-condensing contract.
//!
//! `RowWindowPartition::build_with_rows` and `RowWindow::build` condense
//! each window with an open-addressing set of its distinct columns, a sort
//! of those columns alone, and a lookup per entry. Two properties pin it:
//!
//! * **Same windows.** Every window equals what the straightforward
//!   construction gives (copy the column ids, sort them with every repeat,
//!   dedup, binary-search each entry), `TileMeta` parts included, for every
//!   generator class, degenerate shapes, very wide matrices, several window
//!   heights, and 1, 2 and 8 threads under a forced pool.
//! * **Two allocations per window.** A build allocates each non-empty
//!   window's bitmaps and column stream and nothing else per window: its
//!   scratch is reused across windows, so what it adds on top stays below
//!   a constant however many windows the matrix has. A counting global
//!   allocator checks this.
//!
//! The two tests share the process-wide pool configuration, so each holds
//! [`CONFIG`] while it runs; the allocator counts only the thread that
//! armed it, so the test harness's own allocations never enter a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use graph_sparse::tile::{GROUP_ROWS, TILE_COLS};
use graph_sparse::{gen, Coo, Csr, RowWindow, RowWindowPartition, TileMeta};
use hc_parallel::ParallelMode;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations (including growing reallocations) counted so far.
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

/// `System`, counting the armed thread's allocation requests.
struct CountAllocations;

/// Must not allocate: both cells are const-initialized and have no
/// destructor, so the accesses never allocate or fail.
fn record() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `record` neither allocates nor
// touches the memory.
unsafe impl GlobalAlloc for CountAllocations {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountAllocations = CountAllocations;

/// Serializes the tests: both set the process-wide pool configuration.
static CONFIG: Mutex<()> = Mutex::new(());

/// Run `f` with this thread's allocations counted; returns `f`'s value and
/// the count.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, COUNT.with(Cell::get))
}

/// The straightforward construction, kept as the oracle: sort a copy of
/// the window's column ids with every repeat, dedup, and binary-search
/// each entry for its condensed index. The bitmaps and the column stream
/// are laid out here from `TileMeta`'s documented format and validated by
/// `TileMeta::from_parts`, so the oracle shares no code with the encoder
/// under test.
fn oracle_window(a: &Csr, start: usize, rows: usize) -> RowWindow {
    let lo = a.row_ptr[start] as usize;
    let hi = a.row_ptr[start + rows] as usize;
    let mut unique_cols = a.col_idx[lo..hi].to_vec();
    unique_cols.sort_unstable();
    unique_cols.dedup();

    let row_groups = rows.div_ceil(GROUP_ROWS);
    let mut bitmaps = vec![0u128; unique_cols.len().div_ceil(TILE_COLS) * row_groups];
    for r in 0..rows {
        for c in a.row_cols(start + r) {
            let cond = unique_cols.binary_search(c).expect("column present");
            let bit = (r % GROUP_ROWS) * TILE_COLS + cond % TILE_COLS;
            bitmaps[cond / TILE_COLS * row_groups + r / GROUP_ROWS] |= 1u128 << bit;
        }
    }
    let mut col_stream = Vec::new();
    for (i, &c) in unique_cols.iter().enumerate() {
        let mut v = if i == 0 {
            c
        } else {
            c - unique_cols[i - 1] - 1
        };
        while v >= 0x80 {
            col_stream.push(v as u8 | 0x80);
            v >>= 7;
        }
        col_stream.push(v as u8);
    }
    let meta = TileMeta::from_parts(
        rows as u32,
        (hi - lo) as u32,
        unique_cols.len() as u32,
        col_stream,
        bitmaps,
    )
    .expect("the oracle lays out a valid window");
    RowWindow {
        start_row: start,
        rows,
        nnz: hi - lo,
        meta,
    }
}

fn oracle(a: &Csr, window_rows: usize) -> RowWindowPartition {
    let windows = (0..a.nrows.div_ceil(window_rows))
        .map(|w| {
            let start = w * window_rows;
            oracle_window(a, start, window_rows.min(a.nrows - start))
        })
        .collect();
    RowWindowPartition {
        windows,
        window_rows,
    }
}

/// SplitMix64 draws for the hand-built shapes.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// `nrows × ncols` with `per_row` uniform draws in each row whose index
/// `keep` accepts (the rest stay empty).
fn random_rows(
    nrows: usize,
    ncols: usize,
    per_row: usize,
    seed: u64,
    keep: impl Fn(usize) -> bool,
) -> Csr {
    let mut d = Draws(seed);
    let mut coo = Coo::new(nrows, ncols);
    for r in (0..nrows).filter(|&r| keep(r)) {
        for _ in 0..per_row {
            coo.push(r as u32, d.below(ncols as u64) as u32, 1.0);
        }
    }
    coo.to_csr()
}

/// Every generator class, plus the shapes a partition must not trip on.
fn cases() -> Vec<(&'static str, Csr)> {
    let mol = gen::molecules(900, 2_000, 3);
    // Columns at both ends of the u32 range, and one column shared by
    // every row.
    let mut edges = Coo::new(40, u32::MAX as usize + 1);
    for r in 0..40u32 {
        edges.push(r, 0, 1.0);
        edges.push(r, u32::MAX - r, 1.0);
        edges.push(r, 1 << 31, 1.0);
    }
    vec![
        ("erdos_renyi", gen::erdos_renyi(700, 3_000, 1)),
        ("barabasi_albert", gen::barabasi_albert(1_000, 3, 2)),
        ("rmat", gen::rmat(10, 4_000, 3)),
        ("community", gen::community(800, 4_000, 8, 0.8, 4)),
        ("banded", gen::banded(600, 5, 5)),
        ("molecules", mol.clone()),
        ("local_shuffle", gen::local_shuffle(&mol, 32, 6)),
        ("social", gen::social(900, 3_000, 7)),
        ("mesh_noisy", gen::mesh_noisy(900, 2_500, 0.15, 8)),
        ("scatter_relabel", gen::scatter_relabel(&mol, 9)),
        ("training_window", gen::training_window(16, 200, 1_200, 10)),
        ("block_sparse", gen::block_sparse(40, 0.6, 11)),
        // Windows of 16 and 32 rows with hundreds of distinct columns and
        // heavy repeats.
        ("dense_band", random_rows(96, 700, 300, 12, |_| true)),
        (
            "empty_rows",
            random_rows(200, 300, 6, 13, |r| r % 3 == 0 && !(48..96).contains(&r)),
        ),
        ("empty_matrix", Csr::empty(0, 0)),
        ("all_empty_rows", Csr::empty(40, 40)),
        ("one_row", random_rows(1, 1_000, 40, 14, |_| true)),
        ("one_cell", Coo::from_triples(1, 1, [(0, 0, 1.0)]).to_csr()),
        ("wide", random_rows(70, 5_000_000, 12, 15, |_| true)),
        ("u32_range", edges.to_csr()),
    ]
}

#[test]
fn condensed_windows_equal_the_oracle() {
    let _config = CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let saved = hc_parallel::thread_override();
    for (name, a) in cases() {
        for window_rows in [16, 32, 5] {
            let want = oracle(&a, window_rows);
            // The single-window constructor the patch path uses.
            for (w, win) in want.windows.iter().enumerate() {
                let start = w * window_rows;
                assert_eq!(
                    &RowWindow::build(&a, start, win.rows),
                    win,
                    "{name}: window {w} of height {window_rows} alone"
                );
            }
            hc_parallel::set_parallel_mode(ParallelMode::Force);
            for threads in [1, 2, 8] {
                hc_parallel::set_threads(threads);
                let got = RowWindowPartition::build_with_rows(&a, window_rows);
                for (w, (g, o)) in got.windows.iter().zip(&want.windows).enumerate() {
                    assert_eq!(
                        g, o,
                        "{name}: window {w} of height {window_rows} at {threads} threads"
                    );
                }
                assert_eq!(got, want, "{name}: height {window_rows}, {threads} threads");
            }
            hc_parallel::set_parallel_mode(ParallelMode::Auto);
        }
    }
    hc_parallel::set_threads(saved);
}

#[test]
fn a_build_allocates_two_buffers_per_non_empty_window() {
    /// What a build may add on top of two buffers per non-empty window:
    /// the output vector and the scratch's growth to the largest window.
    const SURPLUS: usize = 16;

    let _config = CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let saved = hc_parallel::thread_override();
    hc_parallel::set_threads(1);
    let mut report = String::new();
    let mut worst = 0;
    for (name, a) in cases().into_iter().chain([
        ("barabasi_albert_8k", gen::barabasi_albert(8_000, 3, 21)),
        ("barabasi_albert_64k", gen::barabasi_albert(64_000, 3, 21)),
        ("molecules_64k", gen::molecules(64_000, 150_000, 22)),
    ]) {
        for window_rows in [16, 32] {
            let (part, allocs) = counted(|| RowWindowPartition::build_with_rows(&a, window_rows));
            let live = part.windows.iter().filter(|w| !w.is_empty()).count();
            let surplus = allocs.saturating_sub(2 * live);
            worst = worst.max(surplus);
            report += &format!(
                "{name}/{window_rows}: {allocs} allocations, {live} non-empty windows, \
                 {surplus} beyond two per window\n"
            );
        }
    }
    hc_parallel::set_threads(saved);
    assert!(worst <= SURPLUS, "{report}");
}
