//! Host-side helpers: process CPU time, peak resident memory, percentiles,
//! digests and output checksums, and the per-run scratch directory.

use std::path::{Path, PathBuf};

/// Process CPU time (all threads, joined workers included) in ms, from
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. CPU time does not advance
/// while the process is preempted, so it stays steady on a shared host.
pub fn cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is the
    // POSIX process CPU-time clock; the call only writes `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 * 1e-6
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Nearest-rank percentile `p` (0..=100) of `v`; `v` need not be sorted.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median of `v` (midpoint of the two central values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The build directory of the checkout: `$CARGO_TARGET_DIR`, else `target`.
pub fn build_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// A per-run scratch directory inside the build directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = build_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        // A leftover from a killed run with the same pid is stale.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the per-run scratch directory");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// FNV-1a over a stream of 64-bit words: the determinism digest.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn f32s(&mut self, v: &[f32]) {
        for x in v {
            self.word(u64::from(x.to_bits()));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Order-sensitive checksum of an output's bits, four independent lanes
/// so it stays cheap next to the SpMM that produced it.
pub fn checksum(z: &graph_sparse::DenseMatrix) -> u64 {
    let mut lanes = [0x9e37_79b9_7f4a_7c15u64; 4];
    for chunk in z.data.chunks(4) {
        for (l, v) in lanes.iter_mut().zip(chunk) {
            *l = (*l ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let mut d = Digest::default();
    for l in lanes {
        d.word(l);
    }
    d.word(z.rows as u64);
    d.word(z.cols as u64);
    d.finish()
}
