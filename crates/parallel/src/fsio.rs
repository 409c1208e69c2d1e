//! Crash-safe file persistence shared across the workspace.
//!
//! Every on-disk artifact the workspace writes — the host calibration
//! cache, serving snapshots — must survive a crash mid-write
//! without ever being observed half-written. The standard recipe is the
//! same everywhere: write the full contents to a temporary sibling, fsync
//! it, then atomically rename over the destination. Before this module the
//! recipe was hand-rolled at each call site (and each copy skipped the
//! fsync); [`atomic_write`] is the single shared implementation.
//!
//! The atomicity guarantee is the filesystem's `rename(2)` contract: a
//! reader (or a post-crash recovery pass) sees either the previous
//! complete file or the new complete file, never a mixture and never a
//! truncated tail. The fsync before the rename closes the
//! data-loss-on-power-cut window that `write` + `rename` alone leaves
//! open.

use std::io::Write as _;
use std::path::Path;

/// Atomically replace `path` with `bytes`.
///
/// Parent directories are created as needed. The contents are written to
/// a `.tmp`-suffixed sibling in the same directory (so the final rename
/// cannot cross a filesystem boundary), flushed and fsynced, and then
/// renamed over `path`. On any error the destination is untouched; a
/// leftover `.tmp` sibling from an aborted attempt is simply overwritten
/// by the next call.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_sibling(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Best-effort cleanup; the rename error is the one that matters.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The temporary sibling `atomic_write` stages into: `path` with `.tmp`
/// appended to the full file name (not substituted for the extension, so
/// `a.json` and `a` never collide on the same temp name as `a.json.tmp`
/// vs `a.tmp`).
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hc-fsio-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn writes_and_replaces() {
        let dir = scratch("replace");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("out.json");
        atomic_write(&path, b"first").expect("first write");
        assert_eq!(std::fs::read(&path).expect("read back"), b"first");
        atomic_write(&path, b"second, longer contents").expect("second write");
        assert_eq!(
            std::fs::read(&path).expect("read back"),
            b"second, longer contents"
        );
        // No temp sibling is left behind after a successful write.
        assert!(!tmp_sibling(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_destination_intact() {
        let dir = scratch("intact");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("out.bin");
        atomic_write(&path, b"durable").expect("seed write");
        // Writing to a path whose parent is a *file* must fail without
        // touching the original.
        let bad = path.join("child.bin");
        assert!(atomic_write(&bad, b"x").is_err());
        assert_eq!(std::fs::read(&path).expect("read back"), b"durable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_name_appends_full_suffix() {
        assert_eq!(
            tmp_sibling(Path::new("/a/b/c.json")),
            Path::new("/a/b/c.json.tmp")
        );
        assert_eq!(tmp_sibling(Path::new("/a/b/c")), Path::new("/a/b/c.tmp"));
    }
}
