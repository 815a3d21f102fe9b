//! Atomic artifact persistence.
//!
//! Every artifact the workbench writes — `repro --bench-json` timing logs,
//! `traceinfo` reports — is consumed by tools (diffs, ratchet gates) that
//! assume the file is either the *old*
//! complete document or the *new* complete document. A plain
//! `File::create` + write gives a third state: a torn prefix left behind by
//! a crash or `SIGKILL` mid-write, which then poisons the next run's diff.
//! [`write_atomic`] closes that window with the classic
//! write-temp-then-rename protocol: the bytes land in a temporary sibling
//! file (same directory, so the rename cannot cross filesystems), are
//! flushed and fsynced, and only then renamed over the destination — which
//! POSIX guarantees is atomic.
//!
//! Atomicity alone only covers process death. Durability across *power
//! loss* needs two more fsyncs: the temp file's data must be on stable
//! storage before the rename (otherwise the rename can land while the bytes
//! are still dirty in the page cache, leaving a named-but-empty file after a
//! crash), and the parent directory entry must be synced after the rename
//! (otherwise the rename itself can vanish). [`write_atomic`] does both;
//! [`fsync_dir`] is the directory half, exported for callers (the checkpoint
//! journal, streamed trace files) that append in place rather than rename.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Names a temporary sibling of `path` in the same directory. The process id
/// keeps concurrent writers from clobbering each other's temp files.
#[expect(
    clippy::disallowed_methods,
    reason = "names the atomic-rename sibling; the rename target's bytes are the artifact"
)]
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Writes `contents` to `path` atomically and durably: after this returns,
/// `path` holds either its previous contents or all of `contents` — never a
/// torn prefix, even if the process is killed mid-call — and both the bytes
/// and the rename that published them have been fsynced to stable storage,
/// so the guarantee holds across power loss, not just process death.
///
/// # Errors
///
/// Returns the underlying I/O error (temp-file creation, write, fsync,
/// rename, or directory fsync), with the destination path in the message.
/// On error the temporary file is removed and the destination is untouched.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        // Data must be stable *before* the rename publishes the name: a
        // journaling filesystem may otherwise commit the rename first and a
        // power cut leaves a named, empty (or torn) destination.
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        fsync_dir(path.parent().filter(|p| !p.as_os_str().is_empty()))
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// Fsyncs a directory so a just-created, renamed, or appended entry in it
/// survives power loss. `None` (an empty parent, i.e. a bare relative file
/// name) syncs the current directory.
///
/// # Errors
///
/// Propagates the open or fsync error for the directory.
pub fn fsync_dir(dir: Option<&Path>) -> io::Result<()> {
    let dir = dir.unwrap_or_else(|| Path::new("."));
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dss-persist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces_whole_documents() {
        let dir = temp_dir("replace");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"{\"v\": 1}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\": 1}");
        write_atomic(&path, b"{\"v\": 2, \"longer\": true}").unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"{\"v\": 2, \"longer\": true}"
        );
        // No temp droppings left next to the artifact.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failure_leaves_destination_untouched() {
        let dir = temp_dir("fail");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"original").unwrap();
        // Writing into a directory that does not exist fails before any
        // rename can happen.
        let bad = dir.join("missing-subdir").join("artifact.json");
        let err = write_atomic(&bad, b"new").unwrap_err();
        assert!(err.to_string().contains("artifact.json"));
        assert_eq!(std::fs::read(&path).unwrap(), b"original");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bare_relative_path_syncs_the_current_directory() {
        // A destination with no parent component must not panic or error in
        // the directory-fsync step (regression: `Path::parent()` returns an
        // empty path for `"artifact.json"`, which `File::open` rejects).
        let dir = temp_dir("bare");
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let result = write_atomic(Path::new("artifact.json"), b"bare");
        std::env::set_current_dir(&old).unwrap();
        result.unwrap();
        assert_eq!(std::fs::read(dir.join("artifact.json")).unwrap(), b"bare");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_dir_covers_real_and_missing_directories() {
        let dir = temp_dir("fsync");
        fsync_dir(Some(&dir)).unwrap();
        fsync_dir(None).unwrap();
        let missing = dir.join("not-there");
        assert!(fsync_dir(Some(&missing)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
