//! Replacing a file so a crash never leaves a torn one, writing each
//! replacement into the file the previous one displaced.
//!
//! A fresh file costs block allocation and a metadata journal commit on
//! top of its bytes; overwriting blocks a file already owns costs only
//! the copy and the data sync. So a replace keeps what it displaces at
//! `tmp` as the *spare* the next replace writes into. The directory
//! holds at most that one spare beside each replaced file.

use std::fs::{File, OpenOptions};
use std::io::Seek;
use std::path::Path;

/// Replaces `path` with what `write` puts into `tmp`, a file in the same
/// directory, and keeps the file it displaces at `tmp` for the next call:
///
/// 1. open `tmp` without truncating it (the previous call's spare, or a
///    new file), `write`, `set_len` to the position `write` left, `fsync`;
/// 2. `hard_link(path → held)`, `rename(tmp → path)`,
///    `rename(held → tmp)`, where `held` is `tmp` with the extension
///    `held`;
/// 3. `fsync(parent dir)` (unix only; elsewhere the rename is the best
///    the platform offers).
///
/// At every instant `path` holds its old or its new complete contents:
/// the first `fsync` keeps the rename from promoting data still in the
/// page cache, the link keeps the displaced file alive without ever
/// taking it off `path`, and the directory `fsync` makes the renames
/// durable before the next call overwrites the spare. A crash leaves at
/// most a torn or stale `tmp` and a `held` name, neither ever read as
/// `path`; the caller sweeps both when it next starts.
///
/// Recycling is best effort: with no file at `path`, or a `held` name
/// that cannot be linked or renamed, the call creates `tmp` and renames
/// it as a plain replace would, and still succeeds.
///
/// # Errors
///
/// The first error of `write` or of any step. A failure removes `tmp`
/// and `held` (best effort: the step's own error is the one reported)
/// and, unless only the directory `fsync` failed, leaves `path` as it
/// was.
pub fn atomic_replace<E: From<std::io::Error>>(
    path: &Path,
    tmp: &Path,
    write: impl FnOnce(&mut File) -> Result<(), E>,
) -> Result<(), E> {
    let promoted = (|| {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(tmp)?;
        write(&mut file)?;
        Ok(promote(path, tmp, file)?)
    })();
    if promoted.is_err() {
        let _ = std::fs::remove_file(tmp);
        let _ = std::fs::remove_file(tmp.with_extension("held"));
    }
    promoted
}

/// Everything after `write`, kept out of the generic shell so each
/// caller's crate compiles only the shell.
fn promote(path: &Path, tmp: &Path, mut file: File) -> std::io::Result<()> {
    let len = file.stream_position()?;
    file.set_len(len)?;
    file.sync_all()?;
    drop(file);
    let held = tmp.with_extension("held");
    // A `held` a crash stranded would refuse the link.
    let _ = std::fs::remove_file(&held);
    let linked = std::fs::hard_link(path, &held).is_ok();
    std::fs::rename(tmp, path)?;
    if linked && std::fs::rename(&held, tmp).is_err() {
        let _ = std::fs::remove_file(&held);
    }
    #[cfg(unix)]
    File::open(path.parent().unwrap_or_else(|| Path::new(".")))?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vecycle-atomic-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn replace(d: &Path, bytes: &[u8]) -> std::io::Result<()> {
        atomic_replace(&d.join("f"), &d.join(".f.tmp"), |f| f.write_all(bytes))
    }

    fn names(d: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// A longer file then a shorter one: the spare is cut to what was
    /// written, and from the third replace on no file is created.
    #[cfg(unix)]
    #[test]
    fn replaces_alternate_between_two_files() {
        use std::os::unix::fs::MetadataExt;
        let d = dir("alternate");
        let ino = || std::fs::metadata(d.join("f")).unwrap().ino();
        let mut inodes = Vec::new();
        for (i, len) in [4096, 100, 8192, 10, 3000, 3000].into_iter().enumerate() {
            let bytes = vec![i as u8 + 1; len];
            replace(&d, &bytes).unwrap();
            assert_eq!(std::fs::read(d.join("f")).unwrap(), bytes);
            inodes.push(ino());
        }
        assert_eq!(names(&d), [".f.tmp", "f"]);
        assert_ne!(inodes[0], inodes[1]);
        for i in 2..inodes.len() {
            assert_eq!(inodes[i], inodes[i - 2], "replace {i} created a file");
        }
        std::fs::remove_dir_all(d).unwrap();
    }

    /// Each directory state a crash can leave — a torn spare, a `held`
    /// link to the current file, `held` left after the first rename, a
    /// spare holding an older complete file — keeps a whole file at
    /// `path`, and the next replace lands and leaves only the file and
    /// its spare.
    #[test]
    fn every_crash_state_keeps_the_file_and_the_next_replace_lands() {
        type Crash = fn(&Path);
        let states: [(&str, Crash, &[u8]); 4] = [
            (
                "torn-spare",
                |d| std::fs::write(d.join(".f.tmp"), b"ne").unwrap(),
                b"current",
            ),
            (
                "stale-held",
                |d| std::fs::hard_link(d.join("f"), d.join(".f.held")).unwrap(),
                b"current",
            ),
            (
                "held-after-rename",
                |d| {
                    std::fs::hard_link(d.join("f"), d.join(".f.held")).unwrap();
                    std::fs::write(d.join(".f.tmp"), b"landed").unwrap();
                    std::fs::rename(d.join(".f.tmp"), d.join("f")).unwrap();
                },
                b"landed",
            ),
            ("older-spare", |_| {}, b"current"),
        ];
        for (tag, crash, whole) in states {
            let d = dir(tag);
            replace(&d, b"older").unwrap();
            replace(&d, b"current").unwrap();
            crash(&d);
            assert_eq!(std::fs::read(d.join("f")).unwrap(), whole, "{tag}");
            replace(&d, b"next").unwrap();
            assert_eq!(std::fs::read(d.join("f")).unwrap(), b"next", "{tag}");
            assert_eq!(names(&d), [".f.tmp", "f"], "{tag}");
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    /// A failed `write` leaves the file, and neither the spare nor `held`.
    #[test]
    fn a_failed_write_removes_the_spare() {
        let d = dir("failed");
        replace(&d, b"first").unwrap();
        replace(&d, b"second").unwrap();
        let err = atomic_replace(&d.join("f"), &d.join(".f.tmp"), |f| {
            f.write_all(b"half")?;
            Err(std::io::Error::other("writer died"))
        });
        assert!(err.is_err());
        assert_eq!(std::fs::read(d.join("f")).unwrap(), b"second");
        assert_eq!(names(&d), ["f"]);
        std::fs::remove_dir_all(d).unwrap();
    }
}
