//! Replacing a file so a crash never leaves a torn one.

use std::fs::File;
use std::path::Path;

/// Replaces `path` with what `write` puts into `tmp`, a fresh file in
/// the same directory: create `tmp`, `write`, `fsync(tmp)`, close, `rename`,
/// `fsync(parent dir)` (unix only; elsewhere the rename is the best the
/// platform offers). At every instant `path` holds its old or its new
/// complete contents: the first `fsync` keeps the rename from promoting
/// data still in the page cache, the second makes the rename durable.
///
/// # Errors
///
/// The first error of `write` or of any step. A failure removes `tmp`
/// (best effort: the step's own error is the one reported) and, unless
/// only the directory `fsync` failed, leaves `path` as it was.
pub fn atomic_replace<E: From<std::io::Error>>(
    path: &Path,
    tmp: &Path,
    write: impl FnOnce(&mut File) -> Result<(), E>,
) -> Result<(), E> {
    let promoted = (|| {
        let mut file = File::create(tmp)?;
        write(&mut file)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(tmp, path)?;
        #[cfg(unix)]
        File::open(path.parent().unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(())
    })();
    if promoted.is_err() {
        let _ = std::fs::remove_file(tmp);
    }
    promoted
}
