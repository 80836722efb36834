//! [`DiskStore`]: checkpoints persisted as real files.
//!
//! A directory of §3 checkpoint files in the corruption-checked wire
//! format, and nothing more: which files should exist is decided by the
//! [`CheckpointStore`](crate::CheckpointStore) this store mirrors. Loads
//! that fail validation report [`Error::Corrupt`] so callers can fall
//! back to a full migration instead of restoring garbage.
//!
//! Beside each `vm-<id>.ckpt` sits at most one hidden `.vm-<id>.tmp`:
//! the file the VM's last save displaced, which the next save overwrites
//! in place instead of allocating a fresh file
//! ([`vecycle_types::atomic_replace`]). So the directory holds at most
//! twice the bytes of its checkpoints, and removing a VM's checkpoint
//! removes its spare too.

use std::path::{Path, PathBuf};

use vecycle_types::{Error, VmId};

use crate::{wire, Checkpoint};

/// A directory of checkpoint files, one per VM.
///
/// Layout: `<root>/vm-<id>.ckpt`, atomically replaced on save (write
/// into the spare `.vm-<id>.tmp`, then rename it over the checkpoint,
/// which becomes the next spare) so a crash mid-save never leaves a torn
/// checkpoint where a good one stood.
///
/// # Examples
///
/// ```
/// use vecycle_checkpoint::{Checkpoint, DiskStore};
/// use vecycle_mem::DigestMemory;
/// use vecycle_types::{PageCount, SimTime, VmId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join("vecycle-diskstore-doc");
/// let store = DiskStore::open(&dir)?;
/// let mem = DigestMemory::with_distinct_content(PageCount::new(8), 1);
/// store.save(&Checkpoint::capture(VmId::new(5), SimTime::EPOCH, &mem))?;
/// let back = store.load(VmId::new(5))?.expect("checkpoint exists");
/// assert_eq!(back.page_count(), PageCount::new(8));
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// Opens (creating if needed) a checkpoint directory, deleting the
    /// `.vm-<id>.tmp` spares and the `.vm-<id>.held` names a save (or a
    /// crash mid-[`DiskStore::save`]) left behind: neither is ever a
    /// checkpoint, and a spare is only worth keeping while the store runs.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(root: impl AsRef<Path>) -> vecycle_types::Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        for entry in std::fs::read_dir(&root)? {
            let entry = entry?;
            let stale = entry.file_name().to_str().is_some_and(|name| {
                let id = name
                    .strip_prefix(".vm-")
                    .and_then(|s| s.strip_suffix(".tmp").or_else(|| s.strip_suffix(".held")));
                id.is_some_and(|id| id.parse::<u32>().is_ok())
            });
            if stale {
                std::fs::remove_file(entry.path())?;
            }
        }
        Ok(DiskStore { root })
    }

    /// The directory backing this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, vm: VmId) -> PathBuf {
        self.root.join(format!("vm-{}.ckpt", vm.as_u32()))
    }

    fn spare_for(&self, vm: VmId) -> PathBuf {
        self.root.join(format!(".vm-{}.tmp", vm.as_u32()))
    }

    /// Saves (atomically replaces) the checkpoint for its VM.
    ///
    /// Crash-durability invariant: at every instant there is either the
    /// old complete checkpoint or the new complete checkpoint at the
    /// final path, never a torn one and never neither
    /// ([`vecycle_types::atomic_replace`] through `.vm-<id>.tmp`, which
    /// then holds the displaced checkpoint for the next save to
    /// overwrite). A crash that loses the directory `fsync` rolls the
    /// entries back: the new checkpoint may be lost and a stray `.tmp` or
    /// `.held` stay (swept by [`DiskStore::open`]), but the old one is
    /// intact. A reader that holds the file open across two later saves
    /// of the VM reads the second one's bytes over it, which its trailer
    /// check reports as [`Error::Corrupt`].
    /// `write_to` writes straight to the file, unbuffered: header and
    /// table in 8 KiB chunks, the pages in vectored writes.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a failed save leaves any previous
    /// checkpoint intact and no temp file behind.
    pub fn save(&self, checkpoint: &Checkpoint) -> vecycle_types::Result<()> {
        let vm = checkpoint.vm();
        vecycle_types::atomic_replace(&self.path_for(vm), &self.spare_for(vm), |file| {
            checkpoint.write_to(file)
        })
    }

    /// Loads the checkpoint for `vm`, if one exists. A page checkpoint
    /// keeps its pages in the open file: the load reads and checks the
    /// header, the length and the digest table, and each page is read
    /// and verified against its table entry when it is used
    /// ([`Checkpoint::read_pages`]; [`Checkpoint::into_resident`] reads
    /// them all).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the file exists but fails
    /// validation — callers should treat that as "no usable checkpoint"
    /// and may call [`DiskStore::remove`] to clear it. A page that fails
    /// its check is reported by the read that uses it.
    pub fn load(&self, vm: VmId) -> vecycle_types::Result<Option<Checkpoint>> {
        let path = self.path_for(vm);
        let file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let cp = Checkpoint::open_file(file)?;
        if cp.vm() != vm {
            return Err(Error::Corrupt {
                detail: format!("checkpoint file for {vm} contains {}", cp.vm()),
            });
        }
        Ok(Some(cp))
    }

    /// Removes the checkpoint for `vm` and its spare, returning whether
    /// there was a checkpoint to remove. Removing a missing checkpoint is
    /// not an error.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than "not found".
    pub fn remove(&self, vm: VmId) -> vecycle_types::Result<bool> {
        let gone = |path: PathBuf| match std::fs::remove_file(path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        };
        gone(self.spare_for(vm))?;
        Ok(gone(self.path_for(vm))?)
    }

    /// Estimates the pages of a file that failed validation from its
    /// length and the layout its header declares — the payload itself is
    /// untrustworthy. Unreadable files count as empty.
    pub(crate) fn estimated_pages(&self, vm: VmId) -> u64 {
        use std::io::Read;
        let mut head = Vec::with_capacity(wire::LAYOUT_PREFIX);
        let Ok(file) = std::fs::File::open(self.path_for(vm)) else {
            return 0;
        };
        let len = file.metadata().map_or(0, |m| m.len());
        // A short or failed read leaves a short prefix, which estimates
        // by the fallback rule.
        let _ = file.take(wire::LAYOUT_PREFIX as u64).read_to_end(&mut head);
        wire::estimated_pages(&head, len)
    }

    /// The VMs with a stored checkpoint file, in id order — the on-disk
    /// catalog, for comparison against
    /// [`CheckpointStore::vm_ids`](crate::CheckpointStore::vm_ids).
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn list(&self) -> vecycle_types::Result<Vec<VmId>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix("vm-")
                .and_then(|s| s.strip_suffix(".ckpt"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                out.push(VmId::new(id));
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_mem::DigestMemory;
    use vecycle_types::{PageCount, SimTime};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vecycle-diskstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cp(vm: u32, seed: u64) -> Checkpoint {
        let mem = DigestMemory::with_distinct_content(PageCount::new(16), seed);
        Checkpoint::capture(VmId::new(vm), SimTime::EPOCH, &mem)
    }

    #[test]
    fn save_load_remove_cycle() {
        let dir = tmpdir("cycle");
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.load(VmId::new(1)).unwrap().is_none());
        store.save(&cp(1, 10)).unwrap();
        let loaded = store.load(VmId::new(1)).unwrap().unwrap();
        assert_eq!(loaded, cp(1, 10));
        assert!(store.remove(VmId::new(1)).unwrap());
        assert!(store.load(VmId::new(1)).unwrap().is_none());
        assert!(!store.remove(VmId::new(1)).unwrap()); // idempotent
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn save_replaces_previous_version() {
        let dir = tmpdir("replace");
        let store = DiskStore::open(&dir).unwrap();
        store.save(&cp(2, 10)).unwrap();
        store.save(&cp(2, 11)).unwrap();
        assert_eq!(store.load(VmId::new(2)).unwrap().unwrap(), cp(2, 11));
        std::fs::remove_dir_all(dir).unwrap();
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    fn temp_files(dir: &Path) -> Vec<String> {
        let mut names = names(dir);
        names.retain(|name| name.ends_with(".tmp"));
        names
    }

    /// A save that dies at the rename reports the error, leaves what
    /// was stored before as it was, and strands no temp file; temp files
    /// a crash did strand are swept when the store is next opened.
    #[test]
    fn failed_save_and_reopen_leave_no_temp_file() {
        let dir = tmpdir("tmp-sweep");
        let store = DiskStore::open(&dir).unwrap();
        store.save(&cp(2, 10)).unwrap();
        // A directory squatting on vm-3's path makes the rename fail.
        std::fs::create_dir(dir.join("vm-3.ckpt")).unwrap();
        assert!(matches!(store.save(&cp(3, 11)), Err(Error::Io(_))));
        assert_eq!(temp_files(&dir), Vec::<String>::new());
        assert!(dir.join("vm-3.ckpt").is_dir());
        assert_eq!(store.load(VmId::new(2)).unwrap().unwrap(), cp(2, 10));

        std::fs::write(dir.join(".vm-9.tmp"), b"torn").unwrap();
        std::fs::write(dir.join(".vm-x.tmp"), b"not ours").unwrap();
        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(temp_files(&dir), [".vm-x.tmp"]);
        assert_eq!(reopened.load(VmId::new(2)).unwrap().unwrap(), cp(2, 10));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// From a VM's third save on, a save writes into the file the one
    /// before displaced: the checkpoint's inode alternates between two,
    /// and removing the checkpoint removes its spare.
    #[cfg(unix)]
    #[test]
    fn saves_alternate_between_two_files() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmpdir("inodes");
        let store = DiskStore::open(&dir).unwrap();
        let inodes: Vec<u64> = (0..6)
            .map(|seed| {
                store.save(&cp(6, seed)).unwrap();
                std::fs::metadata(dir.join("vm-6.ckpt")).unwrap().ino()
            })
            .collect();
        assert_ne!(inodes[0], inodes[1]);
        for i in 2..inodes.len() {
            assert_eq!(inodes[i], inodes[i - 2], "save {i} created a file");
        }
        assert_eq!(store.load(VmId::new(6)).unwrap().unwrap(), cp(6, 5));
        assert_eq!(names(&dir), [".vm-6.tmp", "vm-6.ckpt"]);
        assert!(store.remove(VmId::new(6)).unwrap());
        assert_eq!(names(&dir), Vec::<String>::new());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Each directory state a crash inside a save can leave loads the
    /// old or the new complete checkpoint, lets the next save land, and
    /// reopens to the checkpoint alone.
    #[test]
    fn every_crash_state_of_a_save_loads_whole_and_reopens_clean() {
        type Crash = fn(&Path);
        let states: [(&str, Crash, Checkpoint); 4] = [
            (
                "torn-spare",
                |d| std::fs::write(d.join(".vm-2.tmp"), b"torn").unwrap(),
                cp(2, 11),
            ),
            (
                "stale-held",
                |d| std::fs::hard_link(d.join("vm-2.ckpt"), d.join(".vm-2.held")).unwrap(),
                cp(2, 11),
            ),
            (
                "held-after-rename",
                |d| {
                    std::fs::hard_link(d.join("vm-2.ckpt"), d.join(".vm-2.held")).unwrap();
                    let mut bytes = Vec::new();
                    cp(2, 12).write_to(&mut bytes).unwrap();
                    std::fs::write(d.join(".vm-2.tmp"), bytes).unwrap();
                    std::fs::rename(d.join(".vm-2.tmp"), d.join("vm-2.ckpt")).unwrap();
                },
                cp(2, 12),
            ),
            ("older-spare", |_| {}, cp(2, 11)),
        ];
        for (tag, crash, whole) in states {
            let dir = tmpdir(tag);
            let store = DiskStore::open(&dir).unwrap();
            store.save(&cp(2, 10)).unwrap();
            store.save(&cp(2, 11)).unwrap();
            crash(&dir);
            assert_eq!(store.load(VmId::new(2)).unwrap().unwrap(), whole, "{tag}");
            store.save(&cp(2, 13)).unwrap();
            assert_eq!(
                store.load(VmId::new(2)).unwrap().unwrap(),
                cp(2, 13),
                "{tag}"
            );
            crash(&dir);
            let reopened = DiskStore::open(&dir).unwrap();
            assert_eq!(names(&dir), ["vm-2.ckpt"], "{tag}");
            assert!(reopened.load(VmId::new(2)).unwrap().is_some(), "{tag}");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    /// A `.held` name squatted by a directory costs the recycling, not
    /// the save.
    #[test]
    fn a_squatted_held_name_still_saves() {
        let dir = tmpdir("held-squat");
        let store = DiskStore::open(&dir).unwrap();
        store.save(&cp(4, 10)).unwrap();
        std::fs::create_dir(dir.join(".vm-4.held")).unwrap();
        store.save(&cp(4, 11)).unwrap();
        store.save(&cp(4, 12)).unwrap();
        assert_eq!(store.load(VmId::new(4)).unwrap().unwrap(), cp(4, 12));
        assert_eq!(names(&dir), [".vm-4.held", "vm-4.ckpt"]);
        assert_eq!(store.list().unwrap(), [VmId::new(4)]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_file_is_reported_not_returned() {
        let dir = tmpdir("corrupt");
        let store = DiskStore::open(&dir).unwrap();
        store.save(&cp(3, 10)).unwrap();
        // Flip a byte on disk.
        let path = dir.join("vm-3.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, bytes).unwrap();
        let err = store.load(VmId::new(3)).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn vm_id_mismatch_is_corrupt() {
        let dir = tmpdir("mismatch");
        let store = DiskStore::open(&dir).unwrap();
        store.save(&cp(4, 10)).unwrap();
        // Rename vm-4's file to claim vm-5.
        std::fs::rename(dir.join("vm-4.ckpt"), dir.join("vm-5.ckpt")).unwrap();
        let err = store.load(VmId::new(5)).unwrap_err();
        assert!(err.to_string().contains("contains vm-4"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn list_enumerates_saved_vms() {
        let dir = tmpdir("list");
        let store = DiskStore::open(&dir).unwrap();
        store.save(&cp(7, 1)).unwrap();
        store.save(&cp(2, 2)).unwrap();
        store.save(&cp(9, 3)).unwrap();
        assert_eq!(
            store.list().unwrap(),
            vec![VmId::new(2), VmId::new(7), VmId::new(9)]
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn stray_files_are_ignored_by_list() {
        let dir = tmpdir("stray");
        let store = DiskStore::open(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        std::fs::write(dir.join("vm-x.ckpt"), b"junk").unwrap();
        store.save(&cp(1, 1)).unwrap();
        assert_eq!(store.list().unwrap(), vec![VmId::new(1)]);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
