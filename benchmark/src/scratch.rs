//! Scratch space for one run: tmpfs first, removed however the run
//! ends.
//!
//! Staging 6 000 tiny submissions took 6.7–8.5 s on this sandbox's
//! ext4 and 0.36–0.39 s on `/dev/shm`; on a disk the benchmark would
//! time the disk. What is written is reported as exact file and byte
//! counts instead.

use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};

/// Where output that outlives the run goes (`spans.jsonl`), and the
/// scratch fallback when there is no tmpfs: `out/` beside this
/// package's manifest, which `.gitignore` names.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The root scratch directory of one run. Dropping it removes the
/// whole tree — on success, on a failed check, and on a panic that
/// unwinds.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    fs_type: String,
    next: Cell<u32>,
}

impl Scratch {
    /// Creates `/dev/shm/rlnoc-bench-<pid>`, or the same name under
    /// [`out_dir`] when `/dev/shm` cannot be used.
    ///
    /// # Errors
    ///
    /// Fails when neither place can hold a directory.
    pub fn create() -> io::Result<Self> {
        let name = format!("rlnoc-bench-{}", std::process::id());
        let root = [PathBuf::from("/dev/shm"), out_dir()]
            .into_iter()
            .map(|base| base.join(&name))
            .find(|dir| std::fs::create_dir_all(dir).is_ok())
            .ok_or_else(|| io::Error::other("no usable scratch directory"))?;
        let fs_type = fs_type_of(&root);
        Ok(Self {
            root,
            fs_type,
            next: Cell::new(0),
        })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Filesystem type the scratch lives on (`tmpfs`, `ext4`, …), for
    /// the run header: a disk-backed run must not pass for a tmpfs one.
    pub fn fs_type(&self) -> &str {
        &self.fs_type
    }

    /// A path for a fresh sub-directory (one per runner op or server
    /// instance). The directory itself is not created: the code under
    /// test creates it, as it would for a user.
    pub fn fresh(&self, label: &str) -> SubDir {
        let n = self.next.get();
        self.next.set(n + 1);
        SubDir {
            path: self.root.join(format!("{label}-{n:05}")),
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One sub-directory of the scratch root, removed on drop.
#[derive(Debug)]
pub struct SubDir {
    path: PathBuf,
}

impl SubDir {
    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Regular files under the directory and their total size.
    pub fn files_and_bytes(&self) -> (u64, u64) {
        fn walk(dir: &Path, acc: &mut (u64, u64)) {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return;
            };
            for entry in entries.flatten() {
                match entry.metadata() {
                    Ok(m) if m.is_dir() => walk(&entry.path(), acc),
                    Ok(m) if m.is_file() => {
                        acc.0 += 1;
                        acc.1 += m.len();
                    }
                    _ => {}
                }
            }
        }
        let mut acc = (0, 0);
        walk(&self.path, &mut acc);
        acc
    }
}

impl Drop for SubDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount point that prefixes the path); `unknown` elsewhere.
fn fs_type_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("unknown", |(_, fs)| fs)
        .to_string()
}
