//! Small filesystem helpers (no `tempfile` dependency in the offline
//! container).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Makes the directory *entry* for `path` durable: fsyncing a file's
/// contents does not persist its name (or a rename onto it) — the parent
/// directory must be synced too, or power loss can leave a fully-synced
/// file that simply is not there.
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

/// A process-unique scratch directory under the OS temp dir, removed on
/// drop (best effort). Used by the durability tests.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<tmp>/oodb-wal-<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "oodb-wal-{tag}-{pid}-{n}",
            pid = std::process::id()
        ));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
