//! The `store.json.lock` pidfile: one writer per store.
//!
//! Every writer ends in a checkpoint that deletes the journal, so two
//! at once lose cells. The writer open
//! ([`super::ResultStore::open_resumable`]) therefore takes this lock, a
//! sidecar created with `O_EXCL` holding the owner's pid and command;
//! the reader open ([`super::ResultStore::load_required`]) takes none
//! but refuses a live one. A lock whose pid is dead (or whose file is
//! torn) is stale: readers report it, the next writer breaks it, so a
//! crashed owner never wedges the store.

use crate::json::Json;
use crate::scenario::ScenarioError;
use crate::store::sync_dir;
use std::path::{Path, PathBuf};

/// The lock sidecar of a store: `store.json` → `store.json.lock`.
pub fn lock_path(store: &Path) -> PathBuf {
    let mut name = store.file_name().unwrap_or_default().to_os_string();
    name.push(".lock");
    store.with_file_name(name)
}

/// What a lock file says about its owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockInfo {
    /// The owning process id (`0` for an unreadable/torn lock file,
    /// which only a dead owner can leave behind).
    pub pid: u32,
    /// The subcommand that took the lock (diagnostics only).
    pub cmd: String,
}

/// Whether `pid` names a running process; pid 0, a torn lock's, never
/// does. Conservative off Linux: a pid we cannot probe is treated as
/// alive, so an unbreakable lock is at worst a refusal with
/// remediation, never a broken live lock.
fn pid_alive(pid: u32) -> bool {
    pid != 0
        && (pid == std::process::id()
            || !cfg!(target_os = "linux")
            || Path::new("/proc").join(pid.to_string()).exists())
}

/// The owner the lock beside `store` names, `None` without a lock. A
/// lock file that does not parse names pid 0: only a crashed owner
/// leaves a torn lock behind.
fn owner(store: &Path) -> Result<Option<LockInfo>, ScenarioError> {
    let path = lock_path(store);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(ScenarioError::Store(format!(
                "read {}: {e}",
                path.display()
            )))
        }
    };
    let info = Json::parse(String::from_utf8_lossy(&bytes).trim())
        .ok()
        .and_then(|doc| {
            Some(LockInfo {
                pid: doc.get("pid").and_then(Json::as_f64)? as u32,
                cmd: doc
                    .get("cmd")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
            })
        });
    Ok(Some(info.unwrap_or(LockInfo {
        pid: 0,
        cmd: "?".to_string(),
    })))
}

/// Refuses a live owner's store, naming it and the remediation — the
/// one refusal readers and writers share — and returns a stale lock
/// (left in place) so the caller can report it.
pub(super) fn refuse_live(store: &Path) -> Result<Option<LockInfo>, ScenarioError> {
    match owner(store)? {
        Some(info) if pid_alive(info.pid) => Err(ScenarioError::Store(format!(
            "store {} is held by a live `campaign {}` (pid {}) through {} — send it the \
             shutdown op (or stop the process) and retry; a dead owner's lock is detected \
             as stale and never blocks",
            store.display(),
            info.cmd,
            info.pid,
            lock_path(store).display(),
        ))),
        stale => Ok(stale),
    }
}

/// A writer's exclusive hold on a store, released on drop (best-effort)
/// or via [`StoreLock::release`] (checked).
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
    armed: bool,
}

impl StoreLock {
    /// Takes the lock beside `store` for subcommand `cmd`. A stale
    /// lock is broken and returned so the caller can report it; a live
    /// lock refuses with the owner named and the remediation spelled
    /// out.
    pub(super) fn acquire(
        store: &Path,
        cmd: &str,
    ) -> Result<(StoreLock, Option<LockInfo>), ScenarioError> {
        let path = lock_path(store);
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| ScenarioError::Store(format!("mkdir {}: {e}", dir.display())))?;
        }
        let mut broke = None;
        // Two take attempts with at most one stale-break between them:
        // losing the post-break re-create race means a *live* process
        // took the lock, which the second attempt then reports.
        for attempt in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => {
                    // Armed before the write: a failed write must not
                    // leave an empty lock behind.
                    let lock = StoreLock {
                        path: path.clone(),
                        armed: true,
                    };
                    let doc = Json::Obj(vec![
                        ("pid".to_string(), Json::Num(std::process::id() as f64)),
                        ("cmd".to_string(), Json::str(cmd)),
                    ]);
                    let mut text = doc.compact();
                    text.push('\n');
                    std::io::Write::write_all(&mut &file, text.as_bytes())
                        .and_then(|()| file.sync_all())
                        .map_err(|e| {
                            ScenarioError::Store(format!("write {}: {e}", lock.path.display()))
                        })?;
                    if let Some(dir) = dir {
                        sync_dir(dir)?;
                    }
                    return Ok((lock, broke));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    match refuse_live(store)? {
                        // Raced a release between create and read.
                        None => continue,
                        Some(stale) if attempt == 0 => {
                            std::fs::remove_file(&path).map_err(|e| {
                                ScenarioError::Store(format!(
                                    "break stale lock {}: {e}",
                                    path.display()
                                ))
                            })?;
                            broke = Some(stale);
                        }
                        Some(_) => break,
                    }
                }
                Err(e) => {
                    return Err(ScenarioError::Store(format!(
                        "create {}: {e}",
                        path.display()
                    )))
                }
            }
        }
        Err(ScenarioError::Store(format!(
            "lock {} is contended: another process keeps re-creating it",
            path.display()
        )))
    }

    /// Removes the lock file, surfacing failures (drop only removes
    /// best-effort).
    pub fn release(mut self) -> Result<(), ScenarioError> {
        self.armed = false;
        std::fs::remove_file(&self.path)
            .map_err(|e| ScenarioError::Store(format!("unlock {}: {e}", self.path.display())))
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        if self.armed {
            std::fs::remove_file(&self.path).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("harness-lock-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn acquire_release_round_trips() {
        let dir = scratch("round");
        let store = dir.join("store.json");
        assert_eq!(refuse_live(&store).unwrap(), None);
        let (lock, broke) = StoreLock::acquire(&store, "serve").unwrap();
        assert!(broke.is_none());
        // Our own pid is live, so a second writer and a reader refuse.
        let err = StoreLock::acquire(&store, "run").unwrap_err().to_string();
        assert!(err.contains("shutdown"), "{err}");
        assert!(err.contains("`campaign serve`"), "{err}");
        assert!(
            err.contains(&format!("pid {}", std::process::id())),
            "{err}"
        );
        assert_eq!(refuse_live(&store).unwrap_err().to_string(), err);
        lock.release().unwrap();
        assert!(!lock_path(&store).exists());
        assert_eq!(refuse_live(&store).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_and_torn_locks_are_broken_not_fatal() {
        let dir = scratch("stale");
        let store = dir.join("store.json");
        // A pid far beyond any live process: /proc/<pid> cannot exist.
        std::fs::write(
            lock_path(&store),
            "{\"pid\":4000000000,\"cmd\":\"serve\"}\n",
        )
        .unwrap();
        let stale = refuse_live(&store).unwrap();
        assert_eq!(stale.unwrap().pid, 4_000_000_000);
        let (lock, broke) = StoreLock::acquire(&store, "serve").unwrap();
        assert_eq!(broke.unwrap().pid, 4_000_000_000);
        drop(lock);
        // A torn lock file (crash mid-write) is stale with pid 0.
        std::fs::write(lock_path(&store), "{\"pid\":40").unwrap();
        assert_eq!(
            refuse_live(&store).unwrap(),
            Some(LockInfo {
                pid: 0,
                cmd: "?".to_string()
            })
        );
        let (lock, broke) = StoreLock::acquire(&store, "gc").unwrap();
        assert_eq!(broke.unwrap().pid, 0);
        lock.release().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_releases_best_effort() {
        let dir = scratch("drop");
        let store = dir.join("store.json");
        {
            let _lock = StoreLock::acquire(&store, "serve").unwrap();
            assert!(lock_path(&store).exists());
        }
        assert!(!lock_path(&store).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
