#![forbid(unsafe_code)]
//! Deterministic fault injection shared by every layer of the engine.
//!
//! Every write, fsync, rename, truncate, and read the WAL / checkpoint /
//! spill paths perform goes through the I/O wrappers in this crate, and
//! the executor's worker, morsel, kernel and allocation paths carry
//! [`exec_point`] sites. Each call site names a *failpoint site*
//! (a stable string like `"wal.append.write"` or `"exec.worker.panic"`);
//! when the process-global registry has an action configured for that
//! site, the wrapper injects the failure instead of (or in the middle
//! of) doing the real work. With no failpoints configured the wrappers
//! cost one relaxed atomic load.
//!
//! Actions are configured programmatically ([`configure`]) or via the
//! `PERM_FAILPOINTS` environment variable ([`configure_from_env`]).
//! The spec grammar is
//!
//! ```text
//! spec   := entry (';' entry)*
//! entry  := site '=' action ['@' N ['+']]
//! action := short_write(K)   -- write only the first K bytes, then error
//!         | torn_write(K)    -- write K bytes plus one corrupted byte
//!         | sync_fail        -- report fsync failure without syncing
//!         | read_err         -- fail the read
//!         | io_err           -- fail the operation before doing anything
//!         | stall(MS)        -- sleep MS milliseconds, then proceed
//!         | panic            -- panic at the site (worker containment)
//!         | deny             -- typed ResourceExhausted at the site
//!         | disconnect       -- typed Execution error (channel teardown)
//! ```
//!
//! `@N` fires the action on the Nth hit of the site only (1-based);
//! `@N+` fires on the Nth and every later hit; no suffix means `@1+`
//! (every hit). Hit counters reset whenever [`configure`] installs a new
//! spec, so a test run is deterministic end to end.
//!
//! ## Executor sites
//!
//! The chaos harness drives these through [`exec_point`]:
//!
//! | site | loop it sits in |
//! |---|---|
//! | `exec.worker.start` | pool worker task startup (`parallel::run_workers`) |
//! | `exec.morsel.claim` | per-morsel claim loop (`parallel::map_morsels`) |
//! | `exec.kernel.batch` | per-batch kernel dispatch (`operators::scan`) |
//! | `exec.memory.grow` | reservation grow (`memory::try_grow`) |
//! | `exec.distinct.passthrough` | a DISTINCT over a duplicate-free input skips its body (`stream::Cursor::build`) |
//! | `exec.admission.wait` | admission wait loop (`core::admission`) |
//! | `exec.replay.statement` | WAL replay loop (`core::server`) |

use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use perm_types::{PermError, Result};

/// The failure a site injects when it triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Write only the first `K` bytes of the buffer, then report an error.
    ShortWrite(usize),
    /// Write the first `K` bytes plus one bit-flipped byte, then report an
    /// error — a prefix that *looks* present but fails its checksum.
    TornWrite(usize),
    /// Skip the fsync and report that it failed.
    SyncFail,
    /// Fail the read without touching the underlying file.
    ReadErr,
    /// Fail the whole operation before any side effect.
    IoErr,
    /// Sleep the given number of milliseconds, then proceed normally —
    /// a stalled worker or a slow disk, for exercising cancellation and
    /// timeout paths.
    Stall(u64),
    /// Panic at the site. Only meaningful at executor sites that sit
    /// under the worker-pool containment boundary.
    Panic,
    /// Inject a typed `ResourceExhausted` — a denied allocation.
    Deny,
    /// Inject a typed `Execution` error describing a torn-down channel.
    Disconnect,
}

#[derive(Debug, Clone)]
struct Entry {
    action: FailAction,
    /// First 1-based hit that triggers.
    from_hit: u64,
    /// Whether hits after `from_hit` keep triggering.
    persistent: bool,
    hits: u64,
    fired: u64,
}

/// Number of configured entries; lets `hit()` return without locking when
/// no failpoints are installed (the common case).
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<HashMap<String, Entry>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Replace the installed failpoints with `spec` (see module docs for the
/// grammar). An empty spec clears everything. Hit counters start at zero.
pub fn configure(spec: &str) -> Result<()> {
    let mut map = HashMap::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, rest) = part.split_once('=').ok_or_else(|| {
            PermError::Execution(format!("failpoint spec `{part}`: expected site=action"))
        })?;
        let (action_str, hit_str) = match rest.split_once('@') {
            Some((a, h)) => (a.trim(), Some(h.trim())),
            None => (rest.trim(), None),
        };
        let action = parse_action(action_str)
            .ok_or_else(|| PermError::Execution(format!("failpoint spec: bad action `{rest}`")))?;
        let (from_hit, persistent) = match hit_str {
            None => (1, true),
            Some(h) => {
                let (n, plus) = match h.strip_suffix('+') {
                    Some(n) => (n, true),
                    None => (h, false),
                };
                let n: u64 = n.parse().map_err(|_| {
                    PermError::Execution(format!("failpoint spec: bad hit count `{h}`"))
                })?;
                if n == 0 {
                    return Err(PermError::Execution(
                        "failpoint spec: hit counts are 1-based".into(),
                    ));
                }
                (n, plus)
            }
        };
        map.insert(
            site.trim().to_string(),
            Entry {
                action,
                from_hit,
                persistent,
                hits: 0,
                fired: 0,
            },
        );
    }
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    ACTIVE.store(map.len(), Ordering::Relaxed);
    *reg = map;
    Ok(())
}

fn parse_action(s: &str) -> Option<FailAction> {
    if let Some(k) = s.strip_prefix("short_write(") {
        return k
            .strip_suffix(')')?
            .trim()
            .parse()
            .ok()
            .map(FailAction::ShortWrite);
    }
    if let Some(k) = s.strip_prefix("torn_write(") {
        return k
            .strip_suffix(')')?
            .trim()
            .parse()
            .ok()
            .map(FailAction::TornWrite);
    }
    if let Some(ms) = s.strip_prefix("stall(") {
        return ms
            .strip_suffix(')')?
            .trim()
            .parse()
            .ok()
            .map(FailAction::Stall);
    }
    match s {
        "sync_fail" => Some(FailAction::SyncFail),
        "read_err" => Some(FailAction::ReadErr),
        "io_err" => Some(FailAction::IoErr),
        "panic" => Some(FailAction::Panic),
        "deny" => Some(FailAction::Deny),
        "disconnect" => Some(FailAction::Disconnect),
        _ => None,
    }
}

/// Remove every installed failpoint.
pub fn clear() {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    ACTIVE.store(0, Ordering::Relaxed);
    reg.clear();
}

/// Install failpoints from the `PERM_FAILPOINTS` environment variable if
/// it is set; otherwise leave the registry untouched.
pub fn configure_from_env() -> Result<()> {
    match std::env::var("PERM_FAILPOINTS") {
        Ok(spec) => configure(&spec),
        Err(_) => Ok(()),
    }
}

/// Record a hit on `site` and return the action to inject, if any.
pub fn hit(site: &str) -> Option<FailAction> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let entry = reg.get_mut(site)?;
    entry.hits += 1;
    let trigger = if entry.persistent {
        entry.hits >= entry.from_hit
    } else {
        entry.hits == entry.from_hit
    };
    if trigger {
        entry.fired += 1;
        Some(entry.action)
    } else {
        None
    }
}

/// How many times `site` has actually injected its action since the last
/// [`configure`]. Lets tests assert a scenario exercised the site.
pub fn fired_count(site: &str) -> u64 {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.get(site).map_or(0, |e| e.fired)
}

/// Executor-side failpoint: stalls, panics, or returns a typed error
/// according to the configured action. Unlike the I/O wrappers there is
/// no real operation to perform — an unconfigured site is a no-op.
///
/// `Stall` sleeps and then proceeds; `Panic` panics (the worker pool's
/// containment boundary turns it into a typed error for one query);
/// `Deny` surfaces as `ResourceExhausted`, `Disconnect` and the I/O
/// actions as `Execution` errors.
pub fn exec_point(site: &str, operator: &str) -> Result<()> {
    match hit(site) {
        None => Ok(()),
        Some(FailAction::Stall(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(FailAction::Panic) => panic!("failpoint {site}: injected panic"),
        Some(FailAction::Deny) => Err(PermError::ResourceExhausted {
            operator: format!("{operator} (injected denial at {site})"),
            requested: 0,
            budget: 0,
        }),
        Some(FailAction::Disconnect) => Err(PermError::Execution(format!(
            "{operator}: channel disconnected (injected at {site})"
        ))),
        Some(_) => Err(PermError::Execution(format!(
            "{operator}: injected failure at {site}"
        ))),
    }
}

fn injected(operator: &str, path: &Path, what: &str) -> PermError {
    PermError::Io {
        operator: operator.to_string(),
        path: path.display().to_string(),
        detail: format!("injected {what} (failpoint)"),
    }
}

fn real(operator: &str, path: &Path, e: std::io::Error) -> PermError {
    PermError::Io {
        operator: operator.to_string(),
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// `write_all` through the failpoint at `site`.
pub fn write_all(
    site: &str,
    out: &mut impl Write,
    buf: &[u8],
    operator: &str,
    path: &Path,
) -> Result<()> {
    match hit(site) {
        Some(FailAction::ShortWrite(k)) => {
            let k = k.min(buf.len());
            out.write_all(&buf[..k])
                .map_err(|e| real(operator, path, e))?;
            Err(injected(operator, path, "short write"))
        }
        Some(FailAction::TornWrite(k)) => {
            let k = k.min(buf.len());
            out.write_all(&buf[..k])
                .map_err(|e| real(operator, path, e))?;
            if k < buf.len() {
                out.write_all(&[!buf[k]])
                    .map_err(|e| real(operator, path, e))?;
            }
            Err(injected(operator, path, "torn write"))
        }
        Some(_) => Err(injected(operator, path, "write error")),
        None => out.write_all(buf).map_err(|e| real(operator, path, e)),
    }
}

/// `File::sync_all` through the failpoint at `site`.
pub fn sync(site: &str, file: &File, operator: &str, path: &Path) -> Result<()> {
    match hit(site) {
        Some(_) => Err(injected(operator, path, "fsync failure")),
        None => file.sync_all().map_err(|e| real(operator, path, e)),
    }
}

/// `read_exact` through the failpoint at `site`.
pub fn read_exact(
    site: &str,
    input: &mut impl Read,
    buf: &mut [u8],
    operator: &str,
    path: &Path,
) -> Result<()> {
    match hit(site) {
        Some(_) => Err(injected(operator, path, "read error")),
        None => input.read_exact(buf).map_err(|e| real(operator, path, e)),
    }
}

/// `fs::read` (whole file) through the failpoint at `site`.
pub fn read_file(site: &str, path: &Path, operator: &str) -> Result<Vec<u8>> {
    match hit(site) {
        Some(_) => Err(injected(operator, path, "read error")),
        None => std::fs::read(path).map_err(|e| real(operator, path, e)),
    }
}

/// `fs::rename` through the failpoint at `site`.
pub fn rename(site: &str, from: &Path, to: &Path, operator: &str) -> Result<()> {
    match hit(site) {
        Some(_) => Err(injected(operator, from, "rename failure")),
        None => std::fs::rename(from, to).map_err(|e| real(operator, from, e)),
    }
}

/// `File::set_len` through the failpoint at `site`.
pub fn set_len(site: &str, file: &File, len: u64, operator: &str, path: &Path) -> Result<()> {
    match hit(site) {
        Some(_) => Err(injected(operator, path, "truncate failure")),
        None => file.set_len(len).map_err(|e| real(operator, path, e)),
    }
}

/// Failpoint state is process-global; tests (in any crate) that install
/// failpoints take this lock first so they cannot observe each other's
/// configuration. Not a `cfg(test)` item: downstream crates' test
/// binaries need it too.
pub fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::test_guard as guard;

    #[test]
    fn unconfigured_sites_never_fire() {
        let _g = guard();
        clear();
        assert_eq!(hit("wal.append.write"), None);
        let mut buf = Vec::new();
        write_all("wal.append.write", &mut buf, b"abc", "t", Path::new("x")).unwrap();
        assert_eq!(buf, b"abc");
    }

    #[test]
    fn hit_specs_once_and_persistent() {
        let _g = guard();
        configure("a=io_err@2;b=sync_fail@2+;c=read_err").unwrap();
        assert_eq!(hit("a"), None);
        assert_eq!(hit("a"), Some(FailAction::IoErr));
        assert_eq!(hit("a"), None, "@2 fires exactly once");
        assert_eq!(hit("b"), None);
        assert_eq!(hit("b"), Some(FailAction::SyncFail));
        assert_eq!(hit("b"), Some(FailAction::SyncFail), "@2+ keeps firing");
        assert_eq!(hit("c"), Some(FailAction::ReadErr), "default is every hit");
        assert_eq!(fired_count("b"), 2);
        clear();
    }

    #[test]
    fn short_and_torn_writes_leave_prefixes() {
        let _g = guard();
        configure("s=short_write(2);t=torn_write(2)").unwrap();
        let mut buf = Vec::new();
        let err = write_all("s", &mut buf, b"abcdef", "op", Path::new("f")).unwrap_err();
        assert_eq!(err.kind(), "io");
        assert_eq!(buf, b"ab");

        let mut buf = Vec::new();
        let err = write_all("t", &mut buf, b"abcdef", "op", Path::new("f")).unwrap_err();
        assert_eq!(err.kind(), "io");
        assert_eq!(buf.len(), 3);
        assert_eq!(&buf[..2], b"ab");
        assert_eq!(buf[2], !b'c', "torn write flips the next byte");
        clear();
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _g = guard();
        clear();
        assert!(configure("nonsense").is_err());
        assert!(configure("a=explode").is_err());
        assert!(configure("a=io_err@0").is_err());
        assert!(configure("a=io_err@x").is_err());
        assert!(configure("a=short_write(").is_err());
        assert!(configure("a=stall(").is_err());
        // A failed configure leaves nothing installed.
        assert_eq!(hit("a"), None);
        clear();
    }

    #[test]
    fn exec_point_actions_surface_typed() {
        let _g = guard();
        configure("d=deny;x=disconnect;s=stall(1);e=io_err").unwrap();
        let err = exec_point("d", "HashJoin build").unwrap_err();
        assert_eq!(err.kind(), "resource");
        let err = exec_point("x", "exchange").unwrap_err();
        assert_eq!(err.kind(), "execution");
        assert!(err.to_string().contains("disconnected"), "{err}");
        exec_point("s", "worker").unwrap();
        let err = exec_point("e", "kernel").unwrap_err();
        assert_eq!(err.kind(), "execution");
        assert!(exec_point("unconfigured", "op").is_ok());
        clear();
    }

    #[test]
    fn exec_point_panic_action_panics() {
        let _g = guard();
        configure("p=panic").unwrap();
        let r = std::panic::catch_unwind(|| exec_point("p", "worker"));
        clear();
        let payload = r.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected panic"), "{msg}");
    }
}
