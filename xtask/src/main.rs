//! In-tree source tooling:
//!
//! * `cargo run -p xtask -- lint [root]` — static source lints;
//! * `cargo run -p xtask -- loc [root]` — non-test and test line counts
//!   per crate, split by the same test-code classifier the lint uses.
//!
//! The lint is a set of line-oriented checks over `crates/**/*.rs` that encode the engine's
//! concurrency and hot-path discipline (the rules a reviewer would
//! otherwise enforce by hand):
//!
//! 1. **No `.unwrap()`** in non-test code of executor/operator hot-path
//!    files — a panic inside the per-row loop takes the whole worker pool
//!    down; hot paths must return `Result` or justify with `.expect`.
//! 2. **`.expect(` in hot-path files needs an `// INVARIANT:` comment**
//!    (same or preceding line) stating why the failure is impossible.
//! 3. **No thread spawns outside `parallel.rs`** — every worker thread
//!    must go through the morsel pool so shutdown and panic propagation
//!    stay centralized.
//! 4. **No `Rc` in Send-exposed crates** (`types`, `storage`, `exec`,
//!    `core`) — their types cross threads; a stray `Rc` makes a struct
//!    silently `!Send` far from where it is embedded.
//! 5. **Every `unsafe` needs a `// SAFETY:` comment** on the same or the
//!    directly preceding line.
//! 6. **`#[allow(dead_code)]` needs a justification comment** on the same
//!    or the directly preceding line.
//! 7. **No temp-file creation outside the spill module** — every scratch
//!    file must go through `perm_storage::spill` so spill files share one
//!    naming scheme, are tracked by the memory accounting, and are
//!    deleted on drop; a stray `temp_dir()` elsewhere leaks files the
//!    governor cannot see.
//! 8. **No file creation in `perm-storage` outside spill/wal/durable** —
//!    the storage crate owns exactly three kinds of files (spill
//!    partitions, the write-ahead log, checkpoint snapshots); a
//!    `File::create` anywhere else would dodge both the durability
//!    protocol and the spill accounting.
//! 9. **No raw file I/O in the durability modules** — every write, sync,
//!    rename and truncate in `wal.rs`/`durable.rs` must go through the
//!    `perm_fault::` wrappers so each durability write site carries a
//!    named failpoint and stays covered by the crash-recovery matrix.
//! 10. **No per-row `Vec`/`Arc` allocation inside kernel hot loops** —
//!     the whole point of the batch kernels (`kernels.rs`) is to amortize
//!     allocation to batch granularity; a `Vec::new`/`Arc::new`/
//!     `.collect()` inside a lane loop silently reverts a kernel to
//!     row-at-a-time cost. Deliberate batch-granularity buffers are
//!     annotated `// batch-alloc:` and deliberate per-lane allocations
//!     (e.g. building the output strings of a text kernel)
//!     `// per-lane alloc:`, on the same or the preceding line.
//! 11. **Every loop in the cancellation-checked files must contain a
//!     cooperative cancellation check** (`check_cancelled` or `.check()`)
//!     or justify its absence with a `// no-cancel:` comment on the same
//!     or the preceding line of the loop header. The files are the ones
//!     whose loops can run long — the morsel pool, the chunk cursor
//!     (`stream.rs`), and the operator build/probe/spill paths — where a
//!     missed check turns "cancel" into "hang until the query finishes".
//!     A check inside a nested loop satisfies the enclosing loops (the
//!     inner body is on the outer loop's path), but an outer check never
//!     satisfies an inner loop.
//! 12. **`Executor::new(` in `perm-exec` only inside `executor.rs`** —
//!     worker threads get their executor from the one constructor
//!     (`Executor::worker_factory`), which decides once what a worker
//!     inherits from its parent (catalog snapshot, lifecycle context,
//!     columnar switch). A hand-built sub-executor elsewhere silently
//!     drops whichever of those it forgets — a worker that never sees
//!     the cancel token, or runs the row interpreter under a columnar
//!     parent.
//! 13. **`PhysicalPlanner::new(` only in `physical.rs` and
//!     `session.rs`** — one lowering site per crate: `perm-exec`'s own
//!     `plan_physical`, and the session, which lowers every statement
//!     (its sublink bodies included) under the session's options. An
//!     executor that lowered plans itself would run sublink bodies under
//!     a second copy of the planner settings and cache them outside the
//!     statement.
//! 14. **Tree connectors (`├── `, `└── `) only in
//!     `crates/algebra/src/printer.rs`** — one walker draws every plan
//!     tree, logical and physical, with its sublink sections; a second
//!     renderer would drift from it (it once dropped sublink bodies).
//!     Read with string literals kept, comments removed.
//! 15. **`HashKey::One(` / `HashKey::Many(` only in
//!     `crates/exec/src/operators/key.rs`** — one hash key: every
//!     equality-keyed operator (hash join build, probe and Grace scatter,
//!     index probe, aggregation) takes its keys from that module's
//!     `KeyPlan`, which applies each column's match rule (`=` admits no
//!     NULL or NaN, grouping equality admits both). A key built or taken
//!     apart elsewhere is a second copy of that rule; three such copies
//!     once matched NaN keys that `=` rejects.
//!
//! Test code (files under a `tests` directory, `*/tests.rs`, and
//! `#[cfg(test)]` modules, tracked by brace depth) is exempt from rules
//! 1–3 and 12–15: tests may unwrap, spawn, build executors, planners and
//! hash keys and pin drawn trees freely.
//!
//! Deliberately `std`-only and line-based: the handful of false-positive
//! shapes a real parser would handle (braces in string literals are
//! already accounted for) do not occur in this tree, and the lint must
//! build from a cold cache in seconds.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files whose per-row loops are the engine's hot path (rules 1–2).
/// `crates/storage/src/` is included: spill partitions and the WAL sit
/// on the same per-row and per-commit paths as the operators.
const HOT_PATHS: &[&str] = &[
    "crates/exec/src/executor.rs",
    "crates/exec/src/eval.rs",
    "crates/exec/src/compile.rs",
    "crates/exec/src/kernels.rs",
    "crates/exec/src/operators/",
    "crates/storage/src/",
];

/// Files whose loops are vectorized kernel loops (rule 10): allocation
/// inside a loop body needs a `batch-alloc:`/`per-lane alloc:`
/// justification.
const KERNEL_LOOP_FILES: &[&str] = &[
    "crates/exec/src/kernels.rs",
    "crates/exec/src/operators/join.rs",
    "crates/exec/src/operators/aggregate.rs",
];

/// Allocation shapes rule 10 bans inside kernel loops. Line-based like
/// the other rules: each pattern is an allocator call, not a type name.
const KERNEL_LOOP_ALLOCS: &[&str] = &[
    "Vec::new(",
    "vec![",
    "with_capacity(",
    "Arc::new(",
    ".to_vec(",
    ".collect(",
    "RowBlock::new(",
];

/// The only modules allowed to start worker threads (rule 3).
const SPAWN_ALLOWED: &[&str] = &["crates/exec/src/parallel.rs"];

/// Crates whose types are exposed across threads (rule 4).
const SEND_EXPOSED: &[&str] = &[
    "crates/types/",
    "crates/storage/",
    "crates/exec/",
    "crates/core/",
];

/// The only module allowed to create temp files (rule 7): the spill
/// module.
const TEMP_FILES_ALLOWED: &[&str] = &["crates/storage/src/spill.rs"];

/// The only storage modules allowed to create files (rule 8): spill
/// partitions, the write-ahead log, and checkpoint snapshots.
const STORAGE_FILE_CREATION_ALLOWED: &[&str] = &[
    "crates/storage/src/spill.rs",
    "crates/storage/src/wal.rs",
    "crates/storage/src/durable.rs",
];

/// Durability modules whose file I/O must go through the `perm_fault::`
/// wrappers (rule 9), so every write site has a named failpoint.
const FAILPOINT_WRAPPED: &[&str] = &["crates/storage/src/wal.rs", "crates/storage/src/durable.rs"];

/// Files whose loops must carry a cooperative cancellation check
/// (rule 11): the morsel pool, the chunk cursor, and every
/// operator body and driver (scan/filter/project, sort, build/probe,
/// spill).
const CANCEL_CHECK_FILES: &[&str] = &[
    "crates/exec/src/parallel.rs",
    "crates/exec/src/stream.rs",
    "crates/exec/src/operators/",
];

/// Where rule 12 applies (`perm-exec`'s sources) and the one file in it
/// allowed to construct an `Executor` directly.
const EXECUTOR_CTOR_CHECKED: &str = "crates/exec/src/";
const EXECUTOR_CTOR_ALLOWED: &str = "crates/exec/src/executor.rs";

/// The files allowed to construct a `PhysicalPlanner` (rule 13).
const PLANNER_CTOR_ALLOWED: &[&str] =
    &["crates/exec/src/physical.rs", "crates/core/src/session.rs"];

/// The one file allowed to draw tree connectors (rule 14), and the
/// connectors.
const TREE_DRAWING_ALLOWED: &str = "crates/algebra/src/printer.rs";
const TREE_CONNECTORS: &[&str] = &["├── ", "└── "];

/// The one file allowed to build or take apart a hash key (rule 15), and
/// the key's constructors.
const HASH_KEY_ALLOWED: &str = "crates/exec/src/operators/key.rs";
const HASH_KEY_CTORS: &[&str] = &["HashKey::One(", "HashKey::Many("];

/// Calls that count as a cooperative cancellation check (rule 11):
/// `Executor::check_cancelled` and `QueryContext::check`.
const CANCEL_CHECKS: &[&str] = &["check_cancelled", ".check()"];

/// Raw I/O calls that rule 9 bans in the durability modules. The
/// leading `.` (or `fs::` path) distinguishes a raw method call from
/// the sanctioned `perm_fault::write_all(...)`-style wrappers.
const RAW_DURABLE_IO: &[&str] = &[
    ".write_all(",
    ".sync_all(",
    ".sync_data(",
    "fs::rename(",
    ".set_len(",
];

struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(args.get(1).map(String::as_str)),
        Some("loc") => loc(args.get(1).map(String::as_str)),
        Some(other) => {
            eprintln!("unknown task '{other}'; available tasks: lint [root], loc [root]");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- <lint|loc> [root]");
            ExitCode::FAILURE
        }
    }
}

fn lint(root: Option<&str>) -> ExitCode {
    let root = root.map(PathBuf::from).unwrap_or_else(workspace_root);
    let crates = root.join("crates");
    let mut files = Vec::new();
    collect_rs_files(&crates, &mut files);
    files.sort();
    if files.is_empty() {
        eprintln!("xtask lint: no .rs files under {}", crates.display());
        return ExitCode::FAILURE;
    }
    let mut findings = Vec::new();
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask lint: cannot read {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        lint_file(&rel, &source, &mut findings);
    }
    if findings.is_empty() {
        println!("xtask lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("xtask lint: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Print non-test and test line counts (physical lines, blank and
/// comment lines included) per crate under `crates/`, then for the root
/// package (`src/`, `tests/`, `examples/`) and `xtask/`.
fn loc(root: Option<&str>) -> ExitCode {
    let root = root.map(PathBuf::from).unwrap_or_else(workspace_root);
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        eprintln!("xtask loc: no crates directory under {}", root.display());
        return ExitCode::FAILURE;
    };
    let mut crates: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    let mut rows = Vec::new();
    for dir in &crates {
        let name = format!(
            "crates/{}",
            dir.file_name().unwrap_or_default().to_string_lossy()
        );
        rows.push((name, count_lines(&root, std::slice::from_ref(dir))));
    }
    let sum = |rows: &[(String, (usize, usize))]| {
        rows.iter()
            .fold((0, 0), |(n, t), (_, (rn, rt))| (n + rn, t + rt))
    };
    let crates_total = sum(&rows);
    let root_package = ["src", "tests", "examples"].map(|d| root.join(d));
    let extra = [
        (
            "perm (src, tests, examples)".to_string(),
            count_lines(&root, &root_package),
        ),
        (
            "xtask".to_string(),
            count_lines(&root, &[root.join("xtask")]),
        ),
    ];
    println!("{:<30} {:>9} {:>9}", "crate", "non-test", "test");
    for (name, (code, test)) in &rows {
        println!("{name:<30} {code:>9} {test:>9}");
    }
    println!(
        "{:<30} {:>9} {:>9}",
        "crates/ total", crates_total.0, crates_total.1
    );
    for (name, (code, test)) in &extra {
        println!("{name:<30} {code:>9} {test:>9}");
    }
    let all = (
        crates_total.0 + extra.iter().map(|(_, (c, _))| c).sum::<usize>(),
        crates_total.1 + extra.iter().map(|(_, (_, t))| t).sum::<usize>(),
    );
    println!("{:<30} {:>9} {:>9}", "all", all.0, all.1);
    ExitCode::SUCCESS
}

/// Non-test and test lines of every `.rs` file under `dirs`.
fn count_lines(root: &Path, dirs: &[PathBuf]) -> (usize, usize) {
    let mut files = Vec::new();
    for dir in dirs {
        collect_rs_files(dir, &mut files);
    }
    let mut total = (0, 0);
    for file in files {
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let (code, test) = split_lines(&rel, &source);
        total = (total.0 + code, total.1 + test);
    }
    total
}

/// `(non-test, test)` line counts of one file: a test file is all test
/// code, anything else is split at its `#[cfg(test)]` items.
fn split_lines(rel: &str, source: &str) -> (usize, usize) {
    if is_test_file(rel) {
        return (0, source.lines().count());
    }
    let mut scope = TestScope::default();
    let mut counts = (0, 0);
    for raw in source.lines() {
        let code = strip_comments(raw, true);
        if scope.enter(&code) {
            counts.1 += 1;
        } else {
            counts.0 += 1;
        }
        scope.leave(&code);
    }
    counts
}

/// The workspace root: this file is compiled in-tree, so the manifest dir
/// of the `xtask` package is `<root>/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A whole file that only contains test code (integration tests, in-tree
/// `tests.rs` modules): exempt from the hot-path and spawn rules.
fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/") || rel.ends_with("/tests.rs")
}

/// Line-by-line `#[cfg(test)]` tracking by brace depth: once the
/// attribute's item opens a brace, everything until the matching close
/// is test code. Feed each line (comments and strings stripped) to
/// [`TestScope::enter`], then to [`TestScope::leave`].
#[derive(Default)]
struct TestScope {
    /// Brace depth at the start of the current line.
    depth: i32,
    cfg_test_pending: bool,
    test_mod_depth: Option<i32>,
}

impl TestScope {
    /// Start a line; true when it is inside a `#[cfg(test)]` item.
    fn enter(&mut self, code: &str) -> bool {
        // A single-line test module (`mod t { ... }`) is already test
        // code on its own line.
        if code.contains("#[cfg(test)]") {
            self.cfg_test_pending = true;
        }
        if self.cfg_test_pending && code.contains('{') {
            if self.test_mod_depth.is_none() {
                self.test_mod_depth = Some(self.depth);
            }
            self.cfg_test_pending = false;
        } else if self.cfg_test_pending && code.trim_end().ends_with(';') {
            // `#[cfg(test)]` on a braceless item (use, macro call).
            self.cfg_test_pending = false;
        }
        self.test_mod_depth.is_some()
    }

    /// Finish the line: apply its braces to the depth.
    fn leave(&mut self, code: &str) {
        self.depth += code.matches('{').count() as i32 - code.matches('}').count() as i32;
        if self.test_mod_depth.is_some_and(|d| self.depth <= d) {
            self.test_mod_depth = None;
        }
    }
}

fn matches_any(rel: &str, prefixes: &[&str]) -> bool {
    prefixes
        .iter()
        .any(|p| rel == *p || (p.ends_with('/') && rel.starts_with(p)) || rel.starts_with(p))
}

fn lint_file(rel: &str, source: &str, findings: &mut Vec<Finding>) {
    let test_file = is_test_file(rel);
    let hot = matches_any(rel, HOT_PATHS);
    let spawn_ok = matches_any(rel, SPAWN_ALLOWED);
    let send_exposed = matches_any(rel, SEND_EXPOSED);
    let temp_files_ok = matches_any(rel, TEMP_FILES_ALLOWED);
    let storage_file_creation_checked =
        rel.starts_with("crates/storage/src/") && !matches_any(rel, STORAGE_FILE_CREATION_ALLOWED);
    let failpoint_wrapped = matches_any(rel, FAILPOINT_WRAPPED);
    let kernel_loops_checked = matches_any(rel, KERNEL_LOOP_FILES);
    let cancel_checked = !test_file && matches_any(rel, CANCEL_CHECK_FILES);
    let executor_ctor_checked =
        !test_file && rel.starts_with(EXECUTOR_CTOR_CHECKED) && rel != EXECUTOR_CTOR_ALLOWED;
    let planner_ctor_checked = !test_file && !PLANNER_CTOR_ALLOWED.contains(&rel);

    let lines: Vec<&str> = source.lines().collect();
    let mut scope = TestScope::default();
    // Loop-body tracking for rule 10: the depth at which each active
    // loop body opened. A multi-line loop header (rustfmt-wrapped) sets
    // `loop_pending` until its `{` arrives.
    let mut loop_stack: Vec<i32> = Vec::new();
    let mut loop_pending = false;
    // Rule 11 tracking: each open loop in a cancellation-checked file
    // remembers its header line, the depth its body opened at, and
    // whether a check (or a `no-cancel:` justification on the header)
    // has been seen. Violations are reported at the header line when
    // the loop closes, so they are collected here and appended after
    // the scan.
    struct OpenLoop {
        header: usize,
        depth: i32,
        ok: bool,
    }
    let mut cancel_stack: Vec<OpenLoop> = Vec::new();
    let mut cancel_pending: Option<(usize, bool)> = None;
    let mut cancel_violations: Vec<usize> = Vec::new();

    for (idx, &raw) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = strip_comments(raw, true);

        // `#[cfg(test)]` tracking first, so a single-line test module
        // is already exempt on its own line.
        let in_test = scope.enter(&code) || test_file;
        let depth = scope.depth;
        let opens = code.matches('{').count();

        // Rule 10 looks at whether this line sits inside an already-open
        // loop body, *before* any loop this line itself starts: the
        // iterator expression of a `for` header runs once, not per lane.
        let in_loop_body = !loop_stack.is_empty();
        let starts_loop = (has_word(&code, "for") && code.contains(" in "))
            || has_word(&code, "while")
            || has_word(&code, "loop")
            // The kernels' lane-iteration macro is a loop in disguise.
            || code.contains("for_lanes!");
        if starts_loop {
            loop_pending = true;
            if cancel_checked && !in_test && cancel_pending.is_none() {
                let justified =
                    raw.contains("no-cancel:") || prev_comment_contains(&lines, idx, "no-cancel:");
                cancel_pending = Some((lineno, justified));
            }
        }
        if loop_pending && opens > 0 {
            loop_stack.push(depth);
            loop_pending = false;
            if let Some((header, justified)) = cancel_pending.take() {
                cancel_stack.push(OpenLoop {
                    header,
                    depth,
                    ok: justified,
                });
            }
        } else if loop_pending && code.trim_end().ends_with(';') {
            // Not a loop after all (`break 'outer;`, a `for` in a path).
            loop_pending = false;
            cancel_pending = None;
        }

        // Rule 11: a cancellation check satisfies every loop it is
        // nested in — the innermost body is on all of their paths.
        if cancel_checked && CANCEL_CHECKS.iter().any(|c| code.contains(c)) {
            for l in &mut cancel_stack {
                l.ok = true;
            }
        }

        let mut report = |rule: &'static str, message: String| {
            findings.push(Finding {
                file: PathBuf::from(rel),
                line: lineno,
                rule,
                message,
            });
        };

        // Rule 5: unsafe needs // SAFETY: on the same or preceding line.
        if has_word(&code, "unsafe")
            && !raw.contains("SAFETY:")
            && !prev_comment_contains(&lines, idx, "SAFETY:")
        {
            report(
                "unsafe-safety-comment",
                "`unsafe` without a `// SAFETY:` comment on the same or preceding line".into(),
            );
        }

        // Rule 6: #[allow(dead_code)] needs a justification comment.
        if raw.contains("#[allow(dead_code)]")
            && !raw.contains("//")
            && !prev_comment_exists(&lines, idx)
        {
            report(
                "dead-code-justification",
                "`#[allow(dead_code)]` without a justification comment".into(),
            );
        }

        // Rule 4: no Rc in Send-exposed crates (test code included — a
        // test helper type can leak into cross-thread assertions too, and
        // tests have no use for Rc over Arc here).
        if send_exposed && has_word(&code, "Rc") {
            report(
                "no-rc-in-send-crates",
                "`Rc` in a crate whose types are exposed across threads; use `Arc`".into(),
            );
        }

        if !in_test {
            // Rule 7: temp files only via the spill module (tests may
            // scratch freely — their files do not outlive the run).
            if !temp_files_ok && (has_word(&code, "temp_dir") || code.contains("tempfile")) {
                report(
                    "temp-files-only-in-spill",
                    "temp-file creation outside crates/storage/src/spill.rs; route scratch \
                     files through the spill module so they are tracked and reclaimed"
                        .into(),
                );
            }

            // Rule 8: file creation in perm-storage only through the
            // spill, WAL or checkpoint modules.
            if storage_file_creation_checked
                && (code.contains("File::create(") || code.contains("OpenOptions::new("))
            {
                report(
                    "storage-file-creation-confined",
                    "file creation in perm-storage outside spill.rs/wal.rs/durable.rs; \
                     storage owns only spill, WAL and checkpoint files"
                        .into(),
                );
            }

            // Rule 9: durability modules must use the failpoint wrappers
            // for every write/sync/rename/truncate.
            if failpoint_wrapped {
                for pat in RAW_DURABLE_IO {
                    if code.contains(pat) {
                        report(
                            "durable-io-needs-failpoint",
                            format!(
                                "raw `{pat}..)` in a durability module; use the matching \
                                 `perm_fault::` wrapper so the write site has a named failpoint"
                            ),
                        );
                    }
                }
            }

            // Rule 3: thread spawns only in the sanctioned modules.
            if !spawn_ok && (code.contains("thread::spawn") || code.contains("thread::Builder")) {
                report(
                    "spawn-outside-parallel",
                    "thread spawn outside parallel.rs/stream.rs; route workers through the \
                     morsel pool"
                        .into(),
                );
            }

            // Rule 12: sub-executors come from the one constructor.
            if executor_ctor_checked && code.contains("Executor::new(") {
                report(
                    "executor-ctor-confined",
                    "`Executor::new(` outside executor.rs; build worker executors with \
                     `Executor::worker_factory` so they inherit the parent's context"
                        .into(),
                );
            }

            // Rule 13: one lowering site per crate.
            if planner_ctor_checked && code.contains("PhysicalPlanner::new(") {
                report(
                    "planner-ctor-confined",
                    "`PhysicalPlanner::new(` outside physical.rs/session.rs; lower through \
                     the session's planner (or `plan_physical`) so sublink bodies are lowered \
                     with their statement"
                        .into(),
                );
            }

            // Rule 14: one tree walker. Connectors are string literals,
            // so this rule reads the line with its strings kept.
            let uncommented = strip_comments(raw, false);
            if rel != TREE_DRAWING_ALLOWED
                && TREE_CONNECTORS.iter().any(|c| uncommented.contains(c))
            {
                report(
                    "tree-drawing-confined",
                    "tree connector outside crates/algebra/src/printer.rs; draw plan trees \
                     with `perm_algebra::printer::draw`"
                        .into(),
                );
            }

            // Rule 15: one hash key.
            if rel != HASH_KEY_ALLOWED && HASH_KEY_CTORS.iter().any(|c| code.contains(c)) {
                report(
                    "hash-key-confined",
                    "hash key built or matched outside crates/exec/src/operators/key.rs; take \
                     keys from its `KeyPlan` so every operator applies one match rule"
                        .into(),
                );
            }

            // Rule 10: no per-row allocation inside kernel loops
            // without a batch-alloc / per-lane alloc justification.
            if kernel_loops_checked
                && in_loop_body
                && !raw.contains("batch-alloc:")
                && !raw.contains("per-lane alloc:")
                && !prev_comment_contains(&lines, idx, "batch-alloc:")
                && !prev_comment_contains(&lines, idx, "per-lane alloc:")
            {
                for pat in KERNEL_LOOP_ALLOCS {
                    if code.contains(pat) {
                        report(
                            "no-alloc-in-kernel-loops",
                            format!(
                                "`{pat}..)` inside a kernel loop; hoist the allocation to \
                                 batch granularity, or justify with `// batch-alloc:` or \
                                 `// per-lane alloc:`"
                            ),
                        );
                    }
                }
            }

            if hot {
                // Rule 1: no unwrap on the hot path.
                if code.contains(".unwrap()") {
                    report(
                        "no-unwrap-in-hot-path",
                        "`.unwrap()` in an executor/operator hot path; return a Result or \
                         justify with `.expect` + `// INVARIANT:`"
                            .into(),
                    );
                }
                // Rule 2: expect needs an INVARIANT comment.
                if code.contains(".expect(")
                    && !raw.contains("INVARIANT:")
                    && !prev_comment_contains(&lines, idx, "INVARIANT:")
                {
                    report(
                        "expect-needs-invariant",
                        "`.expect(` in a hot path without an `// INVARIANT:` comment stating \
                         why it cannot fail"
                            .into(),
                    );
                }
            }
        }

        scope.leave(&code);
        let depth = scope.depth;
        while loop_stack.last().is_some_and(|&d| depth <= d) {
            loop_stack.pop();
        }
        while cancel_stack.last().is_some_and(|l| depth <= l.depth) {
            // INVARIANT-free pop: the is_some_and guard above proves
            // the stack is non-empty.
            if let Some(l) = cancel_stack.pop() {
                if !l.ok {
                    cancel_violations.push(l.header);
                }
            }
        }
    }

    cancel_violations.sort_unstable();
    for header in cancel_violations {
        findings.push(Finding {
            file: PathBuf::from(rel),
            line: header,
            rule: "loop-needs-cancel-check",
            message: "loop on a cancellation-checked path without a cooperative check \
                      (`check_cancelled` / `.check()`); add one, or justify a bounded \
                      loop with `// no-cancel:` on or above the header"
                .into(),
        });
    }
}

/// True when `word` occurs in `code` as a standalone identifier.
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let end = at + word.len();
        let left_ok = at == 0 || !is_ident_char(bytes[at - 1]);
        let right_ok = end >= bytes.len() || !is_ident_char(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does any line in the contiguous comment block directly above `idx`
/// contain `needle`?
fn prev_comment_contains(lines: &[&str], idx: usize, needle: &str) -> bool {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].trim_start();
        if t.starts_with("//") {
            if t.contains(needle) {
                return true;
            }
        } else if t.starts_with("#[") || t.is_empty() {
            // Attributes may sit between the comment and the item.
            continue;
        } else {
            return false;
        }
    }
    false
}

/// Is the line directly above `idx` (skipping attributes) a comment?
fn prev_comment_exists(lines: &[&str], idx: usize) -> bool {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].trim_start();
        if t.starts_with("//") {
            return true;
        }
        if t.starts_with("#[") {
            continue;
        }
        return false;
    }
    false
}

/// Blank out line comments, char literals and, with `blank_strings`,
/// string literals, so that pattern matches and brace counts only see code.
/// (Block comments are not used in this tree; `//` handling covers doc
/// comments too.)
fn strip_comments(line: &str, blank_strings: bool) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            match c {
                '\\' if !blank_strings => {
                    out.push(c);
                    out.extend(chars.next());
                }
                '\\' => {
                    chars.next();
                    out.push(' ');
                }
                '"' => {
                    in_string = false;
                    out.push('"');
                }
                _ if !blank_strings => out.push(c),
                _ => out.push(' '),
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push('"');
            }
            '\'' => {
                // Char literal (or lifetime — lifetimes have no closing
                // quote within 3 chars and pass through unchanged).
                let mut lookahead = chars.clone();
                let a = lookahead.next();
                let b = lookahead.next();
                let c2 = lookahead.next();
                let is_char_lit = matches!((a, b), (Some('\\'), _) if c2 == Some('\''))
                    || matches!((a, b), (Some(_), Some('\'')));
                if is_char_lit {
                    out.push('\'');
                    if a == Some('\\') {
                        chars.next();
                        chars.next();
                        chars.next();
                        out.push_str("  '");
                    } else {
                        chars.next();
                        chars.next();
                        out.push_str(" '");
                    }
                } else {
                    out.push('\'');
                }
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<String> {
        let mut findings = Vec::new();
        lint_file(rel, src, &mut findings);
        findings.iter().map(|f| f.rule.to_string()).collect()
    }

    #[test]
    fn unwrap_in_hot_path_is_flagged() {
        let rules = run(
            "crates/exec/src/eval.rs",
            "fn f() { let x = g().unwrap(); }\n",
        );
        assert_eq!(rules, ["no-unwrap-in-hot-path"]);
    }

    #[test]
    fn unwrap_outside_hot_path_is_fine() {
        assert!(run("crates/sql/src/lexer.rs", "fn f() { g().unwrap(); }\n").is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_module_is_fine() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n  fn t() { g().unwrap(); }\n}\n";
        assert!(run("crates/exec/src/eval.rs", src).is_empty());
    }

    #[test]
    fn code_after_test_module_is_linted_again() {
        let src =
            "#[cfg(test)]\nmod tests {\n  fn t() { g().unwrap(); }\n}\nfn f() { g().unwrap(); }\n";
        assert_eq!(
            run("crates/exec/src/eval.rs", src),
            ["no-unwrap-in-hot-path"]
        );
    }

    #[test]
    fn expect_requires_invariant_comment() {
        let bad = "fn f() { g().expect(\"boom\"); }\n";
        assert_eq!(
            run("crates/exec/src/operators/join.rs", bad),
            ["expect-needs-invariant"]
        );
        let good = "// INVARIANT: g is Some, checked above.\nfn f() { g().expect(\"boom\"); }\n";
        assert!(run("crates/exec/src/operators/join.rs", good).is_empty());
        let inline = "fn f() { g().expect(\"boom\"); } // INVARIANT: checked above\n";
        assert!(run("crates/exec/src/operators/join.rs", inline).is_empty());
    }

    #[test]
    fn spawn_only_in_parallel_and_stream() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            run("crates/exec/src/executor.rs", src),
            ["spawn-outside-parallel"]
        );
        assert!(run("crates/exec/src/parallel.rs", src).is_empty());
        assert_eq!(
            run("crates/exec/src/stream.rs", src),
            ["spawn-outside-parallel"]
        );
        let builder = "fn f() { thread::Builder::new(); }\n";
        assert_eq!(
            run("crates/core/src/server.rs", builder),
            ["spawn-outside-parallel"]
        );
    }

    #[test]
    fn rc_flagged_only_in_send_exposed_crates() {
        let src = "use std::rc::Rc;\nfn f() -> Rc<u32> { Rc::new(1) }\n";
        let rules = run("crates/exec/src/executor.rs", src);
        assert!(rules.iter().all(|r| r == "no-rc-in-send-crates"));
        assert_eq!(rules.len(), 2);
        assert!(run("crates/sql/src/parser.rs", src).is_empty());
        // Arc must not trip the word match.
        assert!(run("crates/exec/src/executor.rs", "use std::sync::Arc;\n").is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { g() } }\n";
        assert_eq!(
            run("crates/types/src/tuple.rs", bad),
            ["unsafe-safety-comment"]
        );
        let good = "// SAFETY: bounds checked by the caller.\nfn f() { unsafe { g() } }\n";
        assert!(run("crates/types/src/tuple.rs", good).is_empty());
        // `forbid(unsafe_code)` is not the `unsafe` keyword.
        assert!(run("crates/sql/src/lib.rs", "#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn dead_code_allow_requires_comment() {
        let bad = "#[allow(dead_code)]\nfn f() {}\n";
        assert_eq!(
            run("crates/sql/src/lexer.rs", bad),
            ["dead-code-justification"]
        );
        let good = "/// Kept for the recursive-descent symmetry.\n#[allow(dead_code)]\nfn f() {}\n";
        assert!(run("crates/sql/src/lexer.rs", good).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "fn f() { let s = \".unwrap()\"; } // .unwrap() in comment\n";
        assert!(run("crates/exec/src/eval.rs", src).is_empty());
        let braces =
            "fn f() { let s = \"{{{\"; }\n#[cfg(test)]\nmod tests { fn t() { g().unwrap(); } }\n";
        assert!(run("crates/exec/src/eval.rs", braces).is_empty());
    }

    #[test]
    fn temp_files_only_in_the_spill_module() {
        let src = "fn f() { let p = std::env::temp_dir().join(\"x\"); }\n";
        assert_eq!(
            run("crates/exec/src/operators/sort.rs", src),
            ["temp-files-only-in-spill"]
        );
        assert!(run("crates/storage/src/spill.rs", src).is_empty());
        // Tests may create scratch files freely.
        assert!(run("crates/core/tests/spill_roundtrip.rs", src).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(run("crates/exec/src/operators/sort.rs", &in_test_mod).is_empty());
    }

    #[test]
    fn storage_file_creation_is_confined() {
        let src = "fn f() { let _ = std::fs::File::create(\"x\"); }\n";
        assert_eq!(
            run("crates/storage/src/catalog.rs", src),
            ["storage-file-creation-confined"]
        );
        let opts = "fn f() { let _ = OpenOptions::new().append(true); }\n";
        assert_eq!(
            run("crates/storage/src/table.rs", opts),
            ["storage-file-creation-confined"]
        );
        // The three sanctioned modules may create their own files.
        assert!(run("crates/storage/src/spill.rs", src).is_empty());
        assert!(run("crates/storage/src/wal.rs", opts).is_empty());
        assert!(run("crates/storage/src/durable.rs", src).is_empty());
        // Other crates are out of scope for rule 8.
        assert!(run("crates/core/src/server.rs", src).is_empty());
        // Tests may scratch freely.
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(run("crates/storage/src/catalog.rs", &in_test_mod).is_empty());
    }

    #[test]
    fn durability_io_must_use_failpoint_wrappers() {
        let raw = "fn f(file: &mut File) { file.write_all(b\"x\"); file.sync_all(); }\n";
        let rules = run("crates/storage/src/wal.rs", raw);
        assert_eq!(
            rules,
            ["durable-io-needs-failpoint", "durable-io-needs-failpoint"]
        );
        let rename = "fn f() { std::fs::rename(\"a\", \"b\"); }\n";
        assert_eq!(
            run("crates/storage/src/durable.rs", rename),
            ["durable-io-needs-failpoint"]
        );
        // The failpoint wrappers themselves are the sanctioned call shape.
        let wrapped = "fn f(file: &mut File) { perm_fault::write_all(\"wal.append.write\", \
                       file, b\"x\", \"wal\", path) }\n";
        assert!(run("crates/storage/src/wal.rs", wrapped).is_empty());
        // perm-fault holds the raw calls by design; spill.rs has its
        // own error mapping — neither is in scope for rule 9.
        assert!(run("crates/fault/src/lib.rs", raw).is_empty());
        assert!(run("crates/storage/src/spill.rs", raw).is_empty());
    }

    #[test]
    fn kernel_loop_allocation_is_flagged() {
        let bad = "fn f() {\n  for i in 0..n {\n    let v = Vec::new();\n  }\n}\n";
        assert_eq!(
            run("crates/exec/src/kernels.rs", bad),
            ["no-alloc-in-kernel-loops"]
        );
        // The same shape is fine outside the kernel file.
        assert!(run("crates/exec/src/eval.rs", bad).is_empty());
        // Allocation before the loop is batch-granularity by construction.
        let hoisted =
            "fn f() {\n  let mut v = vec![0i64; n];\n  for i in 0..n {\n    v[i] = 1;\n  }\n}\n";
        assert!(run("crates/exec/src/kernels.rs", hoisted).is_empty());
        // The `for` header's iterator expression runs once, not per lane.
        let header = "fn f() {\n  for i in make_idx().to_vec() {\n    g(i);\n  }\n}\n";
        assert!(run("crates/exec/src/kernels.rs", header).is_empty());
        // The kernels' lane macro counts as a loop.
        let lanes = "fn f() {\n  for_lanes!(&sel, i => {\n    let v = x.to_vec();\n  });\n}\n";
        assert_eq!(
            run("crates/exec/src/kernels.rs", lanes),
            ["no-alloc-in-kernel-loops"]
        );
    }

    #[test]
    fn aggregate_loops_are_kernel_loops() {
        // The witness loop gathers each output row; a row built per
        // iteration needs its justification there too.
        let bad = "fn finish() {\n  // no-cancel: bounded.\n  for &i in members {\n    out.push(row.iter().collect());\n  }\n}\n";
        assert_eq!(
            run("crates/exec/src/operators/aggregate.rs", bad),
            ["no-alloc-in-kernel-loops"]
        );
        let block = "fn finish() {\n  // no-cancel: bounded.\n  for g in groups {\n    let b = RowBlock::new(1, w);\n  }\n}\n";
        assert_eq!(
            run("crates/exec/src/operators/aggregate.rs", block),
            ["no-alloc-in-kernel-loops"]
        );
        let justified = "fn finish() {\n  // no-cancel: bounded.\n  for &i in members {\n    // per-lane alloc: one row.\n    out.push(row.iter().collect());\n  }\n}\n";
        assert!(run("crates/exec/src/operators/aggregate.rs", justified).is_empty());
    }

    #[test]
    fn kernel_loop_allocation_allows_justified_sites() {
        let same_line = "fn f() {\n  while go() {\n    let s = x.to_vec(); // per-lane alloc: result row\n  }\n}\n";
        assert!(run("crates/exec/src/kernels.rs", same_line).is_empty());
        let prev_line = "fn f() {\n  loop {\n    // batch-alloc: selection buffer reused across lanes.\n    let s: Vec<u32> = Vec::with_capacity(n);\n    break;\n  }\n}\n";
        assert!(run("crates/exec/src/kernels.rs", prev_line).is_empty());
    }

    #[test]
    fn kernel_loop_tracking_handles_nesting_and_exits() {
        // After the loop closes, allocation is legal again.
        let after = "fn f() {\n  for i in 0..n {\n    g(i);\n  }\n  let v = Vec::new();\n}\n";
        assert!(run("crates/exec/src/kernels.rs", after).is_empty());
        // A nested loop's body is still inside the outer loop.
        let nested = "fn f() {\n  for i in 0..n {\n    for j in 0..m {\n      let v = vec![j];\n    }\n  }\n}\n";
        assert_eq!(
            run("crates/exec/src/kernels.rs", nested),
            ["no-alloc-in-kernel-loops"]
        );
        // Test code may allocate freely.
        let in_test_mod =
            "#[cfg(test)]\nmod tests {\n  fn t() {\n    for i in 0..3 {\n      let v = Vec::new();\n    }\n  }\n}\n";
        assert!(run("crates/exec/src/kernels.rs", in_test_mod).is_empty());
    }

    #[test]
    fn loops_on_cancel_paths_need_a_check() {
        let bad = "fn f() {\n  while go() {\n    step();\n  }\n}\n";
        assert_eq!(
            run("crates/exec/src/operators/join.rs", bad),
            ["loop-needs-cancel-check"]
        );
        // The same shape is fine outside the cancellation-checked files.
        assert!(run("crates/exec/src/executor.rs", bad).is_empty());
        let checked =
            "fn f() {\n  while go() {\n    exec.check_cancelled()?;\n    step();\n  }\n}\n";
        assert!(run("crates/exec/src/operators/join.rs", checked).is_empty());
        let ctx_checked = "fn f() {\n  loop {\n    ctx.check()?;\n    step();\n  }\n}\n";
        assert!(run("crates/exec/src/parallel.rs", ctx_checked).is_empty());
    }

    #[test]
    fn cancel_rule_accepts_no_cancel_justifications() {
        let inline = "fn f() {\n  for x in xs { g(x); } // no-cancel: bounded by the batch\n}\n";
        assert!(run("crates/exec/src/operators/aggregate.rs", inline).is_empty());
        let prev = "fn f() {\n  // no-cancel: bounded by the partition count.\n  for x in xs {\n    g(x);\n  }\n}\n";
        assert!(run("crates/exec/src/operators/spill.rs", prev).is_empty());
        // The justification covers its own loop, not a sibling.
        let sibling = "fn f() {\n  // no-cancel: bounded.\n  for x in xs { g(x); }\n  for y in ys {\n    g(y);\n  }\n}\n";
        assert_eq!(
            run("crates/exec/src/operators/setop.rs", sibling),
            ["loop-needs-cancel-check"]
        );
    }

    #[test]
    fn inner_checks_satisfy_outer_loops_but_not_vice_versa() {
        // A check in the inner loop is on the outer loop's path.
        let inner =
            "fn f() {\n  for x in xs {\n    for y in ys {\n      ctx.check()?;\n    }\n  }\n}\n";
        assert!(run("crates/exec/src/operators/join.rs", inner).is_empty());
        // An outer check never bounds the inner loop's latency.
        let outer = "fn f() {\n  for x in xs {\n    ctx.check()?;\n    for y in ys {\n      g(y);\n    }\n  }\n}\n";
        assert_eq!(
            run("crates/exec/src/operators/join.rs", outer),
            ["loop-needs-cancel-check"]
        );
        // Test code may loop freely.
        let in_test_mod = "#[cfg(test)]\nmod tests {\n  fn t() {\n    for i in 0..3 {\n      g(i);\n    }\n  }\n}\n";
        assert!(run("crates/exec/src/operators/join.rs", in_test_mod).is_empty());
    }

    #[test]
    fn executors_are_constructed_only_in_executor_rs() {
        let src = "fn f(c: Arc<Catalog>) { let sub = Executor::new(c).with_context(ctx); }\n";
        for file in ["parallel.rs", "stream.rs", "operators/join.rs"] {
            assert_eq!(
                run(&format!("crates/exec/src/{file}"), src),
                ["executor-ctor-confined"]
            );
        }
        assert!(run("crates/exec/src/executor.rs", src).is_empty());
        // Other crates embed the executor; tests build them freely.
        assert!(run("crates/core/src/session.rs", src).is_empty());
        assert!(run("crates/exec/src/tests.rs", src).is_empty());
        assert!(run("crates/exec/tests/equivalence_props.rs", src).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(run("crates/exec/src/operators/spill.rs", &in_test_mod).is_empty());
    }

    #[test]
    fn planners_are_constructed_only_in_physical_rs_and_session_rs() {
        let src = "fn f(c: &Catalog) -> PhysicalPlan { PhysicalPlanner::new(c).plan(p) }\n";
        for file in [
            "crates/exec/src/executor.rs",
            "crates/exec/src/stream.rs",
            "crates/core/src/write.rs",
            "crates/core/src/prepared.rs",
        ] {
            assert_eq!(run(file, src), ["planner-ctor-confined"], "{file}");
        }
        assert!(run("crates/exec/src/physical.rs", src).is_empty());
        assert!(run("crates/core/src/session.rs", src).is_empty());
        // Tests lower freely.
        assert!(run("crates/exec/src/tests.rs", src).is_empty());
        assert!(run("crates/exec/tests/equivalence_props.rs", src).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(run("crates/exec/src/executor.rs", &in_test_mod).is_empty());
    }

    #[test]
    fn trees_are_drawn_only_in_printer_rs() {
        let src = "fn f(out: &mut String) { out.push_str(\"└── \"); }\n";
        for file in [
            "crates/exec/src/physical.rs",
            "crates/core/src/pipeline.rs",
            "crates/algebra/src/deparse.rs",
        ] {
            assert_eq!(run(file, src), ["tree-drawing-confined"], "{file}");
        }
        let branch = "fn f() -> &'static str { \"├── \" }\n";
        assert_eq!(
            run("crates/core/src/browser.rs", branch),
            ["tree-drawing-confined"]
        );
        assert!(run("crates/algebra/src/printer.rs", src).is_empty());
        // Comments may show trees; tests pin them.
        let doc = "/// Project\n/// └── Scan(t)\nfn f() {} // └── x\n";
        assert!(run("crates/exec/src/physical.rs", doc).is_empty());
        assert!(run("crates/exec/src/tests.rs", src).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(run("crates/exec/src/planner.rs", &in_test_mod).is_empty());
    }

    #[test]
    fn hash_keys_are_built_only_in_key_rs() {
        let one = "fn f(v: Value) -> HashKey { HashKey::One(v) }\n";
        let many = "fn f(k: HashKey) { if let HashKey::Many(t) = k { g(t) } }\n";
        for file in [
            "crates/exec/src/operators/join.rs",
            "crates/exec/src/operators/aggregate.rs",
            "crates/exec/src/executor.rs",
        ] {
            assert_eq!(run(file, one), ["hash-key-confined"], "{file}");
            assert_eq!(run(file, many), ["hash-key-confined"], "{file}");
        }
        assert!(run("crates/exec/src/operators/key.rs", one).is_empty());
        assert!(run("crates/exec/src/operators/key.rs", many).is_empty());
        // Comments may name them; tests build them freely.
        let doc = "/// A `HashKey::One(v)` allocates nothing.\nfn f() {}\n";
        assert!(run("crates/exec/src/operators/join.rs", doc).is_empty());
        assert!(run("crates/exec/src/operators/tests.rs", one).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{one}}}\n");
        assert!(run("crates/exec/src/operators/join.rs", &in_test_mod).is_empty());
    }

    #[test]
    fn storage_is_a_hot_path() {
        let src = "fn f() { g().unwrap(); }\n";
        assert_eq!(
            run("crates/storage/src/table.rs", src),
            ["no-unwrap-in-hot-path"]
        );
    }

    #[test]
    fn loc_splits_test_code_like_the_lint() {
        let src = "use std::fmt;\n\
                   \n\
                   // A comment: still a line.\n\
                   fn f() -> &'static str {\n\
                   \x20   \"#[cfg(test)] { in a string\"\n\
                   }\n\
                   #[cfg(test)]\n\
                   use std::sync::Arc;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   #[test]\n\
                   \x20   fn t() {}\n\
                   }\n\
                   fn after_tests() {}\n";
        // The `mod tests { .. }` block is test code; everything else —
        // the attribute lines, the `#[cfg(test)]` use, a brace inside a
        // string — is not.
        assert_eq!(split_lines("crates/exec/src/lib.rs", src), (10, 4));
        // Integration tests and `tests.rs` modules are all test code.
        assert_eq!(split_lines("crates/exec/tests/props.rs", src), (0, 14));
        assert_eq!(split_lines("tests/figures.rs", src), (0, 14));
        assert_eq!(
            split_lines("crates/exec/src/operators/tests.rs", src),
            (0, 14)
        );
    }

    #[test]
    fn whole_tree_lints_clean() {
        // The repository itself must satisfy its own lint rules.
        let root = workspace_root();
        let mut files = Vec::new();
        collect_rs_files(&root.join("crates"), &mut files);
        assert!(!files.is_empty(), "no crate sources found");
        let mut findings = Vec::new();
        for file in &files {
            let source = std::fs::read_to_string(file).unwrap();
            let rel = file
                .strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            lint_file(&rel, &source, &mut findings);
        }
        let report: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert!(report.is_empty(), "lint violations:\n{}", report.join("\n"));
    }
}
