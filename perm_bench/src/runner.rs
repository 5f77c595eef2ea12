//! One benchmark run of one workload: set-up, output checks, warm-up, the
//! timed closed loop, and (for `mixed_rw`) the writer and the reopen check.
//!
//! **Loop.** Closed: the client sends its next statement when the previous
//! one has returned. One client thread; `mixed_rw` adds an open-loop writer
//! thread (see [`WRITES_PER_S`]): two, the cores this host has. A *pass* executes
//! every statement of the workload once, as one-shot SQL text through
//! `Session::query` with default `SessionOptions`, result materialized.
//!
//! End-to-end metrics are taken with tracing off. With `trace`, passes
//! alternate between `Session::query` and the staged, span-recording drive
//! of [`crate::staged`], so both see the same machine state and their
//! ratio is the tracing overhead.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use perm_core::{DurabilityOptions, FsyncPolicy, PermServer, Session, DEFAULT_CHECKPOINT_EVERY};
use perm_storage::WAL_FILE;

use crate::data::{forum_into, ForumData, SplitMix64};
use crate::oracle::{contract_holds, Expect};
use crate::staged::{plan_growth, Stage, StagedDriver};
use crate::stats::{geomean, median, quantile_sorted, sorted};
use crate::workloads::{Kind, Pair, Workload, WRITER_LAG};

/// A run must complete this many passes so that p95 has ten samples
/// beyond it; relaxed to one under `--smoke`.
pub const MIN_PASSES: usize = 200;

/// Ids of rows the `mixed_rw` writer inserts: above every generated id and
/// `≡ 1 (mod 4)`, see [`crate::workloads`].
const WRITER_FIRST_ID: u64 = 1_000_001;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    /// Small scales, short warm-up, sample-count rule relaxed.
    pub smoke: bool,
    /// Where the durable server's directory, spill files and the trace go.
    pub work_dir: PathBuf,
}

/// Per-pair medians inside a workload: locates which pair moved a
/// workload's `qps` or `prov_overhead`.
#[derive(Debug, Clone)]
pub struct PairDetail {
    pub name: &'static str,
    pub q_p50_ms: f64,
    pub prov_p50_ms: f64,
    pub overhead: f64,
}

#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Statements attempted (reader, writer, the output checks before the
    /// window, and the reopen check).
    pub attempted: u64,
    /// Statements that errored, were refused or failed an output check;
    /// also a missed sample-count rule.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    /// Samples behind the percentiles: `Session::query` passes completed in
    /// the timed window.
    pub passes: usize,
    /// End-to-end metrics without `trace`, per-layer metrics with it, in
    /// the order of [`crate::report`]'s tables.
    pub metrics: Vec<(&'static str, f64)>,
    pub pairs: Vec<PairDetail>,
    /// Facts about the run that are not metrics (scale, checkpoints, …).
    pub notes: Vec<(&'static str, String)>,
}

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(message);
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// A loaded system under test. Dropping it closes the durable store.
struct Instance {
    session: Session,
    /// Data directory of a durable server (`mixed_rw`).
    dir: Option<PathBuf>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Generate rows, open the server, load, build indexes: what `setup_s`
/// times. A durable server is checkpointed after the bulk load, which
/// bypasses the statement log.
fn set_up(
    w: &Workload,
    scale: usize,
    seed: u64,
    dir: Option<&Path>,
) -> Result<(ForumData, Instance), String> {
    let data = ForumData::generate(scale, seed);
    let server = match dir {
        Some(dir) => PermServer::open_with(dir, DurabilityOptions::default()),
        None => Ok(PermServer::new()),
    }
    .map_err(|e| format!("opening server: {e}"))?;
    let session = server.session();
    forum_into(&session, &data, w.indexes).map_err(|e| format!("loading: {e}"))?;
    if dir.is_some() {
        server
            .checkpoint()
            .map_err(|e| format!("checkpoint after load: {e}"))?;
    }
    Ok((
        data,
        Instance {
            session,
            dir: dir.map(Path::to_path_buf),
        },
    ))
}

/// Set up repeatedly (at least three times and for half a second, which is
/// thousands of times for the smallest workload) and keep the last
/// instance; `setup_s` is the median, which one slow fsync, page fault or
/// brief slowdown of the host does not move.
fn set_up_repeatedly(cfg: &RunConfig, scale: usize) -> Result<(ForumData, Instance, f64), String> {
    let (min_reps, min_time) = if cfg.smoke {
        (1, Duration::ZERO)
    } else {
        (3, Duration::from_millis(500))
    };
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let dir = (cfg.workload.kind == Kind::MixedRw).then(|| {
            cfg.work_dir
                .join(format!("rw-{}-{}", std::process::id(), times.len()))
        });
        let t = Instant::now();
        let (data, instance) = set_up(cfg.workload, scale, cfg.seed, dir.as_deref())?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= min_reps && began.elapsed() >= min_time {
            return Ok((data, instance, median(&times)));
        }
        drop(instance);
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {dir:?}: {e}"))?;
        }
    }
}

/// One statement of the pass with its oracle count and its samples.
struct Statement<'a> {
    sql: &'a str,
    rows: u64,
    slack: u64,
    /// `Session::query` wall time per timed execution.
    query_ms: Vec<f64>,
    /// Traced drive: the root span, then self time per stage.
    traced_ms: Vec<f64>,
    stage_us: [Vec<f64>; Stage::ALL.len()],
    rows_out: u64,
}

impl Statement<'_> {
    fn check(&self, got: usize) -> Result<(), String> {
        let got = got as u64;
        if (self.rows..=self.rows + self.slack).contains(&got) {
            Ok(())
        } else {
            Err(format!(
                "{} rows, oracle says {}..={}: {}",
                got,
                self.rows,
                self.rows + self.slack,
                self.sql
            ))
        }
    }
}

/// The reading client: runs passes and checks every result's row count.
struct Reader<'a> {
    statements: Vec<Statement<'a>>,
    /// When each timed `Session::query` returned.
    completed: Vec<Instant>,
    tally: Tally,
}

impl<'a> Reader<'a> {
    fn new(pairs: &'a [Pair]) -> Reader<'a> {
        let statement = |sql: &'a str, expect: Expect, slack| Statement {
            sql,
            rows: expect.rows,
            slack,
            query_ms: Vec::new(),
            traced_ms: Vec::new(),
            stage_us: Default::default(),
            rows_out: 0,
        };
        Reader {
            statements: pairs
                .iter()
                .flat_map(|p| {
                    [
                        statement(&p.q, p.expect.q, p.slack),
                        statement(&p.prov, p.expect.prov, p.slack),
                    ]
                })
                .collect(),
            completed: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// One pass through `Session::query`; `keep` is false during warm-up.
    fn pass(&mut self, session: &Session, flip: bool, keep: bool) -> Duration {
        let begin = Instant::now();
        for pair in self.statements.chunks_mut(2) {
            for i in pair_order(flip) {
                let s = &mut pair[i];
                let t = Instant::now();
                let result = session.query(s.sql);
                let done = Instant::now();
                if keep {
                    s.query_ms.push(ms(done - t));
                    self.completed.push(done);
                }
                self.tally.record(match result {
                    Ok(r) => s.check(r.row_count()),
                    Err(e) => Err(format!("{e}: {}", s.sql)),
                });
            }
        }
        begin.elapsed()
    }

    /// One pass through the staged drive, spans recorded.
    fn traced_pass(&mut self, driver: &mut StagedDriver, flip: bool, keep: bool) {
        for pair in self.statements.chunks_mut(2) {
            for i in pair_order(flip) {
                let s = &mut pair[i];
                let t = Instant::now();
                let result = driver.query(s.sql);
                let elapsed = t.elapsed();
                self.tally.record(match result {
                    Ok((r, self_times)) => {
                        if keep {
                            s.traced_ms.push(ms(elapsed));
                            for (samples, d) in s.stage_us.iter_mut().zip(self_times) {
                                samples.push(us(d));
                            }
                            s.rows_out += r.row_count() as u64;
                        }
                        s.check(r.row_count())
                    }
                    Err(e) => Err(format!("{e}: {}", s.sql)),
                });
            }
        }
    }
}

/// Positions of `q` and `q+` within a pair, in execution order. Passes
/// alternate it, so neither side of a pair always pays for what the other
/// then finds cached: under a writer, the first statement after a write
/// recomputes the table statistics.
fn pair_order(flip: bool) -> [usize; 2] {
    if flip {
        [1, 0]
    } else {
        [0, 1]
    }
}

/// Before the window, with no writer running: every `q` and `q+` must
/// match the oracle's row count and checksum, and every pair must satisfy
/// the paper's contract.
fn check_outputs(session: &Session, pairs: &[Pair], tally: &mut Tally) {
    for p in pairs {
        let mut results = Vec::new();
        for (sql, expect) in [(&p.q, p.expect.q), (&p.prov, p.expect.prov)] {
            match session.query(sql) {
                Ok(r) => {
                    let got = Expect::of_result(&r);
                    tally.record(if got == expect {
                        Ok(())
                    } else {
                        Err(format!("got {got:?}, oracle says {expect:?}: {sql}"))
                    });
                    results.push(r);
                }
                Err(e) => tally.record(Err(format!("{e}: {sql}"))),
            }
        }
        if let [q, prov] = &results[..] {
            tally.record(if contract_holds(q, prov) {
                Ok(())
            } else {
                Err(format!(
                    "q+ projected onto q's columns is not distinct q: {}",
                    p.prov
                ))
            });
        }
    }
}

/// Mean rate of write statements. The writer is an open loop: statements
/// fall due at seeded Poisson arrivals (independent users), whatever
/// happened to the statements before them, and a statement's latency counts
/// from when it was due.
///
/// Two simpler writers were measured and rejected. A closed-loop writer
/// holds the catalog write lock back to back, and which client gets the
/// lock next is decided by thread wake-up order: the reader's throughput
/// then varied by 58% between identical runs. An evenly spaced writer
/// phase-locks with the reader's pass, so that in one run `q` and in the
/// next `q+` is the statement that meets the write: `prov_overhead` took
/// two values, 1.2 and 1.9. At 500 statements a second the writer is busy
/// about a quarter of the time (closed loop it reaches ~3000/s) and a 15 s
/// window still sees ~29 checkpoints.
const WRITES_PER_S: f64 = 500.0;

/// One write statement: when it was due and when it was acknowledged.
struct Write {
    due: Instant,
    end: Instant,
}

#[derive(Default)]
struct WriterLog {
    /// Every statement sent; [`measure`] keeps those inside the window.
    writes: Vec<Write>,
    cycles_run: u64,
    acknowledged: u64,
    tally: Tally,
    /// Sum of the positive WAL-size changes seen after each statement:
    /// exact with one writer, and a checkpoint's truncation does not
    /// subtract (traced runs only).
    wal_bytes: u64,
}

/// The writing client. Cycle `k` inserts message `id(k)`, approves it,
/// edits it, then deletes the approval and the message inserted
/// [`WRITER_LAG`] cycles earlier, so both tables keep their size. It stops
/// at a cycle boundary, which makes the final state a function of the
/// number of cycles. A statement that is due in the future is slept for;
/// one that is overdue starts at once, so a writer that cannot keep up
/// degrades to a closed loop and its lateness shows in the latency.
fn writer_loop(
    session: &Session,
    seed: u64,
    n_users: u64,
    wal: Option<&Path>,
    stop: &AtomicBool,
) -> WriterLog {
    let id = |k: u64| WRITER_FIRST_ID + 4 * k;
    let wal_len = || wal.and_then(|p| std::fs::metadata(p).ok()).map(|m| m.len());
    let mut log = WriterLog::default();
    let mut last_len = wal_len();
    let mut arrivals = SplitMix64::new(seed);
    let mut due = Instant::now();
    for k in 0.. {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let mut statements = vec![
            format!(
                "INSERT INTO messages VALUES ({}, 'rw body {k}', {})",
                id(k),
                k % n_users
            ),
            format!(
                "INSERT INTO approved VALUES ({}, {})",
                (k + 1) % n_users,
                id(k)
            ),
            format!(
                "UPDATE messages SET text = 'rw edit {k}' WHERE mid = {}",
                id(k)
            ),
        ];
        if k >= WRITER_LAG {
            let old = id(k - WRITER_LAG);
            statements.push(format!("DELETE FROM approved WHERE mid = {old}"));
            statements.push(format!("DELETE FROM messages WHERE mid = {old}"));
        }
        for sql in &statements {
            // Exponential gap: -ln(U) / rate, U uniform in (0, 1].
            let uniform = ((arrivals.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            due += Duration::from_secs_f64(-uniform.ln() / WRITES_PER_S);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let result = session.execute(sql);
            log.writes.push(Write {
                due,
                end: Instant::now(),
            });
            log.acknowledged += u64::from(result.is_ok());
            log.tally
                .record(result.map(|_| ()).map_err(|e| format!("{e}: {sql}")));
            if let (Some(before), Some(now)) = (last_len, wal_len()) {
                log.wal_bytes += now.saturating_sub(before);
                last_len = Some(now);
            }
        }
        log.cycles_run += 1;
    }
    log
}

/// Drop every handle, reopen the directory and check that each
/// acknowledged write is there; then remove the directory. Returns the
/// recovery time in milliseconds.
fn reopen_and_check(instance: Instance, data: &ForumData, cycles: u64) -> Result<f64, String> {
    let dir = instance
        .dir
        .clone()
        .expect("mixed_rw runs on a durable server");
    drop(instance);
    let t = Instant::now();
    let server = PermServer::open(&dir).map_err(|e| format!("reopening {dir:?}: {e}"))?;
    let recovery_ms = ms(t.elapsed());
    if let Some(e) = server.recovery_error() {
        return Err(format!("recovery degraded to read-only: {e}"));
    }
    let session = server.session();
    let live = cycles.min(WRITER_LAG);
    let last = WRITER_FIRST_ID + 4 * cycles.saturating_sub(1);
    let mut checks = vec![
        (
            "SELECT count(*) FROM messages".to_string(),
            (data.messages.len() as u64 + live).to_string(),
        ),
        (
            "SELECT count(*) FROM approved".to_string(),
            (data.approved.len() as u64 + live).to_string(),
        ),
    ];
    if cycles > 0 {
        checks.push((
            "SELECT max(mid) FROM messages".to_string(),
            last.to_string(),
        ));
        checks.push((
            format!("SELECT text FROM messages WHERE mid = {last}"),
            format!("rw edit {}", cycles - 1),
        ));
    }
    for (sql, want) in checks {
        let r = session.query(&sql).map_err(|e| format!("{e}: {sql}"))?;
        let got = r.rows.first().map(|row| row.values()[0].to_string());
        if got.as_deref() != Some(&want) {
            return Err(format!(
                "after reopen {sql} gives {got:?}, acknowledged writes say {want}"
            ));
        }
    }
    drop((session, server));
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {dir:?}: {e}"))?;
    // Spill files are named `perm-spill-*` and land in the work directory,
    // which the command line makes the process's temporary directory.
    let work_dir = dir
        .parent()
        .expect("the data directory is inside the work directory");
    let spilled = std::fs::read_dir(work_dir)
        .map_err(|e| format!("{work_dir:?}: {e}"))?
        .filter_map(|entry| entry.ok())
        .any(|entry| {
            entry
                .file_name()
                .to_string_lossy()
                .starts_with("perm-spill-")
        });
    if dir.exists() || spilled {
        return Err("data or spill directory not clean after the run".into());
    }
    Ok(recovery_ms)
}

/// Everything the timed part of a run produced.
struct Measured<'a> {
    statements: Vec<Statement<'a>>,
    /// Wall time of each `Session::query` pass in the window.
    pass_ms: Vec<f64>,
    /// Statements per second through `Session::query`.
    read_qps: f64,
    /// The writer's log, its statements cut down to those that were due and
    /// acknowledged inside the window. Empty on a read-only workload.
    writer: WriterLog,
    spans: String,
    peak_pool_bytes: usize,
    plan_growth: Vec<f64>,
}

/// Warm up, then run passes for the length of the window; on a durable
/// server the writer runs alongside from the start of the warm-up. Both
/// clients' outcomes go into `tally`.
fn measure<'a>(
    cfg: &RunConfig,
    instance: &Instance,
    n_users: u64,
    pairs: &'a [Pair],
    tally: &mut Tally,
) -> Result<Measured<'a>, String> {
    let session = &instance.session;
    let warm_up = Duration::from_secs_f64(if cfg.smoke { 0.05 } else { 2.0 });
    let window = Duration::from_secs_f64(cfg.seconds);
    let stop = AtomicBool::new(false);
    let wal = instance
        .dir
        .as_ref()
        .filter(|_| cfg.trace)
        .map(|d| d.join(WAL_FILE));
    let mut reader = Reader::new(pairs);
    let mut driver = StagedDriver::new(session);
    let mut pass_ms = Vec::new();

    let (began, ended, mut writer) = std::thread::scope(|scope| {
        let writer = instance.dir.is_some().then(|| {
            let (wal, stop) = (wal.as_deref(), &stop);
            scope.spawn(move || writer_loop(session, cfg.seed, n_users, wal, stop))
        });
        // Passes for `length`, alternating the order within the pairs;
        // returns when they began. Warm-up passes are not kept.
        let mut run_for = |length: Duration, keep: bool| {
            let began = Instant::now();
            for n in 0.. {
                if began.elapsed() >= length {
                    break;
                }
                let flip = n % 2 == 1;
                let pass = reader.pass(session, flip, keep);
                if keep {
                    pass_ms.push(ms(pass));
                }
                if cfg.trace {
                    reader.traced_pass(&mut driver, flip, keep);
                }
            }
            began
        };
        run_for(warm_up, false);
        let began = run_for(window, true);
        let ended = Instant::now();
        stop.store(true, Ordering::SeqCst);
        let log = writer.map(|h| h.join().expect("writer thread panicked"));
        (began, ended, log.unwrap_or_default())
    });

    writer.writes.retain(|w| w.due >= began && w.end <= ended);
    tally.absorb(reader.tally);
    tally.absorb(std::mem::take(&mut writer.tally));
    let plan_growth = if cfg.trace {
        pairs
            .iter()
            .map(|p| plan_growth(session, &p.q, &p.prov).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };
    Ok(Measured {
        statements: reader.statements,
        pass_ms,
        read_qps: sliced_rate(&reader.completed, began, window),
        writer,
        spans: driver.spans_json(),
        peak_pool_bytes: session.server().memory_pool().peak(),
        plan_growth,
    })
}

/// The window is cut into this many equal slices for [`sliced_rate`].
const SLICES: usize = 20;

/// Events per second as the median over the window's slices: a slowdown
/// of the host that lasts a second moves two slices, not the result.
/// Events after the nominal end of the window (the last pass finishes
/// late) are not counted.
fn sliced_rate(events: &[Instant], began: Instant, window: Duration) -> f64 {
    let slice = window / SLICES as u32;
    let mut counts = [0.0; SLICES];
    for t in events {
        let i = (t.duration_since(began).as_nanos() / slice.as_nanos().max(1)) as usize;
        if let Some(count) = counts.get_mut(i) {
            *count += 1.0;
        }
    }
    median(&counts) / slice.as_secs_f64()
}

/// Acknowledged write statements per second over the span the window's
/// writes cover.
fn write_tps(writes: &[Write]) -> f64 {
    match (writes.first(), writes.last()) {
        (Some(first), Some(last)) if last.end > first.due => {
            writes.len() as f64 / (last.end - first.due).as_secs_f64()
        }
        _ => 0.0,
    }
}

fn end_to_end_metrics(
    m: &Measured,
    setup_s: f64,
    overheads: &[f64],
) -> (usize, Vec<(&'static str, f64)>) {
    let samples = sorted(m.pass_ms.clone());
    (
        samples.len(),
        vec![
            ("qps", m.read_qps),
            ("pass_p50_ms", quantile_sorted(&samples, 0.5)),
            ("prov_overhead", geomean(overheads)),
            ("setup_s", setup_s),
        ],
    )
}

/// Layer metrics from the traced passes. A stage's `_us` number is the
/// mean over the workload's statements of the *median* of its self time: a
/// robust location. Shares and `staged_vs_query` are taken over *total*
/// time instead, because totals add up to the statement and medians of a
/// skewed wait (the catalog lock under a writer) do not.
fn per_layer_metrics(m: &Measured, recovery_ms: f64) -> (usize, Vec<(&'static str, f64)>) {
    let statements = &m.statements;
    let n = statements.len() as f64;
    // Sum over the statements of the median self time of `stage`.
    let stage_sum = |stage: Stage| -> f64 {
        let medians = statements
            .iter()
            .map(|s| median(&s.stage_us[stage as usize]));
        medians.sum()
    };
    // Total self time of the stages `keep` selects, over every traced
    // execution. Traced and untraced passes alternate one to one, so
    // totals of the two kinds compare directly.
    let stage_total = |keep: fn(Stage) -> bool| -> f64 {
        let samples = statements
            .iter()
            .flat_map(|s| Stage::ALL.iter().zip(&s.stage_us));
        samples
            .filter(|(stage, _)| keep(**stage))
            .map(|(_, v)| v.iter().sum::<f64>())
            .sum()
    };
    let staged_us = stage_total(|s| s != Stage::Statement);
    let front_us = stage_total(Stage::is_front_end);
    let execute_us = stage_total(|s| s == Stage::Execute);
    let query_us: f64 = statements.iter().flat_map(|s| &s.query_ms).sum::<f64>() * 1e3;
    let traced_us: f64 = statements.iter().flat_map(|s| &s.traced_ms).sum::<f64>() * 1e3;
    let query_p50_us: f64 = statements.iter().map(|s| median(&s.query_ms) * 1e3).sum();
    let staged_p50_us: f64 = Stage::ALL[1..].iter().map(|s| stage_sum(*s)).sum();
    let rows_out: u64 = statements.iter().map(|s| s.rows_out).sum();
    // Open loop: a write's latency counts from when it was due.
    let writer = &m.writer;
    let write_us = sorted(writer.writes.iter().map(|w| us(w.end - w.due)).collect());
    (
        statements.first().map_or(0, |s| s.traced_ms.len()),
        vec![
            ("sql.parse_us", stage_sum(Stage::Parse) / n),
            ("core.snapshot_us", stage_sum(Stage::Snapshot) / n),
            ("algebra.bind_us", stage_sum(Stage::Bind) / n),
            ("rewrite.rewrite_us", stage_sum(Stage::Rewrite) / n),
            ("rewrite.plan_growth", geomean(&m.plan_growth)),
            ("exec.optimize_us", stage_sum(Stage::Optimize) / n),
            ("exec.plan_physical_us", stage_sum(Stage::PlanPhysical) / n),
            ("exec.execute_us", stage_sum(Stage::Execute) / n),
            ("exec.rows_out_per_s", rows_out as f64 / (execute_us / 1e6)),
            ("exec.peak_pool_bytes", m.peak_pool_bytes as f64),
            ("core.glue_us", (query_p50_us - staged_p50_us) / n),
            ("frontend_share", front_us / staged_us),
            ("staged_vs_query", staged_us / query_us),
            ("trace_overhead", traced_us / query_us),
            (
                "pass_p95_ms",
                quantile_sorted(&sorted(m.pass_ms.clone()), 0.95),
            ),
            ("storage.write_tps", write_tps(&writer.writes)),
            ("storage.write_stmt_p50_us", quantile_sorted(&write_us, 0.5)),
            (
                "storage.write_stmt_p99_us",
                quantile_sorted(&write_us, 0.99),
            ),
            (
                "storage.wal_bytes_per_stmt",
                writer.wal_bytes as f64 / writer.acknowledged.max(1) as f64,
            ),
            (
                "storage.checkpoints",
                (writer.acknowledged / DEFAULT_CHECKPOINT_EVERY) as f64,
            ),
            ("storage.recovery_ms", recovery_ms),
        ],
    )
}

/// Run `cfg.workload` once.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let w = cfg.workload;
    let scale = if cfg.smoke { w.smoke_scale } else { w.scale };
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| format!("{:?}: {e}", cfg.work_dir))?;
    let (data, instance, setup_s) = set_up_repeatedly(cfg, scale)?;
    let pairs = (w.pairs)(&data);
    let mut tally = Tally::default();
    check_outputs(&instance.session, &pairs, &mut tally);

    let m = measure(cfg, &instance, data.users.len() as u64, &pairs, &mut tally)?;

    let mut recovery_ms = 0.0;
    if instance.dir.is_some() {
        let reopened = reopen_and_check(instance, &data, m.writer.cycles_run);
        recovery_ms = *reopened.as_ref().unwrap_or(&0.0);
        tally.record(reopened.map(|_| ()));
    }

    let pair_details: Vec<PairDetail> = pairs
        .iter()
        .zip(m.statements.chunks(2))
        .map(|(p, s)| {
            let (q, prov) = (median(&s[0].query_ms), median(&s[1].query_ms));
            PairDetail {
                name: p.name,
                q_p50_ms: q,
                prov_p50_ms: prov,
                overhead: prov / q,
            }
        })
        .collect();
    let overheads: Vec<f64> = pair_details.iter().map(|p| p.overhead).collect();

    let (passes, metrics) = if cfg.trace {
        let path = cfg.work_dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, &m.spans).map_err(|e| format!("{path:?}: {e}"))?;
        per_layer_metrics(&m, recovery_ms)
    } else {
        end_to_end_metrics(&m, setup_s, &overheads)
    };
    let min_passes = if cfg.smoke { 1 } else { MIN_PASSES };
    if !cfg.trace && passes < min_passes {
        tally.record(Err(format!(
            "{passes} samples in the window, the percentiles need {min_passes}"
        )));
    }

    let mut notes = vec![
        ("scale", scale.to_string()),
        ("rows_loaded", data.total_rows().to_string()),
        ("statements_per_pass", m.statements.len().to_string()),
    ];
    if w.kind == Kind::MixedRw {
        let acknowledged = m.writer.acknowledged;
        notes.push(("fsync", format!("{:?}", FsyncPolicy::Always).to_lowercase()));
        notes.push(("checkpoint_every", DEFAULT_CHECKPOINT_EVERY.to_string()));
        notes.push(("writes_acknowledged", acknowledged.to_string()));
        notes.push((
            "checkpoints",
            (acknowledged / DEFAULT_CHECKPOINT_EVERY).to_string(),
        ));
        notes.push(("write_tps", format!("{:.1}", write_tps(&m.writer.writes))));
        notes.push(("recovery_ms", format!("{recovery_ms:.3}")));
    }
    Ok(RunReport {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        passes,
        metrics,
        pairs: pair_details,
        notes,
    })
}
