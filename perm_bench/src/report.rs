//! Metric definitions, the result line, the suite report and `compare`.
//!
//! The tables below are the source of `BENCHMARK.json`'s `end_to_end` and
//! `per_layer` lists (a test keeps the two equal). Bounds were set from
//! measured run-to-run spreads, see the README.

use std::fmt::Write as _;

use crate::json::Json;
use crate::runner::RunReport;
use crate::stats::{median, relative_spread};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn metric(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// What a user of `Session::query` sees, each with the share of the
/// parent's median by which it may worsen before a change is a regression.
pub const END_TO_END: [(Metric, f64); 4] = [
    // Statements completed per second: the median over twenty equal
    // slices of the timed window.
    (metric("qps", "1/s", Better::Higher), 0.25),
    // Median wall time of one pass.
    (metric("pass_p50_ms", "ms", Better::Lower), 0.25),
    // The paper's metric: geometric mean over the workload's pairs of
    // median(q+ latency) / median(q latency).
    (metric("prov_overhead", "ratio", Better::Lower), 0.15),
    // Generate rows, open the server, load, build indexes; median of
    // several set-ups.
    (metric("setup_s", "s", Better::Lower), 0.25),
];

/// Single layers, from the traced run; reported, not gated.
pub const PER_LAYER: [Metric; 21] = [
    metric("sql.parse_us", "us", Better::Lower),
    metric("core.snapshot_us", "us", Better::Lower),
    metric("algebra.bind_us", "us", Better::Lower),
    metric("rewrite.rewrite_us", "us", Better::Lower),
    metric("rewrite.plan_growth", "ratio", Better::Lower),
    metric("exec.optimize_us", "us", Better::Lower),
    metric("exec.plan_physical_us", "us", Better::Lower),
    metric("exec.execute_us", "us", Better::Lower),
    metric("exec.rows_out_per_s", "1/s", Better::Higher),
    metric("exec.peak_pool_bytes", "bytes", Better::Lower),
    metric("core.glue_us", "us", Better::Lower),
    metric("frontend_share", "ratio", Better::Lower),
    metric("staged_vs_query", "ratio", Better::Lower),
    metric("trace_overhead", "ratio", Better::Lower),
    // 95th percentile of the wall time of a `Session::query` pass. It did
    // not repeat within any admissible bound (13-18% between identical
    // runs of the quietest workload), so it is a diagnostic, not gated.
    metric("pass_p95_ms", "ms", Better::Lower),
    metric("storage.write_tps", "1/s", Better::Higher),
    metric("storage.write_stmt_p50_us", "us", Better::Lower),
    metric("storage.write_stmt_p99_us", "us", Better::Lower),
    metric("storage.wal_bytes_per_stmt", "bytes", Better::Lower),
    metric("storage.checkpoints", "count", Better::Higher),
    metric("storage.recovery_ms", "ms", Better::Lower),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// `value` with five significant digits, for tables: metrics range from
/// tens of microseconds of set-up to millions of rows per second.
fn significant(value: f64) -> String {
    let magnitude = if value == 0.0 {
        0
    } else {
        value.abs().log10().floor() as i32
    };
    format!("{value:.*}", (4 - magnitude).clamp(0, 12) as usize)
}

/// The one JSON object a single-workload run prints last on stdout.
pub fn result_line(report: &RunReport) -> String {
    Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|(name, value)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })),
        ),
    ])
    .to_line()
}

/// Every metric by name with its unit, the sample count next to the
/// percentiles, per-pair medians and the run's notes, for the operator.
pub fn render(workload: &str, report: &RunReport) -> String {
    let mut out = format!("== {workload}\n");
    for (name, value) in &report.metrics {
        let samples = if name.starts_with("pass_p") {
            format!("  (n={})", report.passes)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {name:<28} {:>14} {}{samples}",
            significant(*value),
            unit_of(name)
        );
    }
    for p in &report.pairs {
        let _ = writeln!(
            out,
            "  query.{:<14} p50 {:>9.4} ms   q+ p50 {:>9.4} ms   overhead {:>6.3}",
            p.name, p.q_p50_ms, p.prov_p50_ms, p.overhead
        );
    }
    for (key, value) in &report.notes {
        let _ = writeln!(out, "  {key}: {value}");
    }
    let _ = writeln!(
        out,
        "  fail_ratio {}/{} = {}",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for f in &report.failures {
        let _ = writeln!(out, "  FAILED: {f}");
    }
    out
}

/// Facts about the host and the run that qualify every number.
#[derive(Debug, Clone)]
pub struct SuiteHeader {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub host_parallelism: usize,
    /// Degree of parallelism default `SessionOptions` resolve to here.
    pub effective_dop: usize,
}

/// The `--out` document: one entry per workload, each metric with the
/// values of every repeat (repeat `i` uses seed `seed + i`).
pub fn suite_json(header: &SuiteHeader, runs: &[(&str, Vec<RunReport>)]) -> Json {
    let workloads = runs.iter().map(|(name, reports)| {
        let total = |f: fn(&RunReport) -> u64| Json::Num(reports.iter().map(f).sum::<u64>() as f64);
        let names = reports.first().map_or(&[][..], |r| &r.metrics[..]);
        let metrics = names.iter().enumerate().map(|(i, (metric, _))| {
            let mut fields = vec![("unit", Json::str(unit_of(metric)))];
            if let Some((m, bound)) = END_TO_END.iter().find(|(m, _)| m.name == *metric) {
                fields.push(("better", Json::str(m.better.as_str())));
                fields.push(("bound", Json::Num(*bound)));
            }
            let values = reports.iter().map(|r| Json::Num(r.metrics[i].1)).collect();
            fields.push(("values", Json::Arr(values)));
            (*metric, Json::obj(fields))
        });
        let last = reports.last();
        let queries = last.into_iter().flat_map(|r| &r.pairs).map(|p| {
            (
                p.name,
                Json::obj([
                    ("p50_ms", Json::Num(p.q_p50_ms)),
                    ("prov_p50_ms", Json::Num(p.prov_p50_ms)),
                    ("overhead", Json::Num(p.overhead)),
                ]),
            )
        });
        let notes = last
            .into_iter()
            .flat_map(|r| &r.notes)
            .map(|(k, v)| (*k, Json::str(v.clone())));
        (
            *name,
            Json::obj([
                ("attempted", total(|r| r.attempted)),
                ("failed", total(|r| r.failed)),
                (
                    "samples",
                    Json::Arr(reports.iter().map(|r| Json::Num(r.passes as f64)).collect()),
                ),
                ("metrics", Json::obj(metrics)),
                ("queries", Json::obj(queries)),
                ("notes", Json::obj(notes)),
            ]),
        )
    });
    Json::obj([
        ("benchmark", Json::str("perm_bench")),
        ("seed", Json::Num(header.seed as f64)),
        ("seconds", Json::Num(header.seconds)),
        ("trace", Json::Bool(header.trace)),
        ("smoke", Json::Bool(header.smoke)),
        (
            "host_parallelism",
            Json::Num(header.host_parallelism as f64),
        ),
        ("effective_dop", Json::Num(header.effective_dop as f64)),
        ("workloads", Json::obj(workloads)),
    ])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: not "unchanged".
    Unresolved,
}

#[derive(Debug, Clone)]
pub struct Comparison {
    /// One row per workload × end-to-end metric, formatted.
    pub table: String,
    pub regressed: usize,
    pub unresolved: usize,
    /// Workloads whose fail ratio is higher in `b`.
    pub more_failures: Vec<String>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.regressed == 0 && self.more_failures.is_empty()
    }
}

/// `b` is worse than `a` when its median is worse by more than the bound
/// *and* by more than either side's own spread; a spread wider than the
/// bound otherwise leaves the metric unresolved.
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = relative_spread(a).max(relative_spread(b));
    if worse_by > bound && worse_by > spread {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compare two `--out` documents: `a` is the base, `b` the candidate.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let values = |doc: &Json, workload: &str, metric: &str| -> Option<Vec<f64>> {
        doc.get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)?
            .get("values")?
            .as_array()?
            .iter()
            .map(Json::as_f64)
            .collect()
    };
    let fail_ratio = |doc: &Json, workload: &str| -> Option<f64> {
        let w = doc.get("workloads")?.get(workload)?;
        Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
    };
    let mut out = Comparison {
        table: format!(
            "{:<18} {:<14} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict\n",
            "workload", "metric", "a (base)", "b", "b/a", "spread", "bound"
        ),
        regressed: 0,
        unresolved: 0,
        more_failures: Vec::new(),
    };
    let mut rows = 0;
    for w in &WORKLOADS {
        for (m, bound) in &END_TO_END {
            let (Some(va), Some(vb)) = (values(a, w.name, m.name), values(b, w.name, m.name))
            else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            rows += 1;
            let v = verdict(m.better, *bound, &va, &vb);
            match v {
                Verdict::Regressed => out.regressed += 1,
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Ok => {}
            }
            let _ = writeln!(
                out.table,
                "{:<18} {:<14} {:>12} {:>12} {:>8.4} {:>7.4} {:>7.2}  {}",
                w.name,
                m.name,
                significant(median(&va)),
                significant(median(&vb)),
                median(&vb) / median(&va),
                relative_spread(&va).max(relative_spread(&vb)),
                bound,
                format!("{v:?}").to_lowercase()
            );
        }
        if let (Some(fa), Some(fb)) = (fail_ratio(a, w.name), fail_ratio(b, w.name)) {
            if fb > fa {
                out.more_failures
                    .push(format!("{}: fail_ratio {fa} -> {fb}", w.name));
            }
        }
    }
    if rows == 0 {
        return Err("the two files share no workload and end-to-end metric".into());
    }
    Ok(out)
}
