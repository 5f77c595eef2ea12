//! The benchmark's own checks: a `--smoke`-sized run of every workload
//! validated against `BENCHMARK.json`, seed determinism of inputs and
//! oracle, and `compare` on synthetic reports.

use std::path::PathBuf;

use perm_benchmark::data::ForumData;
use perm_benchmark::json::Json;
use perm_benchmark::report::{
    compare, result_line, suite_json, SuiteHeader, Verdict, END_TO_END, PER_LAYER,
};
use perm_benchmark::runner::{run, RunConfig, RunReport};
use perm_benchmark::workloads::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<&str> {
    let items = list.as_array().expect("a list");
    items
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name"))
        .collect()
}

fn header(trace: bool) -> SuiteHeader {
    SuiteHeader {
        seed: 42,
        seconds: 0.2,
        trace,
        smoke: true,
        host_parallelism: 2,
        effective_dop: 2,
    }
}

fn smoke_suite(trace: bool) -> Json {
    let runs: Vec<(&str, Vec<RunReport>)> = WORKLOADS
        .iter()
        .map(|w| {
            let report = run(&RunConfig {
                workload: w,
                seed: 42,
                seconds: 0.2,
                trace,
                smoke: true,
                // One directory per run: tests run on parallel threads.
                work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                    .join(format!("smoke-{}-{trace}", w.name)),
            })
            .unwrap_or_else(|e| panic!("{} does not run: {e}", w.name));
            assert_eq!(report.failures, Vec::<String>::new(), "{}", w.name);
            (w.name, vec![report])
        })
        .collect();
    let line = Json::parse(&result_line(&runs[0].1[0])).expect("the result line is JSON");
    let keys: Vec<&str> = line
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    // Through text, as `compare` and later tooling read it.
    Json::parse(&suite_json(&header(trace), &runs).to_pretty()).expect("the report is JSON")
}

/// Every workload and metric `BENCHMARK.json` names is in the report, with
/// its unit, and nothing failed.
fn assert_covers(doc: &Json, benchmark: &Json, metrics_key: &str) {
    assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(42.0));
    assert!(doc.get("host_parallelism").and_then(Json::as_f64) >= Some(1.0));
    for workload in names(benchmark.get("workloads").unwrap()) {
        let w = doc
            .get("workloads")
            .and_then(|ws| ws.get(workload))
            .unwrap_or_else(|| panic!("{workload} missing from the report"));
        assert_eq!(
            w.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert!(w.get("attempted").and_then(Json::as_f64) >= Some(1.0));
        for m in benchmark.get(metrics_key).unwrap().as_array().unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let got = w
                .get("metrics")
                .and_then(|ms| ms.get(name))
                .unwrap_or_else(|| panic!("{workload} reports no {name}"));
            assert_eq!(got.get("unit"), m.get("unit"), "{workload} {name}");
            let values = got.get("values").and_then(Json::as_array).unwrap();
            assert!(
                values[0].as_f64().is_some_and(f64::is_finite),
                "{workload} {name}"
            );
        }
    }
}

#[test]
fn smoke_run_reports_every_end_to_end_metric() {
    assert_covers(&smoke_suite(false), &benchmark_json(), "end_to_end");
}

#[test]
fn smoke_traced_run_reports_every_layer_metric_and_writes_spans() {
    assert_covers(&smoke_suite(true), &benchmark_json(), "per_layer");
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("smoke-interactive_small-true/trace-interactive_small.json");
    let spans = Json::parse(&std::fs::read_to_string(trace).expect("trace written")).unwrap();
    let spans = spans.as_array().unwrap();
    let root = &spans[0];
    assert_eq!(
        root.get("name").and_then(Json::as_str),
        Some("core.statement")
    );
    assert_eq!(root.get("parent"), Some(&Json::Null));
    let child = &spans[1];
    assert_eq!(child.get("parent").and_then(Json::as_f64), Some(0.0));
    assert_eq!(child.get("request_id"), root.get("request_id"));
    assert!(
        child.get("start_ns").and_then(Json::as_f64) >= root.get("start_ns").and_then(Json::as_f64)
    );
    assert!(
        child.get("end_ns").and_then(Json::as_f64) <= root.get("end_ns").and_then(Json::as_f64)
    );
}

#[test]
fn benchmark_json_matches_the_tables_in_the_source() {
    let b = benchmark_json();
    let keys: Vec<&str> = b
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = b.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (json, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(json.get("name").and_then(Json::as_str), Some(w.name));
        assert_eq!(json.get("why").and_then(Json::as_str), Some(w.why));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    let end_to_end = b.get("end_to_end").unwrap().as_array().unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (json, (m, bound)) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(json.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(json.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            json.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
        assert_eq!(json.get("bound").and_then(Json::as_f64), Some(*bound));
        assert!(*bound <= 0.25);
    }
    let per_layer = b.get("per_layer").unwrap().as_array().unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (json, m) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(json.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(json.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            json.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
    }
}

#[test]
fn same_seed_same_inputs_and_oracle_values() {
    for w in &WORKLOADS {
        let expects = |seed| -> Vec<_> {
            let data = ForumData::generate(w.smoke_scale.max(200), seed);
            (w.pairs)(&data)
                .into_iter()
                .map(|p| (p.q, p.expect))
                .collect()
        };
        assert_eq!(expects(7), expects(7), "{}", w.name);
        assert_ne!(expects(7), expects(8), "{}", w.name);
    }
    assert_eq!(ForumData::generate(300, 7), ForumData::generate(300, 7));
    assert_ne!(ForumData::generate(300, 7), ForumData::generate(300, 8));
}

/// A report of `prov_join` whose `prov_overhead` has the given repeats.
fn synthetic(overhead: &[f64], failed: u64) -> Json {
    let reports: Vec<RunReport> = overhead
        .iter()
        .map(|o| RunReport {
            attempted: 1000,
            failed,
            metrics: vec![("qps", 300.0), ("prov_overhead", *o)],
            ..RunReport::default()
        })
        .collect();
    suite_json(&header(false), &[("prov_join", reports)])
}

#[test]
fn compare_flags_a_twenty_percent_regression() {
    let base = synthetic(&[2.0, 2.02, 1.98, 2.01], 0);
    let same = compare(&base, &base).unwrap();
    assert!(
        same.passed() && same.regressed == 0 && same.unresolved == 0,
        "{}",
        same.table
    );

    let slower = synthetic(&[2.4, 2.42, 2.38, 2.41], 0);
    let worse = compare(&base, &slower).unwrap();
    assert_eq!(worse.regressed, 1, "{}", worse.table);
    assert!(!worse.passed());
    assert!(worse.table.contains("regressed"));
    // The other direction is a gain, not a regression.
    assert!(compare(&slower, &base).unwrap().passed());

    let noisy = synthetic(&[2.0, 2.8, 1.4, 2.4], 0);
    let unresolved = compare(&base, &noisy).unwrap();
    assert_eq!(
        (unresolved.regressed, unresolved.unresolved),
        (0, 1),
        "{}",
        unresolved.table
    );

    let failing = synthetic(&[2.0, 2.02, 1.98, 2.01], 3);
    let failed = compare(&base, &failing).unwrap();
    assert!(!failed.passed() && failed.regressed == 0);

    assert!(compare(&base, &Json::obj::<String>([])).is_err());
}

#[test]
fn verdict_needs_the_gap_to_exceed_bound_and_spread() {
    use perm_benchmark::report::{verdict, Better};
    assert_eq!(
        verdict(Better::Lower, 0.1, &[10.0], &[11.5]),
        Verdict::Regressed
    );
    assert_eq!(verdict(Better::Lower, 0.1, &[10.0], &[10.9]), Verdict::Ok);
    assert_eq!(
        verdict(Better::Higher, 0.1, &[10.0], &[8.5]),
        Verdict::Regressed
    );
    assert_eq!(verdict(Better::Higher, 0.1, &[10.0], &[11.5]), Verdict::Ok);
}
