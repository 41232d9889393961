//! Runs the built binary the way a person and the driver do, and holds
//! `BENCHMARK.json` to the tables in the source.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use stackbench::json::Json;
use stackbench::metrics::{END_TO_END, PER_LAYER};
use stackbench::workloads::WORKLOADS;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .unwrap()
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// A directory of this test's own under the target directory.
fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One run of the binary at a time: it loads both cores, and one test
/// below checks the clock.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn stackbench(dir: &Path, args: &[&str]) -> (bool, String) {
    let (ok, stdout, _) = timed_stackbench(dir, args);
    (ok, stdout)
}

fn timed_stackbench(dir: &Path, args: &[&str]) -> (bool, String, Duration) {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_stackbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap();
    (
        out.status.success(),
        String::from_utf8(out.stdout).unwrap(),
        started.elapsed(),
    )
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn benchmark_json_lists_the_tables_in_the_source() {
    let b = benchmark_json();
    let keys: Vec<&str> = b.fields().iter().map(|(k, _)| k.as_str()).collect();
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
    assert_eq!(
        b.get("paths").unwrap().as_arr(),
        [Json::Str("stackbench".into())]
    );

    let workloads = b.get("workloads").unwrap();
    assert_eq!(
        names(workloads),
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for (listed, w) in workloads.as_arr().iter().zip(&WORKLOADS) {
        assert_eq!(listed.get("why").and_then(Json::as_str), Some(w.why));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }

    let end_to_end = b.get("end_to_end").unwrap();
    assert_eq!(
        names(end_to_end),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (listed, m) in end_to_end.as_arr().iter().zip(&END_TO_END) {
        assert_eq!(listed.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            listed.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
        assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(m.bound <= 0.25);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let per_layer = b.get("per_layer").unwrap();
    assert_eq!(
        names(per_layer),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (listed, m) in per_layer.as_arr().iter().zip(&PER_LAYER) {
        assert_eq!(listed.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            listed.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
    }
    let all = names(workloads)
        .into_iter()
        .chain(names(end_to_end))
        .chain(names(per_layer));
    for name in all {
        assert!(valid_name(&name), "{name}");
    }
}

#[test]
fn smoke_finishes_quickly_and_emits_every_workload_and_metric() {
    let dir = work_dir("smoke");
    let (ok, stdout, took) = timed_stackbench(&dir, &["--smoke", "--out", "results.json"]);
    assert!(ok, "{stdout}");
    assert!(took < Duration::from_secs(30), "--smoke took {took:?}");

    let ledger = Json::parse(&std::fs::read_to_string(dir.join("results.json")).unwrap()).unwrap();
    for key in [
        "run_id",
        "timestamp_unix",
        "git_commit",
        "nproc",
        "rustc",
        "seed",
        "seconds",
    ] {
        assert!(ledger.get(key).is_some(), "ledger lacks {key}");
    }
    let b = benchmark_json();
    let workloads = ledger.get("workloads").unwrap().as_arr();
    for name in names(b.get("workloads").unwrap()) {
        let w = workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(&name))
            .unwrap_or_else(|| panic!("{name} is missing from the ledger"));
        assert!(w
            .get("params")
            .and_then(|p| p.get("rate"))
            .and_then(Json::as_f64)
            .is_some());
        assert_eq!(
            w.get("ops_failed").and_then(Json::as_f64),
            Some(0.0),
            "{name}"
        );
        for metric in names(b.get("end_to_end").unwrap()) {
            let m = w
                .get("end_to_end")
                .and_then(|e| e.get(&metric))
                .unwrap_or_else(|| panic!("{name}: {metric}"));
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(|v| v > 0.0),
                "{name}: {metric}"
            );
            assert!(
                m.get("segments").is_some_and(|s| !s.as_arr().is_empty()),
                "{name}: {metric}"
            );
        }
        for metric in names(b.get("per_layer").unwrap()) {
            let m = w
                .get("per_layer")
                .and_then(|e| e.get(&metric))
                .unwrap_or_else(|| panic!("{name}: {metric}"));
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name}: {metric} has no value"
            );
        }
        let rows = w.get("waterfall").unwrap().as_arr();
        let total: f64 = rows
            .iter()
            .map(|r| r.get("self_us").and_then(Json::as_f64).unwrap())
            .sum();
        let outermost = rows[0].get("inclusive_us").and_then(Json::as_f64).unwrap();
        assert!(
            rows.iter()
                .all(|r| r.get("self_us").and_then(Json::as_f64).unwrap() >= 0.0),
            "{name}"
        );
        assert!(
            (total - outermost).abs() <= 1e-6 * outermost,
            "{name}: {total} != {outermost}"
        );
    }
    assert!(dir.join("trace.json").exists());
    assert!(
        !dir.join(".stackbench_tmp").exists(),
        "the scratch directory is removed at exit"
    );

    // A ledger is never worse than itself (its short segments may still be
    // too spread to resolve); a wrong path is an error.
    let (_, table) = stackbench(&dir, &["--agree", "results.json", "results.json"]);
    assert_eq!(
        table.lines().count(),
        1 + WORKLOADS.len() * END_TO_END.len(),
        "{table}"
    );
    assert!(!table.contains("worse"), "{table}");
    assert!(!stackbench(&dir, &["--agree", "results.json", "absent.json"]).0);
}

#[test]
fn driver_runs_print_the_contract_line_last() {
    let dir = work_dir("driver");
    let common = [
        "--smoke",
        "--workload",
        "churn-repl",
        "--seed",
        "7",
        "--seconds",
        "1",
    ];
    for (trace, expected) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        (
            "1",
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
    ] {
        let (ok, stdout) = stackbench(&dir, &[&common[..], &["--trace", trace]].concat());
        assert!(ok, "{stdout}");
        let line = Json::parse(stdout.trim_end().lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = line.get("metrics").unwrap().fields();
        let got: Vec<(&str, &str)> = metrics
            .iter()
            .map(|(name, m)| (name.as_str(), m.get("unit").and_then(Json::as_str).unwrap()))
            .collect();
        assert_eq!(got, expected, "--trace {trace}");
    }
    assert!(!stackbench(&dir, &["--workload", "no-such-workload", "--trace", "0"]).0);
}
