//! What a run prints and writes: the tables for people, the one-line result
//! for the driver, the self-describing ledger (`--out`), and the agreement
//! check between two ledgers.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{obj, Json};
use crate::layers::Layered;
use crate::load::EndToEnd;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::spread;
use crate::workloads::{Frame, Topology, Workload};

/// One workload's results: either half may be absent (the driver asks for
/// one at a time).
pub struct Outcome {
    pub workload: Workload,
    pub end_to_end: Option<EndToEnd>,
    pub layered: Option<Layered>,
}

pub fn print_end_to_end(workload: &Workload, r: &EndToEnd) {
    println!(
        "## {} — end to end (median of segments [min .. max])",
        workload.name
    );
    for (metric, reduced) in END_TO_END.iter().zip(r.metrics()) {
        println!(
            "{:<18} {:>14.3} {:<4} [{:.3} .. {:.3}]  bound {:.2} {}",
            metric.name,
            reduced.value,
            metric.unit,
            reduced.min,
            reduced.max,
            metric.bound,
            metric.better.as_str(),
        );
    }
    let late = r.late_share.iter().copied().fold(0.0, f64::max);
    println!(
        "rate {} 1/s  late_share max {late:.4}  samples/segment {:?}",
        workload.rate, r.samples
    );
    println!(
        "ops_attempted {}  ops_failed {}  gen_s {:.3}  wall_s {:.3}",
        r.ops_attempted, r.ops_failed, r.gen_s, r.wall_s
    );
}

pub fn print_layered(workload: &Workload, r: &Layered) {
    println!("## {} — per layer (traced run)", workload.name);
    for metric in &PER_LAYER {
        let value = r.metrics.get(metric.name).copied().unwrap_or(f64::NAN);
        println!(
            "{:<20} {:<26} {:>14.4} {}",
            metric.layer, metric.name, value, metric.unit
        );
    }
    println!("waterfall, us/event (rows sum to the outermost inclusive time):");
    for row in &r.waterfall {
        let share = 100.0 * row.self_us / r.waterfall[0].inclusive_us;
        println!(
            "  {:<16} inclusive {:>10.3}  self {:>10.3}  {share:>5.1} %",
            row.layer, row.inclusive_us, row.self_us
        );
    }
    println!(
        "ops_attempted {}  ops_failed {}  spans {}  wall_s {:.3}",
        r.ops_attempted,
        r.ops_failed,
        r.tracer.spans.len(),
        r.wall_s
    );
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_line(attempted: u64, failed: u64, metrics: Vec<(&str, f64, &str)>) -> String {
    let complete = metrics.iter().all(|(_, value, _)| value.is_finite());
    obj([
        ("correct", (failed == 0 && complete).into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            obj([("value", value.into()), ("unit", unit.into())]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .line()
}

pub fn end_to_end_metrics(r: &EndToEnd) -> Vec<(&'static str, f64, &'static str)> {
    END_TO_END
        .iter()
        .zip(r.metrics())
        .map(|(m, reduced)| (m.name, reduced.value, m.unit))
        .collect()
}

pub fn per_layer_metrics(r: &Layered) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                r.metrics.get(m.name).copied().unwrap_or(f64::NAN),
                m.unit,
            )
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn workload_json(outcome: &Outcome) -> Json {
    let w = &outcome.workload;
    let mut fields = vec![
        ("name".to_string(), w.name.into()),
        ("why".to_string(), w.why.into()),
        (
            "params".to_string(),
            obj([
                ("subs", w.subs.into()),
                ("event_size", w.event_size.map_or(Json::Null, Into::into)),
                ("sub_preds", [w.sub_preds.0, w.sub_preds.1][..].into()),
                (
                    "topology",
                    match w.topology {
                        Topology::Direct => "direct".into(),
                        Topology::Routed { backends } => format!("routed x{backends}").into(),
                        Topology::Chained { followers } => {
                            format!("chained primary+{followers}").into()
                        }
                    },
                ),
                (
                    "frame",
                    match w.frame {
                        Frame::Batch(n) => format!("BATCH {n}, one in flight").into(),
                        Frame::Pipelined(n) => format!("PUB, <= {n} in flight").into(),
                    },
                ),
                ("pool", w.pool.into()),
                ("rate", w.rate.into()),
                ("churn_ids", w.churn_ids.into()),
                ("churn_beside_reads", w.churn_beside_reads.into()),
            ]),
        ),
    ];
    if let Some(r) = &outcome.end_to_end {
        let metrics = END_TO_END
            .iter()
            .zip(r.metrics())
            .map(|(m, reduced)| {
                let value = obj([
                    ("value", reduced.value.into()),
                    ("unit", m.unit.into()),
                    ("min", reduced.min.into()),
                    ("max", reduced.max.into()),
                    ("segments", reduced.segments[..].into()),
                ]);
                (m.name.to_string(), value)
            })
            .collect();
        fields.push(("end_to_end".to_string(), Json::Obj(metrics)));
        fields.push(("late_share".to_string(), r.late_share[..].into()));
        fields.push(("samples_per_segment".to_string(), r.samples[..].into()));
        fields.push(("ops_attempted".to_string(), r.ops_attempted.into()));
        fields.push(("ops_failed".to_string(), r.ops_failed.into()));
        fields.push(("gen_s".to_string(), r.gen_s.into()));
        fields.push(("wall_s".to_string(), r.wall_s.into()));
    }
    if let Some(r) = &outcome.layered {
        let metrics = per_layer_metrics(r)
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    obj([("value", value.into()), ("unit", unit.into())]),
                )
            })
            .collect();
        fields.push(("per_layer".to_string(), Json::Obj(metrics)));
        let rows = r
            .waterfall
            .iter()
            .map(|row| {
                obj([
                    ("layer", row.layer.into()),
                    ("inclusive_us", row.inclusive_us.into()),
                    ("self_us", row.self_us.into()),
                ])
            })
            .collect();
        fields.push(("waterfall".to_string(), Json::Arr(rows)));
        fields.push(("traced_ops_attempted".to_string(), r.ops_attempted.into()));
        fields.push(("traced_ops_failed".to_string(), r.ops_failed.into()));
        fields.push(("traced_wall_s".to_string(), r.wall_s.into()));
    }
    Json::Obj(fields)
}

/// The self-describing record of one set of runs.
pub fn ledger(seed: u64, seconds: f64, smoke: bool, outcomes: &[Outcome]) -> Json {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    obj([
        ("run_id", format!("{now}-{}", std::process::id()).into()),
        ("timestamp_unix", now.into()),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("rustc", command_line("rustc", &["--version"]).into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("smoke", smoke.into()),
        ("transport", "loopback TCP, servers in-process".into()),
        (
            "workloads",
            Json::Arr(outcomes.iter().map(workload_json).collect()),
        ),
    ])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The segments behind one of the two values are spread wider than the
    /// bound, so the comparison cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `b` against `a` for one metric: its values, and the segments behind them.
pub fn verdict(better: Better, bound: f64, a: (f64, &[f64]), b: (f64, &[f64])) -> Verdict {
    let noisy = |segments: &[f64]| segments.len() >= 2 && spread(segments) > bound;
    // `setup_s` keeps set-ups, not segments; three of them carry no spread
    // worth judging, so its values alone decide.
    if a.1.len() >= 5 && (noisy(a.1) || noisy(b.1)) {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Higher => (a.0 - b.0) / a.0,
        Better::Lower => (b.0 - a.0) / a.0,
    };
    // A value that is missing (not a number) is worse than any that is not.
    if worse_by.is_nan() || worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compares ledger `b` against ledger `a`, metric by metric and workload by
/// workload, printing one line each. Returns the verdicts.
pub fn agree(a: &Json, b: &Json) -> Result<Vec<Verdict>, String> {
    fn workloads(ledger: &Json) -> &[Json] {
        ledger.get("workloads").map_or(&[], Json::as_arr)
    }
    let mut verdicts = Vec::new();
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "a", "b", "change"
    );
    for wa in workloads(a) {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?
            .to_string();
        let wb = workloads(b)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(&name))
            .ok_or_else(|| format!("workload {name} is missing from the second file"))?;
        for metric in &END_TO_END {
            let read = |w: &Json| -> Result<(f64, Vec<f64>), String> {
                let m = w
                    .get("end_to_end")
                    .and_then(|e| e.get(metric.name))
                    .ok_or_else(|| format!("{name}: {} is missing", metric.name))?;
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let segments = m.get("segments").map_or(Vec::new(), |s| {
                    s.as_arr().iter().filter_map(Json::as_f64).collect()
                });
                Ok((value, segments))
            };
            let (va, sa) = read(wa)?;
            let (vb, sb) = read(wb)?;
            let v = verdict(metric.better, metric.bound, (va, &sa), (vb, &sb));
            println!(
                "{:<12} {:<18} {:>14.3} {:>14.3} {:>+7.1}%  {}",
                name,
                metric.name,
                va,
                vb,
                100.0 * (vb - va) / va,
                v.as_str()
            );
            verdicts.push(v);
        }
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];
    const WILD: [f64; 5] = [60.0, 140.0, 100.0, 75.0, 130.0];

    #[test]
    fn verdict_follows_direction_and_bound() {
        let at = |v: f64| (v, &STEADY[..]);
        assert_eq!(
            verdict(Better::Higher, 0.10, at(100.0), at(95.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, at(100.0), at(89.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, at(100.0), at(150.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, at(100.0), at(105.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, at(100.0), at(111.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, at(100.0), at(f64::NAN)),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_segment_spread_is_unresolved_not_unchanged() {
        assert_eq!(
            verdict(Better::Higher, 0.10, (100.0, &WILD), (100.0, &STEADY)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, (100.0, &STEADY), (80.0, &WILD)),
            Verdict::Unresolved
        );
        // Fewer than five values behind a number (set-ups) are not judged.
        assert_eq!(
            verdict(
                Better::Lower,
                0.10,
                (1.0, &[0.5, 1.0, 2.0]),
                (1.05, &[1.0, 1.05, 3.0])
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(1000, 0, vec![("latency_ms", 1.2034, "ms")]);
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let metric = parsed.get("metrics").unwrap().get("latency_ms").unwrap();
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("ms"));
        // A failed operation or a missing value is not a correct run.
        assert!(driver_line(10, 1, vec![]).contains("\"correct\": false"));
        assert!(driver_line(10, 0, vec![("x", f64::NAN, "us")]).contains("\"correct\": false"));
    }
}
