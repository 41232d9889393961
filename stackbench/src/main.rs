//! `stackbench`: one command that measures the A-PCM service stack end to
//! end and layer by layer. See README.md beside the manifest.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use stackbench::gen::Inputs;
use stackbench::json::Json;
use stackbench::load::Timing;
use stackbench::report::{self, Outcome, Verdict};
use stackbench::stack::Scratch;
use stackbench::workloads::{self, Workload, WORKLOADS};
use stackbench::{layers, load};

const USAGE: &str = "\
usage: stackbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
                  [--smoke] [--repeat <n>] [--out <results.json>] [--trace-out <trace.json>]
       stackbench --agree <a.json> <b.json>

  --workload   one of match-100k, wire-2k, routed-3x, churn-repl (default: all four)
  --seed       workload seed (default 42)
  --seconds    measured time per run (default 12)
  --trace      0: end-to-end metrics only; 1: per-layer metrics only (default: both)
  --smoke      corpora / 50 and --seconds 1: a quick check that everything runs
  --repeat     run the whole set n times back to back and check the sets agree
  --out        write the self-describing result ledger here
  --trace-out  where the traced run writes its spans (default trace.json)
  --agree      compare two ledgers metric by metric against the bounds";

/// `run_seconds` in `BENCHMARK.json`: a phase A segment is 1.08 s.
const DEFAULT_SECONDS: f64 = 12.0;
/// Boundary replays (and their warm-ups) in a traced run; each gets an
/// equal share of `--seconds`.
const REPLAYS: f64 = 16.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    out: Option<String>,
    trace_out: String,
    agree: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: 1,
        out: None,
        trace_out: "trace.json".into(),
        agree: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => args.out = Some(value("a path")?),
            "--trace-out" => args.trace_out = value("a path")?,
            "--agree" => args.agree = Some((value("two paths")?, value("two paths")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) || args.repeat == 0 {
        return Err("--seconds and --repeat must be positive".into());
    }
    Ok(args)
}

fn read_ledger(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload, one or both kinds of run. Prints the tables as it goes.
fn run_workload(
    workload: &Workload,
    args: &Args,
    seconds: f64,
    scratch: &Scratch,
) -> std::io::Result<Outcome> {
    let inputs = Arc::new(Inputs::generate(workload, args.seed));
    println!(
        "# {} seed {} seconds {seconds} gen_s {:.3}",
        workload.name, args.seed, inputs.gen_s
    );
    let mut outcome = Outcome {
        workload: workload.clone(),
        end_to_end: None,
        layered: None,
    };
    if args.trace != Some(true) {
        let r = load::run(workload, &inputs, Timing::split(seconds, workload), scratch)?;
        report::print_end_to_end(workload, &r);
        outcome.end_to_end = Some(r);
    }
    if args.trace != Some(false) {
        let r = layers::run(
            workload,
            &inputs,
            Duration::from_secs_f64(seconds / REPLAYS),
            scratch,
        )?;
        report::print_layered(workload, &r);
        outcome.layered = Some(r);
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("stackbench: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("stackbench: {why}");
            ExitCode::FAILURE
        }
    }
}

/// `Ok(false)`: everything ran, but an operation failed, a metric is
/// missing, or two sets disagree.
fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.agree {
        let verdicts = report::agree(&read_ledger(a)?, &read_ledger(b)?)?;
        return Ok(verdicts.iter().all(|&v| v == Verdict::Ok));
    }
    let selected: Vec<Workload> = match &args.workload {
        Some(name) => vec![workloads::find(name)
            .ok_or(format!("unknown workload `{name}`"))?
            .clone()],
        None => WORKLOADS.to_vec(),
    };
    let selected: Vec<Workload> = if args.smoke {
        selected.iter().map(|w| w.shrunk(50)).collect()
    } else {
        selected
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { DEFAULT_SECONDS });
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;

    let mut good = true;
    let mut ledgers: Vec<Json> = Vec::new();
    let mut last: Vec<Outcome> = Vec::new();
    for set in 1..=args.repeat {
        let mut outcomes = Vec::new();
        for workload in &selected {
            let outcome = run_workload(workload, args, seconds, &scratch)
                .map_err(|e| format!("{}: {e}", workload.name))?;
            outcomes.push(outcome);
        }
        let ledger = report::ledger(args.seed, seconds, args.smoke, &outcomes);
        if let Some(out) = &args.out {
            let path = if set == 1 {
                out.clone()
            } else {
                format!("{out}.{set}")
            };
            std::fs::write(&path, ledger.pretty()).map_err(|e| format!("{path}: {e}"))?;
            println!("# wrote {path}");
        }
        if let Some(first) = ledgers.first() {
            println!("# set {set} against set 1");
            good &= report::agree(first, &ledger)?
                .iter()
                .all(|&v| v == Verdict::Ok);
        }
        ledgers.push(ledger);
        last = outcomes;
    }

    // Spans stay in memory until here.
    let traces: Vec<(String, Json)> = last
        .iter()
        .filter_map(|o| {
            o.layered
                .as_ref()
                .map(|l| (o.workload.name.to_string(), l.tracer.to_json()))
        })
        .collect();
    if !traces.is_empty() {
        std::fs::write(&args.trace_out, Json::Obj(traces).pretty())
            .map_err(|e| format!("{}: {e}", args.trace_out))?;
    }

    for outcome in &last {
        let (mut attempted, mut failed) = (0, 0);
        let mut metrics = Vec::new();
        if let Some(r) = &outcome.end_to_end {
            attempted += r.ops_attempted;
            failed += r.ops_failed;
            metrics.extend(report::end_to_end_metrics(r));
        }
        if let Some(r) = &outcome.layered {
            attempted += r.ops_attempted;
            failed += r.ops_failed;
            metrics.extend(report::per_layer_metrics(r));
        }
        good &= failed == 0 && metrics.iter().all(|(_, value, _)| value.is_finite());
        // The driver reads the last line: one workload, one kind of run.
        if last.len() == 1 && args.trace.is_some() {
            println!("{}", report::driver_line(attempted, failed, metrics));
        }
    }
    Ok(good)
}
