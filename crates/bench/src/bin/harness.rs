//! Experiment harness: regenerates every table/figure of the evaluation.
//!
//! ```sh
//! cargo run --release -p apcm-bench --bin harness -- --experiment all
//! cargo run --release -p apcm-bench --bin harness -- --experiment e1 --scale 0.1
//! ```
//!
//! `--scale` multiplies the paper-scale corpus sizes (1.0 = the paper's
//! 5M-expression setting; the default 0.02 finishes a full pass in minutes
//! on a laptop). Shapes — who wins, by what factor, where crossovers sit —
//! are scale-stable; absolute events/s are hardware-dependent. See
//! EXPERIMENTS.md for recorded runs and the paper-vs-measured discussion.

use apcm_bench::{fmt_bytes, fmt_rate, measure_latency, measure_throughput, EngineKind, Table};
use apcm_bexpr::{AttrId, Event, Matcher, Op, Predicate, Schema, SubId, Subscription};
use apcm_cluster::{ClusterHandle, RouterConfig};
use apcm_core::{AdaptiveConfig, ApcmConfig, ApcmMatcher, ClusteringPolicy, PcmMatcher};
use apcm_server::{
    route_partition, BrokerClient, PersistConfig, Ring, Server, ServerConfig, ServerStats,
};
use apcm_workload::{DriftingStream, ValueDist, Workload, WorkloadSpec};
use std::time::{Duration, Instant};

struct Args {
    experiment: String,
    scale: f64,
    budget: Duration,
    seed: u64,
    /// `--json PATH`: also write every measured cell as a JSON array.
    json: Option<String>,
    /// `--json-append PATH`: merge this run's cells into an existing JSON
    /// array file (created if absent) — used to accumulate before/after
    /// records across runs into one committed file.
    json_append: Option<String>,
    records: std::cell::RefCell<Vec<Record>>,
}

/// One measured cell, for machine-readable output. `metric` names what
/// `value` measures (`events_per_sec`, `latency_p99_us`, `build_secs`,
/// `ops_per_sec`, ...), so every experiment — throughput sweeps, latency
/// percentiles, build/maintenance costs — lands in one JSON shape.
struct Record {
    experiment: &'static str,
    algorithm: String,
    /// The swept parameter for this cell (e.g. `n=100000`, `b=64`).
    param: String,
    metric: &'static str,
    value: f64,
}

impl Args {
    /// Records one measured cell for `--json` output (no-op without it).
    fn record(
        &self,
        experiment: &'static str,
        algorithm: &str,
        param: String,
        metric: &'static str,
        value: f64,
    ) {
        if self.json.is_some() || self.json_append.is_some() {
            self.records.borrow_mut().push(Record {
                experiment,
                algorithm: algorithm.to_string(),
                param,
                metric,
                value,
            });
        }
    }

    fn write_json(&self) -> std::io::Result<()> {
        let records = self.records.borrow();
        let lines: Vec<String> = records
            .iter()
            .map(|r| {
                format!(
                    "{{\"experiment\": {}, \"algorithm\": {}, \"param\": {}, \
                     \"metric\": {}, \"value\": {:.3}}}",
                    json_str(r.experiment),
                    json_str(&r.algorithm),
                    json_str(&r.param),
                    json_str(r.metric),
                    r.value,
                )
            })
            .collect();
        if let Some(path) = &self.json {
            std::fs::write(path, render_array(&lines))?;
            println!("wrote {} records to {path}", lines.len());
        }
        if let Some(path) = &self.json_append {
            // The file is the harness's own line-per-record array format, so
            // merging is re-collecting the record lines and rewriting.
            let mut merged: Vec<String> = match std::fs::read_to_string(path) {
                Ok(text) => text
                    .lines()
                    .map(str::trim)
                    .filter(|l| l.starts_with('{'))
                    .map(|l| l.trim_end_matches(',').to_string())
                    .collect(),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e),
            };
            merged.extend(lines.iter().cloned());
            std::fs::write(path, render_array(&merged))?;
            println!(
                "appended {} records to {path} ({} total)",
                lines.len(),
                merged.len()
            );
        }
        Ok(())
    }
}

/// Renders record lines as a pretty-printed JSON array.
fn render_array(lines: &[String]) -> String {
    let mut out = String::from("[\n");
    for (i, line) in lines.iter().enumerate() {
        out.push_str("  ");
        out.push_str(line);
        out.push_str(if i + 1 < lines.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// JSON string literal; the harness only emits ASCII labels, so escaping
/// quotes and backslashes (plus control characters) is sufficient.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".to_string(),
        scale: 0.02,
        budget: Duration::from_millis(1500),
        seed: 42,
        json: None,
        json_append: None,
        records: std::cell::RefCell::new(Vec::new()),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .unwrap_or_else(|| panic!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--experiment" | "-e" => args.experiment = value().to_lowercase(),
            "--scale" | "-s" => args.scale = value().parse().expect("numeric --scale"),
            "--budget-ms" => {
                args.budget = Duration::from_millis(value().parse().expect("numeric --budget-ms"))
            }
            "--seed" => args.seed = value().parse().expect("numeric --seed"),
            "--json" => args.json = Some(value()),
            "--json-append" => args.json_append = Some(value()),
            "--help" | "-h" => {
                println!(
                    "usage: harness [--experiment e1..e18|all] [--scale F] [--budget-ms N] \
                     [--seed N] [--json PATH] [--json-append PATH]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Paper-scale corpus size, scaled down for laptop runs, floored at 1k.
fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(1_000)
}

fn base_spec(n: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(n).seed(seed)
}

fn main() {
    let args = parse_args();
    // Child-process server mode for E17 — must run before the banner so
    // the parent can parse this process's first stdout line as `ADDR`.
    if args.experiment == "e17-serve" {
        e17_serve();
        return;
    }
    println!(
        "# A-PCM evaluation harness — scale={}, budget={:?}/cell, seed={}, {} cores",
        args.scale,
        args.budget,
        args.seed,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    println!();
    let run_all = args.experiment == "all";
    let want = |id: &str| run_all || args.experiment == id;

    if want("e1") {
        e1_corpus_size(&args);
    }
    if want("e2") {
        e2_threads(&args);
    }
    if want("e3") {
        e3_osr(&args);
    }
    if want("e4") {
        e4_sub_size(&args);
    }
    if want("e5") {
        e5_event_size(&args);
    }
    if want("e6") {
        e6_dims(&args);
    }
    if want("e7") {
        e7_match_prob(&args);
    }
    if want("e8") {
        e8_skew(&args);
    }
    if want("e9") {
        e9_compression(&args);
    }
    if want("e10") {
        e10_adaptive(&args);
    }
    if want("e11") {
        e11_latency(&args);
    }
    if want("e12") {
        e12_build(&args);
    }
    if want("e13") {
        e13_cluster(&args);
    }
    if want("e14") {
        e14_replication(&args);
    }
    if want("e15") {
        e15_colstore(&args);
    }
    if want("e16") {
        e16_resharding(&args);
    }
    if want("e17") {
        e17_netio(&args);
    }
    if want("e18") {
        e18_chains(&args);
    }
    if let Err(e) = args.write_json() {
        eprintln!("error writing --json output: {e}");
        std::process::exit(1);
    }
}

/// E1 — headline: throughput vs corpus size, all engines. The abstract's
/// claim is A-PCM at 233,863 ev/s vs a sequential matcher at 36 ev/s with
/// 5M expressions; the reproduction target is the *ratio and its growth*
/// with corpus size.
fn e1_corpus_size(args: &Args) {
    println!("## E1 — matching throughput vs corpus size (events/s)\n");
    let sizes: Vec<usize> = [100_000usize, 500_000, 1_000_000, 2_500_000, 5_000_000]
        .iter()
        .map(|&b| scaled(b, args.scale))
        .collect();
    let mut headers = vec!["engine".to_string()];
    headers.extend(sizes.iter().map(|s| format!("{s}")));
    let mut table = Table::new(headers);
    let workloads: Vec<Workload> = sizes
        .iter()
        .map(|&n| base_spec(n, args.seed).build())
        .collect();
    for kind in EngineKind::ALL {
        let mut cells = vec![kind.name().to_string()];
        for (wl, &n) in workloads.iter().zip(&sizes) {
            let (matcher, _) = kind.build(wl);
            let events = wl.events(20_000);
            let t = measure_throughput(matcher.as_ref(), &events, args.budget);
            args.record(
                "e1",
                kind.name(),
                format!("n={n}"),
                "events_per_sec",
                t.events_per_sec,
            );
            cells.push(fmt_rate(t.events_per_sec));
        }
        table.row(cells);
    }
    table.print();
    println!();
}

/// E2 — scalability with worker threads: A-PCM's scoped-thread pool swept
/// from one thread to every available core.
fn e2_threads(args: &Args) {
    println!("## E2 — A-PCM throughput vs threads (events/s)\n");
    let n = scaled(1_000_000, args.scale);
    let wl = base_spec(n, args.seed).build();
    let events = wl.events(20_000);
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut threads = vec![1usize];
    while *threads.last().unwrap() * 2 <= max_threads {
        threads.push(threads.last().unwrap() * 2);
    }
    if *threads.last().unwrap() != max_threads {
        threads.push(max_threads);
    }

    let mut headers = vec!["engine".to_string()];
    headers.extend(threads.iter().map(|t| format!("{t}t")));
    let mut table = Table::new(headers);
    let mut cells = vec!["A-PCM".to_string()];
    for &t in &threads {
        let config = ApcmConfig::default().with_threads(t);
        let matcher = ApcmMatcher::build(&wl.schema, &wl.subs, &config).unwrap();
        let m = measure_throughput(&matcher, &events, args.budget);
        args.record(
            "e2",
            "A-PCM",
            format!("threads={t}"),
            "events_per_sec",
            m.events_per_sec,
        );
        cells.push(fmt_rate(m.events_per_sec));
    }
    table.row(cells);
    table.print();
    println!("(corpus {n}; sequential PCM-SEQ appears in E1 as the 1-thread floor)\n");
}

/// E3 — OSR: batch size sweep with re-ordering on/off.
fn e3_osr(args: &Args) {
    println!("## E3 — OSR batch size sweep (events/s)\n");
    let n = scaled(1_000_000, args.scale);
    let wl = base_spec(n, args.seed).planted_fraction(0.05).build();
    let events = wl.events(20_000);
    let batches = [1usize, 16, 64, 256, 1024, 4096];
    let mut headers = vec!["reorder".to_string()];
    headers.extend(batches.iter().map(|b| format!("b={b}")));
    let mut table = Table::new(headers);
    for reorder in [false, true] {
        let mut cells = vec![if reorder { "on" } else { "off" }.to_string()];
        for &batch in &batches {
            let config = ApcmConfig {
                batch_size: batch,
                reorder,
                adaptive: AdaptiveConfig::disabled(),
                ..ApcmConfig::default()
            };
            let matcher = ApcmMatcher::build(&wl.schema, &wl.subs, &config).unwrap();
            let m = measure_throughput(&matcher, &events, args.budget);
            args.record(
                "e3",
                if reorder {
                    "OSR/reorder"
                } else {
                    "OSR/no-reorder"
                },
                format!("batch={batch}"),
                "events_per_sec",
                m.events_per_sec,
            );
            cells.push(fmt_rate(m.events_per_sec));
        }
        table.row(cells);
    }
    table.print();
    println!("(corpus {n}; b=1 is per-event matching, no cluster-major batching)\n");
}

/// E4 — expression size (predicates per subscription).
fn e4_sub_size(args: &Args) {
    println!("## E4 — throughput vs expression size (events/s)\n");
    let n = scaled(1_000_000, args.scale);
    let ks = [3usize, 5, 7, 9, 12, 15];
    sweep_indexed(
        args,
        "e4",
        &ks,
        |&k| base_spec(n, args.seed).sub_preds(k, k).event_size(18),
        |k| format!("k={k}"),
    );
}

/// E5 — event size (attributes per event).
fn e5_event_size(args: &Args) {
    println!("## E5 — throughput vs event size (events/s)\n");
    let n = scaled(1_000_000, args.scale);
    let sizes = [5usize, 10, 20, 40, 60];
    sweep_indexed(
        args,
        "e5",
        &sizes,
        |&m| base_spec(n, args.seed).dims(60).event_size(m),
        |m| format!("m={m}"),
    );
}

/// E6 — dimensionality of the attribute space.
fn e6_dims(args: &Args) {
    println!("## E6 — throughput vs dimensionality (events/s)\n");
    let n = scaled(1_000_000, args.scale);
    let dims = [10usize, 100, 1_000, 10_000];
    sweep_indexed(
        args,
        "e6",
        &dims,
        |&d| {
            base_spec(n, args.seed)
                .dims(d)
                .event_size(d.min(15))
                .sub_preds(3, 7.min(d))
        },
        |d| format!("d={d}"),
    );
}

/// E7 — matching probability (planted-match fraction).
fn e7_match_prob(args: &Args) {
    println!("## E7 — throughput vs matching probability (events/s)\n");
    let n = scaled(1_000_000, args.scale);
    let fractions = [0.001f64, 0.01, 0.05, 0.2, 0.5];
    sweep_indexed(
        args,
        "e7",
        &fractions,
        |&p| base_spec(n, args.seed).planted_fraction(p),
        |p| format!("p={p}"),
    );
}

/// E8 — value skew (uniform vs Zipf).
fn e8_skew(args: &Args) {
    println!("## E8 — throughput vs value skew (events/s)\n");
    let n = scaled(1_000_000, args.scale);
    let skews = [0.0f64, 0.5, 1.0, 1.5, 2.0];
    sweep_indexed(
        args,
        "e8",
        &skews,
        |&s| {
            let dist = if s == 0.0 {
                ValueDist::Uniform
            } else {
                ValueDist::Zipf(s)
            };
            base_spec(n, args.seed).values(dist)
        },
        |s| format!("s={s}"),
    );
}

/// Shared sweep body for E4–E8: one column per parameter value, one row per
/// indexed engine.
fn sweep_indexed<P>(
    args: &Args,
    experiment: &'static str,
    params: &[P],
    spec_for: impl Fn(&P) -> WorkloadSpec,
    label: impl Fn(&P) -> String,
) {
    let workloads: Vec<Workload> = params.iter().map(|p| spec_for(p).build()).collect();
    let mut headers = vec!["engine".to_string()];
    headers.extend(params.iter().map(&label));
    let mut table = Table::new(headers);
    for kind in EngineKind::INDEXED {
        let mut cells = vec![kind.name().to_string()];
        for (wl, param) in workloads.iter().zip(params) {
            let (matcher, _) = kind.build(wl);
            let events = wl.events(20_000);
            let t = measure_throughput(matcher.as_ref(), &events, args.budget);
            args.record(
                experiment,
                kind.name(),
                label(param),
                "events_per_sec",
                t.events_per_sec,
            );
            cells.push(fmt_rate(t.events_per_sec));
        }
        table.row(cells);
    }
    table.print();
    println!();
}

/// E9 — compression: cluster size and policy vs memory, build time,
/// throughput, and prune rate.
fn e9_compression(args: &Args) {
    println!("## E9 — compression ablation (cluster size × policy)\n");
    let n = scaled(1_000_000, args.scale);
    let wl = base_spec(n, args.seed).build();
    let events = wl.events(10_000);
    let mut table = Table::new(vec![
        "policy",
        "max_size",
        "clusters",
        "bitmap mem",
        "build",
        "events/s",
        "prune%",
    ]);
    for (pname, policy) in [
        ("pivot", ClusteringPolicy::PivotPredicate),
        ("sorted", ClusteringPolicy::SortedSignature),
        (
            "greedy",
            ClusteringPolicy::GreedyLeader {
                threshold: 0.3,
                window: 32,
            },
        ),
    ] {
        for max_size in [1usize, 4, 16, 64, 256, 1024] {
            let config = ApcmConfig {
                clustering: policy,
                max_cluster_size: max_size,
                ..ApcmConfig::pcm()
            };
            let start = Instant::now();
            let matcher = PcmMatcher::build(&wl.schema, &wl.subs, &config).unwrap();
            let build = start.elapsed();
            let t = measure_throughput(&matcher, &events, args.budget);
            args.record(
                "e9",
                &format!("PCM/{pname}"),
                format!("max_size={max_size}"),
                "events_per_sec",
                t.events_per_sec,
            );
            let (probes, prunes) = matcher.clusters().iter().fold((0u64, 0u64), |acc, c| {
                (
                    acc.0 + c.probes.load(std::sync::atomic::Ordering::Relaxed),
                    acc.1 + c.prunes.load(std::sync::atomic::Ordering::Relaxed),
                )
            });
            table.row(vec![
                pname.to_string(),
                format!("{max_size}"),
                format!("{}", matcher.clusters().len()),
                fmt_bytes(matcher.heap_bytes()),
                format!("{build:.2?}"),
                fmt_rate(t.events_per_sec),
                format!("{:.1}", 100.0 * prunes as f64 / probes.max(1) as f64),
            ]);
        }
    }
    table.print();
    println!("(max_size=1 is uncompressed per-subscription storage)\n");
}

/// E10 — adaptivity under drift: a static cluster/key layout vs A-PCM's
/// epoch maintenance, on a stream whose hot values rotate. The adaptive
/// engine re-keys clusters away from predicates the drift made hot (using
/// observed firing rates) and re-clusters unproductive clusters.
fn e10_adaptive(args: &Args) {
    println!("## E10 — adaptivity under workload drift\n");
    let n = scaled(1_000_000, args.scale);
    // Adversarial-for-static shape: few dimensions, strongly Zipf-skewed
    // values on both sides. Static keying breaks selectivity ties toward
    // corpus-frequent predicates, which under shared skew are exactly the
    // predicates hot events keep firing — clusters get probed constantly
    // without matching. The adaptive engine observes the firing rates and
    // re-keys; the drift rotation keeps moving the hot spot so the static
    // layout can never be right for long.
    let wl = base_spec(n, args.seed)
        .dims(8)
        .sub_preds(2, 3)
        .event_size(8)
        .values(ValueDist::Zipf(1.5))
        .planted_fraction(0.0)
        .build();
    let phase_events = 5_000usize;
    let phases = 6usize;

    // Large clusters make every wasted probe expensive (a full member
    // sweep), which is the regime where re-keying pays.
    let configs = [
        (
            "PCM (static)",
            ApcmConfig {
                adaptive: AdaptiveConfig::disabled(),
                max_cluster_size: 256,
                ..ApcmConfig::default()
            },
        ),
        (
            "A-PCM (adaptive)",
            ApcmConfig {
                adaptive: AdaptiveConfig {
                    epoch_events: (phase_events / 2) as u64,
                    min_probes: 32,
                    min_prune_rate: 0.5,
                    ..AdaptiveConfig::default()
                },
                max_cluster_size: 256,
                ..ApcmConfig::default()
            },
        ),
    ];

    let mut headers = vec!["engine".to_string()];
    headers.extend((1..=phases).map(|p| format!("phase{p}")));
    headers.push("probes/ev".to_string());
    headers.push("maint".to_string());
    let mut table = Table::new(headers);
    for (label, config) in configs {
        let matcher = ApcmMatcher::build(&wl.schema, &wl.subs, &config).unwrap();
        // Drift: rotate hot value ranks between phases.
        let mut stream = DriftingStream::new(&wl, phase_events, 211, args.seed ^ 0xE10);
        let mut cells = vec![label.to_string()];
        let mut total_probes = 0u64;
        for phase in 0..phases {
            let window: Vec<Event> = (&mut stream).take(phase_events).collect();
            let before = matcher.stats();
            let start = Instant::now();
            for chunk in window.chunks(1024) {
                std::hint::black_box(matcher.match_batch(chunk));
            }
            let elapsed = start.elapsed();
            let after = matcher.stats();
            // `stats().probes` is a lifetime total (maintenance resets only
            // the per-cluster epoch counters), so the per-phase delta is
            // exact.
            total_probes += after.probes - before.probes;
            let rate = phase_events as f64 / elapsed.as_secs_f64();
            args.record(
                "e10",
                label,
                format!("phase={}", phase + 1),
                "events_per_sec",
                rate,
            );
            cells.push(fmt_rate(rate));
        }
        let stats = matcher.stats();
        cells.push(format!("{}", total_probes / (phases * phase_events) as u64));
        cells.push(format!("{}", stats.maintenance_runs));
        table.row(cells);
    }
    table.print();
    println!("(hot-value rotation every {phase_events} events; corpus {n})\n");
}

/// E11 — per-event latency percentiles.
fn e11_latency(args: &Args) {
    println!("## E11 — per-event matching latency (µs)\n");
    let n = scaled(500_000, args.scale);
    let wl = base_spec(n, args.seed).build();
    let events = wl.events(300);
    let mut table = Table::new(vec!["engine", "p50", "p95", "p99", "max"]);
    for kind in EngineKind::ALL {
        let (matcher, _) = kind.build(&wl);
        // Keep the slow baselines affordable: sample fewer events.
        let sample = if kind.is_sequential() && matches!(kind, EngineKind::Scan) {
            &events[..events.len().min(30)]
        } else {
            &events[..]
        };
        let l = measure_latency(matcher.as_ref(), sample);
        for (metric, value) in [
            ("latency_p50_us", l.p50_us),
            ("latency_p95_us", l.p95_us),
            ("latency_p99_us", l.p99_us),
            ("latency_max_us", l.max_us),
        ] {
            args.record("e11", kind.name(), format!("n={n}"), metric, value);
        }
        table.row(vec![
            kind.name().to_string(),
            format!("{:.1}", l.p50_us),
            format!("{:.1}", l.p95_us),
            format!("{:.1}", l.p99_us),
            format!("{:.1}", l.max_us),
        ]);
    }
    table.print();
    println!("(corpus {n})\n");
}

/// Drives `BATCH` publishes at `client` until the budget elapses and
/// returns end-to-end events/s (ack + all RESULT rows received).
fn pump_batches(client: &mut BrokerClient, wl: &Workload, budget: Duration) -> f64 {
    let events = wl.events(256);
    let start = Instant::now();
    let mut sent = 0usize;
    loop {
        let results = client
            .publish_batch(&events, &wl.schema)
            .expect("publish through the broker");
        assert_eq!(results.len(), events.len());
        sent += events.len();
        if start.elapsed() >= budget {
            return sent as f64 / start.elapsed().as_secs_f64();
        }
    }
}

/// E13 — cluster tier: routed (front router fanning to N backend servers)
/// vs direct (one server, same client path) publish throughput, and the
/// router's scatter-gather/merge overhead. Everything runs in-process on
/// loopback, so the deltas measure protocol + merge cost, not the network.
/// Median of three interleaved samples — the cheapest estimator that
/// discards a one-off stall (page cache miss, scheduler hiccup) on
/// either side of a comparison.
fn median3(mut v: [f64; 3]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[1]
}

/// SplitMix64 — deterministic stream generator for the skewed cell
/// without pulling a rand dependency into the harness.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn e13_cluster(args: &Args) {
    println!("## E13 — cluster routing: routed vs direct throughput\n");
    let n = scaled(250_000, args.scale).min(20_000);
    let wl = base_spec(n, args.seed).build();
    let backend_config = || ServerConfig {
        shards: 2,
        flush_interval: Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let client_timeout = Duration::from_secs(60);
    // Three interleaved samples per configuration at a third of the cell
    // budget each keep the total cost of a cell where it was, while the
    // warm-up pump absorbs allocator and page-cache cold starts that used
    // to land inside the measured window.
    let sample = args.budget / 3;
    let warmup = (args.budget / 4).min(Duration::from_millis(250));

    // Direct baseline: one standalone server, kept alive for the whole
    // experiment so direct and routed samples interleave — machine-wide
    // drift then hits both sides of every overhead ratio equally.
    let server = Server::start(wl.schema.clone(), backend_config(), "127.0.0.1:0")
        .expect("starting the direct server");
    // Subscriptions live on their own connection so EVENT deliveries
    // cannot crowd the publisher's RESULT replies out of its bounded
    // outbound queue at large catalog scales.
    let mut direct_subs = BrokerClient::connect(&server.local_addr().to_string()).unwrap();
    direct_subs.set_read_timeout(Some(client_timeout)).unwrap();
    for sub in &wl.subs {
        direct_subs.subscribe(sub, &wl.schema).unwrap();
    }
    let mut direct_client = BrokerClient::connect(&server.local_addr().to_string()).unwrap();
    direct_client
        .set_read_timeout(Some(client_timeout))
        .unwrap();
    pump_batches(&mut direct_client, &wl, warmup);

    let mut table = Table::new(vec!["path", "backends", "events/s", "merge overhead %"]);
    let mut direct_recorded = false;
    for n_backends in [1usize, 2, 3] {
        let cluster = ClusterHandle::start(
            wl.schema.clone(),
            (0..n_backends).map(|_| backend_config()).collect(),
            RouterConfig::default(),
        )
        .expect("starting the cluster");
        let mut routed_subs = BrokerClient::connect(&cluster.router_addr()).unwrap();
        routed_subs.set_read_timeout(Some(client_timeout)).unwrap();
        for sub in &wl.subs {
            routed_subs.subscribe(sub, &wl.schema).unwrap();
        }
        let mut client = BrokerClient::connect(&cluster.router_addr()).unwrap();
        client.set_read_timeout(Some(client_timeout)).unwrap();
        pump_batches(&mut client, &wl, warmup);

        let mut direct_samples = [0.0f64; 3];
        let mut routed_samples = [0.0f64; 3];
        for i in 0..3 {
            direct_samples[i] = pump_batches(&mut direct_client, &wl, sample);
            routed_samples[i] = pump_batches(&mut client, &wl, sample);
        }
        let direct = median3(direct_samples);
        let routed = median3(routed_samples);
        let overhead = 100.0 * (direct / routed - 1.0);
        if !direct_recorded {
            args.record(
                "e13",
                "direct",
                "n_backends=1".into(),
                "events_per_sec",
                direct,
            );
            table.row(vec![
                "direct".into(),
                "1".into(),
                fmt_rate(direct),
                "-".into(),
            ]);
            direct_recorded = true;
        }
        args.record(
            "e13",
            "routed",
            format!("n_backends={n_backends}"),
            "events_per_sec",
            routed,
        );
        args.record(
            "e13",
            "routed",
            format!("n_backends={n_backends}"),
            "merge_overhead_pct",
            overhead,
        );
        table.row(vec![
            "routed".into(),
            format!("{n_backends}"),
            fmt_rate(routed),
            format!("{overhead:.1}"),
        ]);
        drop(client);
        drop(routed_subs);
        cluster.shutdown();
    }
    drop(direct_client);
    drop(direct_subs);
    server.shutdown();
    table.print();
    println!("(corpus {n}; overhead is direct/routed - 1, median of 3 interleaved samples)\n");

    e13_skewed(args);
}

/// Number of value bands the skewed cell splits attribute 0 into — one
/// per backend, so tenant-affine placement lines predicate bands up
/// with partitions and summary pruning has something to skip.
const SKEW_BANDS: u64 = 3;
const SKEW_CARD: u64 = 1024;
const SKEW_BAND_WIDTH: u64 = SKEW_CARD / SKEW_BANDS;
/// Inset from each band edge, one summary bucket (1024 values over 64
/// buckets). Band boundaries are not bucket-aligned, so without the
/// inset a window near an edge sets the boundary bucket both adjacent
/// backends' summaries contain and fans out to two backends.
const SKEW_EDGE: u64 = SKEW_CARD / 64;

/// Publishes band-coherent windows: each window's events share one value
/// band on attribute 0, with the band drawn Zipf-style (band 0 hot).
/// Pruning is per-window, so coherence is what makes a window skippable;
/// a mixed window touches every band's backend and prunes nothing.
fn pump_skewed(
    client: &mut BrokerClient,
    schema: &Schema,
    rng: &mut SplitMix,
    budget: Duration,
) -> f64 {
    const WINDOW: usize = 64;
    let start = Instant::now();
    let mut sent = 0usize;
    loop {
        // Zipf(1.1) over 3 bands, precomputed cumulative thresholds.
        let r = rng.below(1000);
        let band = if r < 567 {
            0
        } else if r < 831 {
            1
        } else {
            2
        };
        let lo = band * SKEW_BAND_WIDTH;
        let events: Vec<Event> = (0..WINDOW)
            .map(|_| {
                Event::new(vec![
                    (
                        AttrId(0),
                        (lo + SKEW_EDGE + rng.below(SKEW_BAND_WIDTH - 2 * SKEW_EDGE)) as i64,
                    ),
                    (AttrId(1), rng.below(SKEW_CARD) as i64),
                    (AttrId(2), rng.below(SKEW_CARD) as i64),
                    (AttrId(3), rng.below(SKEW_CARD) as i64),
                ])
                .expect("building a skewed event")
            })
            .collect();
        let results = client
            .publish_batch(&events, schema)
            .expect("publish through the broker");
        assert_eq!(results.len(), events.len());
        sent += events.len();
        if start.elapsed() >= budget {
            return sent as f64 / start.elapsed().as_secs_f64();
        }
    }
}

/// E13 skewed cell — tenant-affine placement: each subscription's value
/// band on attribute 0 is derived from the backend the ring places it
/// on, so per-backend summaries are band-disjoint and the router can
/// prune cold backends out of hot-band windows.
fn e13_skewed(args: &Args) {
    println!("## E13 (skewed) — tenant-affine placement: pruned fan-out\n");
    let n = scaled(60_000, args.scale).min(6_000);
    let schema = Schema::uniform(8, SKEW_CARD);
    let ring = Ring::new(&[0, 1, 2]);
    let mut rng = SplitMix(args.seed ^ 0xE13B);
    let subs: Vec<Subscription> = (0..n as u32)
        .map(|id| {
            // Band keyed off the routing ring: the predicates of every
            // subscription a backend owns live inside that backend's band.
            let band = u64::from(ring.route(SubId(id)));
            let lo =
                band * SKEW_BAND_WIDTH + SKEW_EDGE + rng.below(SKEW_BAND_WIDTH - 2 * SKEW_EDGE - 8);
            // The narrow band interval is the summary witness (smallest
            // bucket cover); the second predicate must stay wider than it
            // or it would steal witness duty and smear the summaries
            // across the uniform attributes. Its high threshold keeps the
            // match rate — and so the EVENT delivery volume — low enough
            // that per-connection outbound queues never saturate.
            let preds = vec![
                Predicate::new(AttrId(0), Op::Between(lo as i64, lo as i64 + 7)),
                Predicate::new(
                    AttrId(1 + rng.below(7) as u32),
                    Op::Ge((SKEW_CARD * 3 / 4 + rng.below(SKEW_CARD * 3 / 16)) as i64),
                ),
            ];
            Subscription::new(SubId(id), preds).expect("building a skewed subscription")
        })
        .collect();

    let backend_config = || ServerConfig {
        shards: 2,
        flush_interval: Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let client_timeout = Duration::from_secs(60);
    let sample = args.budget / 3;
    let warmup = (args.budget / 4).min(Duration::from_millis(250));

    // Direct baseline over the same catalog and stream. Subscriptions
    // are owned by a dedicated connection so EVENT deliveries queue
    // there (and fall to the slow-consumer policy when unread) instead
    // of competing with the publisher's RESULT replies.
    let server = Server::start(schema.clone(), backend_config(), "127.0.0.1:0")
        .expect("starting the direct server");
    let mut direct_subs = BrokerClient::connect(&server.local_addr().to_string()).unwrap();
    direct_subs.set_read_timeout(Some(client_timeout)).unwrap();
    for sub in &subs {
        direct_subs.subscribe(sub, &schema).unwrap();
    }
    let mut direct_client = BrokerClient::connect(&server.local_addr().to_string()).unwrap();
    direct_client
        .set_read_timeout(Some(client_timeout))
        .unwrap();

    let cluster = ClusterHandle::start(
        schema.clone(),
        (0..SKEW_BANDS as usize).map(|_| backend_config()).collect(),
        RouterConfig::default(),
    )
    .expect("starting the cluster");
    let mut routed_subs = BrokerClient::connect(&cluster.router_addr()).unwrap();
    routed_subs.set_read_timeout(Some(client_timeout)).unwrap();
    for sub in &subs {
        routed_subs.subscribe(sub, &schema).unwrap();
    }
    let mut client = BrokerClient::connect(&cluster.router_addr()).unwrap();
    client.set_read_timeout(Some(client_timeout)).unwrap();

    // Measuring pruning before the router has a summary for every
    // backend would just measure the conservative full-fan-out path.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let lines = client.topology().expect("topology");
        let fresh = (0..SKEW_BANDS).all(|m| {
            lines
                .iter()
                .any(|l| l.starts_with(&format!("summary {m} epoch")))
        });
        if fresh {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backend summaries never reached the router"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Identical seeds: both sides see the same band sequence.
    let mut rng_direct = SplitMix(args.seed ^ 0x51EB);
    let mut rng_routed = SplitMix(args.seed ^ 0x51EB);
    pump_skewed(&mut direct_client, &schema, &mut rng_direct, warmup);
    pump_skewed(&mut client, &schema, &mut rng_routed, warmup);
    let base = client.stats().expect("router stats");

    let mut direct_samples = [0.0f64; 3];
    let mut routed_samples = [0.0f64; 3];
    for i in 0..3 {
        direct_samples[i] = pump_skewed(&mut direct_client, &schema, &mut rng_direct, sample);
        routed_samples[i] = pump_skewed(&mut client, &schema, &mut rng_routed, sample);
    }
    let direct = median3(direct_samples);
    let routed = median3(routed_samples);
    let stats = client.stats().expect("router stats");
    let sent = (stats["fanouts_sent"] - base["fanouts_sent"]) as f64;
    let possible = (stats["fanouts_possible"] - base["fanouts_possible"]) as f64;
    let ratio = if possible == 0.0 {
        1.0
    } else {
        sent / possible
    };
    let overhead = 100.0 * (direct / routed - 1.0);

    args.record(
        "e13",
        "direct-skewed",
        "n_backends=1".into(),
        "events_per_sec",
        direct,
    );
    args.record(
        "e13",
        "routed-skewed",
        "n_backends=3".into(),
        "events_per_sec",
        routed,
    );
    args.record(
        "e13",
        "routed-skewed",
        "n_backends=3".into(),
        "merge_overhead_pct",
        overhead,
    );
    args.record(
        "e13",
        "routed-skewed",
        "n_backends=3".into(),
        "pruned_fanout_ratio",
        ratio,
    );

    let mut table = Table::new(vec![
        "path",
        "backends",
        "events/s",
        "merge overhead %",
        "pruned fan-out",
    ]);
    table.row(vec![
        "direct".into(),
        "1".into(),
        fmt_rate(direct),
        "-".into(),
        "-".into(),
    ]);
    table.row(vec![
        "routed".into(),
        format!("{SKEW_BANDS}"),
        fmt_rate(routed),
        format!("{overhead:.1}"),
        format!("{ratio:.3}"),
    ]);
    table.print();
    println!(
        "(catalog {n}, band-coherent 64-event windows, Zipf band choice; \
         pruned fan-out = fanouts_sent / fanouts_possible)\n"
    );

    drop(client);
    drop(routed_subs);
    cluster.shutdown();
    drop(direct_client);
    drop(direct_subs);
    server.shutdown();
}

/// E14 — replication tier: durable churn throughput through the router
/// with and without a live follower tailing the churn log, and the
/// failover blackout window — how long after killing a partition's
/// primary the router serves a full-coverage window again.
fn e14_replication(args: &Args) {
    println!("## E14 — replication: churn cost and failover blackout\n");
    let n = scaled(100_000, args.scale).min(10_000);
    let wl = base_spec(n, args.seed).build();
    let tmp = std::env::temp_dir().join(format!("apcm-e14-{}", std::process::id()));
    let node_config = |tag: String| ServerConfig {
        shards: 2,
        flush_interval: Duration::from_millis(2),
        persist: Some(PersistConfig::new(tmp.join(tag))),
        ..ServerConfig::default()
    };
    let client_timeout = Duration::from_secs(60);

    let mut table = Table::new(vec!["setup", "churn ops/s", "failover blackout"]);
    for (label, replicated) in [("unreplicated", false), ("replicated", true)] {
        let replica = replicated.then(|| node_config(format!("{label}-replica")));
        let mut cluster = ClusterHandle::start_replicated(
            wl.schema.clone(),
            vec![(node_config(format!("{label}-primary")), replica)],
            RouterConfig {
                health_interval: Duration::from_millis(25),
                ..RouterConfig::default()
            },
        )
        .expect("starting the cluster");
        let mut client = BrokerClient::connect(&cluster.router_addr()).unwrap();
        client.set_read_timeout(Some(client_timeout)).unwrap();
        client.set_churn_retry(40, Duration::from_millis(25));

        let rate = pump_churn(&mut client, &wl, args.budget);
        args.record(
            "e14",
            label,
            "n_partitions=1".into(),
            "churn_ops_per_sec",
            rate,
        );

        let mut blackout_cell = "-".to_string();
        if replicated {
            // The follower must drain the churn backlog before the router
            // will promote it, so wait for applied seqs to converge.
            let sync_deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match (cluster.node(0, 0), cluster.node(0, 1)) {
                    (Some(a), Some(b)) if a.current_seq() == b.current_seq() => break,
                    _ => {}
                }
                assert!(
                    Instant::now() < sync_deadline,
                    "replica never caught up after the churn run"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            let events = wl.events(8);
            let kill = Instant::now();
            cluster.kill_node(0, 0);
            let blackout = loop {
                match client.publish_batch_flagged(&events, &wl.schema) {
                    Ok(rows) if rows.values().all(|(_, partial)| !partial) => {
                        break kill.elapsed();
                    }
                    _ => {}
                }
                assert!(
                    kill.elapsed() < Duration::from_secs(30),
                    "failover never completed"
                );
                std::thread::sleep(Duration::from_millis(2));
            };
            let blackout_ms = blackout.as_secs_f64() * 1e3;
            args.record(
                "e14",
                label,
                "kill=primary".into(),
                "failover_blackout_ms",
                blackout_ms,
            );
            blackout_cell = format!("{blackout_ms:.1} ms");
        }
        table.row(vec![label.into(), fmt_rate(rate), blackout_cell]);
        drop(client);
        cluster.shutdown();
    }
    table.print();
    println!(
        "(single partition, corpus {n}; churn is SUB upserts through the router; \
         blackout is kill \u{2192} first full-coverage window)\n"
    );
    let _ = std::fs::remove_dir_all(&tmp);
}

/// E18 — replication chains: churn throughput through the pipelined-ack
/// replication stream at chain depth 0/1/2, and routed read (window)
/// throughput as followers are added — the seq-floor read guard should
/// let followers absorb reads without ever serving a stale row, and the
/// pipelined acks should keep replicated churn close to the
/// unreplicated rate (PR 5's hop-per-record acks paid ~40%).
fn e18_chains(args: &Args) {
    println!("## E18 — replication chains: pipelined acks and follower-served reads\n");
    let n = scaled(100_000, args.scale).min(10_000);
    let wl = base_spec(n, args.seed).build();
    let tmp = std::env::temp_dir().join(format!("apcm-e18-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let node_config = |tag: String| ServerConfig {
        shards: 2,
        flush_interval: Duration::from_millis(2),
        persist: Some(PersistConfig::new(tmp.join(tag))),
        ..ServerConfig::default()
    };

    let mut table = Table::new(vec![
        "followers",
        "churn ops/s",
        "vs depth 0",
        "routed reads ev/s",
        "follower-served",
    ]);
    let mut unreplicated_churn = None;
    for followers in [0usize, 1, 2] {
        let chain: Vec<ServerConfig> = (0..=followers)
            .map(|i| node_config(format!("f{followers}-n{i}")))
            .collect();
        let cluster = ClusterHandle::start_chained(
            wl.schema.clone(),
            vec![chain],
            RouterConfig {
                health_interval: Duration::from_millis(25),
                ..RouterConfig::default()
            },
        )
        .expect("starting the chained cluster");
        let mut client = BrokerClient::connect(&cluster.router_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        client.set_churn_retry(40, Duration::from_millis(25));
        let param = format!("followers={followers}");

        // Durable churn through the chain: each record is acked to the
        // client after the primary's append, and replicated hop-to-hop
        // with acks batched per drained burst.
        let churn_rate = pump_churn(&mut client, &wl, args.budget);
        args.record(
            "e18",
            "chained",
            param.clone(),
            "churn_ops_per_sec",
            churn_rate,
        );
        let ratio_cell = match unreplicated_churn {
            None => {
                unreplicated_churn = Some(churn_rate);
                "-".to_string()
            }
            Some(base) => {
                let ratio = churn_rate / base;
                args.record(
                    "e18",
                    "chained",
                    param.clone(),
                    "churn_ratio_vs_unreplicated",
                    ratio,
                );
                format!("{:.0}%", ratio * 1e2)
            }
        };

        // Every follower must clear the churn-ack floor before the
        // router will route windows to it: wait for applied sequences to
        // converge, then for the health sweep to certify a follower.
        let sync_deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let seqs: Vec<u64> = (0..cluster.node_count(0))
                .filter_map(|i| cluster.node(0, i))
                .map(|s| s.current_seq())
                .collect();
            if seqs.windows(2).all(|w| w[0] == w[1]) {
                break;
            }
            assert!(
                Instant::now() < sync_deadline,
                "chain never caught up after the churn run"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let events = wl.events(64);
        if followers > 0 {
            let warm_deadline = Instant::now() + Duration::from_secs(10);
            while client.stats().unwrap()["reads_follower_served"] == 0 {
                client
                    .publish_batch_flagged(&events, &wl.schema)
                    .expect("warm-up window");
                assert!(
                    Instant::now() < warm_deadline,
                    "router never served a window from a follower"
                );
            }
        }

        // Routed reads: full windows through the scatter path, served by
        // the primary at depth 0 and round-robined across read-eligible
        // followers otherwise.
        let start = Instant::now();
        let mut n_events = 0usize;
        while start.elapsed() < args.budget {
            client
                .publish_batch_flagged(&events, &wl.schema)
                .expect("routed window");
            n_events += events.len();
        }
        let read_rate = n_events as f64 / start.elapsed().as_secs_f64();
        args.record(
            "e18",
            "chained",
            param.clone(),
            "read_events_per_sec",
            read_rate,
        );
        let served = client.stats().unwrap()["reads_follower_served"];
        args.record(
            "e18",
            "chained",
            param.clone(),
            "reads_follower_served",
            served as f64,
        );

        table.row(vec![
            format!("{followers}"),
            fmt_rate(churn_rate),
            ratio_cell,
            fmt_rate(read_rate),
            format!("{served}"),
        ]);
        drop(client);
        cluster.shutdown();
    }
    table.print();
    println!(
        "(single partition, corpus {n}; churn is SUB upserts acked after the primary's \
         append; reads are 64-event windows through the router, follower-served once \
         past the seq floor)\n"
    );
    let _ = std::fs::remove_dir_all(&tmp);
}

/// E15 — colstore snapshots. One primary takes a full snapshot under
/// live churn (file size, wall time, and the longest churn-ack stall),
/// restarts from it (recovery time), dirties one partition and writes a
/// delta, and bootstraps a fresh follower (bytes shipped, catch-up time).
fn e15_colstore(args: &Args) {
    println!("## E15 — colstore snapshots: full, delta, recovery, bootstrap\n");
    let n = scaled(100_000, args.scale).min(20_000);
    let wl = base_spec(n, args.seed).build();
    let tmp = std::env::temp_dir().join(format!("apcm-e15-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let label = "colstore";
    let dir = tmp.join(label);

    let mut table = Table::new(vec![
        "snapshot",
        "size",
        "write ms",
        "stall ms",
        "recovery ms",
        "bootstrap",
        "catch-up ms",
    ]);
    let config = ServerConfig {
        shards: 2,
        flush_interval: Duration::from_millis(2),
        persist: Some(PersistConfig {
            snapshot_interval: None,
            ..PersistConfig::new(&dir)
        }),
        ..ServerConfig::default()
    };
    let server = Server::start(wl.schema.clone(), config.clone(), "127.0.0.1:0").unwrap();
    let mut client = BrokerClient::connect(&server.local_addr().to_string()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    for sub in &wl.subs {
        client.subscribe(sub, &wl.schema).unwrap();
    }

    // Snapshot under live churn: a probe connection re-upserts one sub in
    // a tight loop; its longest ack-to-ack gap is the churn stall the
    // snapshot pass induced.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let probe = {
        let addr = server.local_addr().to_string();
        let stop = stop.clone();
        let schema = wl.schema.clone();
        let sub = wl.subs[0].clone();
        std::thread::spawn(move || {
            let mut c = BrokerClient::connect(&addr).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
            let mut max_gap = Duration::ZERO;
            let mut last = Instant::now();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                c.subscribe(&sub, &schema).unwrap();
                let now = Instant::now();
                max_gap = max_gap.max(now - last);
                last = now;
            }
            max_gap
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    let t0 = Instant::now();
    client.snapshot().unwrap();
    let write_ms = t0.elapsed().as_secs_f64() * 1e3;
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let stall_ms = probe.join().unwrap().as_secs_f64() * 1e3;
    let snap_bytes = std::fs::metadata(dir.join("snapshot.apcm")).unwrap().len();

    let param = format!("n={n}");
    args.record(
        "e15",
        label,
        param.clone(),
        "snapshot_bytes",
        snap_bytes as f64,
    );
    args.record("e15", label, param.clone(), "snapshot_write_ms", write_ms);
    args.record("e15", label, param.clone(), "churn_max_stall_ms", stall_ms);

    // Restart on the same dir: recovery = snapshot load + log replay.
    client.quit().ok();
    server.shutdown();
    let t0 = Instant::now();
    let server = Server::start(wl.schema.clone(), config, "127.0.0.1:0").unwrap();
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(server.engine().len(), n, "recovery lost subs");
    args.record("e15", label, param.clone(), "recovery_ms", recovery_ms);

    // Dirty one of the two partitions, then an incremental pass writes a
    // delta instead of a full.
    let mut c = BrokerClient::connect(&server.local_addr().to_string()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    c.snapshot().unwrap(); // restart dropped the chain; re-anchor it
    let target = route_partition(wl.subs[0].id(), 2);
    let mut dirtied = 0usize;
    // Unsubscribes: a duplicate SUB is a no-op, but removals are real
    // churn confined to `target`, so only it goes dirty.
    for sub in &wl.subs {
        if route_partition(sub.id(), 2) == target {
            c.unsubscribe(sub.id()).unwrap();
            dirtied += 1;
            if dirtied > n / 20 {
                break;
            }
        }
    }
    let t0 = Instant::now();
    let outcome = server.snapshot_incremental().unwrap();
    let delta_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(outcome.delta, "incremental pass fell back to a full");
    let delta_bytes = std::fs::metadata(dir.join("snapshot-delta-1.col"))
        .unwrap()
        .len();
    let dparam = format!("n={n} dirtied={dirtied}");
    args.record(
        "e15",
        "colstore+delta",
        dparam.clone(),
        "snapshot_bytes",
        delta_bytes as f64,
    );
    args.record(
        "e15",
        "colstore+delta",
        dparam,
        "snapshot_write_ms",
        delta_ms,
    );
    c.quit().ok();

    // Fresh follower from seq 0: the rotated log can't serve it, so the
    // primary ships a full colstore bootstrap.
    let rconfig = ServerConfig {
        replica_of: Some(server.local_addr().to_string()),
        shards: 2,
        flush_interval: Duration::from_millis(2),
        persist: Some(PersistConfig {
            snapshot_interval: None,
            ..PersistConfig::new(tmp.join(format!("{label}-replica")))
        }),
        ..ServerConfig::default()
    };
    let target_seq = server.current_seq();
    let t0 = Instant::now();
    let replica = Server::start(wl.schema.clone(), rconfig, "127.0.0.1:0").unwrap();
    while replica.current_seq() < target_seq
        || ServerStats::get(&replica.stats().repl_bootstraps) == 0
    {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "follower never bootstrapped"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let bootstrap_ms = t0.elapsed().as_secs_f64() * 1e3;
    let bootstrap_bytes = ServerStats::get(&server.stats().repl_bootstrap_bytes);
    args.record(
        "e15",
        label,
        param.clone(),
        "bootstrap_bytes",
        bootstrap_bytes as f64,
    );
    args.record("e15", label, param, "bootstrap_ms", bootstrap_ms);

    table.row(vec![
        "full".into(),
        fmt_bytes(snap_bytes as usize),
        format!("{write_ms:.1}"),
        format!("{stall_ms:.1}"),
        format!("{recovery_ms:.1}"),
        fmt_bytes(bootstrap_bytes as usize),
        format!("{bootstrap_ms:.1}"),
    ]);
    table.row(vec![
        "delta".into(),
        fmt_bytes(delta_bytes as usize),
        format!("{delta_ms:.1}"),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    replica.shutdown();
    server.shutdown();
    table.print();
    println!("(corpus {n}; stall is the longest churn-ack gap while the full pass ran)\n");
    let _ = std::fs::remove_dir_all(&tmp);
}

/// E16 — elastic resharding: live scale-out from two to three partitions
/// under continuous churn. Measures the end-to-end migration time, the
/// worst single churn-op stall (the ownership-flip blackout, absorbed by
/// the client's not-owner retry), the fraction of the id space the ring
/// moves (contract: ≈ 1/N), and acked churn lost across the move — which
/// must be zero, checked row-by-row against a brute-force oracle.
fn e16_resharding(args: &Args) {
    println!("## E16 — elastic resharding: live scale-out under churn\n");
    let n = scaled(100_000, args.scale).min(5_000);
    let wl = base_spec(n, args.seed).build();
    let tmp = std::env::temp_dir().join(format!("apcm-e16-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let node_config = |tag: &str| ServerConfig {
        shards: 2,
        flush_interval: Duration::from_millis(2),
        persist: Some(PersistConfig::new(tmp.join(tag))),
        ..ServerConfig::default()
    };
    let mut cluster = ClusterHandle::start(
        wl.schema.clone(),
        vec![node_config("p0"), node_config("p1")],
        RouterConfig {
            health_interval: Duration::from_millis(25),
            ..RouterConfig::default()
        },
    )
    .expect("starting the cluster");
    let mut client = BrokerClient::connect(&cluster.router_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    client.set_churn_retry(400, Duration::from_millis(5));
    for sub in &wl.subs {
        client
            .subscribe(sub, &wl.schema)
            .expect("seeding subscriptions");
    }

    // The ring contract predicts the moved share before the drill runs.
    let old_ring = Ring::new(&[0, 1]);
    let new_ring = Ring::new(&[0, 1, 2]);
    let moved = wl
        .subs
        .iter()
        .filter(|s| old_ring.route(s.id()) != new_ring.route(s.id()))
        .count();
    let moved_fraction = moved as f64 / wl.subs.len() as f64;

    // Join a third partition and churn straight through the migration;
    // the longest single ack is the blackout a client actually observes.
    let joiner = cluster
        .add_backend_pair(node_config("p2"), None)
        .expect("starting the joiner");
    let joiner_addr = cluster.backend_addr(joiner).to_string();
    let start = Instant::now();
    client.reshard_add(&joiner_addr, None).expect("RESHARD ADD");
    let mut blackout = Duration::ZERO;
    let mut churn_ops = 0usize;
    let migration = loop {
        if client.reshard_status().expect("RESHARD STATUS") == "OK reshard idle" {
            break start.elapsed();
        }
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "migration never settled"
        );
        for sub in wl.subs.iter().take(32) {
            let op = Instant::now();
            client
                .subscribe(sub, &wl.schema)
                .expect("churn during migration");
            blackout = blackout.max(op.elapsed());
            churn_ops += 1;
        }
    };

    // Every acked subscription must still match after the move: publish
    // a window through the router and diff it against the oracle.
    let events = wl.events(16);
    let expect: Vec<Vec<SubId>> = events
        .iter()
        .map(|ev| {
            wl.subs
                .iter()
                .filter(|s| s.matches(ev))
                .map(|s| s.id())
                .collect()
        })
        .collect();
    let results = client
        .publish_batch_flagged(&events, &wl.schema)
        .expect("post-reshard window");
    let base = *results.keys().next().unwrap();
    let mut dropped = 0usize;
    for (seq, (row, partial)) in &results {
        assert!(!partial, "post-reshard window flagged partial");
        let want = &expect[(seq - base) as usize];
        dropped += want.iter().filter(|id| !row.contains(id)).count();
        dropped += row.iter().filter(|id| !want.contains(id)).count();
    }
    assert_eq!(dropped, 0, "resharding dropped acked churn");

    let migration_ms = migration.as_secs_f64() * 1e3;
    let blackout_ms = blackout.as_secs_f64() * 1e3;
    let label = "scale-out 2\u{2192}3";
    let param = format!("n={n}");
    args.record("e16", label, param.clone(), "migration_ms", migration_ms);
    args.record(
        "e16",
        label,
        param.clone(),
        "churn_blackout_ms",
        blackout_ms,
    );
    args.record(
        "e16",
        label,
        param.clone(),
        "moved_fraction",
        moved_fraction,
    );
    args.record("e16", label, param, "dropped_churn", dropped as f64);

    let mut table = Table::new(vec![
        "drill",
        "migration ms",
        "blackout ms",
        "moved",
        "dropped churn",
    ]);
    table.row(vec![
        label.into(),
        format!("{migration_ms:.1}"),
        format!("{blackout_ms:.1}"),
        format!("{:.1}% (ideal {:.1}%)", moved_fraction * 1e2, 1e2 / 3.0),
        format!("{dropped}"),
    ]);
    table.print();
    println!(
        "(corpus {n}; {churn_ops} churn ops rode through the migration; blackout is \
         the longest single churn ack, absorbed by the client's not-owner retry)\n"
    );
    drop(client);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Drives subscription churn (`SUB` upserts) through `client` until the
/// budget elapses and returns acked churn ops/s. Every op is
/// ack-after-append on the backend, so this prices the durable path.
fn pump_churn(client: &mut BrokerClient, wl: &Workload, budget: Duration) -> f64 {
    let start = Instant::now();
    let mut ops = 0usize;
    'outer: loop {
        for sub in &wl.subs {
            client
                .subscribe(sub, &wl.schema)
                .expect("churn through the router");
            ops += 1;
            if ops.is_multiple_of(64) && start.elapsed() >= budget {
                break 'outer;
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// E12 — construction and maintenance: build time per engine, dynamic
/// subscribe/unsubscribe rates for the engines that support them.
fn e12_build(args: &Args) {
    println!("## E12 — index construction and maintenance\n");
    let n = scaled(1_000_000, args.scale);
    let wl = base_spec(n, args.seed).build();
    let mut table = Table::new(vec!["engine", "build time", "subs/s (build)"]);
    for kind in EngineKind::ALL {
        let (_, build) = kind.build(&wl);
        args.record(
            "e12",
            kind.name(),
            format!("n={n}"),
            "build_secs",
            build.as_secs_f64(),
        );
        args.record(
            "e12",
            kind.name(),
            format!("n={n}"),
            "build_subs_per_sec",
            n as f64 / build.as_secs_f64(),
        );
        table.row(vec![
            kind.name().to_string(),
            format!("{build:.2?}"),
            fmt_rate(n as f64 / build.as_secs_f64()),
        ]);
    }
    table.print();
    println!();

    // Dynamic maintenance: A-PCM subscribe/unsubscribe throughput.
    let extra = base_spec(10_000, args.seed + 1).build();
    let fresh: Vec<Subscription> = extra
        .subs
        .iter()
        .map(|s| Subscription::new(SubId(s.id().0 + 50_000_000), s.predicates().to_vec()).unwrap())
        .collect();
    let matcher = ApcmMatcher::build(&wl.schema, &wl.subs, &ApcmConfig::default()).unwrap();
    let start = Instant::now();
    for sub in &fresh {
        matcher.subscribe(sub).unwrap();
    }
    let sub_time = start.elapsed();
    let start = Instant::now();
    for sub in &fresh {
        matcher.unsubscribe(sub.id());
    }
    let unsub_time = start.elapsed();
    args.record(
        "e12",
        "A-PCM subscribe",
        format!("ops={}", fresh.len()),
        "ops_per_sec",
        fresh.len() as f64 / sub_time.as_secs_f64(),
    );
    args.record(
        "e12",
        "A-PCM unsubscribe",
        format!("ops={}", fresh.len()),
        "ops_per_sec",
        fresh.len() as f64 / unsub_time.as_secs_f64(),
    );
    let mut table = Table::new(vec!["operation", "ops", "time", "ops/s"]);
    table.row(vec![
        "A-PCM subscribe".to_string(),
        format!("{}", fresh.len()),
        format!("{sub_time:.2?}"),
        fmt_rate(fresh.len() as f64 / sub_time.as_secs_f64()),
    ]);
    table.row(vec![
        "A-PCM unsubscribe".to_string(),
        format!("{}", fresh.len()),
        format!("{unsub_time:.2?}"),
        fmt_rate(fresh.len() as f64 / unsub_time.as_secs_f64()),
    ]);
    table.print();
    println!();
}

// ---------------------------------------------------------------------
// E17 — event-loop broker at connection scale.
//
// The broker runs in a *child process* (`--experiment e17-serve`) so its
// RSS is readable from `/proc/<pid>/status` without the measuring
// client's own sockets and buffers polluting the number. The parent dials
// N idle subscribers (SUB once, then silence) and samples the child's
// VmRSS per point, then measures PING round-trip percentiles across a
// fleet of active connections.

/// Child mode: start a broker, print `ADDR <addr>`, serve until stdin
/// closes or says `stop`. The shutdown render is discarded — stdout
/// must carry nothing but the ADDR line.
fn e17_serve() {
    use std::io::{BufRead, Write};
    let _ = apcm_netio::sys::raise_nofile_limit();
    let schema = Schema::uniform(8, 64);
    let config = ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(schema, config, "127.0.0.1:0").expect("start e17 broker");
    println!("ADDR {}", server.local_addr());
    std::io::stdout().flush().expect("flush ADDR line");
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(text) if text.trim() == "stop" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    let _ = server.shutdown();
}

/// A broker child process plus the pipe that stops it.
struct ServeChild {
    child: std::process::Child,
    stdin: std::process::ChildStdin,
    /// Held so the pipe stays open for the child's (discarded) output.
    _stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
}

fn spawn_serve() -> ServeChild {
    use std::io::BufRead;
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = std::process::Command::new(exe)
        .args(["--experiment", "e17-serve"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn e17 broker child");
    let stdin = child.stdin.take().expect("child stdin");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("child ADDR line");
    let addr = line
        .trim()
        .strip_prefix("ADDR ")
        .unwrap_or_else(|| panic!("expected `ADDR <addr>`, got {line:?}"))
        .to_string();
    ServeChild {
        child,
        stdin,
        _stdout: stdout,
        addr,
    }
}

impl ServeChild {
    /// The child's resident set in MiB, from `/proc/<pid>/status`.
    fn rss_mib(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|status| {
                status.lines().find_map(|l| {
                    l.strip_prefix("VmRSS:")?
                        .trim()
                        .strip_suffix("kB")?
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
            .map(|kb| kb / 1024.0)
            .unwrap_or(0.0)
    }

    fn stop(mut self) {
        use std::io::Write;
        let _ = writeln!(self.stdin, "stop");
        drop(self.stdin);
        let _ = self.child.wait();
    }
}

/// Reads one `\n`-terminated line a byte at a time — no per-connection
/// BufReader, so a 10k-socket fleet costs no parent-side read buffers.
fn read_line_raw(stream: &std::net::TcpStream) -> String {
    use std::io::Read;
    let mut out = Vec::with_capacity(16);
    let mut byte = [0u8; 1];
    let mut stream = stream;
    loop {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => out.push(byte[0]),
            Err(e) => panic!("reading broker reply: {e}"),
        }
    }
    String::from_utf8_lossy(&out).trim_end().to_string()
}

/// Dials `n` connections, subscribes each once, and leaves them idle.
fn e17_fleet(addr: &str, n: usize) -> Vec<std::net::TcpStream> {
    use std::io::Write;
    let mut conns = Vec::with_capacity(n);
    for i in 0..n {
        let stream = std::net::TcpStream::connect(addr).expect("dial e17 broker");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        {
            let mut w = &stream;
            writeln!(w, "SUB {i} a0 >= {}", i % 64).expect("send SUB");
        }
        let ack = read_line_raw(&stream);
        assert!(ack.starts_with("+OK"), "SUB refused: {ack}");
        conns.push(stream);
    }
    conns
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn e17_netio(args: &Args) {
    use std::io::Write;
    println!("## E17 — event-loop broker: idle-subscriber RSS + active-conn latency\n");
    let (soft, hard) = apcm_netio::sys::raise_nofile_limit().unwrap_or((1024, 1024));
    // Parent and child each spend ~one fd per connection; leave headroom
    // for the engines, persistence, and std handles on both sides.
    let fd_cap = (soft as usize).saturating_sub(1000);
    println!("(RLIMIT_NOFILE soft {soft}, hard {hard} -> per-point cap {fd_cap} conns)\n");

    let name = "event-loop";
    let mut table = Table::new(vec!["idle conns", "server RSS", "MiB/1k conns"]);
    for target in [1_000usize, 10_000, 50_000] {
        let want = ((target as f64 * args.scale).ceil() as usize).clamp(100, target);
        let conns = want.min(fd_cap);
        if conns < want {
            println!("(note: {want} conns capped to {conns} by RLIMIT_NOFILE {soft})");
        }
        let child = spawn_serve();
        let fleet = e17_fleet(&child.addr, conns);
        // Let the child's allocator and loop settle before sampling.
        std::thread::sleep(Duration::from_millis(300));
        let rss = child.rss_mib();
        args.record("e17", name, format!("conns={conns}"), "rss_mib", rss);
        args.record(
            "e17",
            name,
            format!("conns={conns}"),
            "rss_mib_per_1k_conns",
            rss / (conns as f64 / 1000.0),
        );
        table.row(vec![
            format!("{conns}"),
            format!("{rss:.1} MiB"),
            format!("{:.2}", rss / (conns as f64 / 1000.0)),
        ]);
        drop(fleet);
        child.stop();
    }
    table.print();
    println!();

    // Latency: a fleet of *active* connections round-robin PINGs the
    // broker; every round trip is one sample.
    let active = ((1_000f64 * args.scale).ceil() as usize)
        .clamp(100, 1_000)
        .min(fd_cap);
    let rounds = 5usize;
    let mut latency = Table::new(vec!["active conns", "p50 us", "p95 us", "p99 us"]);
    let child = spawn_serve();
    let fleet = e17_fleet(&child.addr, active);
    let mut samples = Vec::with_capacity(active * rounds);
    for _ in 0..rounds {
        for stream in &fleet {
            let start = Instant::now();
            {
                let mut w = stream;
                w.write_all(b"PING\n").expect("send PING");
            }
            let reply = read_line_raw(stream);
            assert_eq!(reply, "+PONG");
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    samples.sort_by(f64::total_cmp);
    let (p50, p95, p99) = (
        percentile(&samples, 0.50),
        percentile(&samples, 0.95),
        percentile(&samples, 0.99),
    );
    for (metric, value) in [
        ("latency_p50_us", p50),
        ("latency_p95_us", p95),
        ("latency_p99_us", p99),
    ] {
        args.record("e17", name, format!("conns={active}"), metric, value);
    }
    latency.row(vec![
        format!("{active}"),
        format!("{p50:.1}"),
        format!("{p95:.1}"),
        format!("{p99:.1}"),
    ]);
    drop(fleet);
    child.stop();
    latency.print();
    println!("(PING round trips, {rounds} rounds over the whole fleet)\n");
}
