//! The traced run: the same frames replayed closed-loop at each layer
//! boundary, by calling the layer's public functions from here. Inclusive
//! µs/event per boundary, the waterfall of self times, and the counts the
//! layers keep, read as deltas over the replay.
//!
//! Containment: `cluster.router` ⊃ `server.broker` ⊃ {`server.protocol`,
//! `server.ingest` ⊃ `server.shard` ⊃ `core` ⊃ `encoding`}.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use apcm_bexpr::{parser::parse_event, Matcher, SubId, Subscription};
use apcm_core::{ApcmConfig, ApcmMatcher, PcmMatcher};
use apcm_encoding::{FixedBitSet, PredicateSpace};
use apcm_server::protocol::{parse_request, render_result};
use apcm_server::{
    route_partition, BrokerClient, IngestItem, IngestPipeline, PersistConfig, Persister,
    ResultSink, ServerConfig, ServerStats, ShardedEngine,
};

use crate::client::{Check, OP_TIMEOUT};
use crate::gen::Inputs;
use crate::load::Running;
use crate::stack::{server_config, Scratch, Stack, SHARDS};
use crate::trace::{waterfall, Boundary, Node, Row, Tracer};
use crate::workloads::{Frame, Topology, Workload};

/// Layers off a workload's own path (the router on a direct workload,
/// persistence and replication anywhere but the churn workload) replay
/// against at most this many subscriptions, so the traced run fits its
/// time cap.
pub const SIDE_CAP: usize = 12_000;

pub const ROUTER: &str = "cluster.router";
pub const BROKER: &str = "server.broker";
pub const PROTOCOL: &str = "server.protocol";
pub const INGEST: &str = "server.ingest";
pub const SHARD: &str = "server.shard";
pub const CORE: &str = "core";
pub const ENCODING: &str = "encoding";
/// Waterfall rows, outermost first.
pub const LAYERS: [&str; 7] = [ROUTER, BROKER, PROTOCOL, INGEST, SHARD, CORE, ENCODING];

pub struct Layered {
    pub metrics: BTreeMap<String, f64>,
    pub waterfall: Vec<Row>,
    pub tracer: Tracer,
    /// Rows and churn acks checked along the way, and how many were wrong.
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub wall_s: f64,
}

fn rows_differ<'a>(rows: &[Vec<SubId>], expected: impl IntoIterator<Item = &'a Vec<u32>>) -> u64 {
    rows.iter()
        .zip(expected)
        .filter(|(row, want)| !row.iter().map(|id| id.0).eq(want.iter().copied()))
        .count() as u64
}

/// Resident set size of this process in bytes.
fn rss_bytes() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: f64 = statm
        .split(' ')
        .nth(1)
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.0);
    pages * 4096.0
}

fn engine_error(e: apcm_bexpr::BexprError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Counts the rows the ingest pipeline hands over and checks each.
struct CaptureSink {
    inputs: Arc<Inputs>,
    seen: Mutex<u64>,
    progress: Condvar,
    wrong: AtomicU64,
}

impl ResultSink for CaptureSink {
    fn on_window(&self, items: &[IngestItem], rows: &[Vec<SubId>]) {
        let pool = self.inputs.events.len() as u64;
        let wanted = items
            .iter()
            .map(|item| &self.inputs.expected[(item.seq % pool) as usize]);
        self.wrong
            .fetch_add(rows_differ(rows, wanted), Ordering::Relaxed);
        *self.seen.lock().expect("sink lock") += items.len() as u64;
        self.progress.notify_all();
    }
}

fn stats_of(addr: &str) -> io::Result<BTreeMap<String, u64>> {
    let mut client = BrokerClient::connect(addr)?;
    client.set_read_timeout(Some(OP_TIMEOUT))?;
    let stats = client.stats()?;
    let _ = client.quit();
    Ok(stats)
}

struct Run<'a> {
    workload: &'a Workload,
    inputs: &'a Arc<Inputs>,
    /// `inputs` cut to `SIDE_CAP` subscriptions (or `inputs` itself).
    side: Arc<Inputs>,
    scratch: &'a Scratch,
    config: ServerConfig,
    /// Time each boundary may replay for.
    budget: Duration,
    /// Events per `match_window` call: the ingest pipeline cuts frames into
    /// windows of at most `config.window`.
    window: usize,
    tracer: Tracer,
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

impl Run<'_> {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn windows(&self) -> usize {
        self.inputs.events.len() / self.window
    }

    fn frames(&self) -> usize {
        self.inputs.events.len() / self.workload.frame.events()
    }

    /// Replays `match_window` over the pool's windows and checks the rows.
    fn replay_windows(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        expected: &[Vec<u32>],
        match_window: impl Fn(&[apcm_bexpr::Event]) -> Vec<Vec<SubId>>,
    ) -> Boundary {
        let inputs: &Arc<Inputs> = self.inputs;
        let (window, events) = (self.window, &inputs.events);
        let failed = &mut self.failed;
        let boundary = self
            .tracer
            .replay(name, parent, events.len() / window, self.budget, |w| {
                let range = w * window..(w + 1) * window;
                *failed += rows_differ(&match_window(&events[range.clone()]), &expected[range]);
                window as u64
            });
        self.attempted += boundary.events;
        boundary
    }

    /// `server.shard`, then `server.ingest` over the same engine, which is
    /// loaded as the server loads one: built empty, subscribed one by one,
    /// one maintenance pass. Returns `(shard, ingest, fullest shard)`.
    fn shard_and_ingest(&mut self) -> io::Result<(Boundary, Boundary, usize)> {
        let inputs = self.inputs.clone();
        let rss0 = rss_bytes();
        let engine =
            Arc::new(ShardedEngine::new(&inputs.schema, &self.config).map_err(engine_error)?);
        let t0 = Instant::now();
        for sub in &inputs.subs {
            engine.subscribe(sub).map_err(engine_error)?;
        }
        let load = t0.elapsed();
        engine.maintain();
        self.put(
            "subscribe_us",
            load.as_secs_f64() * 1e6 / inputs.subs.len() as f64,
        );
        self.put(
            "state_bytes_per_sub",
            (rss_bytes() - rss0).max(0.0) / inputs.subs.len() as f64,
        );
        let per_shard = engine.per_shard_len();
        let mean = per_shard.iter().sum::<usize>() as f64 / per_shard.len() as f64;
        let fullest = (0..per_shard.len())
            .max_by_key(|&s| per_shard[s])
            .unwrap_or(0);
        self.put("shard_skew", per_shard[fullest] as f64 / mean);
        let shard = self.replay_windows(SHARD, Some(INGEST), &inputs.expected, |events| {
            engine.match_window(events)
        });
        self.put("shard_us_per_event", shard.us_per_event());

        let stats = Arc::new(ServerStats::default());
        let sink = Arc::new(CaptureSink {
            inputs: inputs.clone(),
            seen: Mutex::new(0),
            progress: Condvar::new(),
            wrong: AtomicU64::new(0),
        });
        let pipeline = IngestPipeline::start(engine, stats.clone(), sink.clone(), &self.config);
        let tx = pipeline.sender();
        let frame = self.workload.frame.events();
        let mut seq = 0u64;
        let ingest = self
            .tracer
            .replay(INGEST, Some(BROKER), self.frames(), self.budget, |f| {
                for event in &inputs.events[f * frame..(f + 1) * frame] {
                    tx.send(IngestItem {
                        conn: 1,
                        seq,
                        event: event.clone(),
                    })
                    .expect("the pipeline is running");
                    seq += 1;
                }
                let mut seen = sink.seen.lock().expect("sink lock");
                while *seen < seq {
                    seen = sink.progress.wait(seen).expect("sink lock");
                }
                frame as u64
            });
        drop(tx);
        pipeline.shutdown();
        self.attempted += ingest.events;
        self.failed += sink.wrong.load(Ordering::Relaxed);
        self.put("ingest_us_per_event", ingest.us_per_event());
        let windows = ServerStats::get(&stats.windows).max(1);
        self.put(
            "window_fill",
            ServerStats::get(&stats.events_matched) as f64
                / (windows * self.config.window as u64) as f64,
        );
        Ok((shard, ingest, fullest))
    }

    /// `core` and `encoding` on one shard's share of the corpus — the
    /// fullest shard is the fan-out's critical path — with the per-shard
    /// engine configuration the server derives, loaded the server's way.
    fn core_and_encoding(&mut self, fullest: usize) -> io::Result<(Boundary, Boundary)> {
        let inputs = self.inputs.clone();
        let mine = |id: u32| route_partition(SubId(id), SHARDS) == fullest;
        let subs: Vec<Subscription> = inputs
            .subs
            .iter()
            .filter(|sub| mine(sub.id().0))
            .cloned()
            .collect();
        let expected: Vec<Vec<u32>> = inputs
            .expected
            .iter()
            .map(|row| row.iter().copied().filter(|&id| mine(id)).collect())
            .collect();
        let kernel = ApcmMatcher::build(&inputs.schema, &[], &self.config.shard_engine_config())
            .map_err(engine_error)?;
        for sub in &subs {
            kernel.subscribe(sub).map_err(engine_error)?;
        }
        kernel.maintain();
        let before = kernel.stats();
        let core = self.replay_windows(CORE, Some(SHARD), &expected, |events| {
            kernel.match_window(events)
        });
        let after = kernel.stats();
        self.put("core_us_per_event", core.us_per_event());
        self.put(
            "kernel_prune_ratio",
            (after.prunes - before.prunes) as f64 / (after.probes - before.probes).max(1) as f64,
        );
        self.put("matches_per_event", inputs.matches_per_event());
        drop(kernel);

        let (space, _) = PredicateSpace::build(&inputs.schema, &subs).map_err(engine_error)?;
        let mut bits = FixedBitSet::new(space.width());
        let window = self.window;
        let encoding = self
            .tracer
            .replay(ENCODING, Some(CORE), self.windows(), self.budget, |w| {
                for event in &inputs.events[w * window..(w + 1) * window] {
                    space.encode_event_into(event, &mut bits);
                    std::hint::black_box(&bits);
                }
                window as u64
            });
        self.put("encode_us_per_event", encoding.us_per_event());
        Ok((core, encoding))
    }

    /// The bare engines on the whole corpus with the library's defaults:
    /// A-PCM against PCM, outside the waterfall.
    fn bare_kernels(&mut self) -> io::Result<()> {
        let inputs = self.inputs.clone();
        let apcm = ApcmMatcher::build(&inputs.schema, &inputs.subs, &ApcmConfig::default())
            .map_err(engine_error)?;
        let bare = self.replay_windows("core.apcm", None, &inputs.expected, |events| {
            apcm.match_window(events)
        });
        self.put("kernel_us_per_event", bare.us_per_event());
        drop(apcm);
        let pcm = PcmMatcher::build(&inputs.schema, &inputs.subs, &ApcmConfig::pcm())
            .map_err(engine_error)?;
        let bare_pcm = self.replay_windows("core.pcm", None, &inputs.expected, |events| {
            events.iter().map(|ev| pcm.match_event(ev)).collect()
        });
        self.put("pcm_kernel_us_per_event", bare_pcm.us_per_event());
        Ok(())
    }

    /// `server.protocol`: every request line parsed, every row rendered.
    fn protocol(&mut self) -> Boundary {
        let inputs = self.inputs.clone();
        let schema = &inputs.schema;
        let frame = self.workload.frame;
        let pub_lines: Vec<String> = match frame {
            Frame::Batch(_) => Vec::new(),
            Frame::Pipelined(_) => inputs
                .event_lines
                .iter()
                .map(|l| format!("PUB {l}"))
                .collect(),
        };
        let rows: Vec<Vec<SubId>> = inputs
            .expected
            .iter()
            .map(|row| row.iter().map(|&id| SubId(id)).collect())
            .collect();
        let mut parse = Duration::ZERO;
        let mut render = Duration::ZERO;
        let n = frame.events();
        let protocol =
            self.tracer
                .replay(PROTOCOL, Some(BROKER), self.frames(), self.budget, |f| {
                    let range = f * n..(f + 1) * n;
                    let t0 = Instant::now();
                    match frame {
                        // The lines after a BATCH header are bare events.
                        Frame::Batch(n) => {
                            std::hint::black_box(
                                parse_request(schema, &format!("BATCH {n}"))
                                    .expect("header parses"),
                            );
                            for line in &inputs.event_lines[range.clone()] {
                                std::hint::black_box(
                                    parse_event(schema, line).expect("event parses"),
                                );
                            }
                        }
                        Frame::Pipelined(_) => {
                            for line in &pub_lines[range.clone()] {
                                std::hint::black_box(
                                    parse_request(schema, line).expect("PUB line parses"),
                                );
                            }
                        }
                    }
                    let t1 = Instant::now();
                    for (i, row) in rows[range.clone()].iter().enumerate() {
                        std::hint::black_box(render_result((range.start + i) as u64, row));
                    }
                    parse += t1 - t0;
                    render += t1.elapsed();
                    n as u64
                });
        self.put(
            "parse_us_per_event",
            parse.as_secs_f64() * 1e6 / protocol.events as f64,
        );
        self.put(
            "render_us_per_event",
            render.as_secs_f64() * 1e6 / protocol.events as f64,
        );
        protocol
    }

    /// Starts `topology` over `inputs`, warms it, and replays the frames
    /// over the wire, events counted by rows received.
    fn wire(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        topology: Topology,
        inputs: &Arc<Inputs>,
    ) -> io::Result<(Boundary, Running)> {
        let mut running = Running::set_up(topology, self.workload, inputs, self.scratch)?;
        running
            .publisher
            .closed_loop(Instant::now() + self.budget / 2)?;
        let boundary = self.wire_replay(name, parent, &mut running)?;
        Ok((boundary, running))
    }

    fn wire_replay(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        running: &mut Running,
    ) -> io::Result<Boundary> {
        let before = running.publisher.state().received;
        let mut error = None;
        let mut boundary = self
            .tracer
            .replay(name, parent, self.frames(), self.budget, |_| {
                if error.is_none() {
                    error = running.publisher.closed_step().err();
                }
                0 // counted by rows received, below
            });
        boundary.events = running.publisher.state().received - before;
        running.publisher.drain()?;
        error.map_or(Ok(boundary), Err)
    }

    fn finish(&mut self, running: Running) {
        self.attempted += running.publisher.state().sent;
        self.failed += running.publisher.state().failed;
        running.tear_down();
    }

    /// `server.broker`: the loopback direct server on the whole corpus.
    /// An untraced twin of the replay runs first; the difference between
    /// the two is what recording spans costs.
    fn broker(&mut self) -> io::Result<Boundary> {
        let inputs = self.inputs.clone();
        self.tracer.enabled = false;
        let (untraced, mut direct) = self.wire(BROKER, None, Topology::Direct, &inputs)?;
        self.tracer.enabled = true;
        let addr = direct.stack.addr();
        let stats0 = stats_of(&addr)?;
        let bytes0 = (
            direct.publisher.bytes_out,
            direct.publisher.bytes_in.load(Ordering::Relaxed),
        );
        let sent0 = direct.publisher.state().sent;
        let delivered0 = direct.owner.events_seen.load(Ordering::Relaxed);
        let parent = (self.workload.topology != Topology::Direct).then_some(ROUTER);
        let broker = self.wire_replay(BROKER, parent, &mut direct)?;
        // EVENT lines trail the rows; give the owner a moment to read them.
        std::thread::sleep(Duration::from_millis(50));
        let stats1 = stats_of(&addr)?;
        let delta = |key: &str| {
            let read = |stats: &BTreeMap<String, u64>| stats.get(key).copied().unwrap_or(0);
            read(&stats1).saturating_sub(read(&stats0)) as f64
        };
        let events = broker.events as f64;
        let pool = inputs.events.len() as u64;
        let sent1 = direct.publisher.state().sent;
        let oracle_matches: usize = (sent0..sent1)
            .map(|s| inputs.expected[(s % pool) as usize].len())
            .sum();
        let delivered = direct.owner.events_seen.load(Ordering::Relaxed) - delivered0;
        self.put("broker_us_per_event", broker.us_per_event());
        self.put(
            "trace_overhead_pct",
            100.0 * (broker.us_per_event() - untraced.us_per_event()) / untraced.us_per_event(),
        );
        self.put("epoll_wakeups_per_event", delta("epoll_wakeups") / events);
        self.put("replies_dropped", delta("replies_dropped"));
        self.put(
            "delivery_ratio",
            delivered as f64 / oracle_matches.max(1) as f64,
        );
        self.put(
            "bytes_in_per_event",
            (direct.publisher.bytes_out - bytes0.0) as f64 / events,
        );
        self.put(
            "bytes_out_per_event",
            (direct.publisher.bytes_in.load(Ordering::Relaxed) - bytes0.1) as f64 / events,
        );
        self.finish(direct);
        Ok(broker)
    }

    /// `cluster.router`: one backend is pure forwarding, three add the
    /// merge. On the routed workload the three-backend replay is the
    /// workload's own stack on its own corpus and heads the waterfall.
    fn router(&mut self, broker: &Boundary) -> io::Result<Boundary> {
        let side = self.side.clone();
        let direct = if Arc::ptr_eq(&side, self.inputs) {
            broker.clone()
        } else {
            let (direct, running) =
                self.wire("server.broker.side", None, Topology::Direct, &side)?;
            self.finish(running);
            direct
        };
        let (one, running) = self.wire(
            "cluster.router.1",
            None,
            Topology::Routed { backends: 1 },
            &side,
        )?;
        self.finish(running);
        let own = matches!(self.workload.topology, Topology::Routed { .. });
        let inputs = if own { self.inputs.clone() } else { side };
        let (three, running) =
            self.wire(ROUTER, None, Topology::Routed { backends: 3 }, &inputs)?;
        if let Stack::Cluster(cluster) = &running.stack {
            let stats = cluster.router().stats();
            let (sent, possible) = (&stats.fanouts_sent, &stats.fanouts_possible);
            self.put(
                "fanout_ratio",
                sent.load(Ordering::Relaxed) as f64
                    / possible.load(Ordering::Relaxed).max(1) as f64,
            );
        }
        self.finish(running);
        self.put(
            "router_us_per_event",
            one.us_per_event() - direct.us_per_event(),
        );
        self.put(
            "merge_us_per_event",
            three.us_per_event() - one.us_per_event(),
        );
        Ok(three)
    }

    /// `server.persist`: the durability layer alone, over its own engine.
    fn persist(&mut self) -> io::Result<()> {
        let side = self.side.clone();
        let dir = self.scratch.fresh();
        let churn_error = |e: apcm_server::persist::ChurnError| io::Error::other(e.to_string());
        let stats = Arc::new(ServerStats::default());
        let engine = ShardedEngine::new(&side.schema, &self.config).map_err(engine_error)?;
        let (persister, _) = Persister::open(
            PersistConfig::new(&dir),
            side.schema.clone(),
            stats.clone(),
            SHARDS,
        )?;
        let t0 = Instant::now();
        let mut ops = 0u64;
        for sub in side.subs.iter().chain(&side.churn_subs) {
            persister.apply_sub(&engine, sub).map_err(churn_error)?;
            ops += 1;
        }
        for sub in &side.churn_subs {
            persister
                .apply_unsub(&engine, sub.id())
                .map_err(churn_error)?;
            ops += 1;
        }
        self.put(
            "append_us_per_op",
            t0.elapsed().as_secs_f64() * 1e6 / ops as f64,
        );
        let t0 = Instant::now();
        let outcome = persister.snapshot()?;
        self.put("snapshot_ms", t0.elapsed().as_secs_f64() * 1e3);
        self.put(
            "snapshot_bytes_per_sub",
            outcome.bytes as f64 / outcome.subs.max(1) as f64,
        );
        drop(persister);
        drop(engine);
        // Recovery as a restart pays it: open, replay, reload an engine.
        let t0 = Instant::now();
        let engine = ShardedEngine::new(&side.schema, &self.config).map_err(engine_error)?;
        let (_persister, recovered) =
            Persister::open(PersistConfig::new(&dir), side.schema.clone(), stats, SHARDS)?;
        engine.bulk_restore(&recovered).map_err(engine_error)?;
        self.put("recovery_ms", t0.elapsed().as_secs_f64() * 1e3);
        self.attempted += ops;
        self.failed += u64::from(recovered.len() != side.subs.len());
        Ok(())
    }

    /// `server.replication`: acknowledged churn with no follower and with
    /// one; then the churn workload's own shape on the chain — reads beside
    /// churn — which on that workload heads the waterfall.
    fn replication(&mut self) -> io::Result<Boundary> {
        let inputs = if self.workload.churn_beside_reads {
            self.inputs.clone()
        } else {
            self.side.clone()
        };
        let mut ack_us = [0.0f64; 2];
        let mut chained = None;
        for (followers, ack_us) in ack_us.iter_mut().enumerate() {
            let mut running = Running::set_up(
                Topology::Chained { followers },
                self.workload,
                &inputs,
                self.scratch,
            )?;
            let (rate, ops, bad) = running.owner.churn(&inputs, Instant::now(), self.budget);
            *ack_us = 1e6 / rate;
            self.attempted += ops;
            self.failed += bad;
            // One stack at a time: the bare chain goes before the next starts.
            if followers == 0 {
                self.finish(running);
            } else {
                chained = Some(running);
            }
        }
        self.put("repl_ack_us", ack_us[1] - ack_us[0]);

        let mut running = chained.expect("the loop keeps the one-follower stack");
        running.publisher.state().check = Check::StableOnly;
        let Running {
            stack,
            owner,
            publisher,
            ..
        } = &mut running;
        let Stack::Cluster(cluster) = &*stack else {
            unreachable!("a chained topology starts a cluster");
        };
        let stats = cluster.router().stats();
        let served0 = stats.reads_follower_served.load(Ordering::Relaxed);
        let windows0 = stats.windows.load(Ordering::Relaxed);
        let (frames, budget, tracer) = (self.frames(), self.budget, &mut self.tracer);
        let (chain, churn) = std::thread::scope(|scope| {
            // The churner outlasts the replay's budget; the replay's end
            // closes the measurement, the churner's own clock stops it.
            let churner = scope.spawn(|| owner.churn(&inputs, Instant::now(), budget));
            let before = publisher.state().received;
            let mut error = None;
            let mut boundary = tracer.replay("cluster.router.chain", None, frames, budget, |_| {
                if error.is_none() {
                    error = publisher.closed_step().err();
                }
                0
            });
            boundary.events = publisher.state().received - before;
            (
                error.map_or(Ok(boundary), Err),
                churner.join().expect("churn thread panicked"),
            )
        });
        publisher.drain()?;
        self.attempted += churn.1;
        self.failed += churn.2;
        let served = stats.reads_follower_served.load(Ordering::Relaxed) - served0;
        let windows = stats.windows.load(Ordering::Relaxed) - windows0;
        self.put("follower_read_share", served as f64 / windows.max(1) as f64);
        let lag = cluster.node(0, 0).map_or(f64::NAN, |p| {
            ServerStats::get(&p.stats().repl_lag_records) as f64
        });
        self.put("repl_lag_records", lag);
        self.finish(running);
        chain
    }
}

pub fn run(
    workload: &Workload,
    inputs: &Arc<Inputs>,
    budget: Duration,
    scratch: &Scratch,
) -> io::Result<Layered> {
    let wall = Instant::now();
    let config = server_config();
    let side = if inputs.subs.len() > SIDE_CAP {
        Arc::new(inputs.restricted(SIDE_CAP))
    } else {
        inputs.clone()
    };
    let mut run = Run {
        workload,
        inputs,
        side,
        scratch,
        window: workload.frame.events().min(config.window),
        config,
        budget,
        tracer: Tracer::default(),
        metrics: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    let (shard, ingest, fullest) = run.shard_and_ingest()?;
    let (core, encoding) = run.core_and_encoding(fullest)?;
    run.bare_kernels()?;
    let protocol = run.protocol();
    let broker = run.broker()?;
    let routed = run.router(&broker)?;
    run.persist()?;
    let chain = run.replication()?;

    // The waterfall: from the workload's own outermost boundary inwards.
    let leaf = |layer, b: &Boundary, children| Node {
        layer,
        inclusive_us: b.us_per_event(),
        children,
    };
    let inner = leaf(
        BROKER,
        &broker,
        vec![
            leaf(PROTOCOL, &protocol, Vec::new()),
            leaf(
                INGEST,
                &ingest,
                vec![leaf(
                    SHARD,
                    &shard,
                    vec![leaf(
                        CORE,
                        &core,
                        vec![leaf(ENCODING, &encoding, Vec::new())],
                    )],
                )],
            ),
        ],
    );
    let root = match workload.topology {
        Topology::Direct => inner,
        Topology::Routed { .. } => leaf(ROUTER, &routed, vec![inner]),
        Topology::Chained { .. } => leaf(ROUTER, &chain, vec![inner]),
    };
    let rows = waterfall(&root);
    for layer in LAYERS {
        let self_us = rows
            .iter()
            .find(|r| r.layer == layer)
            .map_or(0.0, |r| r.self_us);
        run.put(&format!("self_us.{layer}"), self_us);
    }
    run.put("waterfall_us_per_event", rows[0].inclusive_us);

    Ok(Layered {
        metrics: run.metrics,
        waterfall: rows,
        tracer: run.tracer,
        ops_attempted: run.attempted,
        ops_failed: run.failed,
        wall_s: wall.elapsed().as_secs_f64(),
    })
}
