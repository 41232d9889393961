//! Inputs from `--seed`, and the scan oracle every received row is checked
//! against. The servers see only the rendered lines.

use std::time::Instant;

use apcm_baselines::SequentialScan;
use apcm_bexpr::{Event, Matcher, Schema, SubId, Subscription};
use apcm_workload::WorkloadSpec;

use crate::workloads::Workload;

pub struct Inputs {
    pub schema: Schema,
    /// Stable corpus, ids `0..subs`.
    pub subs: Vec<Subscription>,
    /// `SUB <id> <expr>` per stable subscription.
    pub sub_lines: Vec<String>,
    /// One fixed expression per churn slot, ids `churn_base..`.
    pub churn_subs: Vec<Subscription>,
    /// First churn id: the size of the generated stable corpus, which
    /// [`Inputs::restricted`] keeps.
    pub churn_base: u32,
    pub churn_lines: Vec<String>,
    pub events: Vec<Event>,
    /// Event text as it goes on the wire (after `PUB ` or as a batch line).
    pub event_lines: Vec<String>,
    /// Oracle row per pool event over the stable corpus, as the id csv a
    /// `RESULT` line carries.
    pub expected: Vec<Vec<u32>>,
    /// Per pool event, the churn slots whose expression it satisfies.
    pub churn_matches: Vec<Vec<u32>>,
    /// Generator plus oracle time; printed, not a metric.
    pub gen_s: f64,
}

fn spec(workload: &Workload, n: usize, seed: u64) -> WorkloadSpec {
    let (min, max) = workload.sub_preds;
    let spec = WorkloadSpec::new(n).seed(seed).sub_preds(min, max);
    match workload.event_size {
        Some(size) => spec.event_size(size),
        None => spec,
    }
}

/// Scan-oracle rows for `events`, split over the machine's cores.
fn oracle(subs: &[Subscription], events: &[Event]) -> Vec<Vec<u32>> {
    let scan = SequentialScan::new(subs);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = events.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = events
            .chunks(chunk)
            .map(|part| {
                let scan = &scan;
                scope.spawn(move || {
                    part.iter()
                        .map(|ev| scan.match_event(ev).into_iter().map(|id| id.0).collect())
                        .collect::<Vec<Vec<u32>>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

impl Inputs {
    pub fn generate(workload: &Workload, seed: u64) -> Inputs {
        let t0 = Instant::now();
        let corpus = spec(workload, workload.subs, seed).build();
        let schema = corpus.schema.clone();
        let events = corpus.events(workload.pool);
        // An independent draw for the churn slots, re-numbered past the
        // stable range.
        let churn_subs: Vec<Subscription> = spec(workload, workload.churn_ids, seed ^ 0xC4_07_2E)
            .build()
            .subs
            .into_iter()
            .enumerate()
            .map(|(i, sub)| {
                let id = SubId::from_index(workload.subs + i);
                Subscription::new(id, sub.predicates().to_vec()).expect("generated sub is valid")
            })
            .collect();
        let render = |sub: &Subscription| format!("SUB {} {}", sub.id().0, sub.display(&schema));
        let sub_lines = corpus.subs.iter().map(render).collect();
        let churn_lines = churn_subs.iter().map(render).collect();
        let event_lines = events
            .iter()
            .map(|ev| ev.display(&schema).to_string())
            .collect();
        let expected = oracle(&corpus.subs, &events);
        let churn_matches = oracle(&churn_subs, &events);
        Inputs {
            schema,
            subs: corpus.subs,
            sub_lines,
            churn_subs,
            churn_base: workload.subs as u32,
            churn_lines,
            events,
            event_lines,
            expected,
            churn_matches,
            gen_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// The same inputs over only the first `cap` stable subscriptions
    /// (ids `0..cap`), oracle rows cut down to match.
    pub fn restricted(&self, cap: usize) -> Inputs {
        let cap = cap.min(self.subs.len());
        Inputs {
            schema: self.schema.clone(),
            subs: self.subs[..cap].to_vec(),
            sub_lines: self.sub_lines[..cap].to_vec(),
            churn_subs: self.churn_subs.clone(),
            churn_base: self.churn_base,
            churn_lines: self.churn_lines.clone(),
            events: self.events.clone(),
            event_lines: self.event_lines.clone(),
            expected: self
                .expected
                .iter()
                .map(|row| {
                    row.iter()
                        .copied()
                        .filter(|&id| (id as usize) < cap)
                        .collect()
                })
                .collect(),
            churn_matches: self.churn_matches.clone(),
            gen_s: self.gen_s,
        }
    }

    /// Mean oracle matches per pool event over the stable corpus.
    pub fn matches_per_event(&self) -> f64 {
        let total: usize = self.expected.iter().map(Vec::len).sum();
        total as f64 / self.expected.len() as f64
    }
}
