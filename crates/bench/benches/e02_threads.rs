//! E2 (Criterion micro-version) — thread scalability.
//!
//! Full sweep: `harness --experiment e2`. On a single-core host the curve is
//! flat by construction; the bench still validates that the multi-thread
//! pool carries no pathological overhead versus one thread.

use apcm_bexpr::Matcher;
use apcm_core::{ApcmConfig, ApcmMatcher};
use apcm_workload::WorkloadSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench(c: &mut Criterion) {
    let wl = WorkloadSpec::new(20_000).seed(42).build();
    let events = wl.events(256);
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // On a single-core host the sweep degenerates to one point.
    let mut thread_counts = vec![1usize];
    if max_threads > 1 {
        thread_counts.push(max_threads);
    }

    let mut group = c.benchmark_group("e02_threads");
    group.throughput(Throughput::Elements(events.len() as u64));
    for &threads in &thread_counts {
        let config = ApcmConfig::default().with_threads(threads);
        let matcher = ApcmMatcher::build(&wl.schema, &wl.subs, &config).unwrap();
        group.bench_with_input(BenchmarkId::new("apcm", threads), &events, |b, evs| {
            b.iter(|| matcher.match_batch(evs))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
