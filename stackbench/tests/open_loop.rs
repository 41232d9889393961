//! The open loop against a real loopback server: latency runs from the
//! instant an event was due, and a sender that falls behind sends late —
//! it never skips.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stackbench::gen::Inputs;
use stackbench::load::Running;
use stackbench::stack::Scratch;
use stackbench::workloads;

#[test]
fn a_stalled_sender_makes_events_late_not_absent() {
    let workload = workloads::find("wire-2k").unwrap().shrunk(50);
    let inputs = Arc::new(Inputs::generate(&workload, 7));
    let scratch = Scratch::new().unwrap();
    let mut running = Running::set_up(workload.topology, &workload, &inputs, &scratch).unwrap();

    // The timetable began 40 ms ago, as if the sender had been stalled that
    // long: events 0..40 are already overdue when the first write happens.
    let stall = Duration::from_millis(40);
    let length = Duration::from_millis(100);
    let (samples, late_share) = running
        .publisher
        .segment_open(Instant::now() - stall, length, 1000.0)
        .unwrap();

    // 100 ms x 1000 events/s: every scheduled event has a sample.
    assert_eq!(samples.len(), 100);
    assert!(
        samples.iter().all(|us| us.is_finite()),
        "a row was missing or wrong"
    );
    // Event k was due k ms in; the first write happened no sooner than 40 ms
    // in, and its latency says so.
    for (k, us) in samples.iter().take(30).enumerate() {
        assert!(*us >= (40 - k) as f64 * 1000.0, "event {k} reports {us} us");
    }
    assert!(
        late_share >= 0.3,
        "late share of the stalled segment: {late_share}"
    );
    assert_eq!(running.publisher.state().failed, 0);
    running.tear_down();
}
