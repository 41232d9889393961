//! Spans recorded from outside the layers, and the waterfall worked out
//! from them.
//!
//! The traced run replays the same frames at each layer boundary in turn.
//! A span is one frame at one boundary; its parent is the same `window_id`
//! at the enclosing boundary. Spans stay in memory until the run ends.

use std::time::{Duration, Instant};

use crate::json::{obj, Json};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub window_id: u64,
    /// The enclosing boundary; `None` for the outermost one.
    pub parent: Option<&'static str>,
}

/// One boundary's replay: what was timed and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Boundary {
    pub events: u64,
    pub wall: Duration,
}

impl Boundary {
    /// Inclusive cost: wall time of the closed-loop replay per event.
    pub fn us_per_event(&self) -> f64 {
        self.wall.as_secs_f64() * 1e6 / self.events.max(1) as f64
    }
}

pub struct Tracer {
    epoch: Instant,
    /// `false` for the untraced twin of a replay, which records nothing.
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Replays frames `0, 1, .. frames - 1, 0, ..` through `step` (which
    /// returns the events it completed) until `budget` is spent: one frame
    /// at least, `MAX_PASSES` over the frames at most.
    pub fn replay(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        frames: usize,
        budget: Duration,
        mut step: impl FnMut(usize) -> u64,
    ) -> Boundary {
        const MAX_PASSES: usize = 4;
        let begin = Instant::now();
        let mut events = 0;
        let mut window_id = 0u64;
        'passes: for _ in 0..MAX_PASSES {
            for frame in 0..frames {
                if window_id > 0 && begin.elapsed() >= budget {
                    break 'passes;
                }
                let start = Instant::now();
                events += step(frame);
                if self.enabled {
                    self.spans.push(Span {
                        name,
                        start_ns: (start - self.epoch).as_nanos() as u64,
                        end_ns: self.epoch.elapsed().as_nanos() as u64,
                        window_id,
                        parent,
                    });
                }
                window_id += 1;
            }
        }
        Boundary {
            events,
            wall: begin.elapsed(),
        }
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> Json {
        let span = |s: &Span| {
            obj([
                ("name", s.name.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("window_id", s.window_id.into()),
                ("parent", s.parent.map_or(Json::Null, Into::into)),
            ])
        };
        Json::Arr(self.spans.iter().map(span).collect())
    }
}

/// One waterfall row: a layer's inclusive cost and what is left of it
/// after the boundaries it encloses.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub layer: &'static str,
    pub inclusive_us: f64,
    pub self_us: f64,
}

/// A containment tree node: a layer with its inclusive µs/event and the
/// layers measured inside it.
#[derive(Debug, Clone)]
pub struct Node {
    pub layer: &'static str,
    pub inclusive_us: f64,
    pub children: Vec<Node>,
}

/// Self time = inclusive − the enclosed boundaries' inclusive, outermost
/// first. Boundaries are replayed one after another, not nested in one
/// call, so noise can make a child read dearer than its parent; a child is
/// therefore capped at what its parent has to give. Rows are then never
/// negative and always sum to the outermost inclusive time.
pub fn waterfall(root: &Node) -> Vec<Row> {
    fn walk(node: &Node, granted: f64, rows: &mut Vec<Row>) {
        let inclusive = node.inclusive_us.min(granted).max(0.0);
        let slot = rows.len();
        rows.push(Row {
            layer: node.layer,
            inclusive_us: inclusive,
            self_us: 0.0,
        });
        let mut left = inclusive;
        for child in &node.children {
            let before = rows.len();
            walk(child, left, rows);
            left -= rows[before].inclusive_us;
        }
        rows[slot].self_us = left;
    }
    let mut rows = Vec::new();
    walk(root, f64::INFINITY, &mut rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(layer: &'static str, inclusive_us: f64) -> Node {
        Node {
            layer,
            inclusive_us,
            children: Vec::new(),
        }
    }

    fn chain() -> Node {
        Node {
            layer: "router",
            inclusive_us: 100.0,
            children: vec![Node {
                layer: "broker",
                inclusive_us: 70.0,
                children: vec![
                    leaf("protocol", 5.0),
                    Node {
                        layer: "ingest",
                        inclusive_us: 50.0,
                        children: vec![Node {
                            layer: "shard",
                            inclusive_us: 40.0,
                            children: vec![Node {
                                layer: "core",
                                inclusive_us: 30.0,
                                children: vec![leaf("encoding", 2.0)],
                            }],
                        }],
                    },
                ],
            }],
        }
    }

    #[test]
    fn self_times_subtract_enclosed_boundaries_and_sum_to_the_outermost() {
        let rows = waterfall(&chain());
        let self_of = |layer| rows.iter().find(|r| r.layer == layer).unwrap().self_us;
        assert_eq!(self_of("router"), 30.0);
        assert_eq!(self_of("broker"), 15.0);
        assert_eq!(self_of("protocol"), 5.0);
        assert_eq!(self_of("ingest"), 10.0);
        assert_eq!(self_of("shard"), 10.0);
        assert_eq!(self_of("core"), 28.0);
        assert_eq!(self_of("encoding"), 2.0);
        let total: f64 = rows.iter().map(|r| r.self_us).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn a_child_dearer_than_its_parent_is_capped_not_negative() {
        let mut root = chain();
        // Noise: the shard replay came out dearer than the ingest replay.
        root.children[0].children[1].children[0].inclusive_us = 65.0;
        let rows = waterfall(&root);
        assert!(rows.iter().all(|r| r.self_us >= 0.0), "{rows:?}");
        let total: f64 = rows.iter().map(|r| r.self_us).sum();
        assert!((total - 100.0).abs() < 1e-9, "{rows:?}");
        let ingest = rows.iter().find(|r| r.layer == "ingest").unwrap();
        assert_eq!(ingest.self_us, 0.0);
    }

    #[test]
    fn replay_stops_on_budget_or_passes_and_records_one_span_per_frame() {
        let mut tracer = Tracer::default();
        // Out of budget from the start: one frame still runs.
        let boundary = tracer.replay("core", None, 3, Duration::ZERO, |_| 10);
        assert_eq!((boundary.events, tracer.spans.len()), (10, 1));
        tracer.spans.clear();
        // Budget to spare: the pass limit ends it.
        let boundary = tracer.replay("core", Some("shard"), 3, Duration::from_secs(3600), |_| 10);
        assert_eq!((boundary.events, tracer.spans.len()), (120, 12));
        tracer.spans.truncate(3);
        assert_eq!(tracer.spans.len(), 3);
        assert_eq!(tracer.spans[2].window_id, 2);
        assert_eq!(tracer.spans[2].parent, Some("shard"));
        assert!(tracer.spans.iter().all(|s| s.end_ns >= s.start_ns));
        tracer.enabled = false;
        tracer.replay("core", None, 3, Duration::ZERO, |_| 10);
        assert_eq!(tracer.spans.len(), 3);
    }
}
