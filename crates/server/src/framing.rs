//! Per-connection request framing shared by the broker and the cluster
//! router: publisher sequence minting for `PUB`/`BATCH`, their acks, and
//! `BATCH` accumulation. Payload lines arrive one readiness callback at a
//! time, so a connection in batch mode routes its next `count` lines into
//! the accumulator and hands the batch back when the last one arrives.
//! Oversized and unparseable lines are answered here with the protocol's
//! `-ERR` text, counted against the calling service's own counters.

use std::sync::atomic::{AtomicU64, Ordering};

use apcm_bexpr::{Event, Schema};
use apcm_netio::Line;

/// The counters framing bumps; each service points them at its own stats.
pub struct FramingCounters<'a> {
    pub oversized_lines: &'a AtomicU64,
    pub protocol_errors: &'a AtomicU64,
}

impl FramingCounters<'_> {
    fn error(&self, oversized: bool) {
        if oversized {
            self.oversized_lines.fetch_add(1, Ordering::Relaxed);
        }
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// The events one `PUB` or one completed `BATCH` publishes, each with
/// its sequence, and the ack that must reach the publisher before any of
/// their `RESULT`s.
pub struct Publish {
    pub ack: String,
    pub events: Vec<(u64, Event)>,
}

/// What one framed line turned out to be.
pub enum Framed<'a> {
    /// A request line, for the service to parse and execute.
    Request(&'a str),
    /// The last payload line of a batch arrived: its events to publish.
    Publish(Publish),
    /// Nothing for the service to do: a batch payload line was absorbed,
    /// or an oversized request line was already answered.
    Consumed,
}

/// In-flight `BATCH`: the next `count - index` lines are event payloads.
struct Accum {
    first_seq: u64,
    count: usize,
    /// Payload lines consumed so far (parsed or not — a bad or oversized
    /// line still uses up its slot).
    index: usize,
    events: Vec<(u64, Event)>,
}

/// Per-connection framing state.
#[derive(Default)]
pub struct Framing {
    /// Publisher-local sequence minted for PUB/BATCH events.
    next_seq: u64,
    batch: Option<Accum>,
}

impl Framing {
    /// Sequences one `PUB`'s event.
    pub fn publish(&mut self, event: Event) -> Publish {
        let seq = self.next_seq;
        self.next_seq += 1;
        Publish {
            ack: format!("+OK {seq}"),
            events: vec![(seq, event)],
        }
    }

    /// Enters batch mode: the next `count` lines (at least one — the
    /// parser refuses `BATCH 0`) are event payloads.
    pub fn open_batch(&mut self, count: usize) {
        self.batch = Some(Accum {
            first_seq: self.next_seq,
            count,
            index: 0,
            events: Vec::with_capacity(count),
        });
    }

    /// Frames one inbound line, replying to oversized and unparseable
    /// ones through `reply`.
    pub fn feed<'a>(
        &mut self,
        line: Line<'a>,
        schema: &Schema,
        max_line_bytes: usize,
        counters: FramingCounters<'_>,
        reply: &mut dyn FnMut(String),
    ) -> Framed<'a> {
        let Some(accum) = &mut self.batch else {
            return match line {
                Line::Text(text) => Framed::Request(text),
                Line::TooLong => {
                    counters.error(true);
                    reply(format!("-ERR line too long (max {max_line_bytes} bytes)"));
                    Framed::Consumed
                }
            };
        };
        let index = accum.index;
        let parsed = match line {
            Line::Text(text) => apcm_bexpr::parser::parse_event(schema, text.trim())
                .map_err(|e| (false, format!("-ERR batch line {index}: bad event: {e}"))),
            Line::TooLong => Err((true, format!("-ERR batch line {index}: line too long"))),
        };
        match parsed {
            Ok(event) => {
                accum.events.push((self.next_seq, event));
                self.next_seq += 1;
            }
            Err((oversized, error)) => {
                counters.error(oversized);
                reply(error);
            }
        }
        accum.index += 1;
        if accum.index < accum.count {
            return Framed::Consumed;
        }
        let accum = self.batch.take().expect("in batch mode");
        Framed::Publish(Publish {
            ack: format!("+OK batch {} {}", accum.first_seq, accum.events.len()),
            events: accum.events,
        })
    }
}
