//! apcm-netio: a readiness-driven network event loop with zero external
//! dependencies.
//!
//! Three layers, bottom-up:
//!
//! - [`sys`] — a vendored epoll/eventfd/rlimit shim: raw `extern "C"`
//!   declarations against libc's stable ABI, each wrapped in an
//!   `io::Result` function. No crates.io dependency anywhere.
//! - [`poller`] — [`Poller`] (safe epoll registration + wait, level- or
//!   edge-triggered) and [`Waker`] (eventfd-backed cross-thread wake).
//! - [`event_loop`] — [`EventLoop`]: a fixed worker pool multiplexing
//!   accept, byte-capped line-framed reads, bounded buffered writes,
//!   and a hashed [`TimerWheel`] for idle reaping and maintenance.
//!   Protocol logic plugs in through the [`Service`] trait.
//!
//! The design goal is thousands of mostly-idle connections on a
//! handful of threads: memory per connection is one small struct plus
//! its buffers, and wakeups are O(active), not O(open).

pub mod event_loop;
pub mod poller;
pub mod sys;
pub mod wheel;

pub use event_loop::{
    default_workers, CloseReason, ConnId, EventLoop, Line, LoopHandle, LoopMetrics, LoopOptions,
    SendOutcome, Service, Verdict,
};
pub use poller::{Interest, Mode, PollEvent, Poller, Waker};
pub use wheel::TimerWheel;

#[cfg(test)]
mod loop_tests {
    use super::event_loop::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Line-echo service: replies `echo <line>`; `quit` closes after
    /// flushing `bye`; `nap` blocks for 200 ms, then replies `awake`;
    /// `toolong` lines get a marker reply.
    struct Echo {
        handle: Mutex<Option<Arc<LoopHandle>>>,
        closes: Mutex<Vec<(ConnId, CloseReason)>>,
        opens: AtomicU64,
    }

    impl Echo {
        fn new() -> Echo {
            Echo {
                handle: Mutex::new(None),
                closes: Mutex::new(Vec::new()),
                opens: AtomicU64::new(0),
            }
        }
        fn handle(&self) -> Arc<LoopHandle> {
            self.handle.lock().unwrap().clone().unwrap()
        }
    }

    impl Service for Echo {
        type Session = ();

        fn on_open(&self, _conn: ConnId, handle: &Arc<LoopHandle>) {
            self.opens.fetch_add(1, Ordering::Relaxed);
            let mut slot = self.handle.lock().unwrap();
            if slot.is_none() {
                *slot = Some(handle.clone());
            }
        }

        fn on_line(&self, _s: &mut (), conn: ConnId, line: Line<'_>) -> Verdict {
            match line {
                Line::Text("quit") => {
                    self.handle().send(conn, "bye".to_string());
                    Verdict::Close
                }
                Line::Text("nap") => {
                    std::thread::sleep(Duration::from_millis(200));
                    self.handle().send(conn, "awake".to_string());
                    Verdict::Continue
                }
                Line::Text(text) => {
                    self.handle().send(conn, format!("echo {text}"));
                    Verdict::Continue
                }
                Line::TooLong => {
                    self.handle().send(conn, "-ERR line too long".to_string());
                    Verdict::Continue
                }
            }
        }

        fn on_close(&self, _s: &mut (), conn: ConnId, reason: CloseReason) {
            self.closes.lock().unwrap().push((conn, reason));
        }
    }

    fn start_echo(options: LoopOptions) -> (EventLoop, Arc<Echo>, std::net::SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(Echo::new());
        let el = EventLoop::start(listener, service.clone(), options).unwrap();
        (el, service, addr)
    }

    fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    #[test]
    fn echoes_lines_and_quits_with_flush() {
        let (el, service, addr) = start_echo(LoopOptions {
            workers: 2,
            ..LoopOptions::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"hello\nworld\n").unwrap();
        assert_eq!(read_reply(&mut reader), "echo hello");
        assert_eq!(read_reply(&mut reader), "echo world");
        writer.write_all(b"quit\n").unwrap();
        assert_eq!(read_reply(&mut reader), "bye");
        // Server closes after the drain: reads hit EOF.
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty());
        el.shutdown();
        let closes = service.closes.lock().unwrap();
        assert!(closes
            .iter()
            .any(|(_, reason)| *reason == CloseReason::Requested));
    }

    #[test]
    fn a_slow_lines_reply_is_written_before_the_next_line_runs() {
        let (el, _service, addr) = start_echo(LoopOptions {
            workers: 2,
            ..LoopOptions::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // One write, so both lines arrive in the same read.
        let sent = std::time::Instant::now();
        writer.write_all(b"nap\nnap\n").unwrap();
        assert_eq!(read_reply(&mut reader), "awake");
        let first = sent.elapsed();
        assert_eq!(read_reply(&mut reader), "awake");
        // The second nap ends 400 ms in; the first reply must not wait
        // for it.
        assert!(
            first < Duration::from_millis(350),
            "first reply took {first:?}"
        );
        el.shutdown();
    }

    #[test]
    fn torn_lines_reassemble_across_dribbled_writes() {
        let (el, _service, addr) = start_echo(LoopOptions {
            workers: 2,
            ..LoopOptions::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // Dribble one line byte by byte, then two lines in one write.
        for b in b"dribble" {
            writer.write_all(&[*b]).unwrap();
            writer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        writer.write_all(b"\nsecond\nthird\n").unwrap();
        assert_eq!(read_reply(&mut reader), "echo dribble");
        assert_eq!(read_reply(&mut reader), "echo second");
        assert_eq!(read_reply(&mut reader), "echo third");
        el.shutdown();
    }

    #[test]
    fn oversized_line_reports_toolong_and_keeps_conn() {
        let (el, _service, addr) = start_echo(LoopOptions {
            workers: 2,
            max_line_bytes: 16,
            ..LoopOptions::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let big = vec![b'x'; 300];
        writer.write_all(&big).unwrap();
        writer.write_all(b"\nok\n").unwrap();
        assert_eq!(read_reply(&mut reader), "-ERR line too long");
        assert_eq!(read_reply(&mut reader), "echo ok");
        el.shutdown();
    }

    #[test]
    fn line_exactly_at_cap_is_accepted() {
        let (el, _service, addr) = start_echo(LoopOptions {
            workers: 2,
            max_line_bytes: 8,
            ..LoopOptions::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"12345678\n").unwrap();
        assert_eq!(read_reply(&mut reader), "echo 12345678");
        writer.write_all(b"123456789\n").unwrap();
        assert_eq!(read_reply(&mut reader), "-ERR line too long");
        el.shutdown();
    }

    #[test]
    fn admission_cap_rejects_with_line() {
        let (el, _service, addr) = start_echo(LoopOptions {
            workers: 2,
            max_conns: Some(2),
            reject_line: Some("-ERR server busy".to_string()),
            ..LoopOptions::default()
        });
        let keep1 = TcpStream::connect(addr).unwrap();
        let keep2 = TcpStream::connect(addr).unwrap();
        // Confirm both admitted (echo works) before the third dials in.
        for stream in [&keep1, &keep2] {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut w = stream.try_clone().unwrap();
            w.write_all(b"ping\n").unwrap();
            let mut r = BufReader::new(stream.try_clone().unwrap());
            assert_eq!(read_reply(&mut r), "echo ping");
        }
        let rejected = TcpStream::connect(addr).unwrap();
        rejected
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut r = BufReader::new(rejected);
        assert_eq!(read_reply(&mut r), "-ERR server busy");
        let mut rest = String::new();
        r.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert_eq!(
            el.handle().metrics().conns_rejected.load(Ordering::Relaxed),
            1
        );
        el.shutdown();
    }

    #[test]
    fn try_send_reports_full_at_cap_and_send_exceeds_it() {
        let (el, service, addr) = start_echo(LoopOptions {
            workers: 2,
            conn_queue: 4,
            ..LoopOptions::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"hello\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(read_reply(&mut reader), "echo hello");
        let handle = service.handle();
        let conn = {
            // Only one connection exists; find its id via owner map.
            let mut id = None;
            for candidate in 1..10 {
                if handle.owner_of(candidate).is_some() {
                    id = Some(candidate);
                    break;
                }
            }
            id.unwrap()
        };
        // The peer is not reading; pump until Full appears. The loop
        // may drain some into the socket buffer first, so give it room.
        let mut saw_full = false;
        for i in 0..200_000 {
            match handle.try_send(conn, format!("spam {i} {}", "x".repeat(512))) {
                SendOutcome::Full => {
                    saw_full = true;
                    break;
                }
                SendOutcome::Sent => {}
                SendOutcome::Gone => break,
            }
        }
        assert!(saw_full, "bounded queue never reported Full");
        // Unbounded control send still lands.
        assert!(handle.send(conn, "control".to_string()));
        el.shutdown();
    }

    #[test]
    fn queued_lines_reach_a_late_reader_whole_and_in_order() {
        let (el, service, addr) = start_echo(LoopOptions {
            workers: 2,
            ..LoopOptions::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"hello\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(read_reply(&mut reader), "echo hello");
        let handle = service.handle();
        let conn = (1..10).find(|c| handle.owner_of(*c).is_some()).unwrap();
        // Far more than the socket buffers hold, so writes go partial
        // and resume mid-line once the peer starts reading.
        let line = |i: usize| format!("line {i}:{}", "y".repeat(i * 7 % 4000));
        for i in 0..10_000 {
            assert!(handle.send(conn, line(i)));
        }
        std::thread::sleep(Duration::from_millis(50));
        for i in 0..10_000 {
            assert_eq!(read_reply(&mut reader), line(i));
        }
        el.shutdown();
    }

    #[test]
    fn idle_timeout_reaps_quiet_connections() {
        let (el, service, addr) = start_echo(LoopOptions {
            workers: 2,
            idle_timeout: Some(Duration::from_millis(150)),
            ..LoopOptions::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"hi\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(read_reply(&mut reader), "echo hi");
        // Go quiet; the wheel should reap us.
        let mut buf = String::new();
        let n = reader.read_line(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "expected server-side close, got {buf:?}");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if service
                .closes
                .lock()
                .unwrap()
                .iter()
                .any(|(_, r)| *r == CloseReason::Idle)
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "idle reap never fired"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(el.handle().metrics().idle_reaped.load(Ordering::Relaxed) >= 1);
        el.shutdown();
    }

    #[test]
    fn kick_closes_from_another_thread() {
        let (el, service, addr) = start_echo(LoopOptions {
            workers: 2,
            ..LoopOptions::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"hi\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(read_reply(&mut reader), "echo hi");
        let handle = service.handle();
        let conn = (1..10).find(|c| handle.owner_of(*c).is_some()).unwrap();
        let h = handle.clone();
        std::thread::spawn(move || h.kick(conn)).join().unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.connections_open() > 0 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(5));
        }
        el.shutdown();
    }

    #[test]
    fn many_idle_connections_on_fixed_pool() {
        let (el, _service, addr) = start_echo(LoopOptions {
            workers: 2,
            ..LoopOptions::default()
        });
        let mut conns = Vec::new();
        for _ in 0..200 {
            conns.push(TcpStream::connect(addr).unwrap());
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while el.handle().connections_open() < 200 {
            assert!(std::time::Instant::now() < deadline, "accepts stalled");
            std::thread::sleep(Duration::from_millis(10));
        }
        // All of them still work.
        let probe = &conns[137];
        probe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut w = probe.try_clone().unwrap();
        w.write_all(b"alive\n").unwrap();
        let mut r = BufReader::new(probe.try_clone().unwrap());
        assert_eq!(read_reply(&mut r), "echo alive");
        el.shutdown();
    }

    #[test]
    fn shutdown_closes_everything_with_reason() {
        let (el, service, addr) = start_echo(LoopOptions {
            workers: 2,
            ..LoopOptions::default()
        });
        let _c1 = TcpStream::connect(addr).unwrap();
        let _c2 = TcpStream::connect(addr).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while el.handle().connections_open() < 2 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(5));
        }
        el.shutdown();
        let closes = service.closes.lock().unwrap();
        assert_eq!(
            closes
                .iter()
                .filter(|(_, r)| *r == CloseReason::Shutdown)
                .count(),
            2
        );
    }

    #[test]
    fn eof_delivers_final_unterminated_line() {
        let (el, _service, addr) = start_echo(LoopOptions {
            workers: 2,
            ..LoopOptions::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        writer.write_all(b"partial").unwrap();
        // Half-close the write side: server sees EOF with a partial line.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(read_reply(&mut reader), "echo partial");
        el.shutdown();
    }
}
