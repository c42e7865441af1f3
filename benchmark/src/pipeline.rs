//! The system under test, rebuilt from public API exactly as
//! `dvecap serve` wires it, plus the open-loop load generator and the
//! commit attribution that turns engine-call stamps into per-event
//! socket-to-commit latencies.
//!
//! * A generator thread writes the schedule's frames to one 127.0.0.1
//!   connection: it sleeps until the next due time (it never spins) and
//!   writes every frame that is due in one `write_all`.
//! * A reader thread decodes frames with `wire::FrameReader` and feeds
//!   the `IngestRing`: `push_blocking` for Leave/ServerDown/ServerUp,
//!   `push_or_shed` for the rest, as `dvecap serve`'s connection reader
//!   does. It closes the ring when the producer hangs up.
//! * The consumer (the calling thread) pumps an `IngestStream` into the
//!   engine and yields when idle, as `dve_sim::run_ingest_stream` does.
//!
//! The wire protocol has no reply frame, so commits are seen in-process:
//! the engine sits behind [`TimedSink`], which stamps every return of a
//! flush, fail or restore. An event counts as committed at the first
//! such stamp after it was popped off the ring.

use crate::trace::Tracer;
use crate::workload::Schedule;
use dve_sim::{
    ClientId, FailoverReport, FlushReport, IngestReport, IngestStream, RestoreReport, ServeEngine,
    ServeError, ServeSink, StreamEvent,
};
use dve_world::wire::FrameReader;
use dve_world::{IngestRing, WorldEvent};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `dvecap serve`'s default ring slots (`--ring`).
pub const RING_SLOTS: usize = 4_096;
/// `dvecap serve`'s default buffer bound (`--bound`).
pub const BUFFER_BOUND: usize = 1_024;

/// One engine-call return, as seen by [`TimedSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Events popped off the ring by then (a lower bound: the reader's
    /// pushed count, read first, minus the ring's length).
    pub popped: u64,
    /// Nanoseconds after the run start.
    pub at_ns: u64,
    /// Whether the call was `fail_server` / `restore_server`.
    pub server: bool,
    /// Events left on the ring: the backlog the call returned to.
    pub depth: u32,
}

/// Maps each pushed event to its commit time. `pushed_sched[p]` is the
/// schedule ordinal of the `p`-th event pushed onto the ring (events
/// shed at the ring are absent). A churn event commits at the first
/// stamp whose popped count exceeds its push ordinal; a server event
/// commits at the first such `fail_server`/`restore_server` stamp (the
/// flush that precedes it on the consumer already counts it as popped).
/// Returns one entry per schedule event: `None` when it was shed or
/// never committed.
pub fn attribute(
    stamps: &[Stamp],
    pushed_sched: &[u32],
    is_server: impl Fn(usize) -> bool,
    events: usize,
) -> Vec<Option<u64>> {
    let mut commit = vec![None; events];
    let (mut any, mut server) = (0, 0);
    for (p, &ord) in pushed_sched.iter().enumerate() {
        let p = p as u64;
        let ord = ord as usize;
        let at = if is_server(ord) {
            while server < stamps.len() && !(stamps[server].server && stamps[server].popped > p) {
                server += 1;
            }
            stamps.get(server)
        } else {
            while any < stamps.len() && stamps[any].popped <= p {
                any += 1;
            }
            stamps.get(any)
        };
        commit[ord] = at.map(|s| s.at_ns);
    }
    commit
}

/// The engine behind the ingest stream, wrapped to stamp commits, count
/// committed joins and leaves, and (traced) time every call.
pub struct TimedSink<'a> {
    pub engine: ServeEngine,
    ring: &'a IngestRing,
    pushed: &'a AtomicU64,
    start: Instant,
    pub stamps: Vec<Stamp>,
    pub joins: u64,
    pub leaves: u64,
    /// Sum of `touched_zones` over flushes that applied events.
    pub touched_zones: u64,
    pub tracer: Option<Tracer>,
}

impl TimedSink<'_> {
    fn stamp(&mut self, server: bool) -> (u64, u64) {
        let at = Instant::now();
        let pushed = self.pushed.load(Ordering::Acquire);
        let depth = self.ring.len();
        let popped = pushed.saturating_sub(depth as u64);
        let before = self.stamps.last().map_or(0, |s| s.popped);
        self.stamps.push(Stamp {
            popped,
            at_ns: at.saturating_duration_since(self.start).as_nanos() as u64,
            server,
            depth: depth as u32,
        });
        (before, popped)
    }

    fn begin(&mut self, name: &'static str) -> Option<u32> {
        self.tracer.as_mut().map(|t| t.begin(name))
    }

    fn end(&mut self, span: Option<u32>, seq: Option<(u64, u64)>) {
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.end(id);
            t.spans[id as usize].seq = seq;
        }
    }
}

impl ServeSink for TimedSink<'_> {
    fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    fn push_admitted(
        &mut self,
        event: StreamEvent,
        at: Instant,
    ) -> Result<Option<ClientId>, ServeError> {
        let span = self.begin("engine.push_admitted");
        let result = self.engine.push_admitted(event, at);
        self.end(span, None);
        match (event, &result) {
            (StreamEvent::Join { .. }, Ok(Some(_))) => self.joins += 1,
            (StreamEvent::Leave { .. }, Ok(_)) => self.leaves += 1,
            _ => {}
        }
        result
    }

    fn tick(&mut self) -> Option<FlushReport> {
        self.engine.tick()
    }

    fn flush_now(&mut self) -> Option<FlushReport> {
        let span = self.begin("engine.flush_now");
        let report = self.engine.flush_now();
        let seq = self.stamp(false);
        self.end(span, Some(seq));
        match &report {
            Some(r) => self.touched_zones += r.touched_zones as u64,
            // Nothing was pending: keep the call out of the flush
            // latency distribution.
            None => {
                if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
                    t.spans[id as usize].name = "engine.flush_empty";
                }
            }
        }
        report
    }

    fn fail_server(&mut self, server: usize) -> Result<FailoverReport, ServeError> {
        let span = self.begin("engine.fail_server");
        let result = self.engine.fail_server(server);
        let seq = self.stamp(true);
        self.end(span, Some(seq));
        result
    }

    fn restore_server(&mut self, server: usize) -> Result<RestoreReport, ServeError> {
        let span = self.begin("engine.restore_server");
        let result = self.engine.restore_server(server);
        let seq = self.stamp(true);
        self.end(span, Some(seq));
        result
    }

    fn begin_warmup(&mut self) {
        self.engine.begin_warmup()
    }

    fn end_warmup(&mut self) {
        self.engine.end_warmup()
    }
}

/// What the generator did.
#[derive(Debug, Default)]
pub struct GenReport {
    /// Frames written.
    pub sent: u64,
    /// Per schedule event: nanoseconds between its due time and the
    /// start of the write that carried it.
    pub late_ns: Vec<u64>,
}

/// Asks for 1 ns timer slack on the calling thread, so its sleeps end
/// at the due time instead of up to 50 µs (Linux's default slack)
/// later. Latency runs from the due time, so the default slack would add
/// the generator's oversleep to every event.
#[cfg(target_os = "linux")]
fn fine_timer_slack() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches no
    // memory of ours.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn fine_timer_slack() {}

/// Open-loop load generator: writes `schedule` to `addr`, every due
/// frame in one `write_all`, sleeping (never spinning) between due
/// times, then half-closes the connection.
pub fn generate_load(
    addr: SocketAddr,
    schedule: &Schedule,
    start: Instant,
) -> std::io::Result<GenReport> {
    fine_timer_slack();
    let mut conn = TcpStream::connect(addr)?;
    // A latency benchmark's producer must not sit on small writes
    // waiting for acknowledgements.
    conn.set_nodelay(true)?;
    let n = schedule.len();
    let mut late_ns = vec![0u64; n];
    let mut i = 0;
    while i < n {
        let due = start + Duration::from_nanos(schedule.due_ns[i]);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let now = Instant::now();
        let elapsed = now.saturating_duration_since(start).as_nanos() as u64;
        let mut j = i + 1;
        while j < n && schedule.due_ns[j] <= elapsed {
            j += 1;
        }
        for (late, &due) in late_ns[i..j].iter_mut().zip(&schedule.due_ns[i..j]) {
            *late = elapsed.saturating_sub(due);
        }
        conn.write_all(schedule.frames(i, j))?;
        i = j;
    }
    conn.shutdown(Shutdown::Write)?;
    Ok(GenReport {
        sent: n as u64,
        late_ns,
    })
}

/// What the reader did.
#[derive(Debug, Default)]
pub struct ReaderReport {
    /// Frames decoded.
    pub decoded: u64,
    /// Schedule ordinal of each event pushed onto the ring, in order.
    pub pushed_sched: Vec<u32>,
    /// Traced only: time in `FrameReader::next_event` and in ring pushes.
    pub decode_ns: u64,
    pub push_ns: u64,
    /// Bytes left undecoded when the producer hung up, or a wire error.
    pub error: Option<String>,
}

/// The connection reader of `dvecap serve`, with bookkeeping: decodes
/// frames off `conn` into `ring` and publishes its pushed count in
/// `pushed` after each push.
fn read_connection(
    mut conn: impl Read,
    ring: &IngestRing,
    pushed: &AtomicU64,
    trace: bool,
) -> ReaderReport {
    let mut report = ReaderReport::default();
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 4096];
    'read: loop {
        let n = match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => {
                report.error = Some(format!("read error: {e}"));
                break;
            }
        };
        frames.feed(&buf[..n]);
        loop {
            let t0 = trace.then(Instant::now);
            let next = frames.next_event();
            let t1 = trace.then(Instant::now);
            if let (Some(t0), Some(t1)) = (t0, t1) {
                report.decode_ns += (t1 - t0).as_nanos() as u64;
            }
            let event = match next {
                Ok(Some(event)) => event,
                Ok(None) => break,
                Err(e) => {
                    report.error = Some(format!("wire error: {e}"));
                    break 'read;
                }
            };
            let ordinal = report.decoded as u32;
            report.decoded += 1;
            let must_deliver = matches!(
                event,
                WorldEvent::Leave { .. }
                    | WorldEvent::ServerDown { .. }
                    | WorldEvent::ServerUp { .. }
            );
            let accepted = if must_deliver {
                ring.push_blocking(event).map(|()| true)
            } else {
                ring.push_or_shed(event)
            };
            if let Some(t1) = t1 {
                report.push_ns += t1.elapsed().as_nanos() as u64;
            }
            match accepted {
                Ok(true) => {
                    report.pushed_sched.push(ordinal);
                    pushed.store(report.pushed_sched.len() as u64, Ordering::Release);
                }
                Ok(false) => {}
                Err(_) => break 'read,
            }
        }
    }
    if frames.pending_bytes() > 0 && report.error.is_none() {
        report.error = Some(format!(
            "closed mid-frame ({} bytes pending)",
            frames.pending_bytes()
        ));
    }
    report
}

/// Everything one serving session produced.
pub struct Session<'a> {
    pub sink: TimedSink<'a>,
    pub report: IngestReport,
    pub gen: GenReport,
    pub reader: ReaderReport,
    pub ring_shed: u64,
    /// Per schedule event: commit time (ns after start), if committed.
    pub commit_ns: Vec<Option<u64>>,
    /// Traced sessions: wall time of the consumer loop's iterations that
    /// popped events, plus the final drain (everything but idle pumps
    /// and yields).
    pub consumer_busy_ns: u64,
}

/// Serves `schedule` through the pipeline: `engine` and `stream` come
/// from set-up, `ring` must be fresh. Due times count from 100 ms after
/// the call, by when the connection is up.
pub fn serve<'a>(
    engine: ServeEngine,
    mut stream: IngestStream,
    ring: &'a IngestRing,
    pushed: &'a AtomicU64,
    schedule: &Schedule,
    tracer: Option<Tracer>,
) -> std::io::Result<Session<'a>> {
    let trace = tracer.is_some();
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let start = Instant::now() + Duration::from_millis(100);
    let mut sink = TimedSink {
        engine,
        ring,
        pushed,
        start,
        stamps: Vec::with_capacity(schedule.len() + 16),
        joins: 0,
        leaves: 0,
        touched_zones: 0,
        tracer,
    };
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let report = match listener.accept() {
                Ok((conn, _)) => read_connection(conn, ring, pushed, trace),
                Err(e) => ReaderReport {
                    error: Some(format!("accept failed: {e}")),
                    ..Default::default()
                },
            };
            ring.close();
            report
        });
        let generator = scope.spawn(move || generate_load(addr, schedule, start));

        let mut consumer_busy_ns = 0;
        loop {
            let span = sink.tracer.as_mut().map(|t| t.begin("ingest.pump"));
            let popped = stream.pump(&mut sink, ring);
            let done = ring.is_closed() && ring.is_empty();
            if let (Some(t), Some(id)) = (sink.tracer.as_mut(), span) {
                if popped == 0 {
                    t.discard(id);
                } else {
                    t.end(id);
                    // The whole working iteration, bookkeeping included.
                    consumer_busy_ns += t.now_ns() - t.spans[id as usize].start_ns;
                }
            }
            if done {
                break;
            }
            if popped == 0 {
                std::thread::yield_now();
            }
        }
        let span = sink.tracer.as_mut().map(|t| t.begin("ingest.finish"));
        let report = stream.finish(&mut sink);
        if let (Some(t), Some(id)) = (sink.tracer.as_mut(), span) {
            t.end(id);
            consumer_busy_ns += t.spans[id as usize].ns();
        }

        let reader = reader.join().expect("reader thread panicked");
        let gen = generator.join().expect("generator thread panicked")?;
        let commit_ns = attribute(
            &sink.stamps,
            &reader.pushed_sched,
            |i| schedule.is_server_event(i),
            schedule.len(),
        );
        Ok(Session {
            ring_shed: ring.shed_events(),
            sink,
            report,
            gen,
            reader,
            commit_ns,
            consumer_busy_ns,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(popped: u64, at_ns: u64, server: bool) -> Stamp {
        Stamp {
            popped,
            at_ns,
            server,
            depth: 0,
        }
    }

    /// Schedule events 2 and 4 were shed at the ring, so push ordinals
    /// 0..4 are schedule ordinals [0, 1, 3, 5]; each commits at the
    /// first stamp past its push ordinal, and sheds stay uncommitted.
    #[test]
    fn attribution_skips_ring_sheds() {
        let stamps = [
            stamp(0, 5, false),
            stamp(1, 10, false),
            stamp(3, 20, false),
            stamp(4, 30, false),
        ];
        let commit = attribute(&stamps, &[0, 1, 3, 5], |_| false, 6);
        assert_eq!(
            commit,
            vec![Some(10), Some(20), None, Some(20), None, Some(30)]
        );
    }

    /// A server event is popped before the flush that precedes its
    /// fail/restore call, so that flush's stamp already counts it; it
    /// still commits at the fail/restore stamp. Events after it commit
    /// at the next stamp of any kind.
    #[test]
    fn attribution_commits_server_events_at_their_own_call() {
        let stamps = [stamp(3, 10, false), stamp(3, 40, true), stamp(5, 50, false)];
        let commit = attribute(&stamps, &[0, 1, 2, 3, 4], |i| i == 2, 5);
        assert_eq!(
            commit,
            vec![Some(10), Some(10), Some(40), Some(50), Some(50)]
        );
    }

    #[test]
    fn events_past_the_last_stamp_stay_uncommitted() {
        let commit = attribute(&[stamp(1, 7, false)], &[0, 1], |_| false, 2);
        assert_eq!(commit, vec![Some(7), None]);
    }

    /// The reader pushes must-deliver events even into a full ring's
    /// backpressure and sheds the rest, recording which ordinals made it.
    #[test]
    fn reader_records_pushed_ordinals_and_sheds() {
        let ring = IngestRing::with_capacity(2);
        let pushed = AtomicU64::new(0);
        let mut bytes = Vec::new();
        for event in [
            WorldEvent::Move { client: 1, zone: 2 },
            WorldEvent::Join { node: 0, zone: 1 },
            WorldEvent::Move { client: 3, zone: 4 },
        ] {
            dve_world::wire::encode_event(&event, &mut bytes);
        }
        let report = read_connection(&bytes[..], &ring, &pushed, false);
        assert_eq!(report.decoded, 3);
        assert_eq!(report.pushed_sched, vec![0, 1]);
        assert_eq!(ring.shed_events(), 1);
        assert_eq!(pushed.load(Ordering::Acquire), 2);
        assert!(report.error.is_none());
    }
}
