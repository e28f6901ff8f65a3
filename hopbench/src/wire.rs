//! The load generator: non-blocking loopback connections speaking the
//! public frame protocol, and one phase engine that runs closed-loop
//! and open-loop streams side by side from a single thread.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hoplite_server::protocol::{FrameAccumulator, Request, Response, MAX_FRAME_LEN};

use crate::trace::Spans;

/// Nanoseconds since one fixed origin, shared by every timestamp of a
/// run (requests, spans, phases).
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Appends `req` to `out` as one length-prefixed frame.
pub fn put_frame(out: &mut Vec<u8>, req: &Request) {
    let payload = req.encode().expect("benchmark requests are well-formed");
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// A request on the wire, waiting for its reply.
#[derive(Clone, Copy, Debug)]
struct Inflight {
    tag: u64,
    /// When the request was due (open loop) or sent (closed loop).
    due: u64,
    /// Index of its root span when the request is traced.
    span: Option<u32>,
}

/// One non-blocking client connection.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    /// Bytes ever queued / ever written, for attributing flushes to
    /// traced requests.
    queued_total: u64,
    written_total: u64,
    acc: FrameAccumulator,
    inflight: VecDeque<Inflight>,
    /// Traced requests whose bytes have not all been written yet:
    /// `(root span, queued_total after the request)`.
    unflushed: VecDeque<(u32, u64)>,
    rbuf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(1 << 16),
            out_pos: 0,
            queued_total: 0,
            written_total: 0,
            acc: FrameAccumulator::new(MAX_FRAME_LEN),
            inflight: VecDeque::new(),
            unflushed: VecDeque::new(),
            rbuf: vec![0; 1 << 16],
        })
    }

    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Queues one request written by `write` (which returns its tag).
    fn enqueue(
        &mut self,
        due: u64,
        span: Option<u32>,
        write: impl FnOnce(&mut Vec<u8>) -> u64,
    ) -> u64 {
        let before = self.out.len();
        let tag = write(&mut self.out);
        self.queued_total += (self.out.len() - before) as u64;
        if let Some(s) = span {
            self.unflushed.push_back((s, self.queued_total));
        }
        self.inflight.push_back(Inflight { tag, due, span });
        tag
    }

    /// Writes as much of the queue as the socket takes; records a
    /// `client.flush` span for every traced request the write finished.
    fn flush(&mut self, clock: &Clock, spans: &mut Option<&mut Spans>) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            let t0 = clock.now();
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.written_total += n as u64;
                    if let Some(spans) = spans.as_deref_mut() {
                        let t1 = clock.now();
                        while let Some(&(root, end)) = self.unflushed.front() {
                            if end > self.written_total {
                                break;
                            }
                            spans.child(root, "client.flush", t0, t1);
                            self.unflushed.pop_front();
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 1 << 20 {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads whatever has arrived and hands each reply, in order, to
    /// `f(tag, due, reply, received_at)`.
    fn poll(
        &mut self,
        clock: &Clock,
        spans: &mut Option<&mut Spans>,
        mut f: impl FnMut(u64, u64, Response, u64),
    ) -> io::Result<usize> {
        let mut replies = 0;
        loop {
            match self.stream.read(&mut self.rbuf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.acc.extend(&self.rbuf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            let received = clock.now();
            while let Some(payload) = self
                .acc
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                let entry = self.inflight.pop_front().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "reply with no request")
                })?;
                let t0 = entry.span.map(|_| clock.now());
                let reply = Response::decode(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                if let (Some(root), Some(t0), Some(spans)) = (entry.span, t0, spans.as_deref_mut())
                {
                    let t1 = clock.now();
                    spans.child(root, "client.recv", t0, t1);
                    spans.close(root, t1);
                }
                f(entry.tag, entry.due, reply, received);
                replies += 1;
            }
        }
        Ok(replies)
    }

    /// Sends one request and blocks (spinning) for its reply — for
    /// control traffic outside timed phases.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        let clock = Clock::new();
        self.enqueue(0, None, |out| {
            put_frame(out, req);
            0
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut got = None;
        while got.is_none() {
            self.flush(&clock, &mut None)
                .map_err(|e| format!("send: {e}"))?;
            self.poll(&clock, &mut None, |_, _, reply, _| got = Some(reply))
                .map_err(|e| format!("recv: {e}"))?;
            if Instant::now() > deadline {
                return Err(format!("no reply to {req:?} within 60 s"));
            }
            if got.is_none() {
                std::thread::yield_now();
            }
        }
        Ok(got.expect("loop exits with a reply"))
    }
}

/// How a stream offers load.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Keep this many requests in flight.
    Closed(usize),
    /// Send on a fixed schedule of this many requests per second,
    /// whatever the replies do.
    Open(f64),
}

/// Where a stream's requests come from and how their replies are
/// judged.
pub trait Source {
    /// Appends the next request frame to `out` and returns its tag.
    fn next(&mut self, out: &mut Vec<u8>) -> u64;
    /// Checks the reply to request `tag`: the operations it answered
    /// (pairs or mutations), or why it is wrong.
    fn check(&mut self, tag: u64, reply: Response) -> Result<u64, Failure>;
}

/// Why a reply does not count.
#[derive(Debug)]
pub enum Failure {
    /// An error or refusal reply.
    Refused(String),
    /// An answer that disagrees with the expected one.
    Wrong(String),
}

/// Everything one stream observed in one phase.
#[derive(Debug, Default)]
pub struct Record {
    /// Reply latency per answered request, in ns, from send (closed
    /// loop) or from the due time (open loop), grouped by the window the
    /// reply arrived in (replies during the drain join the last one).
    pub latencies: Vec<Vec<u32>>,
    /// Operations answered in each equal window of the phase.
    pub window_ops: Vec<u64>,
    /// Requests sent.
    pub sent: u64,
    /// Operations answered correctly.
    pub ops: u64,
    /// Error or refusal replies, plus requests never answered.
    pub failed: u64,
    /// Replies that disagreed with the expected answer.
    pub wrong: u64,
    pub first_problem: Option<String>,
    /// Open loop: requests the schedule called for.
    pub scheduled: u64,
    /// Open loop: how late each request went out, in ns.
    pub lateness: Vec<u32>,
    /// Most requests in flight at once.
    pub outstanding_max: usize,
}

impl Record {
    /// Operations per second in each window.
    pub fn window_rates(&self, window: Duration) -> Vec<f64> {
        self.window_ops
            .iter()
            .map(|&n| n as f64 / window.as_secs_f64())
            .collect()
    }

    /// Scheduled requests the generator never sent.
    pub fn unsent(&self) -> u64 {
        self.scheduled.saturating_sub(self.sent)
    }
}

/// One stream of a phase.
pub struct Stream<'a> {
    pub conn: &'a mut Conn,
    pub pace: Pace,
    pub source: &'a mut dyn Source,
    /// Whether a traced phase samples this stream's requests.
    pub traced: bool,
    pub rec: Record,
}

impl<'a> Stream<'a> {
    pub fn new(conn: &'a mut Conn, pace: Pace, source: &'a mut dyn Source) -> Stream<'a> {
        Stream {
            conn,
            pace,
            source,
            traced: true,
            rec: Record::default(),
        }
    }
}

/// An open-loop stream stops generating (and counts the rest as
/// unsent) past this many requests in flight, so a stalled server
/// cannot grow the generator's memory without bound.
const OPEN_LOOP_CAP: usize = 1 << 20;

/// Runs every stream for `duration`, split into `windows` equal
/// windows, then waits up to `drain` for outstanding replies (any still
/// missing count as failed). With `trace`, every `every`-th request
/// gets client spans.
pub fn run_phase(
    clock: &Clock,
    streams: &mut [Stream],
    duration: Duration,
    windows: usize,
    drain: Duration,
    mut trace: Option<(&mut Spans, u64)>,
) -> Result<(), String> {
    let start = clock.now();
    let len = duration.as_nanos() as u64;
    let end = start + len;
    for s in streams.iter_mut() {
        s.rec.window_ops = vec![0; windows.max(1)];
        s.rec.latencies = vec![Vec::new(); windows.max(1)];
        if let Pace::Open(rate) = s.pace {
            s.rec.scheduled = (rate * duration.as_secs_f64()).floor() as u64;
        }
    }
    let mut seq = 0u64;
    loop {
        let now = clock.now();
        let issuing = now < end;
        if !issuing
            && (streams.iter().all(|s| s.conn.inflight() == 0)
                || now > end + drain.as_nanos() as u64)
        {
            break;
        }
        for s in streams.iter_mut() {
            let (mut spans, every) = match trace.as_mut() {
                Some((spans, every)) if s.traced => (Some(&mut **spans), *every),
                Some((spans, _)) => (Some(&mut **spans), 0),
                None => (None, 0),
            };
            if issuing {
                loop {
                    let due = match s.pace {
                        Pace::Closed(depth) if s.conn.inflight() < depth => now,
                        Pace::Open(rate) if s.conn.inflight() < OPEN_LOOP_CAP => {
                            let due = start + (s.rec.sent as f64 * 1e9 / rate) as u64;
                            if due > now || s.rec.sent >= s.rec.scheduled {
                                break;
                            }
                            due
                        }
                        _ => break,
                    };
                    seq += 1;
                    let traced = every > 0 && seq % every == 0;
                    let span = match (traced, spans.as_deref_mut()) {
                        (true, Some(sp)) => Some(sp.open("client.request", clock.now(), seq)),
                        _ => None,
                    };
                    let t0 = span.map(|_| clock.now());
                    let source = &mut *s.source;
                    let tag = s.conn.enqueue(due, span, |out| source.next(out));
                    if let (Some(root), Some(t0), Some(sp)) = (span, t0, spans.as_deref_mut()) {
                        sp.child(root, "client.send", t0, clock.now());
                        sp.set_tag(root, tag);
                    }
                    s.rec.sent += 1;
                    if matches!(s.pace, Pace::Open(_)) {
                        s.rec
                            .lateness
                            .push(now.saturating_sub(due).min(u32::MAX as u64) as u32);
                    }
                    s.rec.outstanding_max = s.rec.outstanding_max.max(s.conn.inflight());
                }
            }
            s.conn
                .flush(clock, &mut spans)
                .map_err(|e| format!("send: {e}"))?;
            let rec = &mut s.rec;
            let source = &mut *s.source;
            let nwin = rec.window_ops.len() as u64;
            s.conn
                .poll(clock, &mut spans, |tag, due, reply, at| {
                    let win =
                        ((at.saturating_sub(start) * nwin / len) as usize).min(nwin as usize - 1);
                    rec.latencies[win].push(at.saturating_sub(due).min(u32::MAX as u64) as u32);
                    match source.check(tag, reply) {
                        Ok(ops) => {
                            rec.ops += ops;
                            if at < end {
                                rec.window_ops[win] += ops;
                            }
                        }
                        Err(Failure::Refused(m)) => {
                            rec.failed += 1;
                            rec.first_problem.get_or_insert(m);
                        }
                        Err(Failure::Wrong(m)) => {
                            rec.wrong += 1;
                            rec.first_problem.get_or_insert(m);
                        }
                    }
                })
                .map_err(|e| format!("recv: {e}"))?;
        }
    }
    for s in streams.iter_mut() {
        let missing = s.conn.inflight.len() as u64;
        if missing > 0 {
            s.rec.failed += missing;
            s.rec
                .first_problem
                .get_or_insert(format!("{missing} request(s) unanswered after the drain"));
            // The connection's reply stream is now out of step with
            // its queue; nothing after this phase may use it.
            s.conn.inflight.clear();
            s.conn.out.clear();
            s.conn.out_pos = 0;
        }
    }
    Ok(())
}
