//! A many-connection wire load generator of single `REACH` frames.
//!
//! Driving 10k sockets with 10k blocking client threads would
//! benchmark the OS scheduler, not the server. This module drives `C`
//! connections from `W` worker threads instead: each worker owns a
//! disjoint slice of connections and runs rounds of *pipelined* load —
//! queue `depth` frames on every connection, flush, then collect every
//! reply in order. At any instant a worker's whole slice has frames in
//! flight, which is exactly the traffic shape the reactor's
//! cross-connection coalescer feeds on, and replies are small (≤ 9
//! bytes for `BOOL`) so a bounded depth can never deadlock against
//! socket buffers.
//!
//! Every frame carries one pair, so frames and queries count the same
//! and every tally in [`LoadReport`] shares one unit. It drives the
//! `paper perf` wire sweep and overload drill and the chaos suite's
//! overload tests; `BATCH` traffic is measured by hopbench's
//! `batch_scan` workload instead.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hoplite_core::HistogramSnapshot;

use crate::client::{dial, ClientConfig, ClientError};
use crate::protocol::{ErrorCode, FrameAccumulator, Request, Response, MAX_FRAME_LEN};

/// What load to offer; see [`run_load`].
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Server to connect to.
    pub addr: SocketAddr,
    /// Namespace every query targets.
    pub ns: String,
    /// Vertex-id space to draw random pairs from (`0..vertices`).
    pub vertices: u32,
    /// Concurrent connections to hold open.
    pub connections: usize,
    /// Worker threads driving those connections (clamped to
    /// `connections`).
    pub threads: usize,
    /// Frames in flight per connection within a round.
    pub pipeline_depth: usize,
    /// Total `REACH` queries to issue (rounded up to fill whole
    /// rounds).
    pub queries: u64,
    /// Seed for the deterministic query-pair stream.
    pub seed: u64,
}

/// What [`run_load`] measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Connections actually opened.
    pub connections: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Queries answered.
    pub queries: u64,
    /// Queries that came back as wire-level `ERROR` replies, or were
    /// lost in flight to a dying connection.
    pub errors: u64,
    /// Queries the server shed with a typed `OVERLOADED` reply.
    pub shed: u64,
    /// Queries refused with a typed `DEADLINE_EXCEEDED` reply.
    pub deadline_exceeded: u64,
    /// `true` answers observed (a cheap checksum against a ground
    /// truth run of the same seed).
    pub positives: u64,
    /// Wall time of the query phase (connection setup excluded).
    pub elapsed: Duration,
    /// Per-reply wire latency (nanoseconds, measured from a
    /// connection's pipelined send to each of its replies arriving),
    /// merged across every worker — **accepted** replies only, so
    /// overload percentiles describe the service the admitted traffic
    /// got, not the speed of the refusals. The same histogram type the
    /// server records with, so client- and server-side percentiles
    /// compare directly.
    pub latency: HistogramSnapshot,
}

impl LoadReport {
    /// Queries per second over the measured phase — *accepted* queries
    /// only, i.e. goodput under overload.
    pub fn qps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.queries as f64 / self.elapsed.as_secs_f64()
    }

    /// Fraction of offered queries the server refused (shed +
    /// deadline-expired) rather than answered.
    pub fn shed_fraction(&self) -> f64 {
        let offered = self.queries + self.shed + self.deadline_exceeded;
        if offered == 0 {
            return 0.0;
        }
        (self.shed + self.deadline_exceeded) as f64 / offered as f64
    }
}

/// SplitMix64: deterministic, seekable pair stream shared by every
/// worker without coordination.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `i`-th query pair of the stream for `seed`.
pub fn pair_at(seed: u64, i: u64, vertices: u32) -> (u32, u32) {
    let r = mix(seed ^ mix(i));
    let u = (r as u32) % vertices.max(1);
    let v = ((r >> 32) as u32) % vertices.max(1);
    (u, v)
}

/// One benchmark socket. Exactly **one** fd per connection — a
/// `BufReader`/`BufWriter` split over `try_clone` would double the fd
/// cost and halve the largest sweep a given `ulimit -n` allows — with
/// a [`FrameAccumulator`] standing in for read buffering.
struct WireConn {
    stream: TcpStream,
    acc: FrameAccumulator,
}

impl WireConn {
    /// Blocking read of the next whole reply frame.
    fn next_frame(&mut self) -> Result<Vec<u8>, ClientError> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = self.acc.next_frame().map_err(ClientError::from)? {
                return Ok(frame);
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "reply stream closed mid-pipeline",
                    )))
                }
                Ok(k) => self.acc.extend(&buf[..k]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }
}

/// Dials one benchmark socket under the restart-tolerant
/// [`ClientConfig::reconnecting`] policy (bounded dial/IO timeouts,
/// jittered exponential re-dials) — so a server restart mid-sweep
/// costs a reconnect, not the whole run.
fn connect(addr: SocketAddr, config: &ClientConfig) -> Result<WireConn, ClientError> {
    let stream = dial(&[addr], config)?;
    Ok(WireConn {
        stream,
        acc: FrameAccumulator::new(MAX_FRAME_LEN),
    })
}

/// Opens `spec.connections` sockets, drives `spec.queries` pipelined
/// queries through them, and reports throughput. Connection setup is
/// excluded from the timed phase. Fails fast if any connection cannot
/// be established — an fd-limit refusal should fail the benchmark, not
/// silently shrink it.
pub fn run_load(spec: &LoadSpec) -> Result<LoadReport, ClientError> {
    let connections = spec.connections.max(1);
    let threads = spec.threads.clamp(1, connections);
    let depth = spec.pipeline_depth.max(1);

    // Partition connections across workers as evenly as possible.
    let mut slices: Vec<usize> = vec![connections / threads; threads];
    for slice in slices.iter_mut().take(connections % threads) {
        *slice += 1;
    }

    // Every connection sends `depth` frames per round; run enough
    // rounds to cover the requested query count.
    let per_round = (connections * depth) as u64;
    let rounds = spec.queries.div_ceil(per_round).max(1);

    // Open every socket up front (the "sustains C concurrent sockets"
    // part of the measurement) before the clock starts.
    let config = ClientConfig::reconnecting();
    let mut conns: Vec<Vec<WireConn>> = Vec::with_capacity(threads);
    for slice in &slices {
        let mut owned = Vec::with_capacity(*slice);
        for _ in 0..*slice {
            owned.push(connect(spec.addr, &config)?);
        }
        conns.push(owned);
    }

    let started = Instant::now();
    let results: Vec<Result<WorkerTotals, ClientError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (worker, owned) in conns.into_iter().enumerate() {
            let spec = &*spec;
            handles
                .push(scope.spawn(move || worker_loop(owned, spec, worker as u64, rounds, depth)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect()
    });

    let elapsed = started.elapsed();
    let mut queries = 0;
    let mut errors = 0;
    let mut shed = 0;
    let mut deadline_exceeded = 0;
    let mut positives = 0;
    let mut latency = HistogramSnapshot::empty();
    for result in results {
        let totals = result?;
        queries += totals.queries;
        errors += totals.errors;
        shed += totals.shed;
        deadline_exceeded += totals.deadline_exceeded;
        positives += totals.positives;
        latency.merge(&totals.latency);
    }
    Ok(LoadReport {
        connections,
        threads,
        queries,
        errors,
        shed,
        deadline_exceeded,
        positives,
        elapsed,
        latency,
    })
}

/// One worker's accumulated results.
struct WorkerTotals {
    queries: u64,
    errors: u64,
    shed: u64,
    deadline_exceeded: u64,
    positives: u64,
    latency: HistogramSnapshot,
}

/// One worker's rounds over its connection slice.
fn worker_loop(
    mut conns: Vec<WireConn>,
    spec: &LoadSpec,
    worker: u64,
    rounds: u64,
    depth: usize,
) -> Result<WorkerTotals, ClientError> {
    let config = ClientConfig::reconnecting();
    let mut queries = 0u64;
    let mut errors = 0u64;
    let mut shed = 0u64;
    let mut deadline_exceeded = 0u64;
    let mut positives = 0u64;
    let mut latency = HistogramSnapshot::empty();
    // Each connection's send-phase flush instant; replies measure
    // against it, so a reply's latency covers server queueing and its
    // position in the pipeline — what a real pipelined client feels.
    let mut sent_at: Vec<Instant> = vec![Instant::now(); conns.len()];
    // Disjoint per-worker region of the shared pair stream.
    let mut next_pair = worker << 40;

    let mut wbuf: Vec<u8> = Vec::with_capacity(depth * 64);
    for _round in 0..rounds {
        // Send phase: every connection gets `depth` frames in one
        // write — so the whole slice has frames in flight at once.
        for (c, conn) in conns.iter_mut().enumerate() {
            wbuf.clear();
            for _ in 0..depth {
                let (u, v) = pair_at(spec.seed, next_pair, spec.vertices);
                next_pair += 1;
                let payload = Request::Reach {
                    ns: spec.ns.clone(),
                    u,
                    v,
                }
                .encode()?;
                wbuf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                wbuf.extend_from_slice(&payload);
            }
            if let Err(e) = conn.stream.write_all(&wbuf) {
                // The server may have restarted under us: re-dial
                // (bounded + jittered) and re-send this round's frames
                // once; a second failure is fatal.
                crate::log_warn!("loadgen", "send failed ({e}); reconnecting");
                *conn = connect(spec.addr, &config)?;
                conn.stream.write_all(&wbuf)?;
            }
            sent_at[c] = Instant::now();
        }
        // Collect phase: replies come back in send order per
        // connection. A connection dying mid-collect forfeits its
        // outstanding replies (counted as errors) and reconnects for
        // the next round.
        for (c, conn) in conns.iter_mut().enumerate() {
            let mut got = 0usize;
            while got < depth {
                let reply = match conn.next_frame() {
                    Ok(reply) => reply,
                    Err(ClientError::Io(e)) => {
                        crate::log_warn!(
                            "loadgen",
                            "reply stream died ({e}); dropping {} in-flight frame(s) \
                             and reconnecting",
                            depth - got
                        );
                        errors += (depth - got) as u64;
                        *conn = connect(spec.addr, &config)?;
                        break;
                    }
                    Err(e) => return Err(e),
                };
                got += 1;
                match Response::decode(&reply)? {
                    Response::Bool(b) => {
                        latency.record(sent_at[c].elapsed().as_nanos() as u64);
                        queries += 1;
                        positives += b as u64;
                    }
                    // Typed refusals are the overload machinery doing
                    // its job, not errors.
                    Response::Fail {
                        code: ErrorCode::Overloaded,
                        ..
                    } => shed += 1,
                    Response::Fail {
                        code: ErrorCode::DeadlineExceeded,
                        ..
                    } => deadline_exceeded += 1,
                    _ => errors += 1,
                }
            }
        }
    }
    Ok(WorkerTotals {
        queries,
        errors,
        shed,
        deadline_exceeded,
        positives,
        latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_stream_is_deterministic_and_in_range() {
        for i in 0..1000 {
            let (u, v) = pair_at(42, i, 100);
            assert!(u < 100 && v < 100);
            assert_eq!((u, v), pair_at(42, i, 100));
        }
        assert_ne!(pair_at(42, 0, 1000), pair_at(43, 0, 1000));
    }

    #[test]
    fn load_report_qps_math() {
        let report = LoadReport {
            connections: 4,
            threads: 2,
            queries: 1000,
            errors: 0,
            shed: 0,
            deadline_exceeded: 0,
            positives: 10,
            elapsed: Duration::from_millis(500),
            latency: HistogramSnapshot::empty(),
        };
        assert!((report.qps() - 2000.0).abs() < 1e-9);
        assert_eq!(report.shed_fraction(), 0.0);
        let shed = LoadReport {
            shed: 200,
            deadline_exceeded: 50,
            ..report
        };
        assert!((shed.shed_fraction() - 0.2).abs() < 1e-9);
    }
}
