//! The hoplite wire protocol: small, versioned, length-prefixed
//! binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! frame   := len:u32-le  payload          (len excludes the prefix)
//! payload := version:u8  opcode:u8  body
//! ```
//!
//! Request opcodes and bodies (all integers little-endian; `name` is a
//! `u8` length followed by that many UTF-8 bytes):
//!
//! | opcode | request       | body                         |
//! |-------:|---------------|------------------------------|
//! | `0x01` | `PING`        | —                            |
//! | `0x02` | `REACH`       | `name u:u32 v:u32`           |
//! | `0x03` | `BATCH`       | `name k:u32 (u:u32 v:u32)×k` |
//! | `0x04` | `ADD_EDGE`    | `name u:u32 v:u32`           |
//! | `0x05` | `REMOVE_EDGE` | `name u:u32 v:u32`           |
//! | `0x06` | `STATS`       | `name`                       |
//! | `0x07` | `LIST`        | —                            |
//! | `0x08` | `METRICS`     | `name` (empty ⇒ server-wide)  |
//!
//! Response opcodes: `0x81 PONG`, `0x82 BOOL (b:u8)`, `0x83 BOOLS
//! (k:u32 + ⌈k/8⌉ LSB-first packed bytes)`, `0x86 STATS`, `0x87 LIST`,
//! `0x88 METRICS`, `0xEE ERROR (msg as u16-prefixed UTF-8)`,
//! `0xEF FAIL (code:u8 retry_after_ms:u32 msg)` — the machine-readable
//! refusal the overload-control layer speaks.
//!
//! Decoding is strict: bad version, unknown opcode, short bodies,
//! trailing bytes, oversized counts, non-zero padding bits, and
//! non-UTF-8 names are all [`WireError`]s — never panics. The server
//! turns them into `ERROR` replies; framing stays intact because the
//! length prefix already delimited the bad payload.

use std::fmt;
use std::io::{self, Read, Write};

/// The wire protocol version — the only one either side speaks.
///
/// Every frame's first byte must equal it; any other version byte is
/// a [`WireError::Version`], which the server answers with an `ERROR`
/// reply. Earlier versions grew the same opcode set one step at a
/// time (v2 and v3 widened `STATS`, v4 added `METRICS`, v5 added the
/// durability fields to `STATS`, v6 added the typed `FAIL` refusal);
/// v6 carries all of it unconditionally.
pub const PROTOCOL_VERSION: u8 = 6;
/// Hard ceiling on a frame payload; larger length prefixes are
/// rejected before any allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;
/// Namespace names are `u8`-length-prefixed.
pub const MAX_NAME_LEN: usize = 255;
/// Ceiling on `BATCH` pair counts (8 MiB of body).
pub const MAX_BATCH_PAIRS: u32 = 1 << 20;

const OP_PING: u8 = 0x01;
const OP_REACH: u8 = 0x02;
const OP_BATCH: u8 = 0x03;
const OP_ADD_EDGE: u8 = 0x04;
const OP_REMOVE_EDGE: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_LIST: u8 = 0x07;
const OP_METRICS: u8 = 0x08;

const RE_PONG: u8 = 0x81;
const RE_BOOL: u8 = 0x82;
const RE_BOOLS: u8 = 0x83;
const RE_STATS: u8 = 0x86;
const RE_LIST: u8 = 0x87;
const RE_METRICS: u8 = 0x88;
const RE_ERROR: u8 = 0xEE;
const RE_FAIL: u8 = 0xEF;

/// Anything that can go wrong speaking the protocol.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure (includes EOF mid-frame).
    Io(io::Error),
    /// A length prefix larger than the negotiated maximum.
    FrameTooLarge {
        /// Length the prefix declared.
        len: u32,
        /// Maximum the reader accepts.
        max: u32,
    },
    /// Payload carried an unsupported protocol version.
    Version(u8),
    /// Payload carried an opcode this side does not know.
    UnknownOpcode(u8),
    /// Structurally invalid body (short, trailing bytes, bad UTF-8…).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            WireError::Version(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (speaker supports {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() as u64 <= MAX_FRAME_LEN as u64);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, enforcing `max_len` before allocating.
pub fn read_frame<R: Read>(r: &mut R, max_len: u32) -> Result<Vec<u8>, WireError> {
    let mut hdr = [0u8; 4];
    r.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes(hdr);
    if len > max_len {
        return Err(WireError::FrameTooLarge { len, max: max_len });
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Incremental frame decoder for nonblocking transports.
///
/// [`read_frame`] needs a blocking reader; the reactor gets bytes in
/// arbitrary slices (half a length prefix now, three frames at once
/// later). An accumulator buffers whatever arrives and yields complete
/// payloads as they materialize, tolerating byte-at-a-time input.
/// [`next_frame_ref`](Self::next_frame_ref) lends each payload straight
/// out of the buffer, and [`RequestRef::decode`] parses it in place, so
/// the server's read path copies no payload and allocates no name;
/// [`next_frame`](Self::next_frame) is the owned form:
///
/// ```
/// use hoplite_server::protocol::{FrameAccumulator, Request, RequestRef};
///
/// let payload = Request::Reach { ns: "web".into(), u: 1, v: 2 }.encode().unwrap();
/// let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
/// frame.extend_from_slice(&payload);
///
/// let mut acc = FrameAccumulator::new(1024);
/// for &byte in &frame[..frame.len() - 1] {
///     acc.extend(&[byte]);
///     assert!(acc.next_frame_ref().unwrap().is_none(), "frame not complete yet");
/// }
/// acc.extend(&frame[frame.len() - 1..]);
/// let borrowed = acc.next_frame_ref().unwrap().unwrap();
/// assert_eq!(borrowed, payload);
/// assert_eq!(
///     RequestRef::decode(borrowed).unwrap(),
///     RequestRef::Reach { ns: "web", u: 1, v: 2 }
/// );
/// assert!(acc.next_frame().unwrap().is_none(), "each frame is yielded once");
/// ```
///
/// A length prefix over the limit is a [`WireError::FrameTooLarge`];
/// after that error the stream can no longer be trusted (the oversized
/// body was never consumed) and the connection must close once the
/// error reply flushes.
#[derive(Debug)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    /// Bytes before `pos` belong to already-yielded frames.
    pos: usize,
    max_len: u32,
}

impl FrameAccumulator {
    /// An empty accumulator enforcing `max_len` on every frame.
    pub fn new(max_len: u32) -> FrameAccumulator {
        FrameAccumulator {
            buf: Vec::new(),
            pos: 0,
            max_len,
        }
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so a long-lived
        // connection's buffer stays proportional to its in-flight
        // data, not its lifetime traffic.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Yields the next complete frame payload as an owned copy; see
    /// [`next_frame_ref`](Self::next_frame_ref).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(self.next_frame_ref()?.map(<[u8]>::to_vec))
    }

    /// Lends the next complete frame payload out of the buffer, `None`
    /// if more bytes are needed, or [`WireError::FrameTooLarge`] if the
    /// pending length prefix exceeds the limit.
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, WireError> {
        let pending = &self.buf[self.pos..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if len > self.max_len {
            return Err(WireError::FrameTooLarge {
                len,
                max: self.max_len,
            });
        }
        let len = len as usize;
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some(&self.buf[start..self.pos]))
    }
}

// ---------------------------------------------------------------------
// Body reader/writer primitives
// ---------------------------------------------------------------------

struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                WireError::Malformed(format!(
                    "body truncated: wanted {n} more bytes at offset {}",
                    self.pos
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// `u8`-length-prefixed UTF-8 string (namespace names), borrowed
    /// from the payload.
    fn name(&mut self) -> Result<&'a str, WireError> {
        let len = self.u8()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|_| WireError::Malformed("name is not valid UTF-8".into()))
    }

    /// `u16`-length-prefixed UTF-8 string (error messages).
    fn text(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("text is not valid UTF-8".into()))
    }

    /// Bytes not yet consumed — used to sanity-check claimed element
    /// counts before allocating for them.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Rejects payloads with bytes past the decoded body.
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes after body",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Consumes the version byte, refusing anything but [`PROTOCOL_VERSION`].
fn check_version(r: &mut ByteReader<'_>) -> Result<(), WireError> {
    match r.u8()? {
        PROTOCOL_VERSION => Ok(()),
        other => Err(WireError::Version(other)),
    }
}

fn put_u16(out: &mut Vec<u8>, x: u16) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_name(out: &mut Vec<u8>, name: &str) -> Result<(), WireError> {
    if name.len() > MAX_NAME_LEN {
        return Err(WireError::Malformed(format!(
            "name of {} bytes exceeds the {MAX_NAME_LEN}-byte limit",
            name.len()
        )));
    }
    out.push(name.len() as u8);
    out.extend_from_slice(name.as_bytes());
    Ok(())
}

fn put_text(out: &mut Vec<u8>, text: &str) {
    // Error messages are advisory; truncate (on a char boundary) rather
    // than fail the reply.
    let mut end = text.len().min(u16::MAX as usize);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    put_u16(out, end as u16);
    out.extend_from_slice(&text.as_bytes()[..end]);
}

fn pack_bools(out: &mut Vec<u8>, bools: &[bool]) {
    put_u32(out, bools.len() as u32);
    let mut byte = 0u8;
    for (i, &b) in bools.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if bools.len() % 8 != 0 {
        out.push(byte);
    }
}

fn unpack_bools(r: &mut ByteReader<'_>) -> Result<Vec<bool>, WireError> {
    let k = r.u32()?;
    if k > MAX_BATCH_PAIRS {
        return Err(WireError::Malformed(format!(
            "answer count {k} exceeds the {MAX_BATCH_PAIRS} limit"
        )));
    }
    let k = k as usize;
    let bytes = r.take(k.div_ceil(8))?;
    let mut out = Vec::with_capacity(k);
    for (i, &byte) in bytes.iter().enumerate() {
        let bits = if i == k / 8 { k % 8 } else { 8 };
        if bits < 8 && byte >> bits != 0 {
            return Err(WireError::Malformed("non-zero padding bits".into()));
        }
        for j in 0..bits {
            out.push(byte >> j & 1 == 1);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Shared wire types
// ---------------------------------------------------------------------

/// Whether a namespace serves a frozen snapshot or accepts mutations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NamespaceKind {
    /// An immutable [`hoplite_core::Oracle`] snapshot; queries take the
    /// lock-free frozen-label fast path.
    Frozen,
    /// A [`hoplite_core::DynamicOracle`] accepting `ADD_EDGE` /
    /// `REMOVE_EDGE`.
    Dynamic,
}

impl NamespaceKind {
    fn to_u8(self) -> u8 {
        match self {
            NamespaceKind::Frozen => 0,
            NamespaceKind::Dynamic => 1,
        }
    }

    fn from_u8(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(NamespaceKind::Frozen),
            1 => Ok(NamespaceKind::Dynamic),
            other => Err(WireError::Malformed(format!(
                "unknown namespace kind {other}"
            ))),
        }
    }
}

impl fmt::Display for NamespaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NamespaceKind::Frozen => write!(f, "frozen"),
            NamespaceKind::Dynamic => write!(f, "dynamic"),
        }
    }
}

/// Which storage backing a namespace's index arrays live in — the
/// wire twin of [`hoplite_core::StoreBackend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexBackend {
    /// Process-private heap (built in process, or a HOPL v4 arena
    /// read onto the heap).
    Heap,
    /// One shared HOPL v4 arena (`Oracle::open`), page-cache-shared
    /// across replicas of the same file.
    Mapped,
}

impl IndexBackend {
    fn to_u8(self) -> u8 {
        match self {
            IndexBackend::Heap => 0,
            IndexBackend::Mapped => 1,
        }
    }

    fn from_u8(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(IndexBackend::Heap),
            1 => Ok(IndexBackend::Mapped),
            other => Err(WireError::Malformed(format!(
                "unknown index backend {other}"
            ))),
        }
    }
}

impl From<hoplite_core::StoreBackend> for IndexBackend {
    fn from(b: hoplite_core::StoreBackend) -> Self {
        match b {
            hoplite_core::StoreBackend::Heap => IndexBackend::Heap,
            hoplite_core::StoreBackend::Mapped => IndexBackend::Mapped,
        }
    }
}

impl fmt::Display for IndexBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexBackend::Heap => write!(f, "heap"),
            IndexBackend::Mapped => write!(f, "mapped"),
        }
    }
}

/// Machine-readable refusal category carried by a `FAIL` reply. The
/// code tells the client *what to do next* — retry, back off, or give
/// up — independent of the advisory text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame sat queued past [`request deadline`] and was dropped
    /// before consuming any kernel time. Not retryable as-is: by the
    /// time a retry lands the answer is just as stale, so the caller
    /// should shed the work or raise its deadline.
    ///
    /// [`request deadline`]: crate::ServerConfig::request_deadline
    DeadlineExceeded,
    /// Admission control shed the frame past the high-water mark.
    /// Retryable after the `retry_after_ms` hint.
    Overloaded,
    /// The server is up but not serving yet (WAL replay / startup in
    /// progress). Retryable after the `retry_after_ms` hint.
    NotReady,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::DeadlineExceeded => 1,
            ErrorCode::Overloaded => 2,
            ErrorCode::NotReady => 3,
        }
    }

    fn from_u8(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(ErrorCode::DeadlineExceeded),
            2 => Ok(ErrorCode::Overloaded),
            3 => Ok(ErrorCode::NotReady),
            other => Err(WireError::Malformed(format!("unknown error code {other}"))),
        }
    }

    /// May the request be retried later with a hope of success?
    pub fn retryable(self) -> bool {
        match self {
            ErrorCode::DeadlineExceeded => false,
            ErrorCode::Overloaded | ErrorCode::NotReady => true,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::DeadlineExceeded => write!(f, "DEADLINE_EXCEEDED"),
            ErrorCode::Overloaded => write!(f, "OVERLOADED"),
            ErrorCode::NotReady => write!(f, "NOT_READY"),
        }
    }
}

/// Per-namespace counters returned by `STATS`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NamespaceStats {
    /// Frozen snapshot or dynamic oracle.
    pub kind: NamespaceKind,
    /// Vertices addressable by queries (original graph ids).
    pub vertices: u64,
    /// Hop-label entries of the underlying index.
    pub label_entries: u64,
    /// Dynamic only: inserted edges waiting in the overlay.
    pub pending_inserts: u64,
    /// Dynamic only: lazily deleted edges not yet folded out.
    pub pending_deletions: u64,
    /// Reachability queries served (batch pairs count individually).
    pub queries: u64,
    /// Frozen only: bytes spent on the per-vertex top-hop reach masks
    /// (the field keeps its pre-mask name).
    pub signature_bytes: u64,
    /// Frozen only: queries decided by the O(1) pre-filter stack.
    pub filter_hits: u64,
    /// Frozen only: queries decided by the top-hop reach masks (the
    /// `signature` stage).
    pub signature_hits: u64,
    /// Frozen only: queries that ran the label-intersection kernel —
    /// the operator's "where do my queries die" denominator together
    /// with the two hit counters above.
    pub merge_runs: u64,
    /// Which backing the namespace's index arrays live in.
    pub backend: IndexBackend,
    /// Process-private heap bytes of the index (labels, reach masks,
    /// filter records, component tables, DAG, overlay).
    pub heap_bytes: u64,
    /// Bytes addressed inside a shared mapped arena (a HOPL v4
    /// `Oracle::open`); these are page cache, shared across every
    /// replica and namespace serving the same file.
    pub mapped_bytes: u64,
    /// Dynamic + durable only: bytes in the current WAL generation.
    pub wal_bytes: u64,
    /// Dynamic + durable only: mutations logged over the namespace's
    /// lifetime, monotonic across checkpoint rotations.
    pub wal_records: u64,
    /// Dynamic only: background rebuilds published.
    pub rebuilds: u64,
    /// Dynamic only: is a background rebuild running right now?
    pub rebuild_in_flight: bool,
}

/// One `LIST` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamespaceInfo {
    /// Registry key.
    pub name: String,
    /// Frozen snapshot or dynamic oracle.
    pub kind: NamespaceKind,
}

/// Summary of one latency histogram inside a `METRICS` reply: the
/// sample count/sum plus the flight-recorder percentiles. Values are
/// whatever unit the histogram recorded (nanoseconds for every latency
/// series, frames for batch-size series).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest sample (exact).
    pub max: u64,
}

impl From<&hoplite_core::HistogramSnapshot> for MetricsSummary {
    fn from(s: &hoplite_core::HistogramSnapshot) -> Self {
        MetricsSummary {
            count: s.count(),
            sum: s.sum(),
            p50: s.p50(),
            p90: s.p90(),
            p99: s.p99(),
            p999: s.p999(),
            max: s.max(),
        }
    }
}

/// The `METRICS` reply body: a named dump of the server's counters and
/// histogram summaries. Deliberately schemaless on the wire — names
/// are data, so the server can grow new series without another
/// protocol bump — and ordered, so expositions render deterministically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// `(name, value)` monotone counters / gauges.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` histogram series.
    pub histograms: Vec<(String, MetricsSummary)>,
}

impl MetricsReport {
    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The summary of histogram series `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&MetricsSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A decoded client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Does `u` reach `v` in namespace `ns`?
    Reach {
        /// Namespace name.
        ns: String,
        /// Source vertex (original id).
        u: u32,
        /// Target vertex (original id).
        v: u32,
    },
    /// Answer every pair, preserving order.
    Batch {
        /// Namespace name.
        ns: String,
        /// Query pairs (original ids).
        pairs: Vec<(u32, u32)>,
    },
    /// Insert an edge into a dynamic namespace.
    AddEdge {
        /// Namespace name.
        ns: String,
        /// Edge tail.
        u: u32,
        /// Edge head.
        v: u32,
    },
    /// Remove an edge from a dynamic namespace.
    RemoveEdge {
        /// Namespace name.
        ns: String,
        /// Edge tail.
        u: u32,
        /// Edge head.
        v: u32,
    },
    /// Per-namespace counters.
    Stats {
        /// Namespace name.
        ns: String,
    },
    /// Enumerate namespaces.
    List,
    /// Observability dump: counters and latency histogram summaries.
    /// An empty `ns` asks for the server-wide report (reactor + every
    /// namespace); a name scopes the report to that namespace's series.
    Metrics {
        /// Namespace name, or empty for server-wide.
        ns: String,
    },
}

impl Request {
    /// Encodes into a frame payload (version + opcode + body).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = vec![PROTOCOL_VERSION];
        match self {
            Request::Ping => out.push(OP_PING),
            Request::Reach { ns, u, v } => {
                out.push(OP_REACH);
                put_name(&mut out, ns)?;
                put_u32(&mut out, *u);
                put_u32(&mut out, *v);
            }
            Request::Batch { ns, pairs } => {
                if pairs.len() as u64 > MAX_BATCH_PAIRS as u64 {
                    return Err(WireError::Malformed(format!(
                        "batch of {} pairs exceeds the {MAX_BATCH_PAIRS} limit",
                        pairs.len()
                    )));
                }
                out.push(OP_BATCH);
                put_name(&mut out, ns)?;
                put_u32(&mut out, pairs.len() as u32);
                for &(u, v) in pairs {
                    put_u32(&mut out, u);
                    put_u32(&mut out, v);
                }
            }
            Request::AddEdge { ns, u, v } => {
                out.push(OP_ADD_EDGE);
                put_name(&mut out, ns)?;
                put_u32(&mut out, *u);
                put_u32(&mut out, *v);
            }
            Request::RemoveEdge { ns, u, v } => {
                out.push(OP_REMOVE_EDGE);
                put_name(&mut out, ns)?;
                put_u32(&mut out, *u);
                put_u32(&mut out, *v);
            }
            Request::Stats { ns } => {
                out.push(OP_STATS);
                put_name(&mut out, ns)?;
            }
            Request::List => out.push(OP_LIST),
            Request::Metrics { ns } => {
                out.push(OP_METRICS);
                put_name(&mut out, ns)?;
            }
        }
        Ok(out)
    }

    /// Decodes a frame payload, validating strictly: the owned form of
    /// [`RequestRef::decode`].
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        RequestRef::decode(payload).map(Request::from)
    }
}

/// A decoded client request that borrows its frame payload: names are
/// `&str` slices of it and `BATCH` pairs stay in their wire encoding,
/// so decoding allocates nothing. It is the protocol's one request
/// parser; the server dispatches on it directly, and
/// [`Request::decode`] converts it to the owned [`Request`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// Liveness probe.
    Ping,
    /// Does `u` reach `v` in namespace `ns`?
    Reach {
        /// Namespace name.
        ns: &'a str,
        /// Source vertex (original id).
        u: u32,
        /// Target vertex (original id).
        v: u32,
    },
    /// Answer every pair, preserving order.
    Batch {
        /// Namespace name.
        ns: &'a str,
        /// Query pairs (original ids).
        pairs: PackedPairs<'a>,
    },
    /// Insert an edge into a dynamic namespace.
    AddEdge {
        /// Namespace name.
        ns: &'a str,
        /// Edge tail.
        u: u32,
        /// Edge head.
        v: u32,
    },
    /// Remove an edge from a dynamic namespace.
    RemoveEdge {
        /// Namespace name.
        ns: &'a str,
        /// Edge tail.
        u: u32,
        /// Edge head.
        v: u32,
    },
    /// Per-namespace counters.
    Stats {
        /// Namespace name.
        ns: &'a str,
    },
    /// Enumerate namespaces.
    List,
    /// Observability dump; an empty `ns` asks for the server-wide
    /// report.
    Metrics {
        /// Namespace name, or empty for server-wide.
        ns: &'a str,
    },
}

impl<'a> RequestRef<'a> {
    /// Decodes a frame payload in place, validating strictly.
    pub fn decode(payload: &'a [u8]) -> Result<RequestRef<'a>, WireError> {
        let mut r = ByteReader::new(payload);
        check_version(&mut r)?;
        let opcode = r.u8()?;
        let req = match opcode {
            OP_PING => RequestRef::Ping,
            OP_REACH => RequestRef::Reach {
                ns: r.name()?,
                u: r.u32()?,
                v: r.u32()?,
            },
            OP_BATCH => {
                let ns = r.name()?;
                let k = r.u32()?;
                if k > MAX_BATCH_PAIRS {
                    return Err(WireError::Malformed(format!(
                        "batch of {k} pairs exceeds the {MAX_BATCH_PAIRS} limit"
                    )));
                }
                // Each pair is 8 body bytes; a count the body cannot
                // hold must not size an allocation downstream.
                if k as usize > r.remaining() / 8 {
                    return Err(WireError::Malformed(format!(
                        "batch count {k} exceeds the frame body"
                    )));
                }
                RequestRef::Batch {
                    ns,
                    pairs: PackedPairs(r.take(k as usize * 8)?),
                }
            }
            OP_ADD_EDGE => RequestRef::AddEdge {
                ns: r.name()?,
                u: r.u32()?,
                v: r.u32()?,
            },
            OP_REMOVE_EDGE => RequestRef::RemoveEdge {
                ns: r.name()?,
                u: r.u32()?,
                v: r.u32()?,
            },
            OP_STATS => RequestRef::Stats { ns: r.name()? },
            OP_LIST => RequestRef::List,
            OP_METRICS => RequestRef::Metrics { ns: r.name()? },
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl From<RequestRef<'_>> for Request {
    fn from(req: RequestRef<'_>) -> Request {
        match req {
            RequestRef::Ping => Request::Ping,
            RequestRef::Reach { ns, u, v } => Request::Reach {
                ns: ns.to_owned(),
                u,
                v,
            },
            RequestRef::Batch { ns, pairs } => Request::Batch {
                ns: ns.to_owned(),
                pairs: pairs.iter().collect(),
            },
            RequestRef::AddEdge { ns, u, v } => Request::AddEdge {
                ns: ns.to_owned(),
                u,
                v,
            },
            RequestRef::RemoveEdge { ns, u, v } => Request::RemoveEdge {
                ns: ns.to_owned(),
                u,
                v,
            },
            RequestRef::Stats { ns } => Request::Stats { ns: ns.to_owned() },
            RequestRef::List => Request::List,
            RequestRef::Metrics { ns } => Request::Metrics { ns: ns.to_owned() },
        }
    }
}

/// A `BATCH` body's query pairs still in their wire encoding,
/// `(u:u32 v:u32)×k` little-endian; [`iter`](Self::iter) decodes them
/// on the fly.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PackedPairs<'a>(&'a [u8]);

impl<'a> PackedPairs<'a> {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.0.len() / 8
    }

    /// No pairs at all?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The pairs, in wire order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + Clone + 'a {
        self.0.chunks_exact(8).map(|p| {
            (
                u32::from_le_bytes([p[0], p[1], p[2], p[3]]),
                u32::from_le_bytes([p[4], p[5], p[6], p[7]]),
            )
        })
    }
}

impl fmt::Debug for PackedPairs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// A decoded server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Reply to `PING`.
    Pong,
    /// Reply to `REACH` / `ADD_EDGE` / `REMOVE_EDGE`.
    Bool(bool),
    /// Reply to `BATCH`, order-preserving.
    Bools(Vec<bool>),
    /// Reply to `STATS`.
    Stats(NamespaceStats),
    /// Reply to `LIST`.
    List(Vec<NamespaceInfo>),
    /// Reply to `METRICS`.
    Metrics(MetricsReport),
    /// Any request can fail; the message is human-readable.
    Error(String),
    /// A coded refusal: the overload-control layer's reply when a
    /// frame is shed, aged out, or arrives before the server is ready.
    /// `retry_after_ms` is an advisory backoff hint (zero when
    /// retrying is pointless).
    Fail {
        /// What kind of refusal this is.
        code: ErrorCode,
        /// Advisory "come back in this many milliseconds" hint.
        retry_after_ms: u32,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// An `OVERLOADED` refusal with a retry-after hint.
    pub fn overloaded(retry_after_ms: u32, message: impl Into<String>) -> Response {
        Response::Fail {
            code: ErrorCode::Overloaded,
            retry_after_ms,
            message: message.into(),
        }
    }

    /// A `DEADLINE_EXCEEDED` refusal (no retry hint — a retry would be
    /// just as stale).
    pub fn deadline_exceeded(message: impl Into<String>) -> Response {
        Response::Fail {
            code: ErrorCode::DeadlineExceeded,
            retry_after_ms: 0,
            message: message.into(),
        }
    }

    /// A `NOT_READY` refusal with a retry-after hint.
    pub fn not_ready(retry_after_ms: u32, message: impl Into<String>) -> Response {
        Response::Fail {
            code: ErrorCode::NotReady,
            retry_after_ms,
            message: message.into(),
        }
    }

    /// Encodes into a frame payload (version + opcode + body).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the frame payload (version + opcode + body) to `out`,
    /// so a server can encode replies straight into a connection's
    /// write buffer. On error `out` is left as it was.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let start = out.len();
        let encoded = self.put_payload(out);
        if encoded.is_err() {
            out.truncate(start);
        }
        encoded
    }

    fn put_payload(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        out.push(PROTOCOL_VERSION);
        match self {
            Response::Pong => out.push(RE_PONG),
            Response::Bool(b) => {
                out.push(RE_BOOL);
                out.push(*b as u8);
            }
            Response::Bools(bs) => {
                if bs.len() as u64 > MAX_BATCH_PAIRS as u64 {
                    return Err(WireError::Malformed(format!(
                        "answer batch of {} exceeds the {MAX_BATCH_PAIRS} limit",
                        bs.len()
                    )));
                }
                out.push(RE_BOOLS);
                pack_bools(out, bs);
            }
            Response::Stats(s) => {
                out.push(RE_STATS);
                out.push(s.kind.to_u8());
                put_u64(out, s.vertices);
                put_u64(out, s.label_entries);
                put_u64(out, s.pending_inserts);
                put_u64(out, s.pending_deletions);
                put_u64(out, s.queries);
                put_u64(out, s.signature_bytes);
                put_u64(out, s.filter_hits);
                put_u64(out, s.signature_hits);
                put_u64(out, s.merge_runs);
                out.push(s.backend.to_u8());
                put_u64(out, s.heap_bytes);
                put_u64(out, s.mapped_bytes);
                put_u64(out, s.wal_bytes);
                put_u64(out, s.wal_records);
                put_u64(out, s.rebuilds);
                out.push(s.rebuild_in_flight as u8);
            }
            Response::List(infos) => {
                out.push(RE_LIST);
                put_u32(out, infos.len() as u32);
                for info in infos {
                    put_name(out, &info.name)?;
                    out.push(info.kind.to_u8());
                }
            }
            Response::Metrics(m) => {
                out.push(RE_METRICS);
                put_u32(out, m.counters.len() as u32);
                for (name, value) in &m.counters {
                    put_text(out, name);
                    put_u64(out, *value);
                }
                put_u32(out, m.histograms.len() as u32);
                for (name, s) in &m.histograms {
                    put_text(out, name);
                    for v in [s.count, s.sum, s.p50, s.p90, s.p99, s.p999, s.max] {
                        put_u64(out, v);
                    }
                }
            }
            Response::Error(msg) => {
                out.push(RE_ERROR);
                put_text(out, msg);
            }
            Response::Fail {
                code,
                retry_after_ms,
                message,
            } => {
                out.push(RE_FAIL);
                out.push(code.to_u8());
                put_u32(out, *retry_after_ms);
                put_text(out, message);
            }
        }
        Ok(())
    }

    /// Decodes a frame payload, validating strictly.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = ByteReader::new(payload);
        check_version(&mut r)?;
        let opcode = r.u8()?;
        let resp = match opcode {
            RE_PONG => Response::Pong,
            RE_BOOL => match r.u8()? {
                0 => Response::Bool(false),
                1 => Response::Bool(true),
                other => {
                    return Err(WireError::Malformed(format!("bool byte {other}")));
                }
            },
            RE_BOOLS => Response::Bools(unpack_bools(&mut r)?),
            RE_STATS => Response::Stats(NamespaceStats {
                kind: NamespaceKind::from_u8(r.u8()?)?,
                vertices: r.u64()?,
                label_entries: r.u64()?,
                pending_inserts: r.u64()?,
                pending_deletions: r.u64()?,
                queries: r.u64()?,
                signature_bytes: r.u64()?,
                filter_hits: r.u64()?,
                signature_hits: r.u64()?,
                merge_runs: r.u64()?,
                backend: IndexBackend::from_u8(r.u8()?)?,
                heap_bytes: r.u64()?,
                mapped_bytes: r.u64()?,
                wal_bytes: r.u64()?,
                wal_records: r.u64()?,
                rebuilds: r.u64()?,
                rebuild_in_flight: match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(WireError::Malformed(format!(
                            "rebuild_in_flight byte {other}"
                        )));
                    }
                },
            }),
            RE_LIST => {
                let k = r.u32()?;
                // Each entry is at least 2 body bytes (empty name +
                // kind); a count the body cannot hold must not size an
                // allocation.
                if k as usize > r.remaining() / 2 {
                    return Err(WireError::Malformed(format!(
                        "list count {k} exceeds the frame body"
                    )));
                }
                let mut infos = Vec::with_capacity(k as usize);
                for _ in 0..k {
                    infos.push(NamespaceInfo {
                        name: r.name()?.to_owned(),
                        kind: NamespaceKind::from_u8(r.u8()?)?,
                    });
                }
                Response::List(infos)
            }
            RE_METRICS => {
                let kc = r.u32()?;
                // Each counter is at least 10 body bytes (empty name +
                // u64); never size an allocation off a bogus count.
                if kc as usize > r.remaining() / 10 {
                    return Err(WireError::Malformed(format!(
                        "counter count {kc} exceeds the frame body"
                    )));
                }
                let mut counters = Vec::with_capacity(kc as usize);
                for _ in 0..kc {
                    counters.push((r.text()?, r.u64()?));
                }
                let kh = r.u32()?;
                // Each histogram is at least 58 body bytes.
                if kh as usize > r.remaining() / 58 {
                    return Err(WireError::Malformed(format!(
                        "histogram count {kh} exceeds the frame body"
                    )));
                }
                let mut histograms = Vec::with_capacity(kh as usize);
                for _ in 0..kh {
                    let name = r.text()?;
                    histograms.push((
                        name,
                        MetricsSummary {
                            count: r.u64()?,
                            sum: r.u64()?,
                            p50: r.u64()?,
                            p90: r.u64()?,
                            p99: r.u64()?,
                            p999: r.u64()?,
                            max: r.u64()?,
                        },
                    ));
                }
                Response::Metrics(MetricsReport {
                    counters,
                    histograms,
                })
            }
            RE_ERROR => Response::Error(r.text()?),
            RE_FAIL => Response::Fail {
                code: ErrorCode::from_u8(r.u8()?)?,
                retry_after_ms: r.u32()?,
                message: r.text()?,
            },
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let bytes = req.encode().unwrap();
        assert_decoders_agree(&bytes);
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    /// The borrowed decoder and [`Request::decode`] give the same
    /// request, or the same error, for `payload`.
    fn assert_decoders_agree(payload: &[u8]) {
        let borrowed = RequestRef::decode(payload);
        let owned = Request::decode(payload);
        match (&borrowed, &owned) {
            (Ok(b), Ok(o)) => assert_eq!(Request::from(*b), *o, "payload {payload:?}"),
            (Err(b), Err(o)) => assert_eq!(b.to_string(), o.to_string(), "payload {payload:?}"),
            _ => panic!("payload {payload:?}: borrowed {borrowed:?}, owned {owned:?}"),
        }
    }

    fn roundtrip_resp(resp: Response) {
        let bytes = resp.encode().unwrap();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::List);
        roundtrip_req(Request::Reach {
            ns: "web".into(),
            u: 0,
            v: u32::MAX,
        });
        roundtrip_req(Request::Batch {
            ns: "ønt/ology".into(),
            pairs: vec![(1, 2), (3, 4), (0, 0)],
        });
        roundtrip_req(Request::Batch {
            ns: String::new(),
            pairs: vec![],
        });
        roundtrip_req(Request::AddEdge {
            ns: "g".into(),
            u: 7,
            v: 9,
        });
        roundtrip_req(Request::RemoveEdge {
            ns: "g".into(),
            u: 9,
            v: 7,
        });
        roundtrip_req(Request::Stats { ns: "g".into() });

        // The borrowed form points into the payload: names are slices
        // of it, and pairs decode from it in wire order.
        let bytes = Request::Batch {
            ns: "ønt".into(),
            pairs: vec![(1, 2), (u32::MAX, 0)],
        }
        .encode()
        .unwrap();
        match RequestRef::decode(&bytes).unwrap() {
            RequestRef::Batch { ns, pairs } => {
                assert_eq!(ns, "ønt");
                assert!(bytes.as_ptr_range().contains(&ns.as_ptr()));
                assert_eq!(pairs.len(), 2);
                assert_eq!(pairs.iter().collect::<Vec<_>>(), [(1, 2), (u32::MAX, 0)]);
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Bool(true));
        roundtrip_resp(Response::Bool(false));
        for k in [0usize, 1, 7, 8, 9, 64, 65] {
            let bs: Vec<bool> = (0..k).map(|i| i % 3 == 0).collect();
            roundtrip_resp(Response::Bools(bs));
        }
        roundtrip_resp(Response::Stats(NamespaceStats {
            kind: NamespaceKind::Dynamic,
            vertices: 10,
            label_entries: 99,
            pending_inserts: 3,
            pending_deletions: 1,
            queries: u64::MAX,
            signature_bytes: 160,
            filter_hits: 7,
            signature_hits: 5,
            merge_runs: 2,
            backend: IndexBackend::Mapped,
            heap_bytes: 4096,
            mapped_bytes: 1 << 30,
            wal_bytes: 17 * 42,
            wal_records: 42,
            rebuilds: 6,
            rebuild_in_flight: true,
        }));
        roundtrip_resp(Response::List(vec![
            NamespaceInfo {
                name: "a".into(),
                kind: NamespaceKind::Frozen,
            },
            NamespaceInfo {
                name: "b".into(),
                kind: NamespaceKind::Dynamic,
            },
        ]));
        roundtrip_resp(Response::Error("nope".into()));
        roundtrip_resp(Response::Fail {
            code: ErrorCode::Overloaded,
            retry_after_ms: 250,
            message: "shed".into(),
        });
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = Request::Ping.encode().unwrap();
        bytes[0] = 9;
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::Version(9))
        ));
        // Neighbouring versions are refused too, in both directions:
        // there is no compatibility window.
        for v in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
            bytes[0] = v;
            assert!(matches!(Request::decode(&bytes), Err(WireError::Version(got)) if got == v));
            let mut reply = Response::Pong.encode().unwrap();
            reply[0] = v;
            assert!(matches!(Response::decode(&reply), Err(WireError::Version(got)) if got == v));
        }
    }

    #[test]
    fn metrics_report_roundtrips() {
        roundtrip_req(Request::Metrics { ns: String::new() });
        roundtrip_req(Request::Metrics { ns: "bench".into() });
        roundtrip_resp(Response::Metrics(MetricsReport::default()));
        let report = MetricsReport {
            counters: vec![
                ("server_frames_total".into(), 12_345),
                ("ns_queries_total{ns=\"g\"}".into(), u64::MAX),
            ],
            histograms: vec![(
                "ns_query_merge_ns{ns=\"g\"}".into(),
                MetricsSummary {
                    count: 100,
                    sum: 1_000_000,
                    p50: 9_000,
                    p90: 12_000,
                    p99: 48_000,
                    p999: 130_000,
                    max: 131_072,
                },
            )],
        };
        roundtrip_resp(Response::Metrics(report.clone()));
        assert_eq!(report.counter("server_frames_total"), Some(12_345));
        assert_eq!(report.counter("missing"), None);
        assert_eq!(
            report.histogram("ns_query_merge_ns{ns=\"g\"}").unwrap().p99,
            48_000
        );
    }

    #[test]
    fn error_codes_roundtrip_and_classify() {
        for (code, retryable) in [
            (ErrorCode::DeadlineExceeded, false),
            (ErrorCode::Overloaded, true),
            (ErrorCode::NotReady, true),
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()).unwrap(), code);
            assert_eq!(code.retryable(), retryable);
            roundtrip_resp(Response::Fail {
                code,
                retry_after_ms: 7,
                message: format!("{code} detail"),
            });
        }
        assert!(matches!(
            ErrorCode::from_u8(0),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            ErrorCode::from_u8(9),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn metrics_counts_larger_than_the_body_never_size_allocations() {
        let mut bytes = vec![PROTOCOL_VERSION, RE_METRICS];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        match Response::decode(&bytes) {
            Err(WireError::Malformed(m)) => assert!(m.contains("exceeds the frame body"), "{m}"),
            other => panic!("got {other:?}"),
        }
        let mut bytes = vec![PROTOCOL_VERSION, RE_METRICS];
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        match Response::decode(&bytes) {
            Err(WireError::Malformed(m)) => assert!(m.contains("exceeds the frame body"), "{m}"),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(matches!(
            Request::decode(&[PROTOCOL_VERSION, 0x55]),
            Err(WireError::UnknownOpcode(0x55))
        ));
        assert!(matches!(
            Response::decode(&[PROTOCOL_VERSION, 0x55]),
            Err(WireError::UnknownOpcode(0x55))
        ));
    }

    #[test]
    fn truncated_bodies_rejected() {
        let full = Request::Reach {
            ns: "web".into(),
            u: 1,
            v: 2,
        }
        .encode()
        .unwrap();
        let batch = Request::Batch {
            ns: "web".into(),
            pairs: vec![(1, 2), (3, 4)],
        }
        .encode()
        .unwrap();
        for full in [full, batch] {
            for cut in 0..full.len() {
                assert!(
                    Request::decode(&full[..cut]).is_err(),
                    "prefix of {cut} bytes must not parse"
                );
                assert_decoders_agree(&full[..cut]);
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Request::Ping.encode().unwrap();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn batch_count_must_match_body() {
        let mut bytes = vec![PROTOCOL_VERSION, 0x03];
        bytes.push(1);
        bytes.push(b'g');
        bytes.extend_from_slice(&5u32.to_le_bytes()); // claims 5 pairs
        bytes.extend_from_slice(&1u32.to_le_bytes()); // supplies half of one
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn oversized_batch_count_rejected_before_allocation() {
        let mut bytes = vec![PROTOCOL_VERSION, 0x03];
        bytes.push(1);
        bytes.push(b'g');
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn counts_larger_than_the_body_never_size_allocations() {
        // BATCH claiming 1M pairs with an empty body.
        let mut bytes = vec![PROTOCOL_VERSION, 0x03, 1, b'g'];
        bytes.extend_from_slice(&MAX_BATCH_PAIRS.to_le_bytes());
        match Request::decode(&bytes) {
            Err(WireError::Malformed(m)) => assert!(m.contains("exceeds the frame body"), "{m}"),
            other => panic!("got {other:?}"),
        }
        // LIST reply claiming 8M entries with an empty body.
        let mut bytes = vec![PROTOCOL_VERSION, RE_LIST];
        bytes.extend_from_slice(&(8u32 << 20).to_le_bytes());
        match Response::decode(&bytes) {
            Err(WireError::Malformed(m)) => assert!(m.contains("exceeds the frame body"), "{m}"),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn non_utf8_name_rejected() {
        let mut bytes = vec![PROTOCOL_VERSION, 0x06];
        bytes.push(2);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn nonzero_padding_bits_rejected() {
        let mut bytes = vec![PROTOCOL_VERSION, RE_BOOLS];
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.push(0b1111_1111); // only 3 low bits may be set
        assert!(matches!(
            Response::decode(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn long_error_messages_truncate_on_char_boundary() {
        let msg = "é".repeat(40_000); // 80 000 bytes of two-byte chars
        let resp = Response::Error(msg);
        let bytes = resp.encode().unwrap();
        match Response::decode(&bytes).unwrap() {
            Response::Error(m) => {
                assert!(m.len() <= u16::MAX as usize);
                assert!(m.chars().all(|c| c == 'é'));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn frame_roundtrip_and_limit() {
        let payload = Request::Ping.encode().unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cur = std::io::Cursor::new(&buf);
        assert_eq!(read_frame(&mut cur, MAX_FRAME_LEN).unwrap(), payload);

        let mut big = Vec::new();
        big.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut cur = std::io::Cursor::new(&big);
        assert!(matches!(
            read_frame(&mut cur, MAX_FRAME_LEN),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn name_length_limit_enforced_on_encode() {
        let req = Request::Stats {
            ns: "x".repeat(MAX_NAME_LEN + 1),
        };
        assert!(req.encode().is_err());
    }

    #[test]
    fn accumulator_yields_frames_across_arbitrary_splits() {
        let payloads: Vec<Vec<u8>> = vec![
            Request::Ping.encode().unwrap(),
            Request::Reach {
                ns: "g".into(),
                u: 3,
                v: 9,
            }
            .encode()
            .unwrap(),
            vec![],
            Request::List.encode().unwrap(),
        ];
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&(p.len() as u32).to_le_bytes());
            stream.extend_from_slice(p);
        }
        // Every split granularity from byte-at-a-time to one big write
        // must yield the identical frame sequence.
        for chunk in [1usize, 2, 3, 5, 7, stream.len()] {
            let mut acc = FrameAccumulator::new(MAX_FRAME_LEN);
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                acc.extend(piece);
                while let Some(frame) = acc.next_frame().unwrap() {
                    got.push(frame);
                }
            }
            assert_eq!(got, payloads, "chunk size {chunk}");
            assert_eq!(acc.pending_bytes(), 0);
        }
    }

    #[test]
    fn accumulator_rejects_oversized_prefix_before_buffering_the_body() {
        let mut acc = FrameAccumulator::new(64);
        acc.extend(&100u32.to_le_bytes());
        assert!(matches!(
            acc.next_frame(),
            Err(WireError::FrameTooLarge { len: 100, max: 64 })
        ));
        // The error is sticky: the prefix is still pending, so the
        // caller sees it again until it closes the connection.
        assert!(acc.next_frame().is_err());
    }

    #[test]
    fn accumulator_compacts_consumed_prefix() {
        let payload = Request::Ping.encode().unwrap();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        let mut acc = FrameAccumulator::new(MAX_FRAME_LEN);
        for round in 0..5_000 {
            acc.extend(&frame);
            assert_eq!(acc.next_frame().unwrap().unwrap(), payload, "{round}");
        }
        assert_eq!(acc.pending_bytes(), 0);
        // 5k frames of 6 bytes each passed through; the buffer must not
        // have accumulated them.
        assert!(acc.buf.len() < 4 * 4096, "buffer grew to {}", acc.buf.len());
    }

    #[test]
    fn fuzz_random_payloads_never_panic() {
        // Seeded LCG; decoding arbitrary garbage must return Err or a
        // valid message — never panic.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..4000 {
            let len = (next() % 64) as usize;
            let mut payload = Vec::with_capacity(len);
            for _ in 0..len {
                payload.push(next() as u8);
            }
            // Half the rounds get a valid version and a request opcode
            // (or a neighbour of one), so the body parsers see garbage
            // too, not just the version check.
            if round % 2 == 1 && len >= 2 {
                payload[0] = PROTOCOL_VERSION;
                payload[1] = (next() % 10) as u8;
            }
            assert_decoders_agree(&payload);
            let _ = Response::decode(&payload);
        }
    }
}
