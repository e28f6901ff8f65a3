//! The flight recorder: serving-side observability built from the
//! std-only primitives in [`hoplite_core::metrics`].
//!
//! Three concerns live here, all allocation-free on the hot path:
//!
//! * **A leveled structured logger** — [`log`] plus the
//!   [`log_error!`]/[`log_warn!`]/[`log_info!`]/[`log_debug!`] macros —
//!   writing `timestamp LEVEL [context] message` lines to stderr. The
//!   threshold comes from `HOPLITE_LOG` (`debug|info|warn|error`,
//!   default `info`), read once per process. Timestamps are UTC,
//!   derived with the civil-from-days algorithm so no clock crate is
//!   needed.
//! * **Recording state** — [`ServerObs`] (reactor tick duration,
//!   coalesce batch size, per-connection queue depth, accept→reply
//!   latency, backpressure stalls) and the per-namespace [`QueryObs`]
//!   (query latency split by outcome, batch latency, and a
//!   [`SlowLog`] keeping the worst queries seen). Every member is a
//!   lock-free [`Counter`] or [`Histogram`]; the slow log takes its
//!   mutex only when a query beats the current worst-N floor.
//! * **Exposition** — [`collect_metrics`] folds everything into the
//!   wire-level [`MetricsReport`] served by the `METRICS` op, and
//!   [`render_prometheus`] turns that report into Prometheus-style
//!   text for the `--metrics-addr` HTTP endpoint
//!   ([`spawn_metrics_http`], a deliberately tiny HTTP/1.0 `GET
//!   /metrics` responder).

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

use hoplite_core::{Counter, Histogram};

use crate::protocol::{MetricsReport, MetricsSummary};
use crate::registry::Registry;
use crate::server::ServerCounters;

// ---------------------------------------------------------------------
// Leveled logger
// ---------------------------------------------------------------------

/// Log severity, ordered `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Per-event detail (connection churn, tick internals).
    Debug,
    /// Lifecycle milestones (startup, namespaces loaded, shutdown).
    Info,
    /// Recoverable trouble (a refused connection, a bad frame).
    Warn,
    /// Serving-threatening failures (reactor poller death).
    Error,
}

impl LogLevel {
    fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "DEBUG",
            LogLevel::Info => "INFO",
            LogLevel::Warn => "WARN",
            LogLevel::Error => "ERROR",
        }
    }

    /// Parses a `HOPLITE_LOG` value; unknown strings get `None`.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(LogLevel::Debug),
            "info" => Some(LogLevel::Info),
            "warn" | "warning" => Some(LogLevel::Warn),
            "error" => Some(LogLevel::Error),
            _ => None,
        }
    }
}

static LOG_LEVEL: OnceLock<LogLevel> = OnceLock::new();

/// The process-wide threshold: `HOPLITE_LOG` if set and parseable,
/// else `Info`. Read once; later environment changes are ignored.
pub fn log_level() -> LogLevel {
    *LOG_LEVEL.get_or_init(|| {
        std::env::var("HOPLITE_LOG")
            .ok()
            .and_then(|v| LogLevel::parse(&v))
            .unwrap_or(LogLevel::Info)
    })
}

/// Would a message at `level` currently be emitted?
pub fn log_enabled(level: LogLevel) -> bool {
    level >= log_level()
}

/// Emits one structured line to stderr:
/// `2026-08-07T12:34:56.789Z INFO [serve] message`. The `context`
/// names the subsystem or connection the message is about. Prefer the
/// [`log_info!`]-family macros, which format lazily.
pub fn log(level: LogLevel, context: &str, message: fmt::Arguments<'_>) {
    if !log_enabled(level) {
        return;
    }
    let stderr = io::stderr();
    let mut out = stderr.lock();
    let _ = writeln!(
        out,
        "{} {:5} [{}] {}",
        format_utc(SystemTime::now()),
        level.as_str(),
        context,
        message
    );
}

/// Logs at [`LogLevel::Error`]; `log_error!("ctx", "fmt {}", arg)`.
#[macro_export]
macro_rules! log_error {
    ($ctx:expr, $($arg:tt)*) => {
        $crate::obs::log($crate::obs::LogLevel::Error, $ctx, format_args!($($arg)*))
    };
}

/// Logs at [`LogLevel::Warn`].
#[macro_export]
macro_rules! log_warn {
    ($ctx:expr, $($arg:tt)*) => {
        $crate::obs::log($crate::obs::LogLevel::Warn, $ctx, format_args!($($arg)*))
    };
}

/// Logs at [`LogLevel::Info`].
#[macro_export]
macro_rules! log_info {
    ($ctx:expr, $($arg:tt)*) => {
        $crate::obs::log($crate::obs::LogLevel::Info, $ctx, format_args!($($arg)*))
    };
}

/// Logs at [`LogLevel::Debug`].
#[macro_export]
macro_rules! log_debug {
    ($ctx:expr, $($arg:tt)*) => {
        $crate::obs::log($crate::obs::LogLevel::Debug, $ctx, format_args!($($arg)*))
    };
}

/// `YYYY-MM-DDTHH:MM:SS.mmmZ` for a wall-clock instant, computed with
/// the days-to-civil algorithm (proleptic Gregorian) — no locale, no
/// leap-second pretense, no dependency.
pub fn format_utc(now: SystemTime) -> String {
    let since = now
        .duration_since(SystemTime::UNIX_EPOCH)
        .unwrap_or(Duration::ZERO);
    let secs = since.as_secs();
    let millis = since.subsec_millis();
    let days = (secs / 86_400) as i64;
    let tod = secs % 86_400;
    let (year, month, day) = civil_from_days(days);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}.{millis:03}Z",
        tod / 3600,
        (tod / 60) % 60,
        tod % 60
    )
}

/// Days since 1970-01-01 → (year, month, day).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if month <= 2 { year + 1 } else { year }, month, day)
}

// ---------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------

/// One retained worst-case query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlowQuery {
    /// Source vertex.
    pub u: u32,
    /// Target vertex.
    pub v: u32,
    /// Wall time the query took.
    pub duration_ns: u64,
    /// Which stage answered it (`filter`/`signature`/`merge`/…).
    pub path: &'static str,
}

/// Keeps the worst `capacity` queries seen, by duration. The common
/// case — a query no slower than everything already retained — is a
/// single relaxed atomic load; the mutex is taken only on a new
/// worst-N entrant, which by construction becomes rare as the floor
/// rises.
pub struct SlowLog {
    capacity: usize,
    /// Once full: the smallest retained duration. Queries at or below
    /// it cannot displace anything, so they skip the lock entirely.
    floor: AtomicU64,
    entries: Mutex<Vec<SlowQuery>>,
}

impl SlowLog {
    /// A log retaining the worst `capacity` queries (clamped ≥ 1).
    pub fn new(capacity: usize) -> SlowLog {
        SlowLog {
            capacity: capacity.max(1),
            floor: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Offers one finished query; retained iff it beats the floor.
    pub fn record(&self, u: u32, v: u32, duration_ns: u64, path: &'static str) {
        if duration_ns <= self.floor.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = SlowQuery {
            u,
            v,
            duration_ns,
            path,
        };
        if entries.len() < self.capacity {
            entries.push(entry);
        } else {
            let (worst_idx, worst) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.duration_ns)
                .map(|(i, e)| (i, e.duration_ns))
                .expect("capacity >= 1");
            if duration_ns <= worst {
                // Lost the race against a concurrent recorder; refresh
                // the floor so the next such query skips the lock.
                self.floor.store(worst, Ordering::Relaxed);
                return;
            }
            entries[worst_idx] = entry;
        }
        if entries.len() == self.capacity {
            let floor = entries
                .iter()
                .map(|e| e.duration_ns)
                .min()
                .expect("capacity >= 1");
            self.floor.store(floor, Ordering::Relaxed);
        }
    }

    /// The retained queries, slowest first.
    pub fn snapshot(&self) -> Vec<SlowQuery> {
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        entries.sort_by_key(|q| std::cmp::Reverse(q.duration_ns));
        entries
    }
}

impl Default for SlowLog {
    fn default() -> Self {
        SlowLog::new(16)
    }
}

// ---------------------------------------------------------------------
// Recording state
// ---------------------------------------------------------------------

/// Per-namespace query-path observability: latency split by the stage
/// that decided each single query, whole-batch latency, and the
/// worst-query log. Lives inside the registry's frozen-namespace
/// state; the histograms are lock-free so any number of serving
/// threads record concurrently.
pub struct QueryObs {
    /// Single `REACH` latency for queries the O(1) pre-filter stack
    /// decided.
    pub filter_ns: Histogram,
    /// Single `REACH` latency for queries the top-hop reach masks
    /// decided (the `signature` stage).
    pub signature_ns: Histogram,
    /// Single `REACH` latency for queries that ran the label merge.
    pub merge_ns: Histogram,
    /// Whole-`BATCH` call latency (all pairs, one record).
    pub batch_ns: Histogram,
    /// Worst single queries seen, whatever their path.
    pub slow: SlowLog,
}

impl QueryObs {
    /// Fresh, empty recording state.
    pub fn new() -> QueryObs {
        QueryObs {
            filter_ns: Histogram::new(),
            signature_ns: Histogram::new(),
            merge_ns: Histogram::new(),
            batch_ns: Histogram::new(),
            slow: SlowLog::default(),
        }
    }

    /// Records one finished single query, classified by the stage the
    /// tally says decided it.
    pub fn record_single(
        &self,
        u: u32,
        v: u32,
        duration_ns: u64,
        tally: &hoplite_core::QueryTally,
    ) {
        let (histogram, path) = if tally.filter_decided > 0 {
            (&self.filter_ns, "filter")
        } else if tally.signature_cut > 0 {
            (&self.signature_ns, "signature")
        } else {
            (&self.merge_ns, "merge")
        };
        histogram.record(duration_ns);
        self.slow.record(u, v, duration_ns, path);
    }
}

impl Default for QueryObs {
    fn default() -> Self {
        QueryObs::new()
    }
}

/// Server-wide serving-loop observability, recorded by the reactor
/// thread and read by metrics scrapes.
pub struct ServerObs {
    /// Duration of each non-idle reactor tick (events were ready).
    pub tick_ns: Histogram,
    /// Pairs per coalesced per-namespace kernel call.
    pub coalesce_batch: Histogram,
    /// Bytes of buffered unwritten replies per connection, sampled
    /// after each tick's scatter.
    pub queue_depth: Histogram,
    /// Frame-in to reply-encoded latency, per frame.
    pub reply_latency_ns: Histogram,
    /// Times a connection crossed the write-backpressure threshold and
    /// stopped being read.
    pub stall_count: Counter,
    /// Total nanoseconds connections spent read-paused by
    /// backpressure.
    pub stall_ns: Counter,
    /// Decoded frames awaiting dispatch, sampled per reactor tick — the
    /// admission-control pressure gauge.
    pub inflight_frames: Histogram,
}

impl ServerObs {
    /// Fresh, empty recording state.
    pub fn new() -> ServerObs {
        ServerObs {
            tick_ns: Histogram::new(),
            coalesce_batch: Histogram::new(),
            queue_depth: Histogram::new(),
            reply_latency_ns: Histogram::new(),
            stall_count: Counter::new(),
            stall_ns: Counter::new(),
            inflight_frames: Histogram::new(),
        }
    }
}

impl Default for ServerObs {
    fn default() -> Self {
        ServerObs::new()
    }
}

// ---------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------

/// Folds the server counters, serving-loop histograms, and (frozen)
/// per-namespace query observability into one [`MetricsReport`] — the
/// single source both the `METRICS` wire op and the `/metrics` text
/// endpoint serve from. An empty `ns_filter` includes every
/// namespace; a non-empty one restricts the per-namespace section to
/// that name (the caller is responsible for rejecting unknown names).
pub(crate) fn collect_metrics(
    registry: &Registry,
    counters: &ServerCounters,
    obs: &ServerObs,
    ns_filter: &str,
) -> MetricsReport {
    let mut report = MetricsReport::default();
    let c = |name: &str, value: u64| (name.to_owned(), value);
    report.counters.push(c(
        "server_connections_total",
        counters.connections.load(Ordering::Relaxed),
    ));
    report.counters.push(c(
        "server_frames_total",
        counters.frames.load(Ordering::Relaxed),
    ));
    report.counters.push(c(
        "server_errors_total",
        counters.errors.load(Ordering::Relaxed),
    ));
    report.counters.push(c(
        "server_connections_active",
        counters.active.load(Ordering::SeqCst) as u64,
    ));
    report.counters.push(c(
        "server_frames_shed_total",
        counters.frames_shed.load(Ordering::Relaxed),
    ));
    report.counters.push(c(
        "server_deadline_exceeded_total",
        counters.deadline_exceeded.load(Ordering::Relaxed),
    ));
    report.counters.push(c(
        "server_connections_reaped_total",
        counters.connections_reaped.load(Ordering::Relaxed),
    ));
    report.counters.push(c(
        "reactor_coalesced_frames_total",
        counters.coalesced_frames.load(Ordering::Relaxed),
    ));
    report.counters.push(c(
        "reactor_coalesce_calls_total",
        counters.coalesced_calls.load(Ordering::Relaxed),
    ));
    report.counters.push(c(
        "reactor_backpressure_stalls_total",
        obs.stall_count.get(),
    ));
    report
        .counters
        .push(c("reactor_backpressure_stall_ns_total", obs.stall_ns.get()));

    let h =
        |name: &str, hist: &Histogram| (name.to_owned(), MetricsSummary::from(&hist.snapshot()));
    report.histograms.push(h("reactor_tick_ns", &obs.tick_ns));
    report
        .histograms
        .push(h("reactor_coalesce_batch_pairs", &obs.coalesce_batch));
    report
        .histograms
        .push(h("server_queue_depth_bytes", &obs.queue_depth));
    report
        .histograms
        .push(h("server_reply_latency_ns", &obs.reply_latency_ns));
    report
        .histograms
        .push(h("server_inflight_frames", &obs.inflight_frames));

    for (name, handle) in registry.handles() {
        if !ns_filter.is_empty() && name != ns_filter {
            continue;
        }
        handle.fold_metrics(&name, &mut report);
    }
    report
}

/// Every namespace's retained slow queries, as `(namespace, query)`
/// pairs sorted slowest-first within each namespace.
pub(crate) fn collect_slow(registry: &Registry, ns_filter: &str) -> Vec<(String, SlowQuery)> {
    let mut out = Vec::new();
    for (name, handle) in registry.handles() {
        if !ns_filter.is_empty() && name != ns_filter {
            continue;
        }
        for q in handle.slow_queries() {
            out.push((name.clone(), q));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Prometheus-style text exposition
// ---------------------------------------------------------------------

/// Splits `ns_query_latency_ns{ns="g",outcome="merge"}` into the base
/// name and its label body (without braces).
fn split_name(name: &str) -> (&str, Option<&str>) {
    match (name.find('{'), name.ends_with('}')) {
        (Some(open), true) => (&name[..open], Some(&name[open + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// `base` + labels (+ an extra label) reassembled into a series name.
fn series(base: &str, suffix: &str, labels: Option<&str>, extra: Option<&str>) -> String {
    let mut out = String::with_capacity(base.len() + 32);
    out.push_str(base);
    out.push_str(suffix);
    match (labels, extra) {
        (None, None) => {}
        (Some(l), None) => {
            out.push('{');
            out.push_str(l);
            out.push('}');
        }
        (None, Some(e)) => {
            out.push('{');
            out.push_str(e);
            out.push('}');
        }
        (Some(l), Some(e)) => {
            out.push('{');
            out.push_str(l);
            out.push(',');
            out.push_str(e);
            out.push('}');
        }
    }
    out
}

/// Renders a [`MetricsReport`] (plus the slow-query log, emitted as
/// trailing comment lines) as Prometheus-style text: counters as
/// plain series, histograms as summaries with `quantile` labels and
/// `_count`/`_sum`/`_max` companions.
pub fn render_prometheus(report: &MetricsReport, slow: &[(String, SlowQuery)]) -> String {
    let mut out = String::new();
    let mut typed: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for (name, value) in &report.counters {
        let (base, labels) = split_name(name);
        if typed.insert(base) {
            out.push_str(&format!("# TYPE {base} counter\n"));
        }
        out.push_str(&format!("{} {value}\n", series(base, "", labels, None)));
    }
    for (name, summary) in &report.histograms {
        let (base, labels) = split_name(name);
        if typed.insert(base) {
            out.push_str(&format!("# TYPE {base} summary\n"));
        }
        for (q, v) in [
            ("0.5", summary.p50),
            ("0.9", summary.p90),
            ("0.99", summary.p99),
            ("0.999", summary.p999),
        ] {
            out.push_str(&format!(
                "{} {v}\n",
                series(base, "", labels, Some(&format!("quantile=\"{q}\"")))
            ));
        }
        out.push_str(&format!(
            "{} {}\n",
            series(base, "_count", labels, None),
            summary.count
        ));
        out.push_str(&format!(
            "{} {}\n",
            series(base, "_sum", labels, None),
            summary.sum
        ));
        out.push_str(&format!(
            "{} {}\n",
            series(base, "_max", labels, None),
            summary.max
        ));
    }
    for (ns, q) in slow {
        out.push_str(&format!(
            "# slow_query ns={ns:?} u={} v={} duration_ns={} path={}\n",
            q.u, q.v, q.duration_ns, q.path
        ));
    }
    out
}

// ---------------------------------------------------------------------
// The /metrics HTTP responder
// ---------------------------------------------------------------------

/// Binds `addr` and serves `GET /metrics` as HTTP/1.0 plain text from
/// a background thread, re-collecting a fresh report per request.
/// Also answers the health probes: `GET /healthz` is 200 whenever the
/// process serves HTTP at all (liveness), and `GET /readyz` is 200
/// only while [`Registry::readiness`] passes — 503 during namespace
/// load / WAL replay and when a namespace is wedged mid-rebuild.
/// Returns the bound address and the thread handle; the thread exits
/// once `stop` is set (checked every poll interval).
pub(crate) fn spawn_metrics_http(
    addr: impl ToSocketAddrs,
    registry: Arc<Registry>,
    counters: Arc<ServerCounters>,
    obs: Arc<ServerObs>,
    stop: Arc<AtomicBool>,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = std::thread::Builder::new()
        .name("hoplited-metrics".into())
        .spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        answer_http(stream, &registry, &counters, &obs);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            }
        })?;
    Ok((local, handle))
}

/// One request–one response: read the request head (bounded), answer,
/// close. Scrapers reconnect per scrape; this endpoint is for a
/// handful of requests per minute, not for QPS.
fn answer_http(
    mut stream: std::net::TcpStream,
    registry: &Registry,
    counters: &ServerCounters,
    obs: &ServerObs,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut head = [0u8; 1024];
    let mut filled = 0;
    while filled < head.len() {
        match stream.read(&mut head[filled..]) {
            Ok(0) => break,
            Ok(k) => {
                filled += k;
                if head[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&head[..filled]);
    let first = request.lines().next().unwrap_or("");
    let mut parts = first.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = if method == "GET" && (path == "/metrics" || path == "/") {
        let report = collect_metrics(registry, counters, obs, "");
        let slow = collect_slow(registry, "");
        ("200 OK", render_prometheus(&report, &slow))
    } else if method == "GET" && path == "/healthz" {
        ("200 OK", "ok\n".to_owned())
    } else if method == "GET" && path == "/readyz" {
        match registry.readiness() {
            Ok(()) => ("200 OK", "ready\n".to_owned()),
            Err(why) => ("503 Service Unavailable", format!("not ready: {why}\n")),
        }
    } else {
        (
            "404 Not Found",
            "only GET /metrics, /healthz, /readyz are served\n".to_owned(),
        )
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_core::Oracle;
    use hoplite_graph::DiGraph;

    #[test]
    fn log_levels_parse_and_order() {
        assert_eq!(LogLevel::parse("debug"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse(" WARN "), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("warning"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("nope"), None);
        assert!(LogLevel::Debug < LogLevel::Info);
        assert!(LogLevel::Warn < LogLevel::Error);
    }

    #[test]
    fn utc_formatting_hits_known_instants() {
        let t = SystemTime::UNIX_EPOCH + Duration::from_secs(0);
        assert_eq!(format_utc(t), "1970-01-01T00:00:00.000Z");
        // 2000-03-01T12:34:56.789Z — the day after a century leap day.
        let t = SystemTime::UNIX_EPOCH + Duration::from_millis(951_914_096_789);
        assert_eq!(format_utc(t), "2000-03-01T12:34:56.789Z");
        // 2024-02-29 exists; 2023 had no Feb 29.
        let t = SystemTime::UNIX_EPOCH + Duration::from_secs(1_709_164_800);
        assert!(format_utc(t).starts_with("2024-02-29T"));
    }

    #[test]
    fn slow_log_retains_the_worst_n() {
        let log = SlowLog::new(3);
        for (i, d) in [50u64, 10, 30, 40, 20, 60, 5].iter().enumerate() {
            log.record(i as u32, i as u32, *d, "merge");
        }
        let worst: Vec<u64> = log.snapshot().iter().map(|q| q.duration_ns).collect();
        assert_eq!(worst, [60, 50, 40]);
        // Floor is now 40: a 39ns query cannot enter.
        log.record(99, 99, 39, "merge");
        assert_eq!(log.snapshot().len(), 3);
        assert!(log.snapshot().iter().all(|q| q.u != 99));
    }

    #[test]
    fn query_obs_classifies_by_tally() {
        let obs = QueryObs::new();
        let tally = hoplite_core::QueryTally {
            filter_decided: 1,
            ..Default::default()
        };
        obs.record_single(0, 1, 100, &tally);
        let tally = hoplite_core::QueryTally {
            signature_cut: 1,
            ..Default::default()
        };
        obs.record_single(0, 2, 200, &tally);
        let tally = hoplite_core::QueryTally::default();
        obs.record_single(0, 3, 300, &tally);
        assert_eq!(obs.filter_ns.count(), 1);
        assert_eq!(obs.signature_ns.count(), 1);
        assert_eq!(obs.merge_ns.count(), 1);
        let slow = obs.slow.snapshot();
        assert_eq!(slow.len(), 3);
        assert_eq!(slow[0].path, "merge");
        assert_eq!(slow[0].duration_ns, 300);
    }

    #[test]
    fn split_and_series_compose_label_bodies() {
        assert_eq!(split_name("plain"), ("plain", None));
        assert_eq!(
            split_name("x{ns=\"g\",outcome=\"merge\"}"),
            ("x", Some("ns=\"g\",outcome=\"merge\""))
        );
        assert_eq!(
            series("lat", "_count", Some("ns=\"g\""), None),
            "lat_count{ns=\"g\"}"
        );
        assert_eq!(
            series("lat", "", Some("ns=\"g\""), Some("quantile=\"0.5\"")),
            "lat{ns=\"g\",quantile=\"0.5\"}"
        );
        assert_eq!(series("lat", "", None, Some("q=\"1\"")), "lat{q=\"1\"}");
    }

    #[test]
    fn collect_and_render_cover_namespaces_and_server() {
        let registry = Registry::new();
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        let ns = registry.get("g").unwrap();
        for u in 0..4 {
            for v in 0..4 {
                ns.reach(u, v).unwrap();
            }
        }
        ns.reach_batch(&[(0, 3), (3, 0)], 1).unwrap();
        let counters = ServerCounters::default();
        counters.frames.fetch_add(17, Ordering::Relaxed);
        let obs = ServerObs::new();
        obs.tick_ns.record(1_000);
        obs.coalesce_batch.record(8);

        let report = collect_metrics(&registry, &counters, &obs, "");
        assert_eq!(report.counter("server_frames_total"), Some(17));
        assert_eq!(report.counter("ns_queries_total{ns=\"g\"}"), Some(18));
        let outcome_total: u64 = ["filter", "signature", "merge"]
            .iter()
            .filter_map(|o| {
                report.counter(&format!(
                    "ns_query_outcome_total{{ns=\"g\",outcome=\"{o}\"}}"
                ))
            })
            .sum();
        assert_eq!(outcome_total, 18, "every query died in exactly one stage");
        assert!(report
            .histogram("ns_batch_latency_ns{ns=\"g\"}")
            .is_some_and(|s| s.count == 1));

        // A filtered collection keeps server metrics, drops other ns.
        registry.insert_frozen("other", Oracle::new(&g)).unwrap();
        let filtered = collect_metrics(&registry, &counters, &obs, "g");
        assert!(filtered.counter("ns_queries_total{ns=\"g\"}").is_some());
        assert!(filtered.counter("ns_queries_total{ns=\"other\"}").is_none());

        let text = render_prometheus(&report, &collect_slow(&registry, ""));
        assert!(text.contains("# TYPE server_frames_total counter"));
        assert!(text.contains("server_frames_total 17"));
        assert!(text.contains("reactor_tick_ns{quantile=\"0.99\"}"));
        assert!(text.contains("ns_query_latency_ns_count{ns=\"g\",outcome="));
        assert!(text.contains("# slow_query ns=\"g\""));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split(' ');
            let (name, value) = (parts.next().unwrap(), parts.next().unwrap());
            assert!(!name.is_empty() && parts.next().is_none(), "{line}");
            value.parse::<u64>().unwrap_or_else(|_| panic!("{line}"));
        }
    }

    #[test]
    fn http_responder_serves_metrics_and_404s() {
        let registry = Arc::new(Registry::new());
        let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        registry.insert_frozen("g", Oracle::new(&g)).unwrap();
        registry.get("g").unwrap().reach(0, 1).unwrap();
        let counters = Arc::new(ServerCounters::default());
        let obs = Arc::new(ServerObs::new());
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, thread) = spawn_metrics_http(
            "127.0.0.1:0",
            Arc::clone(&registry),
            Arc::clone(&counters),
            Arc::clone(&obs),
            Arc::clone(&stop),
        )
        .unwrap();

        let fetch = |path: &str| {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
            let mut body = String::new();
            s.read_to_string(&mut body).unwrap();
            body
        };
        let ok = fetch("/metrics");
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        assert!(ok.contains("Content-Type: text/plain"));
        assert!(ok.contains("ns_queries_total{ns=\"g\"} 1"), "{ok}");
        let missing = fetch("/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        stop.store(true, Ordering::SeqCst);
        thread.join().unwrap();
    }

    fn spawn_fixture() -> (
        Arc<Registry>,
        SocketAddr,
        Arc<AtomicBool>,
        std::thread::JoinHandle<()>,
    ) {
        let registry = Arc::new(Registry::new());
        let counters = Arc::new(ServerCounters::default());
        let obs = Arc::new(ServerObs::new());
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, thread) = spawn_metrics_http(
            "127.0.0.1:0",
            Arc::clone(&registry),
            counters,
            obs,
            Arc::clone(&stop),
        )
        .unwrap();
        (registry, addr, stop, thread)
    }

    fn fetch(addr: SocketAddr, path: &str) -> String {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        s.read_to_string(&mut body).unwrap();
        body
    }

    #[test]
    fn http_responder_answers_health_and_readiness() {
        let (registry, addr, stop, thread) = spawn_fixture();
        // Liveness is unconditional; readiness tracks the registry.
        assert!(fetch(addr, "/healthz").starts_with("HTTP/1.0 200"));
        assert!(fetch(addr, "/readyz").starts_with("HTTP/1.0 200"));
        registry.set_ready(false);
        let not_ready = fetch(addr, "/readyz");
        assert!(not_ready.starts_with("HTTP/1.0 503"), "{not_ready}");
        assert!(not_ready.contains("not ready"), "{not_ready}");
        assert!(fetch(addr, "/healthz").starts_with("HTTP/1.0 200"));
        registry.set_ready(true);
        assert!(fetch(addr, "/readyz").starts_with("HTTP/1.0 200"));
        stop.store(true, Ordering::SeqCst);
        thread.join().unwrap();
    }

    #[test]
    fn http_responder_tolerates_malformed_request_lines() {
        let (_registry, addr, stop, thread) = spawn_fixture();
        let send_raw = |bytes: &[u8]| {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.write_all(bytes).unwrap();
            let mut body = String::new();
            let _ = s.read_to_string(&mut body); // close may race the reply
            body
        };
        // A well-formed-but-wrong method, a bare newline, binary junk,
        // a request line with no path — none may wedge the responder.
        for raw in [
            b"POST /metrics HTTP/1.0\r\n\r\n".as_slice(),
            b"\r\n\r\n".as_slice(),
            b"\xFF\xFE\x00garbage\r\n\r\n".as_slice(),
            b"GET\r\n\r\n".as_slice(),
        ] {
            let reply = send_raw(raw);
            assert!(
                reply.is_empty() || reply.starts_with("HTTP/1.0 404"),
                "{reply:?}"
            );
        }
        // A peer that connects and says nothing (the responder times
        // the read out), and one that closes immediately.
        drop(std::net::TcpStream::connect(addr).unwrap());
        // The listener must still serve a real scrape afterwards.
        assert!(fetch(addr, "/metrics").starts_with("HTTP/1.0 200"));
        stop.store(true, Ordering::SeqCst);
        thread.join().unwrap();
    }

    #[test]
    fn http_responder_survives_connection_per_scrape_churn() {
        let (_registry, addr, stop, thread) = spawn_fixture();
        // Prometheus reconnects per scrape: every cycle must get a
        // complete, well-formed response on a fresh connection.
        for round in 0..50 {
            let reply = fetch(addr, "/metrics");
            assert!(reply.starts_with("HTTP/1.0 200 OK\r\n"), "round {round}");
            assert!(reply.contains("server_frames_total"), "round {round}");
        }
        stop.store(true, Ordering::SeqCst);
        thread.join().unwrap();
    }

    #[test]
    fn http_responder_shuts_down_cleanly_mid_churn() {
        let (_registry, addr, stop, thread) = spawn_fixture();
        assert!(fetch(addr, "/metrics").starts_with("HTTP/1.0 200"));
        // Flip stop and race one more scrape against the shutdown: it
        // may be answered, refused, or reset — but never hang, and the
        // responder thread must still join.
        stop.store(true, Ordering::SeqCst);
        if let Ok(mut s) = std::net::TcpStream::connect(addr) {
            let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = write!(s, "GET /metrics HTTP/1.0\r\n\r\n");
            let mut body = String::new();
            let _ = s.read_to_string(&mut body);
            assert!(body.is_empty() || body.starts_with("HTTP/1.0 "), "{body:?}");
        }
        thread.join().unwrap();
    }
}
