//! Durable write-ahead logging for dynamic namespaces.
//!
//! A [`DynamicOracle`](crate::DynamicOracle) keeps its mutations in
//! memory; this module makes them survive a crash. The design is the
//! classic checkpoint + log pair, one directory per namespace:
//!
//! ```text
//! <wal-dir>/<ns>/
//!     checkpoint.<N>   HOPL v4 arena of the generation-N base DAG
//!     wal.<N>          edge ops acknowledged since checkpoint N
//! ```
//!
//! * **Records** are length-prefixed and CRC-checked:
//!   `len:u32 | crc32(body):u32 | body`, body = `tag:u8 | u:u32 | v:u32`
//!   (all little-endian). A torn or bit-flipped tail fails the CRC and
//!   [`decode_records`] truncates there — recovery always yields a
//!   *prefix* of the acknowledged operations, never an error.
//! * **Group commit**: [`Wal::append`] buffers in the OS page cache and
//!   fsyncs once per [`WalConfig::flush_every`] records or
//!   [`WalConfig::flush_interval`], whichever comes first. Acknowledged
//!   but unsynced records can be lost to a power cut; because the log
//!   is strictly sequential, what survives is still a prefix. The
//!   policy only fires inside appends, so an idle namespace's tail
//!   stays unsynced until the next append or an explicit [`Wal::sync`]
//!   (the server issues one per durable namespace at graceful
//!   shutdown) — see [`WalConfig`].
//! * **Checkpoint rotation** is crash-atomic through generation-paired
//!   files: the next checkpoint is fully written and fsynced to
//!   `checkpoint.tmp` *off* the namespace lock
//!   ([`WalDir::prepare_checkpoint`]), then [`Durability::rotate`]
//!   (under the lock, cheap) writes `wal.N+1` containing exactly the
//!   still-pending overlay ops, fsyncs it, and renames the tmp into
//!   `checkpoint.N+1`. The rename is the commit point; a crash on
//!   either side leaves at least one complete generation on disk, and
//!   [`WalDir::recover`] picks the newest valid one.
//!
//! The checkpoint itself is the HOPL v4 arena ([`Oracle::save_arena`])
//! of the very index the namespace serves: a rebuild labels its folded
//! base once and stages that [`Oracle`] here, and recovery opens the
//! arena and hands it back in [`Recovered::index`] for the namespace to
//! adopt without relabeling. A dynamic namespace is always a DAG, so
//! every condensation component is a singleton and the original vertex
//! numbering is recovered by inverting `comp_of` — see [`recover_dag`].
//! The one exception to "without relabeling" is a checkpoint written
//! as a HOPL v3 arena, before the top-hop reach masks changed the
//! labels: recovery reads its graph, relabels it, and replaces it with
//! a v4 checkpoint in place (same generation, same base, same log).

use std::borrow::Cow;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Seek, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hoplite_graph::{Dag, DiGraph};

use crate::oracle::Oracle;
use crate::persist;

/// One logged mutation of a dynamic namespace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeOp {
    /// `u → v` was inserted.
    Insert(u32, u32),
    /// `u → v` was removed.
    Remove(u32, u32),
}

impl EdgeOp {
    fn tag(self) -> u8 {
        match self {
            EdgeOp::Insert(..) => TAG_INSERT,
            EdgeOp::Remove(..) => TAG_REMOVE,
        }
    }

    fn endpoints(self) -> (u32, u32) {
        match self {
            EdgeOp::Insert(u, v) | EdgeOp::Remove(u, v) => (u, v),
        }
    }
}

impl fmt::Display for EdgeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeOp::Insert(u, v) => write!(f, "+({u},{v})"),
            EdgeOp::Remove(u, v) => write!(f, "-({u},{v})"),
        }
    }
}

const TAG_INSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;
/// Body bytes of the one record kind this version writes.
const BODY_LEN: usize = 9;
/// `len` prefix + `crc` + body.
pub const RECORD_LEN: usize = 8 + BODY_LEN;
/// Decode rejects a length prefix above this as corruption rather than
/// attempting a gigabyte allocation from a bit-flipped header.
const MAX_BODY_LEN: usize = 64;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven — per-record integrity check.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Record encode / decode.
// ---------------------------------------------------------------------

/// Serializes one op as a WAL record.
pub fn encode_record(op: EdgeOp) -> [u8; RECORD_LEN] {
    let (u, v) = op.endpoints();
    let mut body = [0u8; BODY_LEN];
    body[0] = op.tag();
    body[1..5].copy_from_slice(&u.to_le_bytes());
    body[5..9].copy_from_slice(&v.to_le_bytes());
    let mut rec = [0u8; RECORD_LEN];
    rec[0..4].copy_from_slice(&(BODY_LEN as u32).to_le_bytes());
    rec[4..8].copy_from_slice(&crc32(&body).to_le_bytes());
    rec[8..].copy_from_slice(&body);
    rec
}

/// Decodes every valid record of `bytes` and returns the ops together
/// with the byte length of the valid prefix.
///
/// Decoding stops — without error — at the first torn, truncated, or
/// corrupt record: a partial length prefix, an implausible length, a
/// CRC mismatch, or an unknown tag. Everything before the stop point
/// is a faithful prefix of what was appended; a crash artifact can
/// never make recovery fail.
pub fn decode_records(bytes: &[u8]) -> (Vec<EdgeOp>, usize) {
    let mut ops = Vec::new();
    let mut at = 0usize;
    while let Some(header) = bytes.get(at..at + 8) {
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_BODY_LEN {
            break;
        }
        let want_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let Some(body) = bytes.get(at + 8..at + 8 + len) else {
            break;
        };
        if crc32(body) != want_crc {
            break;
        }
        // A CRC-valid record whose body this version cannot interpret
        // (future op kind) still terminates replay: applying a prefix
        // that skips ops would not be a prefix at all.
        if len != BODY_LEN {
            break;
        }
        let u = u32::from_le_bytes(body[1..5].try_into().unwrap());
        let v = u32::from_le_bytes(body[5..9].try_into().unwrap());
        let op = match body[0] {
            TAG_INSERT => EdgeOp::Insert(u, v),
            TAG_REMOVE => EdgeOp::Remove(u, v),
            _ => break,
        };
        ops.push(op);
        at += 8 + len;
    }
    (ops, at)
}

// ---------------------------------------------------------------------
// Group-commit policy and the append-only log.
// ---------------------------------------------------------------------

/// Group-commit policy: how many acknowledged records may sit in the
/// OS page cache before an fsync.
///
/// Both halves of the policy are evaluated **inside [`Wal::append`]
/// only** — an idle log never syncs on its own. The tail of a write
/// burst therefore stays unsynced until the *next* append arrives:
/// the loss window after the final write is unbounded, not
/// `flush_interval`. Anything that must survive without a follow-up
/// write has to call [`Wal::sync`] (or
/// `DynamicOracle::sync_durability`) explicitly; the serving tier
/// does this for every durable namespace on graceful shutdown.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Fsync after this many unsynced appends. `1` syncs every record
    /// (strongest durability, one fsync per mutation).
    pub flush_every: usize,
    /// Fsync on the first append after this much time has passed since
    /// the last sync, even if `flush_every` has not been reached.
    /// Checked only when an append arrives — see the struct docs for
    /// the idle-tail caveat.
    pub flush_interval: Duration,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            flush_every: 32,
            flush_interval: Duration::from_millis(5),
        }
    }
}

impl WalConfig {
    /// Sync every record — what the fault-injection suite runs under.
    pub fn sync_every_record() -> Self {
        WalConfig {
            flush_every: 1,
            flush_interval: Duration::ZERO,
        }
    }
}

/// The sink a [`Wal`] appends to: sequential writes plus a durability
/// barrier. Implemented by [`File`] (via `sync_data`) and by the
/// [`FailpointWriter`] test shim.
pub trait WalFile: Write + Send {
    /// Force every written byte to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

impl WalFile for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// An append-only, CRC-per-record log with group commit.
pub struct Wal<F: WalFile = File> {
    file: F,
    cfg: WalConfig,
    bytes: u64,
    records: u64,
    unsynced: usize,
    last_sync: Instant,
}

impl<F: WalFile> Wal<F> {
    /// Wraps a sink positioned at `bytes` valid bytes (`0` for a fresh
    /// log).
    pub fn from_writer(file: F, bytes: u64, cfg: WalConfig) -> Self {
        Wal {
            file,
            cfg,
            bytes,
            records: 0,
            unsynced: 0,
            last_sync: Instant::now(),
        }
    }

    /// Appends one record and applies the group-commit policy. On
    /// `Ok`, the record is in the log (though possibly not yet synced
    /// — see [`WalConfig`]); on `Err`, the log may hold a torn tail
    /// that the next recovery will truncate, and the caller must not
    /// acknowledge the mutation.
    pub fn append(&mut self, op: EdgeOp) -> io::Result<()> {
        let rec = encode_record(op);
        self.file.write_all(&rec)?;
        self.bytes += rec.len() as u64;
        self.records += 1;
        self.unsynced += 1;
        if self.unsynced >= self.cfg.flush_every
            || self.last_sync.elapsed() >= self.cfg.flush_interval
        {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync()?;
        self.unsynced = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Valid bytes appended (excluding any torn tail from a failed
    /// append).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended through this handle.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The underlying sink (the fault harness inspects the torn tail).
    pub fn inner(&self) -> &F {
        &self.file
    }
}

// ---------------------------------------------------------------------
// Failpoint shim for the fault-injection harness.
// ---------------------------------------------------------------------

/// A [`WalFile`] that simulates a crash: it accepts bytes until a
/// configured offset, then fails every write — leaving exactly the
/// torn prefix a real power cut would. Test-only by intent, shipped in
/// the library so integration suites and fuzzers can drive it.
#[derive(Debug, Default)]
pub struct FailpointWriter {
    data: Vec<u8>,
    fail_at: Option<usize>,
    syncs: usize,
}

impl FailpointWriter {
    /// A writer that never fails.
    pub fn new() -> Self {
        FailpointWriter::default()
    }

    /// A writer that dies once `fail_at` total bytes have been
    /// accepted: the write crossing the boundary keeps the bytes up to
    /// it and returns an error, and every later write fails outright.
    pub fn failing_at(fail_at: usize) -> Self {
        FailpointWriter {
            data: Vec::new(),
            fail_at: Some(fail_at),
            syncs: 0,
        }
    }

    /// Everything successfully written — what a recovery would read.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// How many durability barriers were requested.
    pub fn syncs(&self) -> usize {
        self.syncs
    }
}

impl Write for FailpointWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(limit) = self.fail_at {
            if self.data.len() + buf.len() > limit {
                let keep = limit.saturating_sub(self.data.len());
                self.data.extend_from_slice(&buf[..keep]);
                return Err(io::Error::other(format!(
                    "failpoint: crashed at byte {limit}"
                )));
            }
        }
        self.data.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl WalFile for FailpointWriter {
    fn sync(&mut self) -> io::Result<()> {
        self.syncs += 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Durability hook.
// ---------------------------------------------------------------------

/// What a [`DynamicOracle`](crate::DynamicOracle) calls to make a
/// mutation durable *before* it is applied (and before any reply is
/// acknowledged). The production implementation is [`WalDurability`];
/// tests plug in shims.
pub trait Durability: Send {
    /// Logs one validated mutation. `Err` means the mutation must not
    /// be applied or acknowledged.
    fn log(&mut self, op: EdgeOp) -> io::Result<()>;

    /// Forces every logged record to stable storage.
    fn sync(&mut self) -> io::Result<()>;

    /// Supersedes the current log after a rebuild checkpointed its
    /// base: atomically switch to a fresh log containing exactly
    /// `overlay` (the ops still pending on top of the new checkpoint).
    /// The checkpoint bytes must already be staged (see
    /// [`WalDir::prepare_checkpoint`]).
    fn rotate(&mut self, overlay: &[EdgeOp]) -> io::Result<()>;

    /// Bytes in the current log generation.
    fn wal_bytes(&self) -> u64 {
        0
    }

    /// Records logged over this handle's lifetime (monotonic across
    /// rotations).
    fn wal_records_total(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------
// Generation-paired checkpoint + log directory.
// ---------------------------------------------------------------------

/// What [`WalDir::recover`] found on disk.
pub struct Recovered {
    /// The generation whose checkpoint was newest and valid.
    pub generation: u64,
    /// The base DAG the checkpoint captured.
    pub base: Dag,
    /// The checkpoint itself, opened (mapped on unix): the labeled
    /// index over `base`, ready to serve as is.
    pub index: Oracle,
    /// The valid prefix of `wal.<generation>` — a prefix of the
    /// operations acknowledged since that checkpoint.
    pub ops: Vec<EdgeOp>,
    /// Byte length of that valid prefix (the file is truncated here
    /// when an appender reopens it).
    pub wal_bytes: u64,
}

/// One namespace's durability directory.
#[derive(Clone, Debug)]
pub struct WalDir {
    dir: PathBuf,
}

impl WalDir {
    /// Opens (creating if needed) the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<WalDir> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(WalDir { dir })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    fn checkpoint_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("checkpoint.{generation}"))
    }

    fn wal_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("wal.{generation}"))
    }

    fn tmp_path(&self) -> PathBuf {
        self.dir.join("checkpoint.tmp")
    }

    fn generations(&self) -> io::Result<Vec<u64>> {
        let mut gens = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(gen) = name.strip_prefix("checkpoint.") {
                if let Ok(gen) = gen.parse::<u64>() {
                    gens.push(gen);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Recovers the newest valid generation: `Ok(None)` if the
    /// directory holds no checkpoint (fresh namespace), the opened
    /// checkpoint, its base DAG and the valid WAL prefix otherwise.
    /// Nothing is relabeled, except a HOPL v3 checkpoint, which is
    /// upgraded in place first (`upgrade_v3_checkpoint`).
    /// Crash artifacts — a stale `checkpoint.tmp`, a torn WAL tail,
    /// leftovers of a superseded generation — are tolerated, never an
    /// error. Idempotent: calling it twice yields the same answer (the
    /// fault suite leans on this), and only the v3 upgrade writes.
    pub fn recover(&self) -> io::Result<Option<Recovered>> {
        let mut gens = self.generations()?;
        gens.reverse();
        if gens.is_empty() {
            return Ok(None);
        }
        let mut last_err: Option<String> = None;
        for gen in gens {
            let index = match Oracle::open(self.checkpoint_path(gen)) {
                Ok(index) => index,
                Err(e) => match self.upgrade_v3_checkpoint(gen) {
                    Ok(Some(index)) => index,
                    // A checkpoint is only ever published by an atomic
                    // rename, so an invalid one means real corruption;
                    // fall back to the previous generation if any.
                    Ok(None) => {
                        last_err = Some(format!("checkpoint.{gen}: {e}"));
                        continue;
                    }
                    Err(up) => {
                        last_err = Some(format!("checkpoint.{gen}: v3 upgrade failed: {up}"));
                        continue;
                    }
                },
            };
            let base = recover_dag(&index)?;
            let wal_raw = match fs::read(self.wal_path(gen)) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e),
            };
            let (ops, valid) = decode_records(&wal_raw);
            return Ok(Some(Recovered {
                generation: gen,
                base,
                index,
                ops,
                wal_bytes: valid as u64,
            }));
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "wal dir {}: no valid checkpoint ({})",
                self.dir.display(),
                last_err.unwrap_or_default()
            ),
        ))
    }

    /// Replaces a HOPL v3 `checkpoint.<generation>` with a v4 one over
    /// the same graph, and opens it: reads the graph v3 and v4 lay out
    /// alike, labels it with the default configuration, stages the
    /// arena and renames it over the old file (the commit point, as in
    /// [`Durability::rotate`]; a crash before it leaves the v3 file to
    /// upgrade again). `Ok(None)` when the file is not a v3 arena.
    fn upgrade_v3_checkpoint(&self, generation: u64) -> io::Result<Option<Oracle>> {
        let path = self.checkpoint_path(generation);
        let bytes = fs::read(&path)?;
        let Some((comp_of, condensation)) = persist::read_v3_graph(&bytes).map_err(invalid_data)?
        else {
            return Ok(None);
        };
        let base = base_dag(&comp_of, &condensation)?;
        self.prepare_checkpoint(&Oracle::new(base.graph()))?;
        fs::rename(self.tmp_path(), &path)?;
        sync_dir(&self.dir)?;
        Oracle::open(&path).map(Some).map_err(invalid_data)
    }

    /// Initializes generation 0 for a fresh namespace: stages and
    /// publishes `checkpoint.0` for `base` and creates an empty
    /// `wal.0`. Pass the [`Oracle`] the namespace will serve, so the
    /// checkpoint is that index. Must only be called when
    /// [`WalDir::recover`] returned `None`.
    pub fn initialize(&self, base: &impl Checkpoint) -> io::Result<()> {
        self.prepare_checkpoint(&base.index())?;
        let wal = File::create(self.wal_path(0))?;
        wal.sync_data()?;
        fs::rename(self.tmp_path(), self.checkpoint_path(0))?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// Stages `index` as the next checkpoint in `checkpoint.tmp`, fully
    /// written and fsynced. Runs *off* the namespace lock (the index
    /// captures a fixed base, so nothing here races the live overlay);
    /// the later [`Durability::rotate`] renames the staged file into
    /// place as its commit point.
    pub fn prepare_checkpoint(&self, index: &Oracle) -> io::Result<()> {
        let mut f = File::create(self.tmp_path())?;
        index.save_arena(BufWriter::new(&mut f))?;
        f.sync_data()
    }

    /// Opens the appender for `generation`, truncating the log to its
    /// `wal_bytes` valid prefix first (drops any torn tail for good).
    pub fn durability(
        &self,
        generation: u64,
        wal_bytes: u64,
        records_so_far: u64,
        cfg: WalConfig,
    ) -> io::Result<WalDurability> {
        let path = self.wal_path(generation);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(wal_bytes)?;
        file.seek(io::SeekFrom::End(0))?;
        let mut wal = Wal::from_writer(file, wal_bytes, cfg);
        wal.records = records_so_far;
        Ok(WalDurability {
            dir: self.clone(),
            generation,
            wal,
            cfg,
            poisoned: false,
        })
    }
}

/// What [`WalDir::initialize`] can write as generation 0: the
/// [`Oracle`] a namespace serves, saved as is, or a bare [`Dag`] for
/// callers that hold no index yet, labeled once on the way.
pub trait Checkpoint {
    /// The index whose arena becomes the checkpoint.
    fn index(&self) -> Cow<'_, Oracle>;
}

/// Reconstructs the original DAG a checkpoint captured. The captured
/// graph was a DAG, so every condensation component is a singleton and
/// `comp_of` is a bijection original-vertex → component; inverting it
/// maps the condensation's edges back into the original numbering.
pub fn recover_dag(oracle: &Oracle) -> io::Result<Dag> {
    base_dag(oracle.comp_of(), oracle.dag().graph())
}

/// [`recover_dag`] over the raw parts: `comp_of` and the condensation.
fn base_dag(comp_of: &[u32], condensation: &DiGraph) -> io::Result<Dag> {
    if condensation.num_vertices() != comp_of.len() {
        return Err(invalid_data(
            "checkpoint captured a cyclic graph (non-singleton component)",
        ));
    }
    let mut inv = vec![0u32; comp_of.len()];
    for (v, &c) in comp_of.iter().enumerate() {
        inv[c as usize] = v as u32;
    }
    let edges: Vec<(u32, u32)> = condensation
        .edges()
        .map(|(a, b)| (inv[a as usize], inv[b as usize]))
        .collect();
    Dag::from_edges(comp_of.len(), &edges).map_err(invalid_data)
}

fn invalid_data(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Fsyncs a directory so renames and creations inside it are durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    // Windows cannot open a directory as a File; the rename itself is
    // still atomic there, only its durability timing differs.
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// The production [`Durability`]: an open [`Wal`] appender plus the
/// generation bookkeeping for checkpoint rotation.
pub struct WalDurability {
    dir: WalDir,
    generation: u64,
    wal: Wal<File>,
    cfg: WalConfig,
    /// Set on the first append error (the on-disk tail is torn;
    /// appending past it would corrupt the log beyond the prefix
    /// guarantee) or on a rotation whose directory fsync failed (the
    /// live generation is ambiguous until recovery re-resolves it).
    /// Every later mutation is refused until the namespace is
    /// re-opened.
    poisoned: bool,
}

impl WalDurability {
    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl Durability for WalDurability {
    fn log(&mut self, op: EdgeOp) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "wal poisoned by an earlier append or rotation failure; reopen the namespace",
            ));
        }
        self.wal.append(op).inspect_err(|_| self.poisoned = true)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    fn rotate(&mut self, overlay: &[EdgeOp]) -> io::Result<()> {
        let next = self.generation + 1;
        let records_total = self.wal.records();
        // 1. The next generation's log, holding exactly the overlay.
        let mut file = File::create(self.dir.wal_path(next))?;
        for &op in overlay {
            file.write_all(&encode_record(op))?;
        }
        file.sync_data()?;
        // 2. Commit point: publish the staged checkpoint. Once the
        //    rename lands, checkpoint.N+1 exists and wins recovery, so
        //    the appender must adopt generation N+1 no matter what
        //    happens below — returning early on a later error would
        //    keep acknowledging mutations into the orphaned wal.N,
        //    silently losing them on restart.
        fs::rename(self.dir.tmp_path(), self.dir.checkpoint_path(next))?;
        let old = self.generation;
        let mut wal = Wal::from_writer(file, (overlay.len() * RECORD_LEN) as u64, self.cfg);
        wal.records = records_total;
        self.wal = wal;
        self.generation = next;
        self.poisoned = false;
        // 3. Make the rename durable. If this fails the rename may not
        //    survive a crash: recovery could come back up on generation
        //    N while new acknowledgments land only in wal.N+1. Both
        //    generations reconstruct every op acknowledged *so far*, so
        //    refusing further mutations (poison) until a reopen
        //    re-resolves the live generation keeps the prefix
        //    guarantee. The old generation is also kept as a fallback.
        if let Err(e) = sync_dir(&self.dir.dir) {
            self.poisoned = true;
            return Err(e);
        }
        // 4. The old generation is now garbage.
        let _ = fs::remove_file(self.dir.checkpoint_path(old));
        let _ = fs::remove_file(self.dir.wal_path(old));
        Ok(())
    }

    fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    fn wal_records_total(&self) -> u64 {
        self.wal.records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        static CALL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let call = CALL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("hoplite-wal-{tag}-{}-{call}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_roundtrip() {
        let ops = [
            EdgeOp::Insert(0, 1),
            EdgeOp::Remove(7, 3),
            EdgeOp::Insert(u32::MAX, 0),
        ];
        let mut bytes = Vec::new();
        for &op in &ops {
            bytes.extend_from_slice(&encode_record(op));
        }
        let (decoded, valid) = decode_records(&bytes);
        assert_eq!(decoded, ops);
        assert_eq!(valid, bytes.len());
    }

    #[test]
    fn torn_tail_truncates_to_a_prefix() {
        let ops = [
            EdgeOp::Insert(1, 2),
            EdgeOp::Insert(2, 3),
            EdgeOp::Remove(1, 2),
        ];
        let mut bytes = Vec::new();
        for &op in &ops {
            bytes.extend_from_slice(&encode_record(op));
        }
        // Every truncation point yields the record-aligned prefix.
        for cut in 0..bytes.len() {
            let (decoded, valid) = decode_records(&bytes[..cut]);
            let whole = cut / RECORD_LEN;
            assert_eq!(decoded.len(), whole, "cut at {cut}");
            assert_eq!(valid, whole * RECORD_LEN, "cut at {cut}");
            assert_eq!(decoded, ops[..whole]);
        }
    }

    #[test]
    fn bit_flips_truncate_at_the_flip() {
        let ops: Vec<EdgeOp> = (0..8).map(|i| EdgeOp::Insert(i, i + 1)).collect();
        let mut clean = Vec::new();
        for &op in &ops {
            clean.extend_from_slice(&encode_record(op));
        }
        for byte in 0..clean.len() {
            for bit in [0, 3, 7] {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                let (decoded, valid) = decode_records(&bytes);
                let unaffected = byte / RECORD_LEN; // records before the flip
                assert!(
                    decoded.len() >= unaffected,
                    "flip at {byte}.{bit} destroyed an earlier record"
                );
                assert_eq!(
                    decoded[..unaffected],
                    ops[..unaffected],
                    "flip at {byte}.{bit} altered an earlier record"
                );
                assert_eq!(valid % RECORD_LEN, 0);
                // The flipped record itself must never decode to a
                // *different* op.
                if decoded.len() > unaffected {
                    assert_eq!(
                        decoded[unaffected], ops[unaffected],
                        "flip at {byte}.{bit} forged a record"
                    );
                }
            }
        }
    }

    #[test]
    fn group_commit_policy_counts_and_syncs() {
        let cfg = WalConfig {
            flush_every: 3,
            flush_interval: Duration::from_secs(3600),
        };
        let mut wal = Wal::from_writer(FailpointWriter::new(), 0, cfg);
        for i in 0..7u32 {
            wal.append(EdgeOp::Insert(i, i + 1)).unwrap();
        }
        // 7 appends at flush_every=3 → syncs after records 3 and 6.
        assert_eq!(wal.inner().syncs(), 2);
        assert_eq!(wal.records(), 7);
        assert_eq!(wal.bytes(), 7 * RECORD_LEN as u64);
        wal.sync().unwrap();
        assert_eq!(wal.inner().syncs(), 3);
        let (ops, valid) = decode_records(wal.inner().bytes());
        assert_eq!(ops.len(), 7);
        assert_eq!(valid as u64, wal.bytes());
    }

    #[test]
    fn failpoint_append_keeps_a_clean_prefix() {
        for fail_at in 0..(4 * RECORD_LEN) {
            let mut wal = Wal::from_writer(
                FailpointWriter::failing_at(fail_at),
                0,
                WalConfig::sync_every_record(),
            );
            let mut acked = Vec::new();
            for i in 0..6u32 {
                match wal.append(EdgeOp::Insert(i, i + 1)) {
                    Ok(()) => acked.push(EdgeOp::Insert(i, i + 1)),
                    Err(_) => break,
                }
            }
            let (recovered, _) = decode_records(wal.inner().bytes());
            // Recovery yields exactly the acknowledged ops (sync-every-
            // record mode): nothing acked is lost, nothing unacked
            // appears.
            assert_eq!(recovered, acked, "fail_at {fail_at}");
        }
    }

    #[test]
    fn waldir_initialize_then_recover_roundtrips() {
        let dir = temp_dir("init");
        let base = Dag::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let wd = WalDir::open(&dir).unwrap();
        assert!(wd.recover().unwrap().is_none());
        wd.initialize(&base).unwrap();
        let rec = wd.recover().unwrap().expect("generation 0");
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.ops, []);
        assert_eq!(rec.base.num_vertices(), 5);
        let want: std::collections::BTreeSet<_> = base.graph().edges().collect();
        let got: std::collections::BTreeSet<_> = rec.base.graph().edges().collect();
        assert_eq!(got, want, "checkpoint round-trips the DAG");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_recover_and_double_recover_are_stable() {
        let dir = temp_dir("append");
        let base = Dag::from_edges(4, &[(0, 1)]).unwrap();
        let wd = WalDir::open(&dir).unwrap();
        wd.initialize(&base).unwrap();
        let mut d = wd
            .durability(0, 0, 0, WalConfig::sync_every_record())
            .unwrap();
        d.log(EdgeOp::Insert(1, 2)).unwrap();
        d.log(EdgeOp::Remove(0, 1)).unwrap();
        assert_eq!(d.wal_records_total(), 2);
        assert_eq!(d.wal_bytes(), 2 * RECORD_LEN as u64);
        drop(d);
        let rec = wd.recover().unwrap().unwrap();
        assert_eq!(rec.ops, [EdgeOp::Insert(1, 2), EdgeOp::Remove(0, 1)]);
        // Recovery is read-only: a second pass sees the same state.
        let rec2 = wd.recover().unwrap().unwrap();
        assert_eq!(rec2.ops, rec.ops);
        assert_eq!(rec2.wal_bytes, rec.wal_bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_is_crash_atomic() {
        let dir = temp_dir("rotate");
        let base = Dag::from_edges(4, &[(0, 1)]).unwrap();
        let wd = WalDir::open(&dir).unwrap();
        wd.initialize(&base).unwrap();
        let mut d = wd
            .durability(0, 0, 0, WalConfig::sync_every_record())
            .unwrap();
        d.log(EdgeOp::Insert(1, 2)).unwrap();
        d.log(EdgeOp::Insert(2, 3)).unwrap();

        // Stage the next checkpoint (base + both inserts folded in) but
        // "crash" before rotate: recovery must still see generation 0.
        let folded = Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        wd.prepare_checkpoint(&folded.index()).unwrap();
        let rec = wd.recover().unwrap().unwrap();
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.ops.len(), 2);

        // Now rotate with one op still pending on top of the new base.
        d.log(EdgeOp::Insert(0, 3)).unwrap();
        d.rotate(&[EdgeOp::Insert(0, 3)]).unwrap();
        assert_eq!(d.generation(), 1);
        assert_eq!(d.wal_bytes(), RECORD_LEN as u64);
        assert_eq!(d.wal_records_total(), 3, "monotonic across rotation");
        drop(d);
        let rec = wd.recover().unwrap().unwrap();
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.ops, [EdgeOp::Insert(0, 3)]);
        assert_eq!(rec.base.num_edges(), 3);
        // Old generation files are gone.
        assert!(!wd.checkpoint_path(0).exists());
        assert!(!wd.wal_path(0).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_file_recovers_prefix_and_truncates_on_reopen() {
        let dir = temp_dir("torn");
        let base = Dag::from_edges(8, &[]).unwrap();
        let wd = WalDir::open(&dir).unwrap();
        wd.initialize(&base).unwrap();
        let mut d = wd
            .durability(0, 0, 0, WalConfig::sync_every_record())
            .unwrap();
        for i in 0..5u32 {
            d.log(EdgeOp::Insert(i, i + 1)).unwrap();
        }
        drop(d);
        // Tear the tail mid-record.
        let wal_path = wd.wal_path(0);
        let full = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &full[..full.len() - 7]).unwrap();
        let rec = wd.recover().unwrap().unwrap();
        assert_eq!(rec.ops.len(), 4, "torn record dropped");
        // Reopening the appender truncates the torn tail, and new
        // appends extend the clean prefix.
        let mut d = wd
            .durability(
                0,
                rec.wal_bytes,
                rec.ops.len() as u64,
                WalConfig::sync_every_record(),
            )
            .unwrap();
        d.log(EdgeOp::Insert(6, 7)).unwrap();
        drop(d);
        let rec = wd.recover().unwrap().unwrap();
        let mut want: Vec<EdgeOp> = (0..4).map(|i| EdgeOp::Insert(i, i + 1)).collect();
        want.push(EdgeOp::Insert(6, 7));
        assert_eq!(rec.ops, want);
        fs::remove_dir_all(&dir).unwrap();
    }
}
