//! Binary persistence for built oracles: the HOPL v5 zero-copy arena.
//!
//! The paper's headline is cheap construction, but a production user
//! still wants to build once and ship the index to query-serving
//! replicas — the `hoplite-server` crate is that replica: `hoplited
//! serve --index NAME=FILE` opens an [`Oracle::save_arena`] file and
//! answers it over the wire.
//!
//! ## HOPL v5 — the zero-copy arena
//!
//! [`Oracle::save_arena`] / [`Oracle::open`] turn the file itself into
//! the index: a 64-byte header, a checksummed section table, and raw
//! little-endian arrays at 64-byte-aligned offsets — including the
//! top-hop reach masks (one `MASKS` record of `2·W` words per
//! component, `W` in the header) **and the 32-byte filter records**, the state
//! O'Reach observes is cheap to store and expensive to derive.
//! [`Oracle::open`] maps the file ([`crate::store::ArenaBuf`]),
//! validates the table, and serves straight out of the mapping: no
//! array is copied (the condensation DAG, needed only for
//! re-`save_arena`/introspection, is the one owned exception) and
//! nothing is recomputed. See [`Oracle::open_with`] for the knobs
//! ([`OpenOptions`]: mmap vs read, prefault, checksum verification)
//! and the README for the full section table.
//!
//! The format is little-endian-only: typed slices are served straight
//! out of the file bytes, so a big-endian host refuses to read or
//! write an arena rather than byte-swap silently.
//!
//! ## One version
//!
//! v5 is the only version the readers accept. Indexes are derived
//! data, so an older file (the v1 streaming format, a v3 arena whose
//! labels still carry the top hops beside rank-band signatures, or a
//! v4 arena with its masks fixed at 64 hops in two separate arrays)
//! is not migrated: every reader refuses it with a
//! [`PersistError::Format`] naming its version and the rebuild route
//! — build the oracle from the edge list again
//! (`hoplited serve --frozen NAME=FILE`, or
//! `Oracle::new(..).save_arena(..)`).
//!
//! A WAL checkpoint has no edge list to rebuild from: the arena is the
//! only copy of a durable namespace's base graph. So the crate keeps
//! one narrow legacy reader, for the component and condensation-DAG
//! sections v3, v4 and v5 share, and [`crate::wal::WalDir::recover`]
//! uses it to relabel a v3 or v4 checkpoint into a v5 one in place.
//! Index files opened for serving stay v5-only.
//!
//! ```
//! use hoplite_graph::DiGraph;
//! use hoplite_core::Oracle;
//!
//! let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 1)])?;
//! let oracle = Oracle::new(&g);
//!
//! let mut bytes = Vec::new();
//! oracle.save_arena(&mut bytes)?;
//! let restored = Oracle::open_arena_bytes(&bytes)?;
//! assert!(restored.reaches(0, 2));
//! assert!(!restored.reaches(2, 0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use hoplite_graph::DiGraph;

use crate::distribution::DistributionLabeling;
use crate::filter::{QueryFilters, FILTER_RECORD_BYTES};
use crate::label::Labeling;
use crate::oracle::Oracle;
use crate::store::{checksum, ArenaBuf, Store};

const MAGIC: &[u8; 4] = b"HOPL";
const KIND_ORACLE: u8 = 4;

/// Errors returned by the readers.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem in the payload, or a version this build does
    /// not read.
    Format(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist i/o error: {e}"),
            PersistError::Format(m) => write!(f, "persist format error: {m}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

// ---------------------------------------------------------------------
// HOPL v4: the zero-copy arena
// ---------------------------------------------------------------------

/// HOPL version of the arena format.
pub const ARENA_VERSION: u32 = 5;
/// The previous arena versions. Their header, section table, component
/// tables and condensation-DAG sections are laid out exactly as v5's;
/// their label sections are not: v3's lists kept the top hops, beside
/// rank-band signatures whose shift sat in header bytes 32..36, and
/// v4 kept 64-hop masks in separate `OUT_MASK`/`IN_MASK` arrays.
const LEGACY_ARENA_VERSIONS: [u32; 2] = [3, 4];
/// Fixed arena header length; the section table starts right after.
const ARENA_HEADER_LEN: usize = 64;
/// One section-table entry: 8-byte tag + offset + length + checksum.
const SECTION_ENTRY_LEN: usize = 32;
/// Alignment of every section offset (and the whole file length).
const SECTION_ALIGN: usize = crate::store::ARENA_ALIGN;
/// Ceiling on the section count a reader accepts (13 today; slack for
/// forward-compatible additions, tight enough that a corrupt count
/// cannot drive a large allocation).
const MAX_SECTIONS: u32 = 64;

/// Section tags, in file order. 8 ASCII bytes, NUL-padded.
const SEC_COMP_OF: &[u8; 8] = b"COMP_OF\0";
const SEC_COMP_SZ: &[u8; 8] = b"COMP_SZ\0";
const SEC_DAG_OOF: &[u8; 8] = b"DAG_OOF\0";
const SEC_DAG_OTG: &[u8; 8] = b"DAG_OTG\0";
const SEC_DAG_IOF: &[u8; 8] = b"DAG_IOF\0";
const SEC_DAG_ITG: &[u8; 8] = b"DAG_ITG\0";
const SEC_ORDER: &[u8; 8] = b"ORDER\0\0\0";
const SEC_OUT_OFF: &[u8; 8] = b"OUT_OFF\0";
const SEC_OUT_HOP: &[u8; 8] = b"OUT_HOP\0";
const SEC_IN_OFF: &[u8; 8] = b"IN_OFF\0\0";
const SEC_IN_HOP: &[u8; 8] = b"IN_HOP\0\0";
const SEC_MASKS: &[u8; 8] = b"MASKS\0\0\0";
const SEC_FILTREC: &[u8; 8] = b"FILTREC\0";

fn align_up(x: usize, align: usize) -> usize {
    x.div_ceil(align) * align
}

/// One section's payload, borrowed from the live index — sections are
/// streamed to the writer (and into [`ChecksumStream`]) rather than
/// materialized, so saving a multi-GB index costs O(1) extra memory.
enum SectionData<'a> {
    U32(&'a [u32]),
    U64(&'a [u64]),
    Raw(&'a [u8]),
}

impl SectionData<'_> {
    fn byte_len(&self) -> usize {
        match self {
            SectionData::U32(xs) => xs.len() * 4,
            SectionData::U64(xs) => xs.len() * 8,
            SectionData::Raw(b) => b.len(),
        }
    }

    /// The section's file bytes, borrowed in place. HOPL v5 is a
    /// little-endian-only format served by reinterpreting mapped
    /// bytes, so on LE targets (the only ones [`arena_endianness_ok`]
    /// admits) the live arrays *are* the encoding — one borrow, zero
    /// copies. The `Raw` records are byte-identical by the same
    /// contract.
    fn le_bytes(&self) -> &[u8] {
        match self {
            // SAFETY: Pod element types have no padding and the
            // slice is live; on LE the byte view is the encoding.
            SectionData::U32(xs) => unsafe {
                std::slice::from_raw_parts(xs.as_ptr() as *const u8, xs.len() * 4)
            },
            SectionData::U64(xs) => unsafe {
                std::slice::from_raw_parts(xs.as_ptr() as *const u8, xs.len() * 8)
            },
            SectionData::Raw(b) => b,
        }
    }

    fn checksum(&self) -> u64 {
        checksum(self.le_bytes())
    }
}

/// HOPL v5 serves typed slices straight out of the file bytes, so the
/// format is little-endian-only end to end — a big-endian host must
/// refuse instead of silently writing or reading byte-swapped arrays.
fn arena_endianness_ok() -> Result<(), PersistError> {
    if cfg!(target_endian = "little") {
        Ok(())
    } else {
        Err(arena_err(
            "HOPL arenas are little-endian-only; this host is big-endian",
        ))
    }
}

/// How to open an on-disk index; see [`Oracle::open_with`].
#[derive(Clone, Copy, Debug)]
pub struct OpenOptions {
    /// `mmap` the file (unix) instead of reading it into an aligned
    /// heap buffer. Mapped opens are O(header) in I/O and share page
    /// cache across processes; the read fallback still shares one
    /// buffer across in-process replicas. Default `true`.
    pub mmap: bool,
    /// Touch every page of the buffer at open so first queries do not
    /// page-fault (cold-start latency moved from query time to open
    /// time). Default `false`.
    pub prefault: bool,
    /// Verify the per-section checksums and the cheap structural
    /// invariants (monotone offsets, in-range component ids) before
    /// serving. One sequential pass over the file; disable only for
    /// trusted files where a strictly O(header) open matters.
    /// Default `true`.
    pub verify: bool,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions {
            mmap: true,
            prefault: false,
            verify: true,
        }
    }
}

impl Oracle {
    /// Serializes the oracle as a HOPL v5 arena: header, checksummed
    /// section table, then every array — component tables,
    /// condensation-DAG CSR (both directions), rank order, label CSRs,
    /// top-hop reach mask records, and the 32-byte filter records — as raw
    /// little-endian bytes at 64-byte-aligned offsets. A file written
    /// here opens in O(header) via [`Oracle::open`]: nothing needs to
    /// be re-derived, re-validated element-by-element, or copied.
    pub fn save_arena<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        arena_endianness_ok().map_err(std::io::Error::other)?;
        let labeling = self.inner().labeling();
        let (oo, oh, io_, ih) = labeling.csr_parts();
        let (masks, mask_words) = labeling.mask_parts();
        let (doo, dot, dio, dit) = self.dag().graph().csr_parts();
        let sections: Vec<(&[u8; 8], SectionData)> = vec![
            (SEC_COMP_OF, SectionData::U32(self.comp_of())),
            (SEC_COMP_SZ, SectionData::U32(self.comp_sizes())),
            (SEC_DAG_OOF, SectionData::U32(doo)),
            (SEC_DAG_OTG, SectionData::U32(dot)),
            (SEC_DAG_IOF, SectionData::U32(dio)),
            (SEC_DAG_ITG, SectionData::U32(dit)),
            (SEC_ORDER, SectionData::U32(self.inner().order())),
            (SEC_OUT_OFF, SectionData::U32(oo)),
            (SEC_OUT_HOP, SectionData::U32(oh)),
            (SEC_IN_OFF, SectionData::U32(io_)),
            (SEC_IN_HOP, SectionData::U32(ih)),
            (SEC_MASKS, SectionData::U64(masks)),
            (SEC_FILTREC, SectionData::Raw(self.filters().record_bytes())),
        ];

        // Layout: table right after the header, first section at the
        // next 64-byte boundary, every later section likewise. The
        // table pass borrows and checksums each section in place;
        // nothing is materialized.
        let table_len = sections.len() * SECTION_ENTRY_LEN;
        let mut table = Vec::with_capacity(table_len);
        let mut offset = align_up(ARENA_HEADER_LEN + table_len, SECTION_ALIGN);
        let mut placed = Vec::with_capacity(sections.len());
        for (tag, data) in &sections {
            table.extend_from_slice(*tag);
            table.extend_from_slice(&(offset as u64).to_le_bytes());
            table.extend_from_slice(&(data.byte_len() as u64).to_le_bytes());
            table.extend_from_slice(&data.checksum().to_le_bytes());
            placed.push(offset);
            offset = align_up(offset + data.byte_len(), SECTION_ALIGN);
        }
        let file_len = offset;

        let mut header = Vec::with_capacity(ARENA_HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&ARENA_VERSION.to_le_bytes());
        header.push(KIND_ORACLE);
        header.extend_from_slice(&[0u8; 3]);
        header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        header.extend_from_slice(&(self.num_vertices() as u64).to_le_bytes());
        header.extend_from_slice(&(self.num_components() as u64).to_le_bytes());
        // Bytes 32..36 hold the mask words per side; 36..40 are
        // reserved and zero.
        header.extend_from_slice(&(mask_words as u32).to_le_bytes());
        header.extend_from_slice(&[0u8; 4]);
        header.extend_from_slice(&(file_len as u64).to_le_bytes());
        header.extend_from_slice(&checksum(&table).to_le_bytes());
        debug_assert_eq!(header.len(), 56);
        let header_sum = checksum(&header);
        header.extend_from_slice(&header_sum.to_le_bytes());

        w.write_all(&header)?;
        w.write_all(&table)?;
        let mut cursor = ARENA_HEADER_LEN + table_len;
        const ZEROS: [u8; SECTION_ALIGN] = [0u8; SECTION_ALIGN];
        for ((_, data), at) in sections.iter().zip(&placed) {
            w.write_all(&ZEROS[..at - cursor])?;
            w.write_all(data.le_bytes())?;
            cursor = at + data.byte_len();
        }
        w.write_all(&ZEROS[..file_len - cursor])?;
        // The writer is consumed, so a buffered caller could only
        // flush in Drop, where errors vanish — surface them here.
        w.flush()
    }

    /// Opens an on-disk HOPL v5 arena with the default
    /// [`OpenOptions`]: mapped (unix `mmap`, aligned read elsewhere),
    /// checksums verified, served zero-copy. Any other version is a
    /// [`PersistError::Format`] naming it and the rebuild route.
    pub fn open(path: impl AsRef<Path>) -> Result<Oracle, PersistError> {
        Self::open_with(path, &OpenOptions::default())
    }

    /// [`Oracle::open`] with explicit backend/prefault/verification
    /// knobs.
    pub fn open_with(path: impl AsRef<Path>, opts: &OpenOptions) -> Result<Oracle, PersistError> {
        let path = path.as_ref();
        // Sniff the version first: a legacy file is refused before a
        // single byte past its header is mapped or read.
        let mut head = [0u8; 8];
        std::fs::File::open(path)?.read_exact(&mut head)?;
        check_magic_and_version(&head)?;
        let buf = if !opts.mmap {
            ArenaBuf::read_file(path)?
        } else if opts.verify || opts.prefault {
            // About to touch every page anyway — batched
            // page-table population beats faulting one by one.
            ArenaBuf::map_file_populated(path)?
        } else {
            ArenaBuf::map_file(path)?
        };
        if opts.prefault {
            buf.prefault();
        }
        open_arena(Arc::new(buf), opts.verify)
    }

    /// Opens a HOPL v5 arena already in memory (network-shipped
    /// indexes, tests). The bytes are copied once into an aligned
    /// buffer; everything else is identical to [`Oracle::open`].
    pub fn open_arena_bytes(bytes: &[u8]) -> Result<Oracle, PersistError> {
        open_arena(Arc::new(ArenaBuf::from_bytes(bytes)), true)
    }
}

/// One parsed section-table entry.
struct Section {
    tag: [u8; 8],
    offset: usize,
    len: usize,
    sum: u64,
}

fn arena_err(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

/// The version word of a HOPL prefix, after checking the magic. Needs
/// only the first 8 bytes.
fn arena_version(bytes: &[u8]) -> Result<u32, PersistError> {
    if bytes.len() < 8 {
        return Err(arena_err("arena shorter than its 64-byte header"));
    }
    if &bytes[..4] != MAGIC {
        return Err(arena_err("bad magic (not a hoplite index)"));
    }
    Ok(u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")))
}

/// Rejects anything but a HOPL v5 prefix: the magic, then the version
/// word. Needs only the first 8 bytes, so a legacy file gets its
/// version named however short it is.
fn check_magic_and_version(bytes: &[u8]) -> Result<(), PersistError> {
    let version = arena_version(bytes)?;
    if version != ARENA_VERSION {
        return Err(arena_err(format!(
            "HOPL version {version} is not supported (this build reads only v{ARENA_VERSION} \
             arenas); rebuild the index from its edge list with `hoplited serve --frozen \
             NAME=FILE` or `Oracle::new(..).save_arena(..)`"
        )));
    }
    Ok(())
}

/// Parses and validates the header + section table of an arena whose
/// magic and `version` the caller checked — the O(header) part every
/// open pays: bounds, alignment, ordering, overlap, and the two
/// table/header checksums.
fn parse_arena_table(bytes: &[u8], version: u32) -> Result<(Vec<Section>, u64, u64), PersistError> {
    if bytes.len() < ARENA_HEADER_LEN {
        return Err(arena_err("arena shorter than its 64-byte header"));
    }
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    if bytes[8] != KIND_ORACLE {
        return Err(arena_err(format!(
            "arena kind {} unsupported (only {KIND_ORACLE} = Oracle)",
            bytes[8]
        )));
    }
    let header_sum = u64_at(56);
    if checksum(&bytes[..56]) != header_sum {
        return Err(arena_err("header checksum mismatch"));
    }
    let n = u64_at(16);
    let c = u64_at(24);
    if n > u32::MAX as u64 || c > n.max(1) {
        return Err(arena_err(format!(
            "implausible vertex/component counts ({n}/{c})"
        )));
    }
    if version == ARENA_VERSION && u32_at(36) != 0 {
        return Err(arena_err("reserved header bytes 36..40 are not zero"));
    }
    let file_len = u64_at(40);
    if file_len != bytes.len() as u64 {
        return Err(arena_err(format!(
            "file length {} disagrees with the header's {file_len} (truncated or padded)",
            bytes.len()
        )));
    }
    let count = u32_at(12);
    if count == 0 || count > MAX_SECTIONS {
        return Err(arena_err(format!("section count {count} out of range")));
    }
    let table_end = ARENA_HEADER_LEN + count as usize * SECTION_ENTRY_LEN;
    if table_end > bytes.len() {
        return Err(arena_err("section table truncated"));
    }
    let table = &bytes[ARENA_HEADER_LEN..table_end];
    if checksum(table) != u64_at(48) {
        return Err(arena_err("section table checksum mismatch"));
    }
    let mut sections = Vec::with_capacity(count as usize);
    let mut prev_end = table_end;
    for entry in table.chunks_exact(SECTION_ENTRY_LEN) {
        let tag: [u8; 8] = entry[..8].try_into().expect("8 bytes");
        let offset = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(entry[16..24].try_into().expect("8 bytes"));
        let sum = u64::from_le_bytes(entry[24..32].try_into().expect("8 bytes"));
        if offset % SECTION_ALIGN as u64 != 0 {
            return Err(arena_err(format!(
                "section {} offset {offset} not {SECTION_ALIGN}-byte aligned",
                String::from_utf8_lossy(&tag)
            )));
        }
        let (Ok(offset), Ok(len)) = (usize::try_from(offset), usize::try_from(len)) else {
            return Err(arena_err("section beyond the address space"));
        };
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| {
                arena_err(format!(
                    "section {} [{offset}; {len}) exceeds the {}-byte file",
                    String::from_utf8_lossy(&tag),
                    bytes.len()
                ))
            })?;
        // Table order is file order; equal starts (two empty sections)
        // are fine, overlap is not.
        if offset < prev_end {
            return Err(arena_err(format!(
                "section {} overlaps its predecessor",
                String::from_utf8_lossy(&tag)
            )));
        }
        prev_end = end;
        sections.push(Section {
            tag,
            offset,
            len,
            sum,
        });
    }
    Ok((sections, n, c))
}

/// The one section tagged `tag`: missing or duplicated is an error.
fn find_section<'s>(sections: &'s [Section], tag: &[u8; 8]) -> Result<&'s Section, PersistError> {
    let name = || {
        String::from_utf8_lossy(tag)
            .trim_end_matches('\0')
            .to_string()
    };
    let mut hits = sections.iter().filter(|s| &s.tag == tag);
    let first = hits
        .next()
        .ok_or_else(|| arena_err(format!("missing section {}", name())))?;
    if hits.next().is_some() {
        return Err(arena_err(format!("duplicate section {}", name())));
    }
    Ok(first)
}

/// Checks every section's bytes against its table checksum.
fn verify_section_checksums(bytes: &[u8], sections: &[Section]) -> Result<(), PersistError> {
    for s in sections {
        if checksum(&bytes[s.offset..s.offset + s.len]) != s.sum {
            return Err(arena_err(format!(
                "section {} checksum mismatch",
                String::from_utf8_lossy(&s.tag).trim_end_matches('\0')
            )));
        }
    }
    Ok(())
}

/// The version of a HOPL v3 or v4 prefix, `None` for anything else
/// (another version, or no HOPL magic). Needs only the first 8 bytes.
pub(crate) fn legacy_arena_version(bytes: &[u8]) -> Option<u32> {
    arena_version(bytes)
        .ok()
        .filter(|v| LEGACY_ARENA_VERSIONS.contains(v))
}

/// The graph a HOPL v3 or v4 arena captured, as `(comp_of,
/// condensation DAG)` — the one thing this build still reads from an
/// older file, so that a WAL checkpoint written before v5 can be
/// relabeled ([`crate::wal::WalDir::recover`]). Every section is
/// checksummed and every id range-checked; the label sections are
/// ignored. `Ok(None)` when `bytes` is not a v3 or v4 arena.
pub(crate) fn read_legacy_graph(bytes: &[u8]) -> Result<Option<(Vec<u32>, DiGraph)>, PersistError> {
    let Some(version) = legacy_arena_version(bytes) else {
        arena_version(bytes)?;
        return Ok(None);
    };
    let (sections, n, c) = parse_arena_table(bytes, version)?;
    verify_section_checksums(bytes, &sections)?;
    let (n, c) = (n as usize, c as usize);
    let u32s = |tag: &[u8; 8], want: usize| -> Result<Vec<u32>, PersistError> {
        let s = find_section(&sections, tag)?;
        if s.len != want * 4 {
            return Err(arena_err(format!(
                "section {} is {} bytes, expected {}",
                String::from_utf8_lossy(tag).trim_end_matches('\0'),
                s.len,
                want * 4
            )));
        }
        Ok(bytes[s.offset..s.offset + s.len]
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
            .collect())
    };
    let comp_of = u32s(SEC_COMP_OF, n)?;
    if comp_of.iter().any(|&comp| comp as usize >= c) {
        return Err(arena_err("comp_of entry out of component range"));
    }
    let offsets = u32s(SEC_DAG_OOF, c + 1)?;
    if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(arena_err("dag out: offsets not monotone from 0"));
    }
    let targets = u32s(SEC_DAG_OTG, offsets[c] as usize)?;
    let edges: Vec<(u32, u32)> = (0..c)
        .flat_map(|a| {
            targets[offsets[a] as usize..offsets[a + 1] as usize]
                .iter()
                .map(move |&b| (a as u32, b))
        })
        .collect();
    let dag = DiGraph::from_edges(c, &edges).map_err(|e| arena_err(e.to_string()))?;
    Ok(Some((comp_of, dag)))
}

/// Assembles a serving [`Oracle`] from a validated arena buffer.
///
/// With `verify` (the default) this makes one sequential pass over the
/// section bytes to check their checksums plus the cheap structural
/// invariants the query path indexes by (monotone offsets, in-range
/// component ids); content invariants below that — sorted hop lists,
/// exact reach masks — are the writer's checksummed guarantee
/// and are *not* re-derived (that recomputation is what the arena
/// exists to avoid).
fn open_arena(buf: Arc<ArenaBuf>, verify: bool) -> Result<Oracle, PersistError> {
    arena_endianness_ok()?;
    let bytes = buf.bytes();
    check_magic_and_version(bytes)?;
    let (sections, n, c) = parse_arena_table(bytes, ARENA_VERSION)?;
    let (n, c) = (n as usize, c as usize);
    let find = |tag: &[u8; 8]| find_section(&sections, tag);
    if verify {
        verify_section_checksums(bytes, &sections)?;
    }

    /// Typed window with an exact element-count requirement.
    fn typed<T: crate::store::Pod>(
        buf: &Arc<ArenaBuf>,
        s: &Section,
        want: usize,
    ) -> Result<Store<T>, PersistError> {
        let size = std::mem::size_of::<T>();
        if s.len != want * size {
            return Err(arena_err(format!(
                "section {} is {} bytes, expected {} ({want} × {size})",
                String::from_utf8_lossy(&s.tag).trim_end_matches('\0'),
                s.len,
                want * size,
            )));
        }
        Store::mapped(buf, s.offset, want).map_err(arena_err)
    }

    let comp_of: Store<u32> = typed(&buf, find(SEC_COMP_OF)?, n)?;
    let comp_sizes: Store<u32> = typed(&buf, find(SEC_COMP_SZ)?, c)?;
    let order: Store<u32> = typed(&buf, find(SEC_ORDER)?, c)?;
    let out_offsets: Store<u32> = typed(&buf, find(SEC_OUT_OFF)?, c + 1)?;
    let in_offsets: Store<u32> = typed(&buf, find(SEC_IN_OFF)?, c + 1)?;
    let mask_words = u32::from_le_bytes(bytes[32..36].try_into().expect("4 bytes")) as usize;
    if !matches!(mask_words, 1 | 2 | 4) {
        return Err(arena_err(format!(
            "mask words {mask_words} per side is not 1, 2 or 4"
        )));
    }
    let masks: Store<u64> = typed(&buf, find(SEC_MASKS)?, c * 2 * mask_words)?;
    let filtrec = typed::<crate::filter::FilterRecord>(&buf, find(SEC_FILTREC)?, n)?;

    // Entry arrays are sized by their offset arrays' final values —
    // O(1) reads, no length field to disbelieve.
    let hop_count = |offsets: &Store<u32>, what: &str| -> Result<usize, PersistError> {
        if offsets.first() != Some(&0) {
            return Err(arena_err(format!("{what}: offsets[0] != 0")));
        }
        Ok(*offsets.last().expect("nonempty") as usize)
    };
    let out_hops: Store<u32> = typed(&buf, find(SEC_OUT_HOP)?, hop_count(&out_offsets, "out")?)?;
    let in_hops: Store<u32> = typed(&buf, find(SEC_IN_HOP)?, hop_count(&in_offsets, "in")?)?;

    // The condensation DAG stays as its four (mapped) CSR sections:
    // queries never touch it, so [`Oracle::dag`] materializes — and
    // fully validates, including the transpose relation — on first
    // `save`/introspection use instead of on the open critical path.
    // Only the O(1) cross-section size relations are pinned here.
    let dag_oof: Store<u32> = typed(&buf, find(SEC_DAG_OOF)?, c + 1)?;
    let dag_iof: Store<u32> = typed(&buf, find(SEC_DAG_IOF)?, c + 1)?;
    let edge_count = hop_count(&dag_oof, "dag out")?;
    if hop_count(&dag_iof, "dag in")? != edge_count {
        return Err(arena_err("dag CSR sides disagree on the edge count"));
    }
    let dag_otg: Store<u32> = typed(&buf, find(SEC_DAG_OTG)?, edge_count)?;
    let dag_itg: Store<u32> = typed(&buf, find(SEC_DAG_ITG)?, edge_count)?;
    let dag_csr = crate::oracle::DagCsr {
        out_offsets: dag_oof,
        out_targets: dag_otg,
        in_offsets: dag_iof,
        in_targets: dag_itg,
    };

    if verify {
        // The structural invariants the query path indexes by; cheap
        // relative to the checksum pass that already read these pages.
        for (what, offsets) in [("out", &out_offsets), ("in", &in_offsets)] {
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(arena_err(format!("{what}: offsets not monotone")));
            }
        }
        if comp_of.iter().any(|&comp| comp as usize >= c) {
            return Err(arena_err("comp_of entry out of component range"));
        }
    }

    let labeling = Labeling::from_stores_unchecked(
        out_offsets,
        out_hops,
        in_offsets,
        in_hops,
        masks,
        mask_words,
    );
    let dl = DistributionLabeling::from_parts(labeling, order);
    let filters = QueryFilters::from_store(filtrec);
    debug_assert_eq!(FILTER_RECORD_BYTES, 32);
    Ok(Oracle::from_open_parts(
        comp_of, comp_sizes, dag_csr, dl, filters,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::{gen, traversal};

    #[test]
    fn arena_roundtrip_preserves_queries_and_structure() {
        let g = gen::random_digraph(160, 240, 91);
        let o = Oracle::new(&g);
        // Past the top hops, so the label-list sections are non-empty.
        assert!(o.num_components() > crate::label::TOP_HOPS);
        let mut buf = Vec::new();
        o.save_arena(&mut buf).unwrap();
        assert_eq!(buf.len() % 64, 0, "arena files are 64-byte padded");
        let o2 = Oracle::open_arena_bytes(&buf).unwrap();
        // In-memory arenas are heap-backed; the backend split reports
        // RSS, so only a real file mapping may claim "mapped" (see
        // `arena_open_from_disk_mapped_and_owned` for that side).
        assert_eq!(o2.backend(), crate::store::StoreBackend::Heap);
        assert_eq!(o.num_vertices(), o2.num_vertices());
        assert_eq!(o.num_components(), o2.num_components());
        assert_eq!(o.label_entries(), o2.label_entries());
        assert_eq!(o.comp_of(), o2.comp_of());
        traversal::assert_matches_bfs(&g, "reopened arena", |u, v| o2.reaches(u, v));
        let pairs: Vec<(u32, u32)> = (0..160)
            .flat_map(|u| (0..160).map(move |v| (u, v)))
            .collect();
        let (mut a, mut b) = (vec![false; pairs.len()], vec![true; pairs.len()]);
        assert_eq!(
            o.reaches_batch_into(&pairs, &mut a, 3),
            o2.reaches_batch_into(&pairs, &mut b, 3)
        );
        assert_eq!(a, b);
        // Every array is arena-addressed (nothing was deserialized),
        // and a heap-backed arena accounts them all as heap RSS.
        let m = o2.memory();
        assert_eq!(m.mapped_bytes, 0, "{m:?}");
        assert!(m.heap_bytes > 0, "{m:?}");
        // An opened oracle re-saves to the identical bytes.
        let mut resaved = Vec::new();
        o2.save_arena(&mut resaved).unwrap();
        assert_eq!(resaved, buf, "arena re-serialization is byte-identical");
    }

    #[test]
    fn arena_corruption_is_rejected() {
        let g = gen::random_digraph(30, 90, 93);
        let o = Oracle::new(&g);
        let mut buf = Vec::new();
        o.save_arena(&mut buf).unwrap();

        // Truncation anywhere (header, table, sections).
        for keep in [0, 8, 63, 64, 200, buf.len() / 2, buf.len() - 1] {
            assert!(
                Oracle::open_arena_bytes(&buf[..keep]).is_err(),
                "keep={keep}"
            );
        }
        // Flipping any single byte must be caught by one of the
        // checksums (header, table, or section).
        for at in [0, 5, 9, 20, 70, 100, 600, buf.len() - 70] {
            let mut bad = buf.clone();
            bad[at] ^= 0x10;
            assert!(Oracle::open_arena_bytes(&bad).is_err(), "byte {at}");
        }
        // Misaligned section offset (entry 0's offset at header + 8).
        let mut bad = buf.clone();
        bad[64 + 8] = bad[64 + 8].wrapping_add(1);
        let err = Oracle::open_arena_bytes(&bad).unwrap_err();
        // Either the table checksum or the alignment check trips —
        // both are format errors.
        assert!(matches!(err, PersistError::Format(_)), "{err}");
        // Trailing garbage changes the file length the header pinned.
        let mut bad = buf.clone();
        bad.extend_from_slice(&[0u8; 64]);
        let err = Oracle::open_arena_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("length"), "{err}");
    }

    /// `bytes` (a v5 arena) relabeled as an older version: the version
    /// word, a signature shift (v3) or zeros (v4) in header bytes
    /// 32..40, both covering checksums resealed.
    fn relabeled_as(bytes: &[u8], version: u32) -> Vec<u8> {
        let mut old = bytes.to_vec();
        old[4..8].copy_from_slice(&version.to_le_bytes());
        let shift = if version == 3 { 7u64 } else { 0 };
        old[32..40].copy_from_slice(&shift.to_le_bytes());
        let count = u32::from_le_bytes(old[12..16].try_into().unwrap()) as usize;
        let table_sum = checksum(&old[64..64 + count * 32]);
        old[48..56].copy_from_slice(&table_sum.to_le_bytes());
        let header_sum = checksum(&old[..56]);
        old[56..64].copy_from_slice(&header_sum.to_le_bytes());
        old
    }

    /// The legacy graph reader returns exactly the components and
    /// condensation a v3 or v4 arena holds, ignores its label
    /// sections, and fails closed (an error, never a panic) on
    /// truncation, bit flips and other versions.
    #[test]
    fn legacy_graph_reader_reads_the_graph_and_fails_closed() {
        let g = gen::random_digraph(90, 200, 95);
        let o = Oracle::new(&g);
        let mut v5 = Vec::new();
        o.save_arena(&mut v5).unwrap();
        assert!(
            read_legacy_graph(&v5).unwrap().is_none(),
            "v5 is not legacy"
        );
        for version in LEGACY_ARENA_VERSIONS {
            let old = relabeled_as(&v5, version);
            let what = format!("v{version}");
            assert_eq!(legacy_arena_version(&old), Some(version));
            let (comp_of, condensation) = read_legacy_graph(&old).unwrap().expect(&what);
            assert_eq!(comp_of, o.comp_of(), "{what}");
            let edges = |g: &DiGraph| {
                let mut e: Vec<(u32, u32)> = g.edges().collect();
                e.sort_unstable();
                (g.num_vertices(), e)
            };
            assert_eq!(edges(&condensation), edges(o.dag().graph()), "{what}");
            for keep in [8, 63, 64, 200, old.len() / 2, old.len() - 1] {
                assert!(
                    read_legacy_graph(&old[..keep]).is_err(),
                    "{what}, keep={keep}"
                );
            }
            // The header, the table, and the first byte of every
            // non-empty section (offset at entry + 8, length at
            // entry + 16).
            let count = u32::from_le_bytes(old[12..16].try_into().unwrap()) as usize;
            let mut flips = vec![9, 20, 70, 100];
            for entry in old[64..64 + count * 32].chunks_exact(32) {
                let offset = u64::from_le_bytes(entry[8..16].try_into().unwrap()) as usize;
                if u64::from_le_bytes(entry[16..24].try_into().unwrap()) > 0 {
                    flips.push(offset);
                }
            }
            for at in flips {
                let mut bad = old.clone();
                bad[at] ^= 0x10;
                assert!(read_legacy_graph(&bad).is_err(), "{what}, byte {at}");
            }
            // Serving reads only v5.
            let refused = Oracle::open_arena_bytes(&old).unwrap_err().to_string();
            assert!(refused.contains(&format!("version {version}")), "{refused}");
        }
        assert!(read_legacy_graph(b"HOPL\x01\x00\x00\x00")
            .unwrap()
            .is_none());
        assert!(read_legacy_graph(b"NOPE\x03\x00\x00\x00").is_err());
    }

    /// v5 round-trips at every mask width, in memory and mapped: the
    /// header records the words per side, the `MASKS` section holds
    /// one record of `2·W` words per component, and the reopened
    /// oracle answers like BFS and re-saves to the same bytes. A
    /// header that names another width is refused.
    #[test]
    fn arena_roundtrips_at_every_mask_width() {
        let g = gen::random_digraph(700, 1_000, 97);
        let path = std::env::temp_dir().join(format!(
            "hoplite-arena-width-{}-{:p}.hopl",
            std::process::id(),
            &g
        ));
        for k in [64, 128, 256] {
            crate::distribution::FORCED_MASK_HOPS.set(Some(k));
            let o = Oracle::new(&g);
            crate::distribution::FORCED_MASK_HOPS.set(None);
            let c = o.num_components();
            assert!(c >= 256, "{c} components");
            assert_eq!(o.inner().labeling().mask_hops(), k);
            let mut buf = Vec::new();
            o.save_arena(&mut buf).unwrap();
            assert_eq!(
                u32::from_le_bytes(buf[32..36].try_into().unwrap()),
                k as u32 / 64
            );
            let (sections, _, _) = parse_arena_table(&buf, ARENA_VERSION).unwrap();
            assert_eq!(find_section(&sections, SEC_MASKS).unwrap().len, c * k / 4);
            std::fs::write(&path, &buf).unwrap();
            for (o2, what) in [
                (Oracle::open_arena_bytes(&buf).unwrap(), "in memory"),
                (Oracle::open(&path).unwrap(), "mapped"),
            ] {
                let what = format!("K = {k}, {what}");
                let l = o2.inner().labeling();
                assert_eq!(l.mask_hops(), k, "{what}");
                assert_eq!(o2.label_entries(), o.label_entries(), "{what}");
                for x in 0..c as u32 {
                    assert_eq!(l.out_mask(x), o.inner().labeling().out_mask(x), "{what}");
                    assert_eq!(l.in_mask(x), o.inner().labeling().in_mask(x), "{what}");
                }
                traversal::assert_matches_bfs(&g, &what, |u, v| o2.reaches(u, v));
                let mut resaved = Vec::new();
                o2.save_arena(&mut resaved).unwrap();
                assert!(resaved == buf, "{what}: re-save is byte-identical");
            }
            for words in [0u32, 3, 8] {
                let mut bad = buf.clone();
                bad[32..36].copy_from_slice(&words.to_le_bytes());
                let header_sum = checksum(&bad[..56]);
                bad[56..64].copy_from_slice(&header_sum.to_le_bytes());
                let err = Oracle::open_arena_bytes(&bad).unwrap_err().to_string();
                assert!(err.contains("mask words") || err.contains("MASKS"), "{err}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arena_open_from_disk_mapped_and_owned() {
        let g = gen::random_digraph(40, 130, 94);
        let o = Oracle::new(&g);
        let path = std::env::temp_dir().join(format!(
            "hoplite-arena-test-{}-{:p}.hopl",
            std::process::id(),
            &o
        ));
        let mut bytes = Vec::new();
        o.save_arena(&mut bytes).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        let mapped = Oracle::open(&path).unwrap();
        #[cfg(unix)]
        {
            assert_eq!(mapped.backend(), crate::store::StoreBackend::Mapped);
            let m = mapped.memory();
            assert!(m.mapped_bytes > m.heap_bytes, "{m:?}");
        }
        let owned = Oracle::open_with(
            &path,
            &OpenOptions {
                mmap: false,
                prefault: true,
                verify: true,
            },
        )
        .unwrap();
        assert_eq!(owned.backend(), crate::store::StoreBackend::Heap);
        traversal::assert_matches_bfs(&g, "mapped", |u, v| mapped.reaches(u, v));
        traversal::assert_matches_bfs(&g, "owned", |u, v| owned.reaches(u, v));
        // A v1 header through the same `open` entry point is refused
        // by version, with both backends.
        let mut v1 = b"HOPL\x01\x00\x00\x00\x04".to_vec();
        v1.extend_from_slice(&40u64.to_le_bytes());
        std::fs::write(&path, &v1).unwrap();
        for mmap in [true, false] {
            let opts = OpenOptions {
                mmap,
                ..OpenOptions::default()
            };
            match Oracle::open_with(&path, &opts).err() {
                Some(PersistError::Format(m)) => {
                    assert!(m.contains("version 1") && m.contains("--frozen"), "{m}")
                }
                other => panic!("v1 file must be a format error, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// The filter record's last word is reserved: arenas that still
    /// carry the old degree flags there (sink = 1, source = 2) open and
    /// answer exactly like ones that hold 0.
    #[test]
    fn filter_records_ignore_the_reserved_word() {
        let g = gen::random_digraph(60, 90, 95);
        let o = Oracle::new(&g);
        let mut buf = Vec::new();
        o.save_arena(&mut buf).unwrap();
        let (sections, _, _) = parse_arena_table(&buf, ARENA_VERSION).unwrap();
        let i = sections.iter().position(|s| &s.tag == SEC_FILTREC).unwrap();
        let s = &sections[i];
        for rec in buf[s.offset..s.offset + s.len].chunks_exact_mut(FILTER_RECORD_BYTES) {
            let reserved = &mut rec[FILTER_RECORD_BYTES - 4..];
            assert_eq!(reserved, [0; 4], "the reserved word is written as 0");
            reserved.copy_from_slice(&3u32.to_le_bytes());
        }
        // Re-seal the section, the table and the header checksums.
        let sum = checksum(&buf[s.offset..s.offset + s.len]);
        let entry = ARENA_HEADER_LEN + i * SECTION_ENTRY_LEN;
        buf[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
        let table_end = ARENA_HEADER_LEN + sections.len() * SECTION_ENTRY_LEN;
        let table_sum = checksum(&buf[ARENA_HEADER_LEN..table_end]);
        buf[48..56].copy_from_slice(&table_sum.to_le_bytes());
        let header_sum = checksum(&buf[..56]);
        buf[56..64].copy_from_slice(&header_sum.to_le_bytes());
        let o2 = Oracle::open_arena_bytes(&buf).unwrap();
        traversal::assert_matches_bfs(&g, "flagged arena", |u, v| o2.reaches(u, v));
    }

    #[test]
    fn empty_oracle_arena_roundtrips() {
        let g = hoplite_graph::DiGraph::empty(0);
        let o = Oracle::new(&g);
        let mut buf = Vec::new();
        o.save_arena(&mut buf).unwrap();
        let o2 = Oracle::open_arena_bytes(&buf).unwrap();
        assert_eq!(o2.num_vertices(), 0);
        assert_eq!(o2.num_components(), 0);
    }
}
