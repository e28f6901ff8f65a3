//! Pluggable label storage: owned heap arrays or one shared mapped
//! arena.
//!
//! Every hot array in the index stack — label CSRs, top-hop
//! reach masks, filter records, the component mapping — is held in a
//! [`Store<T>`]. A store is *born* one of two ways:
//!
//! * **Owned** — a `Vec<T>`, produced by construction. Nothing about
//!   the build pipeline changes.
//! * **Mapped** — a typed window into one page-aligned, reference-
//!   counted [`ArenaBuf`] (an `mmap` of a HOPL v4 file on unix, a
//!   page-aligned heap read elsewhere). Opening an index then costs
//!   O(header): the arrays are *addressed*, never copied, and any
//!   number of [`Store`]s — across namespaces, replicas, and reloads —
//!   share the single buffer through its `Arc`.
//!
//! The query path cannot tell the difference: a [`Store`] caches its
//! `(ptr, len)` pair inline and derefs to `&[T]` without branching on
//! the backing, so indexing compiles to exactly the loads a `Vec`
//! costs. That is the "zero query-path regression" contract the rest
//! of `hoplite-core` relies on.
//!
//! ## Safety model
//!
//! [`Pod`] marks the element types a mapped store may carry: `Copy`
//! types with no padding, no invalid bit patterns, and no pointers
//! (`u32`, `u64`, and the 32-byte `FilterRecord`). Reinterpreting
//! checksummed file bytes as `&[T]` is then defined behavior for any
//! byte content; *semantic* validation (monotone offsets, in-range
//! ids) is the arena reader's job (see [`crate::persist`]).

use std::fmt;
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// Alignment of every [`ArenaBuf`] and every section inside a HOPL v4
/// arena: one cache line on the serving hosts we target, and a common
/// divisor of every element alignment a store carries. (`mmap` returns
/// page-aligned memory, which is stricter still.)
pub const ARENA_ALIGN: usize = 64;

/// Which backing a store (or a whole index) lives in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StoreBackend {
    /// Process-private heap allocations (`Vec<T>`).
    Heap,
    /// A shared [`ArenaBuf`] window (mmap or page-aligned read).
    Mapped,
}

impl fmt::Display for StoreBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreBackend::Heap => write!(f, "heap"),
            StoreBackend::Mapped => write!(f, "mapped"),
        }
    }
}

/// Marker for element types a mapped store may carry.
///
/// # Safety
/// Implementors must be `Copy`, have no padding bytes, no invalid bit
/// patterns, and no pointers or lifetimes — every byte string of
/// `size_of::<T>()` bytes at `align_of::<T>()` alignment must be a
/// valid `T`.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}

// ---------------------------------------------------------------------
// ArenaBuf: one page-aligned immutable byte buffer
// ---------------------------------------------------------------------

/// The raw bytes behind a mapped index: an immutable, [`ARENA_ALIGN`]ed
/// (in practice page-aligned) buffer, shared via `Arc`.
///
/// On unix the file-backed constructor uses `mmap(2)` through a small
/// std-only `extern "C"` shim, so opening a multi-GB index costs no
/// read I/O up front and replicas of the same file share page-cache
/// memory. Elsewhere (or when the map is declined) the file is read
/// into one aligned heap allocation instead — same layout, same code
/// paths, just private memory.
pub struct ArenaBuf {
    ptr: *const u8,
    len: usize,
    kind: BufKind,
}

enum BufKind {
    /// Allocated with [`ARENA_ALIGN`] via `std::alloc`; freed on drop.
    Heap,
    /// `mmap`ed; `munmap`ed on drop. Unix only.
    #[cfg_attr(not(unix), allow(dead_code))]
    Mmap,
    /// Zero-length buffer: nothing to free.
    Empty,
}

// SAFETY: the buffer is immutable for its whole lifetime (PROT_READ /
// never handed out mutably), so shared references are fine across
// threads.
unsafe impl Send for ArenaBuf {}
unsafe impl Sync for ArenaBuf {}

impl ArenaBuf {
    fn layout(len: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(len, ARENA_ALIGN).expect("arena layout")
    }

    /// Copies `bytes` into a fresh aligned heap buffer (tests, and
    /// network-shipped indexes that never touch a file).
    pub fn from_bytes(bytes: &[u8]) -> ArenaBuf {
        if bytes.is_empty() {
            return ArenaBuf {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
                kind: BufKind::Empty,
            };
        }
        // SAFETY: len > 0; the allocation is fully initialized below.
        let ptr = unsafe { std::alloc::alloc(Self::layout(bytes.len())) };
        assert!(!ptr.is_null(), "arena allocation failed");
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), ptr, bytes.len()) };
        ArenaBuf {
            ptr,
            len: bytes.len(),
            kind: BufKind::Heap,
        }
    }

    /// Reads `path` into an aligned heap buffer — the portable
    /// fallback backend.
    pub fn read_file(path: &Path) -> std::io::Result<ArenaBuf> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(std::io::Error::other("file exceeds the address space"));
        }
        Self::from_reader(len as usize, &mut file)
    }

    /// Fills an aligned buffer of exactly `total_len` bytes from `r`.
    /// Errors (without leaking) if `r` ends early or an allocation
    /// fails.
    ///
    /// The claimed length is *not* trusted up front: the buffer grows
    /// geometrically (starting at 4 MiB) and only ever exceeds the
    /// bytes actually received by a constant factor, so a source that
    /// ends far short of its claimed length fails at the EOF it
    /// implies instead of forcing a huge allocation.
    pub fn from_reader(total_len: usize, r: &mut impl Read) -> std::io::Result<ArenaBuf> {
        const INITIAL_CAP: usize = 4 << 20;
        if total_len == 0 {
            return Ok(ArenaBuf::from_bytes(&[]));
        }
        let alloc_aligned = |cap: usize| -> std::io::Result<*mut u8> {
            // SAFETY: cap > 0; callers fill before exposing the bytes.
            let ptr = unsafe { std::alloc::alloc(Self::layout(cap)) };
            if ptr.is_null() {
                return Err(std::io::Error::other(format!(
                    "arena allocation of {cap} bytes failed"
                )));
            }
            Ok(ptr)
        };
        let mut cap = total_len.min(INITIAL_CAP);
        let mut ptr = alloc_aligned(cap)?;
        // Wrap immediately so every early return frees the buffer;
        // `len` tracks the capacity until the final resize.
        let mut buf = ArenaBuf {
            ptr,
            len: cap,
            kind: BufKind::Heap,
        };
        let mut filled = 0;
        while filled < total_len {
            if filled == cap {
                let new_cap = (cap * 2).min(total_len);
                let new_ptr = alloc_aligned(new_cap)?;
                // SAFETY: disjoint allocations; `filled` bytes are
                // initialized in the old buffer.
                unsafe { std::ptr::copy_nonoverlapping(ptr, new_ptr, filled) };
                let old = std::mem::replace(
                    &mut buf,
                    ArenaBuf {
                        ptr: new_ptr,
                        len: new_cap,
                        kind: BufKind::Heap,
                    },
                );
                drop(old);
                ptr = new_ptr;
                cap = new_cap;
            }
            // SAFETY: filled < cap; the tail is about to be written.
            let dst = unsafe { std::slice::from_raw_parts_mut(ptr.add(filled), cap - filled) };
            match r.read(dst)? {
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!("stream ended after {filled} of {total_len} claimed bytes"),
                    ))
                }
                k => filled += k,
            }
        }
        debug_assert_eq!(cap, total_len);
        Ok(buf)
    }

    /// Maps `path` read-only. Unix: `mmap(2)`; elsewhere this falls
    /// back to [`ArenaBuf::read_file`] (the caller still gets one
    /// aligned shared buffer, just not a demand-paged one). The
    /// returned buffer reports [`StoreBackend::Mapped`] only when a
    /// real map was established.
    pub fn map_file(path: &Path) -> std::io::Result<ArenaBuf> {
        Self::map_file_impl(path, false)
    }

    /// [`ArenaBuf::map_file`], but asks the kernel to wire the whole
    /// file into the page table up front (Linux `MAP_POPULATE`; a
    /// plain map elsewhere). The right call when the open is about to
    /// touch every page anyway — checksum verification, `--prefault` —
    /// since batched population is much cheaper than faulting page by
    /// page.
    pub fn map_file_populated(path: &Path) -> std::io::Result<ArenaBuf> {
        Self::map_file_impl(path, true)
    }

    #[cfg_attr(not(unix), allow(unused_variables))]
    fn map_file_impl(path: &Path, populate: bool) -> std::io::Result<ArenaBuf> {
        #[cfg(unix)]
        {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            if len == 0 {
                return Ok(ArenaBuf::from_bytes(&[]));
            }
            if len > usize::MAX as u64 {
                return Err(std::io::Error::other("file exceeds the address space"));
            }
            let ptr = unsafe { sys::mmap_readonly(&file, len as usize, populate) }?;
            Ok(ArenaBuf {
                ptr,
                len: len as usize,
                kind: BufKind::Mmap,
            })
        }
        #[cfg(not(unix))]
        {
            Self::read_file(path)
        }
    }

    /// The whole buffer.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe one live, immutable allocation.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Buffer length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the buffer empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// [`StoreBackend::Mapped`] iff a real `mmap` backs the bytes.
    pub fn backend(&self) -> StoreBackend {
        match self.kind {
            BufKind::Mmap => StoreBackend::Mapped,
            BufKind::Heap | BufKind::Empty => StoreBackend::Heap,
        }
    }

    /// Touches one byte per page so a freshly mapped index is resident
    /// before the first query lands (the `--prefault` serving flag).
    /// Returns the number of pages walked.
    pub fn prefault(&self) -> usize {
        const PAGE: usize = 4096;
        let mut pages = 0usize;
        let mut off = 0usize;
        while off < self.len {
            // Volatile so the walk is not optimized away.
            // SAFETY: off < len, inside the live buffer.
            unsafe { std::ptr::read_volatile(self.ptr.add(off)) };
            pages += 1;
            off += PAGE;
        }
        pages
    }
}

impl fmt::Debug for ArenaBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArenaBuf")
            .field("len", &self.len)
            .field("backend", &self.backend())
            .finish()
    }
}

impl Drop for ArenaBuf {
    fn drop(&mut self) {
        match self.kind {
            BufKind::Empty => {}
            BufKind::Heap => {
                // SAFETY: allocated with the same layout in this module.
                unsafe { std::alloc::dealloc(self.ptr as *mut u8, Self::layout(self.len)) };
            }
            BufKind::Mmap => {
                #[cfg(unix)]
                // SAFETY: exactly the region mmap returned.
                unsafe {
                    sys::munmap_region(self.ptr, self.len)
                };
            }
        }
    }
}

/// The std-only `mmap(2)` shim. Declaring the two libc entry points
/// directly keeps the workspace dependency-free; the constants are the
/// POSIX values shared by Linux and the BSDs/macOS.
#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 0x1;
    const MAP_PRIVATE: i32 = 0x2;
    /// Linux-only batched page-table population; other unixes get a
    /// plain lazy map (the flag would be rejected there).
    #[cfg(target_os = "linux")]
    const MAP_POPULATE: i32 = 0x8000;
    #[cfg(not(target_os = "linux"))]
    const MAP_POPULATE: i32 = 0;

    extern "C" {
        fn mmap(
            addr: *mut std::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut std::ffi::c_void;
        fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
    }

    /// Maps `len` bytes of `file` read-only from offset 0.
    ///
    /// # Safety
    /// `len` must not exceed the file length (reads past EOF fault).
    pub(super) unsafe fn mmap_readonly(
        file: &File,
        len: usize,
        populate: bool,
    ) -> std::io::Result<*const u8> {
        let ptr = mmap(
            std::ptr::null_mut(),
            len,
            PROT_READ,
            MAP_PRIVATE | if populate { MAP_POPULATE } else { 0 },
            file.as_raw_fd(),
            0,
        );
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(ptr as *const u8)
    }

    /// Unmaps a region previously returned by [`mmap_readonly`].
    ///
    /// # Safety
    /// `(ptr, len)` must be exactly one live mapping.
    pub(super) unsafe fn munmap_region(ptr: *const u8, len: usize) {
        let rc = munmap(ptr as *mut std::ffi::c_void, len);
        debug_assert_eq!(rc, 0, "munmap failed");
    }
}

// ---------------------------------------------------------------------
// Store<T>
// ---------------------------------------------------------------------

enum Backing<T: Pod> {
    Owned(Vec<T>),
    Mapped(Arc<ArenaBuf>),
}

/// One immutable typed array, owned (`Vec<T>`) or mapped (a window
/// into a shared [`ArenaBuf`]).
///
/// Derefs to `&[T]` through an inline `(ptr, len)` pair — no branch on
/// the backing, so the query path pays exactly what a `Vec` costs.
/// Cloning an owned store clones the vector; cloning a mapped store
/// bumps the arena's `Arc` (this is what makes snapshot fan-out free).
pub struct Store<T: Pod> {
    ptr: *const T,
    len: usize,
    backing: Backing<T>,
}

// SAFETY: the pointed-to memory is immutable (owned Vecs are never
// touched again; arenas are read-only) and `T: Pod` is Send + Sync.
unsafe impl<T: Pod> Send for Store<T> {}
unsafe impl<T: Pod> Sync for Store<T> {}

impl<T: Pod> Store<T> {
    /// Wraps a vector; the backing stays on the heap.
    pub fn from_vec(v: Vec<T>) -> Store<T> {
        let (ptr, len) = (v.as_ptr(), v.len());
        Store {
            ptr,
            len,
            backing: Backing::Owned(v),
        }
    }

    /// A typed window of `len` elements at `byte_offset` into `buf`.
    ///
    /// Fails (with a static description) if the window is out of
    /// bounds, misaligned for `T`, or its byte length would overflow —
    /// the arena reader turns these into format errors.
    pub fn mapped(
        buf: &Arc<ArenaBuf>,
        byte_offset: usize,
        len: usize,
    ) -> Result<Store<T>, &'static str> {
        let size = std::mem::size_of::<T>();
        let byte_len = len.checked_mul(size).ok_or("section length overflows")?;
        let end = byte_offset
            .checked_add(byte_len)
            .ok_or("section end overflows")?;
        if end > buf.len() {
            return Err("section exceeds the buffer");
        }
        // The buffer base is ARENA_ALIGN-aligned, so offset alignment
        // relative to the base equals absolute alignment.
        if byte_offset % std::mem::align_of::<T>() != 0 {
            return Err("section offset misaligned for its element type");
        }
        let ptr = if len == 0 {
            std::ptr::NonNull::<T>::dangling().as_ptr() as *const T
        } else {
            // SAFETY: in bounds of the live buffer (checked above).
            unsafe { buf.bytes().as_ptr().add(byte_offset) as *const T }
        };
        Ok(Store {
            ptr,
            len,
            backing: Backing::Mapped(Arc::clone(buf)),
        })
    }

    /// Which backing holds the elements. An arena window delegates to
    /// its buffer: a real `mmap` reports [`StoreBackend::Mapped`],
    /// while the heap-read fallback honestly reports
    /// [`StoreBackend::Heap`] — operators size RSS from this split,
    /// so "mapped" must mean page cache, not private memory.
    pub fn backend(&self) -> StoreBackend {
        match &self.backing {
            Backing::Owned(_) => StoreBackend::Heap,
            Backing::Mapped(buf) => buf.backend(),
        }
    }

    /// Bytes of process-private heap behind this store (owned vectors,
    /// or its window of a heap-read arena buffer).
    pub fn heap_bytes(&self) -> u64 {
        match self.backend() {
            StoreBackend::Heap => match &self.backing {
                Backing::Owned(v) => (v.capacity() * std::mem::size_of::<T>()) as u64,
                Backing::Mapped(_) => (self.len * std::mem::size_of::<T>()) as u64,
            },
            StoreBackend::Mapped => 0,
        }
    }

    /// Bytes addressed inside a real file mapping (0 for owned stores
    /// and for windows of heap-read arena buffers).
    pub fn mapped_bytes(&self) -> u64 {
        match self.backend() {
            StoreBackend::Mapped => (self.len * std::mem::size_of::<T>()) as u64,
            StoreBackend::Heap => 0,
        }
    }
}

impl<T: Pod> std::ops::Deref for Store<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: ptr/len describe immutable, live, aligned memory for
        // both backings; `T: Pod` makes any byte content a valid `T`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Pod> Clone for Store<T> {
    fn clone(&self) -> Store<T> {
        match &self.backing {
            Backing::Owned(v) => Store::from_vec(v.clone()),
            Backing::Mapped(buf) => {
                // Same window, one more Arc holder.
                Store {
                    ptr: self.ptr,
                    len: self.len,
                    backing: Backing::Mapped(Arc::clone(buf)),
                }
            }
        }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for Store<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("backend", &self.backend())
            .field("len", &self.len)
            .finish()
    }
}

impl<T: Pod> From<Vec<T>> for Store<T> {
    fn from(v: Vec<T>) -> Store<T> {
        Store::from_vec(v)
    }
}

/// Heap-vs-mapped byte split of an index component — the unit the
/// memory-accounting satellite APIs ([`crate::Oracle::memory`],
/// [`crate::LabelStats`], the server `STATS` reply) report in.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemorySplit {
    /// Process-private heap bytes.
    pub heap_bytes: u64,
    /// Bytes addressed inside shared mapped arenas.
    pub mapped_bytes: u64,
}

impl MemorySplit {
    /// Total footprint, both backings.
    pub fn total(&self) -> u64 {
        self.heap_bytes + self.mapped_bytes
    }

    /// Folds another component in.
    pub fn add(&mut self, other: MemorySplit) {
        self.heap_bytes += other.heap_bytes;
        self.mapped_bytes += other.mapped_bytes;
    }

    /// The split of one store.
    pub fn of<T: Pod>(store: &Store<T>) -> MemorySplit {
        MemorySplit {
            heap_bytes: store.heap_bytes(),
            mapped_bytes: store.mapped_bytes(),
        }
    }

    /// [`StoreBackend::Mapped`] iff any component is mapped.
    pub fn backend(&self) -> StoreBackend {
        if self.mapped_bytes > 0 {
            StoreBackend::Mapped
        } else {
            StoreBackend::Heap
        }
    }
}

const CHECKSUM_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn checksum_mix(acc: u64, word: u64) -> u64 {
    (acc.rotate_left(5) ^ word).wrapping_mul(CHECKSUM_SEED)
}

/// Incremental form of [`checksum`]: feed bytes in arbitrary splits
/// via [`ChecksumStream::update`]; `finish` yields exactly the value
/// `checksum` computes over the concatenation. Lets the arena writer
/// checksum sections it streams to disk without materializing them.
pub struct ChecksumStream {
    lanes: [u64; 4],
    /// Carry for a partial 32-byte block between updates.
    pending: [u8; 32],
    pending_len: usize,
    total: u64,
}

impl ChecksumStream {
    /// Fresh state.
    #[allow(clippy::new_without_default)]
    pub fn new() -> ChecksumStream {
        ChecksumStream {
            // Distinct lane seeds so a 32-byte block permutation
            // cannot cancel.
            lanes: [
                0x243F_6A88_85A3_08D3u64,
                0x1319_8A2E_0370_7344,
                0xA409_3822_299F_31D0,
                0x082E_FA98_EC4E_6C89,
            ],
            pending: [0u8; 32],
            pending_len: 0,
            total: 0,
        }
    }

    #[inline]
    fn absorb(lanes: &mut [u64; 4], block: &[u8]) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            *lane = checksum_mix(*lane, word);
        }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (32 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            let block = self.pending;
            Self::absorb(&mut self.lanes, &block);
            self.pending_len = 0;
        }
        let mut chunks = bytes.chunks_exact(32);
        for block in &mut chunks {
            Self::absorb(&mut self.lanes, block);
        }
        let rem = chunks.remainder();
        self.pending[..rem.len()].copy_from_slice(rem);
        self.pending_len = rem.len();
    }

    /// The checksum over everything fed so far.
    pub fn finish(mut self) -> u64 {
        // Tail: zero-pad the final partial block into lane rotation.
        for (i, c) in self.pending[..self.pending_len].chunks(8).enumerate() {
            let mut buf = [0u8; 8];
            buf[..c.len()].copy_from_slice(c);
            self.lanes[i] = checksum_mix(self.lanes[i], u64::from_le_bytes(buf));
        }
        // Fold the lanes and the length, so "same bytes, different
        // split" and zero-extension corruptions cannot collide
        // trivially.
        let mut h = self.lanes[0];
        for &lane in &self.lanes[1..] {
            h = checksum_mix(h, lane);
        }
        checksum_mix(h, self.total)
    }
}

/// The arena checksum: a 4-lane Fx-style multiply-rotate hash. Not
/// cryptographic — it authenticates *accidental* corruption
/// (truncation, bit rot, torn writes), which is the failure mode a
/// serving replica meets. The four independent accumulators break the
/// multiply dependency chain, so verification runs at memory
/// bandwidth and stays off the cold-start critical path even on
/// multi-GB arenas.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut s = ChecksumStream::new();
    s.update(bytes);
    s.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_store_derefs_like_a_vec() {
        let s = Store::from_vec(vec![3u32, 1, 4, 1, 5]);
        assert_eq!(&s[..], &[3, 1, 4, 1, 5]);
        assert_eq!(s.backend(), StoreBackend::Heap);
        assert!(s.heap_bytes() >= 20);
        assert_eq!(s.mapped_bytes(), 0);
        let c = s.clone();
        assert_eq!(&c[..], &s[..]);
    }

    #[test]
    fn mapped_store_reads_arena_bytes() {
        let mut bytes = vec![0u8; 64 + 16];
        bytes[64..68].copy_from_slice(&7u32.to_le_bytes());
        bytes[68..72].copy_from_slice(&9u32.to_le_bytes());
        let buf = Arc::new(ArenaBuf::from_bytes(&bytes));
        assert_eq!(buf.backend(), StoreBackend::Heap);
        let s: Store<u32> = Store::mapped(&buf, 64, 2).unwrap();
        assert_eq!(&s[..], &[7, 9]);
        // A window of a heap-read buffer reports heap: the split is an
        // RSS report, and these bytes are private memory.
        assert_eq!(s.backend(), StoreBackend::Heap);
        assert_eq!(s.mapped_bytes(), 0);
        assert_eq!(s.heap_bytes(), 8);
        // Clones share the same arena.
        let c = s.clone();
        drop(s);
        assert_eq!(&c[..], &[7, 9]);
    }

    #[test]
    fn mapped_store_rejects_bad_windows() {
        let buf = Arc::new(ArenaBuf::from_bytes(&[0u8; 64]));
        assert!(Store::<u32>::mapped(&buf, 0, 17).is_err(), "out of bounds");
        assert!(Store::<u64>::mapped(&buf, 4, 2).is_err(), "misaligned");
        assert!(
            Store::<u64>::mapped(&buf, 0, usize::MAX / 4).is_err(),
            "overflow"
        );
        assert!(Store::<u32>::mapped(&buf, 64, 0).is_ok(), "empty at end");
    }

    #[test]
    fn arena_alignment_covers_every_pod_type() {
        let buf = ArenaBuf::from_bytes(&[1u8; 640]);
        assert_eq!(buf.bytes().as_ptr() as usize % ARENA_ALIGN, 0);
        assert_eq!(buf.prefault(), 1, "one page touched");
    }

    #[test]
    fn empty_arena_is_safe() {
        let buf = ArenaBuf::from_bytes(&[]);
        assert!(buf.is_empty());
        assert_eq!(buf.prefault(), 0);
        let s: Store<u64> = Store::mapped(&Arc::new(buf), 0, 0).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn map_file_roundtrips_real_bytes() {
        let path = std::env::temp_dir().join(format!("hoplite-store-test-{}", std::process::id()));
        std::fs::write(&path, [0xABu8; 8192]).unwrap();
        let mapped = ArenaBuf::map_file(&path).unwrap();
        let read = ArenaBuf::read_file(&path).unwrap();
        assert_eq!(mapped.bytes(), read.bytes());
        assert_eq!(mapped.len(), 8192);
        #[cfg(unix)]
        assert_eq!(mapped.backend(), StoreBackend::Mapped);
        assert_eq!(read.backend(), StoreBackend::Heap);
        assert_eq!(mapped.prefault(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_stream_matches_one_shot_across_splits() {
        let data: Vec<u8> = (0..977u32).map(|i| (i * 37 % 251) as u8).collect();
        let want = checksum(&data);
        for splits in [
            vec![977usize],
            vec![1; 977],
            vec![32, 64, 881],
            vec![7, 13, 100, 857],
            vec![31, 1, 945],
        ] {
            let mut s = ChecksumStream::new();
            let mut at = 0;
            for len in splits {
                s.update(&data[at..at + len]);
                at += len;
            }
            assert_eq!(at, data.len());
            assert_eq!(s.finish(), want);
        }
    }

    #[test]
    fn from_reader_fills_exactly_or_errors() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        let buf = ArenaBuf::from_reader(data.len(), &mut std::io::Cursor::new(&data)).unwrap();
        assert_eq!(buf.bytes(), &data[..]);
        // Short reader errors instead of returning a half-filled buffer.
        assert!(ArenaBuf::from_reader(10, &mut std::io::Cursor::new(&[0u8; 4])).is_err());
    }

    #[test]
    fn checksum_sees_every_byte_and_the_length() {
        let a = checksum(b"hoplite arena");
        let mut corrupted = b"hoplite arena".to_vec();
        corrupted[5] ^= 1;
        assert_ne!(a, checksum(&corrupted));
        assert_ne!(checksum(b""), checksum(&[0u8]));
        assert_ne!(checksum(&[0u8]), checksum(&[0u8, 0]));
        assert_eq!(a, checksum(b"hoplite arena"), "deterministic");
    }

    #[test]
    fn memory_split_folds() {
        let mut m = MemorySplit::default();
        assert_eq!(m.backend(), StoreBackend::Heap);
        m.add(MemorySplit {
            heap_bytes: 10,
            mapped_bytes: 0,
        });
        m.add(MemorySplit {
            heap_bytes: 0,
            mapped_bytes: 32,
        });
        assert_eq!(m.total(), 42);
        assert_eq!(m.backend(), StoreBackend::Mapped);
    }
}
