//! PWAH-8 compressed bit-vector transitive closure (van Schaik &
//! de Moor, SIGMOD 2011) — the paper's PW8 baseline and one of only
//! three methods that handled *all* of its large graphs.
//!
//! Each vertex's closure row is a bitmap over vertices **indexed by
//! topological position** (descendants cluster towards higher
//! positions, which is what makes the runs long), compressed with the
//! Partitioned Word-Aligned Hybrid scheme:
//!
//! * the bitmap is a sequence of 7-bit *blocks*;
//! * a 64-bit word holds 8 *partitions* of 7 bits plus an 8-bit header
//!   (bit `56+p` set ⇒ partition `p` is a fill);
//! * a **literal** partition stores one raw block; a **fill** partition
//!   stores bit 6 = fill value and bits 0–5 = run length in blocks
//!   (1–63; longer runs span several fill partitions).
//!
//! Construction is one reverse-topological sweep where each row is the
//! OR of its successors' rows — performed **in the compressed domain**
//! (run-aware segment merge), so no uncompressed row is ever
//! materialized. Queries decode a single word after a binary search on
//! a per-row block-offset directory.

use hoplite_core::ReachIndex;
use hoplite_graph::{Dag, GraphError, VertexId};

/// Bits per partition.
const BLOCK_BITS: u32 = 7;
/// Partitions per word.
const PARTS: u32 = 8;
/// All-ones block pattern.
const ONES: u8 = 0x7F;
/// Maximum run length a single fill partition encodes.
const MAX_FILL: u32 = 63;

// --------------------------------------------------------------------
// Compressed vector
// --------------------------------------------------------------------

/// One PWAH-8 compressed bitmap. Bits beyond the encoded blocks are 0.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PwahVec {
    words: Vec<u64>,
    /// `blocks_before[i]` = number of blocks encoded by words `0..i`;
    /// the query directory.
    blocks_before: Vec<u32>,
    /// Total blocks encoded.
    total_blocks: u32,
}

/// A decoded segment: `count` consecutive blocks, each with bit
/// `pattern`. `count > 1` only for uniform patterns (0x00 / 0x7F).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Seg {
    pattern: u8,
    count: u32,
}

impl PwahVec {
    /// An empty (all-zero) bitmap.
    pub fn empty() -> Self {
        PwahVec::default()
    }

    /// Encodes a bitmap with the given sorted, distinct set positions.
    pub fn from_sorted_positions(positions: &[u32]) -> Self {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        let mut enc = Encoder::new();
        let mut block = 0u32;
        let mut bits = 0u8;
        let mut started = false;
        for &p in positions {
            let b = p / BLOCK_BITS;
            if started && b != block {
                enc.push_seg(Seg {
                    pattern: bits,
                    count: 1,
                });
                if b > block + 1 {
                    enc.push_seg(Seg {
                        pattern: 0,
                        count: b - block - 1,
                    });
                }
                bits = 0;
            } else if !started && b > 0 {
                enc.push_seg(Seg {
                    pattern: 0,
                    count: b,
                });
            }
            started = true;
            block = b;
            bits |= 1 << (p % BLOCK_BITS);
        }
        if started {
            enc.push_seg(Seg {
                pattern: bits,
                count: 1,
            });
        }
        enc.finish()
    }

    /// `true` iff bit `pos` is set.
    pub fn contains(&self, pos: u32) -> bool {
        let target = pos / BLOCK_BITS;
        if target >= self.total_blocks {
            return false;
        }
        // Directory: the word whose block range covers `target`.
        let wi = self.blocks_before.partition_point(|&b| b <= target) - 1;
        let mut at = self.blocks_before[wi];
        let word = self.words[wi];
        for p in 0..PARTS {
            let payload = ((word >> (p * BLOCK_BITS)) & ONES as u64) as u8;
            if word >> (56 + p) & 1 == 1 {
                // fill partition
                let value = payload >> 6 & 1;
                let count = (payload & 0x3F) as u32;
                if target < at + count {
                    return value == 1 && (pos % BLOCK_BITS) < BLOCK_BITS;
                }
                at += count;
            } else {
                if target == at {
                    return payload >> (pos % BLOCK_BITS) & 1 == 1;
                }
                at += 1;
            }
        }
        unreachable!("directory guaranteed the block lies in this word")
    }

    /// Bitwise OR in the compressed domain.
    pub fn or(a: &PwahVec, b: &PwahVec) -> PwahVec {
        let mut enc = Encoder::new();
        let mut ia = SegIter::new(a);
        let mut ib = SegIter::new(b);
        let mut sa = ia.next();
        let mut sb = ib.next();
        loop {
            match (sa, sb) {
                (None, None) => break,
                (Some(x), None) => {
                    enc.push_seg(x);
                    sa = ia.next();
                }
                (None, Some(y)) => {
                    enc.push_seg(y);
                    sb = ib.next();
                }
                (Some(x), Some(y)) => {
                    let n = x.count.min(y.count);
                    enc.push_seg(Seg {
                        pattern: x.pattern | y.pattern,
                        count: n,
                    });
                    sa = consume(x, n).or_else(|| ia.next());
                    sb = consume(y, n).or_else(|| ib.next());
                }
            }
        }
        enc.finish()
    }

    /// Number of set bits (test/statistics helper; decodes the vector).
    pub fn count_ones(&self) -> u64 {
        let mut total = 0u64;
        let mut it = SegIter::new(self);
        while let Some(s) = it.next() {
            total += (s.pattern.count_ones() as u64) * s.count as u64;
        }
        total
    }

    /// Heap bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8 + self.blocks_before.len() * 4
    }

    /// Stored integers (64-bit words count as two).
    pub fn size_in_integers(&self) -> u64 {
        (self.words.len() * 2 + self.blocks_before.len()) as u64
    }
}

/// Remainder of a partially consumed segment.
fn consume(s: Seg, n: u32) -> Option<Seg> {
    (s.count > n).then_some(Seg {
        pattern: s.pattern,
        count: s.count - n,
    })
}

/// Streaming segment decoder.
struct SegIter<'a> {
    words: &'a [u64],
    wi: usize,
    part: u32,
}

impl<'a> SegIter<'a> {
    fn new(v: &'a PwahVec) -> Self {
        SegIter {
            words: &v.words,
            wi: 0,
            part: 0,
        }
    }

    fn next(&mut self) -> Option<Seg> {
        if self.wi >= self.words.len() {
            return None;
        }
        let word = self.words[self.wi];
        let p = self.part;
        self.part += 1;
        if self.part == PARTS {
            self.part = 0;
            self.wi += 1;
        }
        let payload = ((word >> (p * BLOCK_BITS)) & ONES as u64) as u8;
        if word >> (56 + p) & 1 == 1 {
            let count = (payload & 0x3F) as u32;
            if count == 0 {
                // Padding partition in the final word: skip.
                return self.next();
            }
            let pattern = if payload >> 6 & 1 == 1 { ONES } else { 0 };
            Some(Seg { pattern, count })
        } else {
            Some(Seg {
                pattern: payload,
                count: 1,
            })
        }
    }
}

/// Run-merging PWAH encoder.
struct Encoder {
    words: Vec<u64>,
    blocks_before: Vec<u32>,
    cur: u64,
    cur_parts: u32,
    blocks_done: u32,
    /// Pending uniform run (0x00 or 0x7F) not yet emitted.
    pending: Option<Seg>,
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            words: Vec::new(),
            blocks_before: Vec::new(),
            cur: 0,
            cur_parts: 0,
            blocks_done: 0,
            pending: None,
        }
    }

    fn push_seg(&mut self, s: Seg) {
        if s.count == 0 {
            return;
        }
        let uniform = s.pattern == 0 || s.pattern == ONES;
        match (&mut self.pending, uniform) {
            (Some(p), true) if p.pattern == s.pattern => {
                p.count += s.count;
            }
            _ => {
                self.flush_pending();
                if uniform {
                    self.pending = Some(s);
                } else {
                    debug_assert_eq!(s.count, 1, "non-uniform segments are single blocks");
                    self.emit_literal(s.pattern);
                }
            }
        }
    }

    fn flush_pending(&mut self) {
        if let Some(s) = self.pending.take() {
            let mut left = s.count;
            while left > 0 {
                let n = left.min(MAX_FILL);
                self.emit_fill(s.pattern == ONES, n);
                left -= n;
            }
        }
    }

    fn emit_literal(&mut self, pattern: u8) {
        self.push_partition(pattern as u64, false, 1);
    }

    fn emit_fill(&mut self, ones: bool, count: u32) {
        let payload = ((ones as u64) << 6) | count as u64;
        self.push_partition(payload, true, count);
    }

    fn push_partition(&mut self, payload: u64, fill: bool, blocks: u32) {
        if self.cur_parts == 0 {
            self.blocks_before.push(self.blocks_done);
        }
        self.cur |= payload << (self.cur_parts * BLOCK_BITS);
        if fill {
            self.cur |= 1u64 << (56 + self.cur_parts);
        }
        self.cur_parts += 1;
        self.blocks_done += blocks;
        if self.cur_parts == PARTS {
            self.words.push(self.cur);
            self.cur = 0;
            self.cur_parts = 0;
        }
    }

    fn finish(mut self) -> PwahVec {
        // Drop a trailing all-zero run entirely: bits beyond the
        // encoding read as zero anyway.
        if matches!(self.pending, Some(Seg { pattern: 0, .. })) {
            self.pending = None;
        }
        self.flush_pending();
        if self.cur_parts > 0 {
            // Remaining partitions are zero-count fills (skipped by the
            // decoder).
            for p in self.cur_parts..PARTS {
                self.cur |= 1u64 << (56 + p);
            }
            self.words.push(self.cur);
        }
        PwahVec {
            words: self.words,
            blocks_before: self.blocks_before,
            total_blocks: self.blocks_done,
        }
    }
}

// --------------------------------------------------------------------
// The reachability index
// --------------------------------------------------------------------

/// PWAH-8 compressed transitive closure index.
pub struct Pwah8 {
    /// Vertex → bit position (its topological rank).
    bit_of: Vec<u32>,
    rows: Vec<PwahVec>,
}

impl Pwah8 {
    /// Builds the index; fails with [`GraphError::BudgetExceeded`] once
    /// the compressed rows outgrow `budget_bytes`.
    pub fn build(dag: &Dag, budget_bytes: u64) -> Result<Self, GraphError> {
        Self::build_limited(dag, budget_bytes, None)
    }

    /// [`Self::build`] with an additional wall-clock cap on the
    /// compressed-OR sweep.
    pub fn build_limited(
        dag: &Dag,
        budget_bytes: u64,
        time_budget: Option<std::time::Duration>,
    ) -> Result<Self, GraphError> {
        let start = std::time::Instant::now();
        let n = dag.num_vertices();
        let g = dag.graph();
        let bit_of: Vec<u32> = (0..n as VertexId).map(|v| dag.topo_pos(v)).collect();
        let mut rows: Vec<PwahVec> = vec![PwahVec::empty(); n];
        let mut total: u64 = 0;
        let mut direct: Vec<u32> = Vec::new();
        for (step, &v) in dag.topo_order().iter().rev().enumerate() {
            if let Some(tb) = time_budget {
                if step % 1024 == 0 && start.elapsed() > tb {
                    return Err(GraphError::BudgetExceeded {
                        what: "PWAH-8 construction time",
                        required_bytes: start.elapsed().as_millis() as u64,
                        budget_bytes: tb.as_millis() as u64,
                    });
                }
            }
            direct.clear();
            direct.extend(g.out_neighbors(v).iter().map(|&w| bit_of[w as usize]));
            direct.sort_unstable();
            let mut row = PwahVec::from_sorted_positions(&direct);
            for &w in g.out_neighbors(v) {
                row = PwahVec::or(&row, &rows[w as usize]);
            }
            total += row.memory_bytes() as u64;
            if total > budget_bytes {
                return Err(GraphError::BudgetExceeded {
                    what: "PWAH-8 index",
                    required_bytes: total,
                    budget_bytes,
                });
            }
            rows[v as usize] = row;
        }
        Ok(Pwah8 { bit_of, rows })
    }

    /// The compressed closure row of `v`.
    pub fn row(&self, v: VertexId) -> &PwahVec {
        &self.rows[v as usize]
    }
}

impl ReachIndex for Pwah8 {
    fn name(&self) -> &'static str {
        "PWAH-8"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        u == v || self.rows[u as usize].contains(self.bit_of[v as usize])
    }

    fn size_in_integers(&self) -> u64 {
        self.bit_of.len() as u64 + self.rows.iter().map(|r| r.size_in_integers()).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::gen;

    #[test]
    fn positions_roundtrip() {
        let pos = vec![0, 1, 6, 7, 13, 100, 101, 699];
        let v = PwahVec::from_sorted_positions(&pos);
        for p in 0..800u32 {
            assert_eq!(v.contains(p), pos.contains(&p), "bit {p}");
        }
        assert_eq!(v.count_ones(), pos.len() as u64);
    }

    #[test]
    fn empty_vector() {
        let v = PwahVec::empty();
        assert!(!v.contains(0));
        assert!(!v.contains(12345));
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.memory_bytes(), 0);
    }

    #[test]
    fn long_runs_compress() {
        // A run of ~70k set bits (10k blocks) needs ~160 fill
        // partitions = ~20 words, not 10k words.
        let pos: Vec<u32> = (7..70_007).collect();
        let v = PwahVec::from_sorted_positions(&pos);
        assert!(v.words.len() < 64, "got {} words", v.words.len());
        assert!(v.contains(7) && v.contains(70_006) && !v.contains(6));
        assert!(!v.contains(70_007));
        assert_eq!(v.count_ones(), 70_000);
    }

    #[test]
    fn or_matches_set_union() {
        let mut rng = gen::Rng::new(42);
        for _ in 0..20 {
            let mut a: Vec<u32> = (0..300).filter(|_| rng.gen_bool(0.15)).collect();
            let mut b: Vec<u32> = (0..300).filter(|_| rng.gen_bool(0.03)).collect();
            a.dedup();
            b.dedup();
            let va = PwahVec::from_sorted_positions(&a);
            let vb = PwahVec::from_sorted_positions(&b);
            let vo = PwahVec::or(&va, &vb);
            for p in 0..310u32 {
                assert_eq!(vo.contains(p), a.contains(&p) || b.contains(&p), "bit {p}");
            }
        }
    }

    #[test]
    fn or_with_empty_is_identity() {
        let a = PwahVec::from_sorted_positions(&[3, 9, 200]);
        let o = PwahVec::or(&a, &PwahVec::empty());
        assert_eq!(o.count_ones(), 3);
        assert!(o.contains(3) && o.contains(9) && o.contains(200));
    }

    #[test]
    fn budget_enforced() {
        let dag = gen::random_dag(2000, 12000, 3);
        assert!(matches!(
            Pwah8::build(&dag, 16),
            Err(GraphError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn dense_row_compresses_well_in_topo_space() {
        // A path graph: vertex 0 reaches everything; its row is one run.
        let n = 10_000;
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(n, &edges).unwrap();
        let idx = Pwah8::build(&dag, u64::MAX).unwrap();
        assert!(
            idx.row(0).memory_bytes() < 256,
            "path-head row should be a handful of fill words, got {} bytes",
            idx.row(0).memory_bytes()
        );
    }
}
