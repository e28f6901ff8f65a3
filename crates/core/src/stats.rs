//! Label-size statistics used by the experiment reports.

use crate::label::Labeling;

/// Summary statistics of a [`Labeling`]'s list lengths.
#[derive(Clone, Debug, PartialEq)]
pub struct LabelStats {
    /// Number of labeled vertices.
    pub num_vertices: usize,
    /// Total entries across all `L_out` lists.
    pub total_out: u64,
    /// Total entries across all `L_in` lists.
    pub total_in: u64,
    /// Longest single label list.
    pub max_label: usize,
    /// Mean of `|L_out(v)| + |L_in(v)|` per vertex.
    pub avg_per_vertex: f64,
    /// Bytes spent on the per-vertex top-hop reach masks (16 per
    /// vertex: one `u64` per side).
    pub mask_bytes: u64,
    /// Process-private heap bytes of the label store (CSR offsets,
    /// hop arrays, reach masks).
    pub heap_bytes: u64,
    /// Bytes addressed inside a shared mapped arena (a HOPL v4
    /// [`crate::Oracle::open`]); 0 for owned labelings.
    pub mapped_bytes: u64,
}

impl LabelStats {
    /// Computes the statistics for `l`.
    pub fn from_labeling(l: &Labeling) -> Self {
        let n = l.num_vertices();
        let mut total_out = 0u64;
        let mut total_in = 0u64;
        let mut max_label = 0usize;
        for v in 0..n as u32 {
            let o = l.out_label(v).len();
            let i = l.in_label(v).len();
            total_out += o as u64;
            total_in += i as u64;
            max_label = max_label.max(o).max(i);
        }
        let avg_per_vertex = if n == 0 {
            0.0
        } else {
            (total_out + total_in) as f64 / n as f64
        };
        let memory = l.memory();
        LabelStats {
            num_vertices: n,
            total_out,
            total_in,
            max_label,
            avg_per_vertex,
            mask_bytes: l.mask_bytes(),
            heap_bytes: memory.heap_bytes,
            mapped_bytes: memory.mapped_bytes,
        }
    }
}

impl std::fmt::Display for LabelStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} |Lout|={} |Lin|={} max={} avg/vertex={:.2} mask-bytes={} heap-bytes={} mapped-bytes={}",
            self.num_vertices,
            self.total_out,
            self.total_in,
            self.max_label,
            self.avg_per_vertex,
            self.mask_bytes,
            self.heap_bytes,
            self.mapped_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::label::LabelingBuilder;
    use hoplite_graph::Dag;

    #[test]
    fn stats_count_correctly() {
        let mut b = LabelingBuilder::new(3);
        b.out[0] = vec![0, 1, 2];
        b.in_[1] = vec![0];
        b.in_[2] = vec![0, 1];
        let s = b
            .finish(&Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap(), &[])
            .stats();
        assert_eq!(s.total_out, 3);
        assert_eq!(s.total_in, 3);
        assert_eq!(s.max_label, 3);
        assert!((s.avg_per_vertex - 2.0).abs() < 1e-9);
        assert!(s.to_string().contains("max=3"));
    }

    #[test]
    fn empty_stats() {
        let s = LabelingBuilder::new(0)
            .finish(&Dag::from_edges(0, &[]).unwrap(), &[])
            .stats();
        assert_eq!(s.avg_per_vertex, 0.0);
        assert_eq!(s.num_vertices, 0);
    }
}
