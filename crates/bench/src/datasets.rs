//! Synthetic analogues of the paper's Table 1 datasets.
//!
//! Each spec records the *paper's* vertex/edge counts and the generator
//! family matching the dataset's provenance (metabolic/ontology →
//! tree-like, citation/web/social → power-law, XML → layered, P2P →
//! uniform random, |E| < |V| condensations → forest). Generation takes
//! a `scale` factor so the full 12-method × 27-dataset matrix runs on a
//! laptop; the default harness scales keep small graphs at paper size
//! and large graphs at a few percent of paper edges.

use hoplite_graph::{gen, Dag};

/// Generator family standing in for a dataset's provenance.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// Spanning tree + a few cross edges (metabolic / ontology).
    Tree,
    /// Forest with |E| < |V| − 1 (sparse condensations).
    Forest,
    /// Preferential attachment (citation / web / social).
    PowerLaw,
    /// Uniform Erdős–Rényi DAG (P2P).
    Random,
    /// Stratified layers (XML documents).
    Layered,
}

/// One Table 1 row: the real dataset we emulate.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// Generator family standing in for the real dataset.
    pub family: Family,
    /// |V| of the coalesced DAG in the paper.
    pub paper_vertices: usize,
    /// |E| of the coalesced DAG in the paper.
    pub paper_edges: usize,
    /// Small-graph table (Tables 2–4) vs large (Tables 5–7).
    pub small: bool,
}

impl DatasetSpec {
    /// Generates the analogue DAG at `scale` (1.0 = paper size).
    /// The seed is derived from the dataset name, so every run of the
    /// harness sees identical graphs.
    pub fn generate(&self, scale: f64) -> Dag {
        let n = ((self.paper_vertices as f64 * scale).round() as usize).max(16);
        let m = ((self.paper_edges as f64 * scale).round() as usize).max(8);
        let seed = name_seed(self.name);
        match self.family {
            Family::Tree => {
                let extra = m.saturating_sub(n.saturating_sub(1));
                gen::tree_plus_dag(n, extra, seed)
            }
            Family::Forest => gen::forest_dag(n, m, seed),
            Family::PowerLaw => gen::power_law_dag(n, m, seed),
            Family::Random => gen::random_dag(n, m, seed),
            Family::Layered => gen::layered_dag(n, 12, m, seed),
        }
    }
}

/// Deterministic seed from the dataset name (FNV-1a).
fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The 14 small graphs of Table 1 (left columns).
pub fn small_datasets() -> Vec<DatasetSpec> {
    use Family::*;
    let rows: [(&'static str, Family, usize, usize); 14] = [
        ("agrocyc", Tree, 12_684, 13_408),
        ("amaze", Forest, 3_710, 3_600),
        ("anthra", Tree, 12_499, 13_104),
        ("arxiv", PowerLaw, 21_608, 116_805),
        ("ecoo", Tree, 12_620, 13_350),
        ("hpycyc", Tree, 4_771, 5_859),
        ("human", Tree, 38_811, 39_576),
        ("kegg", Tree, 3_617, 3_908),
        ("mtbrv", Tree, 9_602, 10_245),
        ("nasa", Layered, 5_605, 7_735),
        ("p2p", Random, 48_438, 55_349),
        ("reactome", Forest, 901, 846),
        ("vchocyc", Tree, 9_491, 10_143),
        ("xmark", Layered, 6_080, 7_028),
    ];
    rows.iter()
        .map(|&(name, family, v, e)| DatasetSpec {
            name,
            family,
            paper_vertices: v,
            paper_edges: e,
            small: true,
        })
        .collect()
}

/// The 13 large graphs of Table 1 (right columns).
pub fn large_datasets() -> Vec<DatasetSpec> {
    use Family::*;
    let rows: [(&'static str, Family, usize, usize); 13] = [
        ("citeseer", Forest, 693_947, 312_282),
        ("citeseerx", PowerLaw, 6_540_399, 15_011_259),
        ("cit-Patents", PowerLaw, 3_774_768, 16_518_947),
        ("email", Forest, 231_000, 223_004),
        ("go_uniprot", Tree, 6_967_956, 34_770_235),
        ("lj", PowerLaw, 971_232, 1_024_140),
        ("mapped_100K", Tree, 2_658_702, 2_660_628),
        ("mapped_1M", Tree, 9_387_448, 9_440_404),
        ("uniprotenc_100m", Forest, 16_087_295, 16_087_293),
        ("uniprotenc_150m", Forest, 25_037_600, 25_037_598),
        ("uniprotenc_22m", Forest, 1_595_444, 1_595_442),
        ("web", PowerLaw, 371_764, 517_805),
        ("wiki", PowerLaw, 2_281_879, 2_311_570),
    ];
    rows.iter()
        .map(|&(name, family, v, e)| DatasetSpec {
            name,
            family,
            paper_vertices: v,
            paper_edges: e,
            small: false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table1_shape() {
        assert_eq!(small_datasets().len(), 14);
        assert_eq!(large_datasets().len(), 13);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &small_datasets()[0];
        let a = spec.generate(0.05);
        let b = spec.generate(0.05);
        assert_eq!(a.graph(), b.graph());
    }

    #[test]
    fn scale_shrinks_graphs() {
        let spec = &small_datasets()[3]; // arxiv
        let d = spec.generate(0.02);
        assert!(d.num_vertices() < spec.paper_vertices / 10);
        assert!(d.num_vertices() >= 16);
    }

    #[test]
    fn small_specs_generate_roughly_right_sizes() {
        for spec in small_datasets() {
            let d = spec.generate(0.1);
            let want_n = (spec.paper_vertices as f64 * 0.1) as usize;
            assert!(
                (d.num_vertices() as f64) >= want_n as f64 * 0.99,
                "{}: n={} want≈{want_n}",
                spec.name,
                d.num_vertices()
            );
            // Edge counts are approximate (dedup/clamping) but must be
            // within 2x of target for the density to be comparable.
            let want_m = (spec.paper_edges as f64 * 0.1).max(8.0);
            assert!(
                (d.num_edges() as f64) > want_m * 0.4,
                "{}: m={} want≈{want_m}",
                spec.name,
                d.num_edges()
            );
        }
    }

    #[test]
    fn families_have_expected_sparsity() {
        for spec in small_datasets() {
            if matches!(spec.family, Family::Forest) {
                let d = spec.generate(0.2);
                assert!(d.num_edges() < d.num_vertices());
            }
        }
    }

    #[test]
    fn tiny_scale_floors_apply() {
        let spec = &small_datasets()[11]; // reactome, 901 vertices
        let d = spec.generate(0.001);
        assert!(d.num_vertices() >= 16);
    }
}
