//! Failure injection for the persistence layer: the HOPL v5 arena
//! reader fed hostile bytes must return a structured [`PersistError`]
//! — never panic, never serve an oracle that answers wrong — and a
//! file in any other HOPL version must be refused by version.
//!
//! [`PersistError`]: hoplite::core::persist::PersistError

use proptest::prelude::*;

use hoplite::core::persist::PersistError;
use hoplite::core::store::checksum;
use hoplite::graph::{gen, traversal, DiGraph};
use hoplite::Oracle;

// ---------------------------------------------------------------------
// HOPL v5 arena failure injection
// ---------------------------------------------------------------------

/// A serialized v5 arena over a small cyclic digraph.
fn arena_fixture() -> (DiGraph, Vec<u8>) {
    let g = gen::random_digraph(36, 120, 15);
    let oracle = Oracle::new(&g);
    let mut buf = Vec::new();
    oracle.save_arena(&mut buf).expect("in-memory write");
    (g, buf)
}

/// After editing header or table bytes, re-seal the two covering
/// checksums so the *semantic* validation under them is what trips.
/// A table cut off by truncation is left unsealed — the reader must
/// reject it before ever checking its sum.
fn reseal_arena(buf: &mut [u8]) {
    let count = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    let table_end = 64 + count * 32;
    if table_end <= buf.len() {
        let table_sum = checksum(&buf[64..table_end]);
        buf[48..56].copy_from_slice(&table_sum.to_le_bytes());
    }
    let header_sum = checksum(&buf[..56]);
    buf[56..64].copy_from_slice(&header_sum.to_le_bytes());
}

#[test]
fn arena_truncated_section_table_rejected() {
    let (_, buf) = arena_fixture();
    // Cut inside the table, with the header's file_len re-pinned to
    // the truncated size so the table-truncation check (not the
    // length check) is what fires.
    for cut in [65, 64 + 31, 64 + 5 * 32 + 7] {
        let mut bad = buf[..cut].to_vec();
        bad[40..48].copy_from_slice(&(cut as u64).to_le_bytes());
        reseal_arena(&mut bad);
        let err = Oracle::open_arena_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("table"), "cut={cut}: {err}");
    }
    // And raw truncation anywhere must fail too (length pin).
    for cut in [0, 7, 63, buf.len() / 2, buf.len() - 1] {
        assert!(Oracle::open_arena_bytes(&buf[..cut]).is_err(), "cut={cut}");
    }
}

#[test]
fn arena_misaligned_section_offset_rejected() {
    let (_, mut buf) = arena_fixture();
    // Entry 0's offset field sits at table start + 8. Nudge it off
    // the 64-byte grid and re-seal the checksums.
    let at = 64 + 8;
    let offset = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
    buf[at..at + 8].copy_from_slice(&(offset + 4).to_le_bytes());
    reseal_arena(&mut buf);
    let err = Oracle::open_arena_bytes(&buf).unwrap_err();
    assert!(err.to_string().contains("aligned"), "{err}");
}

#[test]
fn arena_overlapping_sections_rejected() {
    let (_, mut buf) = arena_fixture();
    // Point entry 1 at entry 0's bytes: same offset, still in bounds.
    let e0_off = u64::from_le_bytes(buf[64 + 8..64 + 16].try_into().unwrap());
    let at = 64 + 32 + 8;
    buf[at..at + 8].copy_from_slice(&e0_off.to_le_bytes());
    reseal_arena(&mut buf);
    let err = Oracle::open_arena_bytes(&buf).unwrap_err();
    assert!(err.to_string().contains("overlap"), "{err}");
}

#[test]
fn arena_checksum_corruption_rejected() {
    let (_, buf) = arena_fixture();
    // A flipped bit anywhere — header, table, or section payload —
    // must be caught by one of the three checksum layers.
    for at in [10, 20, 50, 70, 64 + 3 * 32 + 25, 520, 600, buf.len() - 5] {
        for bit in [0, 3, 7] {
            let mut bad = buf.clone();
            bad[at] ^= 1 << bit;
            assert!(
                Oracle::open_arena_bytes(&bad).is_err(),
                "byte {at} bit {bit} accepted"
            );
        }
    }
}

#[test]
fn truncation_at_every_prefix_is_rejected() {
    let (_, buf) = arena_fixture();
    // The header pins the file length, so no strict prefix is a valid
    // arena.
    for cut in 0..buf.len() {
        assert!(
            Oracle::open_arena_bytes(&buf[..cut]).is_err(),
            "prefix of {cut} bytes unexpectedly opened"
        );
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let (_, mut buf) = arena_fixture();
    buf.extend_from_slice(b"EXTRA");
    assert!(
        Oracle::open_arena_bytes(&buf).is_err(),
        "file with trailing bytes must not open"
    );
}

#[test]
fn wrong_magic_and_version_are_rejected() {
    let (_, buf) = arena_fixture();
    let mut bad_magic = buf.clone();
    bad_magic[0] ^= 0xFF;
    assert!(Oracle::open_arena_bytes(&bad_magic).is_err());

    // Every header byte is load-bearing: magic, version, kind, counts
    // and lengths are checked by value or by the header checksum, and
    // the last 8 bytes are that checksum.
    for i in 0..64 {
        let mut bad = buf.clone();
        bad[i] = bad[i].wrapping_add(1);
        assert!(
            Oracle::open_arena_bytes(&bad).is_err(),
            "header byte {i} mutated and the arena still opened"
        );
    }
}

/// A hand-written header in the HOPL v1 layout (magic, `version`,
/// kind = Oracle, vertex count) followed by `payload`.
fn legacy_file(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = b"HOPL".to_vec();
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.push(4);
    bytes.extend_from_slice(&36u64.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Asserts `r` is the typed refusal of a legacy version: a format
/// error naming the version and the rebuild route.
fn assert_refused_by_version(r: Result<Oracle, PersistError>, version: u32, what: &str) {
    match r.err() {
        Some(PersistError::Format(m)) => {
            assert!(m.contains(&format!("version {version}")), "{what}: {m}");
            assert!(
                m.contains("--frozen") && m.contains("save_arena"),
                "{what}: {m}"
            );
        }
        other => panic!("{what}: expected a format error, got {other:?}"),
    }
}

#[test]
fn v1_files_are_refused_with_a_typed_rebuild_error() {
    // Indexes are derived data: a v1 streaming file (with or without
    // its trailing SIGS section — the version word is 1 either way) is
    // refused by every reader, never migrated, however long it is.
    let path = std::env::temp_dir().join(format!("hoplite-fuzz-v1-{}.hopl", std::process::id()));
    for payload in [&[][..], &[0u8; 7][..], &[0xAB; 4096][..]] {
        let v1 = legacy_file(1, payload);
        assert_refused_by_version(Oracle::open_arena_bytes(&v1), 1, "bytes");
        std::fs::write(&path, &v1).expect("write temp v1 file");
        assert_refused_by_version(Oracle::open(&path), 1, "open");
        let read = hoplite::core::OpenOptions {
            mmap: false,
            ..Default::default()
        };
        assert_refused_by_version(Oracle::open_with(&path, &read), 1, "open_with read");
    }
    std::fs::remove_file(&path).ok();
    // Any other version word is refused the same way.
    for version in [0, 2, 3, 4, 6, u32::MAX] {
        assert_refused_by_version(
            Oracle::open_arena_bytes(&legacy_file(version, &[])),
            version,
            "bytes",
        );
    }
}

/// A well-formed v5 arena relabeled `version` (checksums resealed, so
/// only the version word differs) is refused by every reader.
fn assert_relabeled_arena_refused(version: u32) {
    let (_, buf) = arena_fixture();
    let mut old = buf;
    old[4..8].copy_from_slice(&version.to_le_bytes());
    reseal_arena(&mut old);
    assert_refused_by_version(Oracle::open_arena_bytes(&old), version, "bytes");
    let path = std::env::temp_dir().join(format!(
        "hoplite-fuzz-v{version}-{}.hopl",
        std::process::id()
    ));
    std::fs::write(&path, &old).expect("write temp arena");
    assert_refused_by_version(Oracle::open(&path), version, "open");
    let read = hoplite::core::OpenOptions {
        mmap: false,
        ..Default::default()
    };
    assert_refused_by_version(Oracle::open_with(&path, &read), version, "open_with read");
    std::fs::remove_file(&path).ok();
}

#[test]
fn v3_arenas_are_refused_with_a_typed_rebuild_error() {
    // A v3 arena kept the top hops in its label lists beside rank-band
    // signatures; its lists alone would answer wrong under v5's masks.
    assert_relabeled_arena_refused(3);
    // v5 keeps the mask words per side in the header word v3 used for
    // its signature shift, and requires the word after it to be zero.
    let (_, buf) = arena_fixture();
    let mut shifted = buf.clone();
    shifted[32] = 7;
    reseal_arena(&mut shifted);
    let err = Oracle::open_arena_bytes(&shifted).unwrap_err();
    assert!(err.to_string().contains("mask words"), "{err}");
    let mut reserved = buf;
    reserved[36] = 7;
    reseal_arena(&mut reserved);
    let err = Oracle::open_arena_bytes(&reserved).unwrap_err();
    assert!(err.to_string().contains("reserved"), "{err}");
}

#[test]
fn v4_arenas_are_refused_with_a_typed_rebuild_error() {
    // A v4 arena kept 64-hop masks in two arrays; v5 reads one record
    // per component at the width its header names.
    assert_relabeled_arena_refused(4);
}

/// `(offset, len)` of the section tagged `tag` in an arena's table.
fn section(buf: &[u8], tag: &[u8; 8]) -> (usize, usize) {
    let count = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    let entry = buf[64..64 + count * 32]
        .chunks_exact(32)
        .find(|e| &e[..8] == tag)
        .expect("section present");
    let word = |at: usize| u64::from_le_bytes(entry[at..at + 8].try_into().unwrap()) as usize;
    (word(8), word(16))
}

#[test]
fn mask_bit_flips_fail_the_section_checksum() {
    // The masks hold answers the label lists no longer carry, so a
    // flipped mask bit would answer wrong: every one must be caught.
    let (_, narrow) = arena_fixture();
    let (_, wide) = wide_arena_fixture();
    for (buf, name) in [(narrow, "MASKS at 64 hops"), (wide, "MASKS at 256 hops")] {
        let (offset, len) = section(&buf, b"MASKS\0\0\0");
        assert!(len > 0, "{name} is empty");
        for at in [offset, offset + len / 2, offset + len - 1] {
            for bit in [0, 5] {
                let mut bad = buf.clone();
                bad[at] ^= 1 << bit;
                let err = Oracle::open_arena_bytes(&bad).unwrap_err();
                assert!(
                    err.to_string().contains("MASKS checksum mismatch"),
                    "{name} byte {at} bit {bit}: {err}"
                );
            }
        }
    }
}

/// A serialized K = 256 arena: a deep chain whose rank bands hold
/// more label entries than their mask words, so DL widens its masks to
/// 256 hops.
fn wide_arena_fixture() -> (Oracle, Vec<u8>) {
    let dag = gen::deep_chain_dag(16_000, 64, 5_333, 7);
    let oracle = Oracle::new(dag.graph());
    assert_eq!(oracle.inner().labeling().mask_hops(), 256);
    let mut buf = Vec::new();
    oracle.save_arena(&mut buf).expect("in-memory write");
    (oracle, buf)
}

#[test]
fn wide_mask_arena_roundtrips_and_fails_closed() {
    let (built, buf) = wide_arena_fixture();
    assert_eq!(u32::from_le_bytes(buf[32..36].try_into().unwrap()), 4);
    let n = built.num_vertices();
    let mut rng = gen::Rng::new(256);
    let pairs: Vec<(u32, u32)> = (0..20_000)
        .map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32))
        .collect();
    let mut want = vec![false; pairs.len()];
    built.reaches_batch_into(&pairs, &mut want, 1);
    let path = std::env::temp_dir().join(format!("hoplite-fuzz-wide-{}.hopl", std::process::id()));
    std::fs::write(&path, &buf).expect("write temp arena");
    for (what, opened) in [
        ("bytes", Oracle::open_arena_bytes(&buf)),
        ("mapped", Oracle::open(&path)),
    ] {
        let opened = opened.expect(what);
        assert_eq!(opened.inner().labeling().mask_hops(), 256, "{what}");
        let mut got: Vec<bool> = want.iter().map(|b| !b).collect();
        opened.reaches_batch_into(&pairs, &mut got, 1);
        assert!(got == want, "{what}: answers differ from the built oracle");
        for &(u, v) in pairs.iter().take(200) {
            let truth = traversal::reaches(
                built.dag().graph(),
                built.comp_of()[u as usize],
                built.comp_of()[v as usize],
            );
            assert_eq!(opened.reaches(u, v), truth, "{what}: reach({u}, {v})");
        }
    }
    std::fs::remove_file(&path).ok();
    // A header that names a narrower record than the MASKS section
    // holds is a size mismatch, not a misread.
    for words in [1u32, 2] {
        let mut bad = buf.clone();
        bad[32..36].copy_from_slice(&words.to_le_bytes());
        reseal_arena(&mut bad);
        let err = Oracle::open_arena_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("MASKS"), "{words} words: {err}");
    }
    for cut in [
        0,
        63,
        64 + 13 * 32,
        buf.len() / 3,
        buf.len() / 2,
        buf.len() - 1,
    ] {
        assert!(Oracle::open_arena_bytes(&buf[..cut]).is_err(), "cut={cut}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup never panics the reader, and soup behind a
    /// v1 header is refused by version.
    #[test]
    fn loaders_never_panic_on_junk(junk in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Oracle::open_arena_bytes(&junk);
        let dressed = legacy_file(1, &junk);
        prop_assert!(matches!(
            Oracle::open_arena_bytes(&dressed),
            Err(PersistError::Format(m)) if m.contains("version 1")
        ));
    }

    /// Byte soup dressed as a v4 arena (valid magic + version) never
    /// panics the arena reader either.
    #[test]
    fn arena_reader_never_panics_on_junk(junk in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Oracle::open_arena_bytes(&junk);
        let mut dressed = b"HOPL\x03\x00\x00\x00".to_vec();
        dressed.extend_from_slice(&junk);
        let _ = Oracle::open_arena_bytes(&dressed);
    }

    /// On any random cyclic digraph, the mapped (mmap), owned-read,
    /// and builder oracles agree with BFS ground truth pairwise — the
    /// mmap ≡ owned ≡ BFS equivalence invariant. Sizes span both
    /// sides of `TOP_HOPS` components: masks only, and masks + lists.
    #[test]
    fn mapped_equals_owned_equals_bfs(seed in 0u64..500, n in 8usize..120, m in 10usize..160) {
        let g = gen::random_digraph(n, m, seed);
        let built = Oracle::new(&g);
        let mut arena = Vec::new();
        built.save_arena(&mut arena).expect("write arena");
        let path = std::env::temp_dir().join(
            format!("hoplite-fuzz-arena-{}-{seed}-{n}-{m}.hopl3", std::process::id()),
        );
        std::fs::write(&path, &arena).expect("write temp arena");
        let mapped = Oracle::open(&path).expect("mapped open");
        let owned = Oracle::open_with(
            &path,
            &hoplite::core::OpenOptions { mmap: false, ..Default::default() },
        )
        .expect("owned open");
        std::fs::remove_file(&path).ok();
        for (what, oracle) in [("built", &built), ("mapped", &mapped), ("owned", &owned)] {
            let what = format!("{what}, random_digraph({n}, {m}, {seed})");
            traversal::assert_matches_bfs(&g, &what, |u, v| oracle.reaches(u, v));
        }
    }

    /// Single-bit corruption anywhere in a valid arena either fails
    /// cleanly or leaves an oracle that still answers every pair like
    /// BFS (a flip in the zero padding between sections is the only
    /// way to survive the three checksum layers).
    #[test]
    fn bit_flips_fail_closed(pos in 0usize..4096, bit in 0u8..8) {
        let (g, buf) = arena_fixture();
        let pos = pos % buf.len();
        let mut bad = buf.clone();
        bad[pos] ^= 1 << bit;
        if let Ok(oracle) = Oracle::open_arena_bytes(&bad) {
            let what = format!("byte {pos} bit {bit} survived");
            traversal::assert_matches_bfs(&g, &what, |u, v| oracle.reaches(u, v));
        }
    }
}
