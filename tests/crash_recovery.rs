//! Fault-injection harness for the durability layer (PR 8 tentpole).
//!
//! The contract under test: *recovery always yields a prefix of the
//! acknowledged operations, and the recovered oracle answers exactly
//! like a BFS over the graph that prefix describes.* We attack it the
//! way power cuts do — kill the WAL mid-write at every byte offset,
//! truncate on-disk tails at every byte, flip bits, strand rotation
//! artifacts, replay twice — and also the way production does: a live
//! server taking wire-level mutations while background rebuilds rotate
//! checkpoints, then a restart.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use hoplite::core::store::checksum;
use hoplite::core::wal::{decode_records, encode_record, RECORD_LEN};
use hoplite::core::{
    Durability, DynamicOracle, EdgeOp, FailpointWriter, Oracle, Wal, WalConfig, WalDir,
};
use hoplite::graph::{gen, traversal, Dag, DiGraph};
use hoplite::server::{Client, Registry, Server, ServerConfig};

// ---------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------

/// A fresh scratch directory per call (pid + counter keep parallel
/// test binaries and repeated runs apart).
fn temp_dir(tag: &str) -> PathBuf {
    static CALL: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hoplite-crash-{tag}-{}-{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    dir
}

/// Applies a prefix of edge ops to a seed edge set — the ground truth
/// a recovered oracle must reproduce. Set semantics match the oracle's
/// (duplicate insert and absent remove are no-ops).
fn apply_ops(seed: &[(u32, u32)], ops: &[EdgeOp]) -> BTreeSet<(u32, u32)> {
    let mut edges: BTreeSet<(u32, u32)> = seed.iter().copied().collect();
    for &op in ops {
        match op {
            EdgeOp::Insert(u, v) => {
                edges.insert((u, v));
            }
            EdgeOp::Remove(u, v) => {
                edges.remove(&(u, v));
            }
        }
    }
    edges
}

/// The ground-truth graph on `n` vertices with exactly `edges`.
fn graph_of(n: usize, edges: &BTreeSet<(u32, u32)>) -> DiGraph {
    let edges: Vec<(u32, u32)> = edges.iter().copied().collect();
    DiGraph::from_edges(n, &edges).expect("ground-truth graph")
}

/// The fixed op script most dirs in this suite log: inserts and
/// removes over a 7-vertex seed, including removal of a seed edge.
const SEED_N: usize = 7;
const SEED_EDGES: &[(u32, u32)] = &[(0, 1), (1, 2), (4, 5)];
const SCRIPT: &[EdgeOp] = &[
    EdgeOp::Insert(2, 3),
    EdgeOp::Insert(3, 4),
    EdgeOp::Remove(1, 2),
    EdgeOp::Insert(5, 6),
    EdgeOp::Insert(0, 6),
    EdgeOp::Remove(4, 5),
];

/// A WAL dir holding `checkpoint.0` for the seed DAG and `wal.0` with
/// the full script, every record individually fsynced. Returns the
/// dir handle and the raw bytes of the log.
fn seeded_wal_dir(tag: &str) -> (WalDir, PathBuf, Vec<u8>) {
    let root = temp_dir(tag);
    let wal = WalDir::open(&root).expect("open wal dir");
    let seed = Dag::from_edges(SEED_N, SEED_EDGES).expect("seed dag");
    wal.initialize(&seed).expect("initialize generation 0");
    let mut dur = wal
        .durability(0, 0, 0, WalConfig::sync_every_record())
        .expect("open appender");
    for &op in SCRIPT {
        dur.log(op).expect("log");
    }
    dur.sync().expect("sync");
    let wal_path = root.join("wal.0");
    let bytes = fs::read(&wal_path).expect("read log");
    assert_eq!(bytes.len(), SCRIPT.len() * RECORD_LEN);
    (wal, root, bytes)
}

// ---------------------------------------------------------------------
// Kill the writer at every byte offset.
// ---------------------------------------------------------------------

/// Crash the sink at every possible byte offset: whatever the log
/// holds afterwards must decode to exactly the acknowledged prefix —
/// never garbage, never a reordering, never an op that errored.
#[test]
fn killing_the_wal_at_every_byte_offset_keeps_the_acknowledged_prefix() {
    let total = SCRIPT.len() * RECORD_LEN;
    for fail_at in 0..=total {
        let mut wal = Wal::from_writer(
            FailpointWriter::failing_at(fail_at),
            0,
            WalConfig::sync_every_record(),
        );
        let mut acknowledged = 0usize;
        for &op in SCRIPT {
            match wal.append(op) {
                Ok(()) => acknowledged += 1,
                // First failure is the crash: a real writer stops
                // acknowledging here (WalDurability poisons itself).
                Err(_) => break,
            }
        }
        let (ops, valid) = decode_records(wal.inner().bytes());
        assert_eq!(ops, &SCRIPT[..ops.len()], "fail_at {fail_at}: not a prefix");
        assert_eq!(
            ops.len(),
            acknowledged,
            "fail_at {fail_at}: recovered ops != acknowledged ops"
        );
        assert_eq!(valid, acknowledged * RECORD_LEN, "fail_at {fail_at}");
    }
}

// ---------------------------------------------------------------------
// Torn on-disk tails at every byte, recovered and replayed.
// ---------------------------------------------------------------------

/// Truncate the on-disk log at every byte offset; each recovery must
/// yield the whole-record prefix, and replaying it must answer
/// identically to BFS over seed+prefix.
#[test]
fn torn_tail_at_every_byte_recovers_the_prefix_and_matches_bfs() {
    let (wal, root, full) = seeded_wal_dir("torn");
    let wal_path = root.join("wal.0");
    for cut in 0..=full.len() {
        fs::write(&wal_path, &full[..cut]).expect("truncate log");
        let rec = wal
            .recover()
            .expect("recover")
            .expect("generation 0 present");
        let whole = cut / RECORD_LEN;
        assert_eq!(rec.generation, 0, "cut {cut}");
        assert_eq!(
            rec.ops,
            &SCRIPT[..whole],
            "cut {cut}: not the whole-record prefix"
        );
        assert_eq!(rec.wal_bytes, (whole * RECORD_LEN) as u64, "cut {cut}");

        let mut oracle = DynamicOracle::new(rec.base);
        oracle.replay(&rec.ops).expect("replay");
        let truth = apply_ops(SEED_EDGES, &rec.ops);
        traversal::assert_matches_bfs(&graph_of(SEED_N, &truth), &format!("cut {cut}"), |u, v| {
            oracle.query(u, v)
        });
    }
    fs::remove_dir_all(&root).ok();
}

/// Flip one bit in every byte of the log: recovery must stop exactly
/// at the damaged record (CRC catches body and header damage alike)
/// and still replay the clean prefix correctly.
#[test]
fn bit_flips_anywhere_in_the_log_truncate_at_the_damaged_record() {
    let (wal, root, full) = seeded_wal_dir("flip");
    let wal_path = root.join("wal.0");
    for byte in 0..full.len() {
        for bit in [0u8, 7u8] {
            let mut damaged = full.clone();
            damaged[byte] ^= 1 << bit;
            fs::write(&wal_path, &damaged).expect("write damaged log");
            let rec = wal.recover().expect("recover").expect("gen 0");
            let clean = byte / RECORD_LEN;
            assert_eq!(
                rec.ops,
                &SCRIPT[..clean],
                "flip byte {byte} bit {bit}: must truncate at record {clean}"
            );
            let mut oracle = DynamicOracle::new(rec.base);
            oracle.replay(&rec.ops).expect("replay");
            let truth = apply_ops(SEED_EDGES, &rec.ops);
            traversal::assert_matches_bfs(
                &graph_of(SEED_N, &truth),
                &format!("flip {byte}.{bit}"),
                |u, v| oracle.query(u, v),
            );
        }
    }
    fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Rotation crash artifacts and corrupt checkpoints.
// ---------------------------------------------------------------------

/// A crash mid-rotation leaves a stale `checkpoint.tmp` and possibly
/// a corrupt newer generation; recovery must fall back to the newest
/// *valid* generation and never error on the artifacts.
#[test]
fn rotation_crash_artifacts_fall_back_to_the_valid_generation() {
    let (wal, root, _full) = seeded_wal_dir("artifacts");
    // Stale staged checkpoint (crash before the rename commit point).
    fs::write(root.join("checkpoint.tmp"), b"half-written garbage").unwrap();
    // A later generation whose checkpoint is corrupt (crash during an
    // unsynced rename on a dying disk) plus a garbage log beside it.
    fs::write(root.join("checkpoint.7"), b"\0\0not a hopl arena").unwrap();
    fs::write(root.join("wal.7"), b"\x11\x22\x33").unwrap();

    let rec = wal.recover().expect("artifacts tolerated").expect("gen 0");
    assert_eq!(rec.generation, 0, "must fall back past corrupt gen 7");
    assert_eq!(rec.ops, SCRIPT);

    let mut oracle = DynamicOracle::new(rec.base);
    oracle.replay(&rec.ops).expect("replay");
    let truth = apply_ops(SEED_EDGES, SCRIPT);
    traversal::assert_matches_bfs(&graph_of(SEED_N, &truth), "artifacts", |u, v| {
        oracle.query(u, v)
    });
    fs::remove_dir_all(&root).ok();
}

/// A remove of a new-base edge plus its *reverse* insert landing
/// mid-rebuild: the insert was acknowledged only because the remove's
/// tombstone was already live, so the rotated log must replay the
/// remove first. (Seeding `wal.N+1` inserts-first made recovery die on
/// a spurious cycle error — acknowledged, durably-logged data became
/// unrecoverable.)
#[test]
fn remove_then_reverse_insert_mid_rebuild_survives_rotation_and_restart() {
    let root = temp_dir("reverse");
    let wal = WalDir::open(&root).expect("open wal dir");
    let seed = Dag::from_edges(3, &[(0, 1)]).expect("seed dag");
    wal.initialize(&seed).expect("initialize generation 0");
    let mut oracle = DynamicOracle::new(seed);
    oracle.set_durability(Box::new(
        wal.durability(0, 0, 0, WalConfig::sync_every_record())
            .expect("open appender"),
    ));
    oracle.set_auto_rebuild(false);
    oracle.insert_edge(1, 2).expect("insert 1→2");

    // Exactly what the background worker does: snapshot the plan,
    // build off-lock, and while that build is "running" land the
    // remove + reverse insert. (0, 1) is part of the rebuilt base, so
    // the overlay after publish is Remove(0,1) + Insert(1,0) — and
    // Insert(1,0) is valid only once (0, 1) is tombstoned.
    let plan = oracle.rebuild_plan();
    let rebuilt = plan.execute();
    oracle.remove_edge(0, 1).expect("remove 0→1 mid-rebuild");
    oracle
        .insert_edge(1, 0)
        .expect("reverse insert 1→0 mid-rebuild");

    wal.prepare_checkpoint(rebuilt.index())
        .expect("stage checkpoint");
    let overlay = oracle.publish(rebuilt);
    assert_eq!(
        overlay,
        [EdgeOp::Remove(0, 1), EdgeOp::Insert(1, 0)],
        "rotation must seed removes before inserts"
    );
    oracle
        .durability_mut()
        .expect("hook installed")
        .rotate(&overlay)
        .expect("rotate");
    drop(oracle); // the "kill"

    // Restart twice: replaying the rotated generation must accept the
    // reverse insert (the tombstone replays first) both times.
    for restart in 1..=2 {
        let rec = wal
            .recover()
            .expect("recover")
            .expect("rotated generation present");
        assert_eq!(rec.generation, 1, "restart {restart}");
        let mut recovered = DynamicOracle::new(rec.base);
        recovered
            .replay(&rec.ops)
            .expect("replaying a rotated log with a reverse insert must not fail");
        let truth = apply_ops(&[(1, 2), (1, 0)], &[]);
        traversal::assert_matches_bfs(
            &graph_of(3, &truth),
            &format!("restart {restart}"),
            |u, v| recovered.query(u, v),
        );
    }
    fs::remove_dir_all(&root).ok();
}

/// A rebuild labels its snapshot once: the arena it stages is the very
/// index the namespace publishes, so it opens with the same label
/// entries and answers like BFS over the folded graph.
#[test]
fn the_staged_checkpoint_is_the_published_index() {
    let root = temp_dir("staged");
    let wal = WalDir::open(&root).expect("open wal dir");
    // Past the top hops, so the checkpoint carries label lists.
    let base = gen::random_dag(120, 360, 11);
    let n = base.num_vertices();
    let topo = base.topo_order().to_vec();
    let seed: Vec<(u32, u32)> = base.graph().edges().collect();
    let mut oracle = DynamicOracle::new(base);
    oracle.set_auto_rebuild(false);
    let mut ops: Vec<EdgeOp> = seed
        .iter()
        .step_by(5)
        .map(|&(u, v)| EdgeOp::Remove(u, v))
        .collect();
    ops.extend((0..20).map(|i| EdgeOp::Insert(topo[i], topo[i + 30])));
    oracle.replay(&ops).expect("apply mutations");

    let rebuilt = oracle.rebuild_plan().execute();
    let folded: BTreeSet<(u32, u32)> = rebuilt.dag().graph().edges().collect();
    assert_eq!(folded, apply_ops(&seed, &ops));
    wal.prepare_checkpoint(rebuilt.index())
        .expect("stage checkpoint");
    oracle.publish(rebuilt);

    let arena = fs::read(root.join("checkpoint.tmp")).expect("read staged arena");
    let staged = Oracle::open_arena_bytes(&arena).expect("staged arena opens");
    assert_eq!(staged.label_entries(), oracle.label_entries());
    traversal::assert_matches_bfs(&graph_of(n, &folded), "staged arena", |u, v| {
        staged.reaches(u, v)
    });
    fs::remove_dir_all(&root).ok();
}

/// Recovery adopts the checkpoint instead of relabeling: restarted on a
/// rotated generation with a non-empty overlay and a torn WAL tail, the
/// namespace serves the checkpoint's own labels, mapped, and answers
/// like BFS over the acknowledged ops.
#[test]
fn restart_adopts_the_rotated_checkpoint_labels() {
    const THRESHOLD: usize = 8;
    let root = temp_dir("adopt");
    let n = 24usize;
    let mut truth = apply_ops(&[(0, 1), (1, 2)], &[]);
    {
        let registry = Registry::new();
        let seed = Dag::from_edges(n, &[(0, 1), (1, 2)]).unwrap();
        let cfg = WalConfig::sync_every_record();
        registry
            .open_durable("live", seed, &root, cfg, Some(THRESHOLD))
            .expect("open durable");
        let handle = registry.get("live").unwrap();
        // Exactly one threshold's worth: the rebuild folds all of it.
        for u in 2..2 + THRESHOLD as u32 {
            handle.add_edge("live", u, u + 1).expect("insert");
            truth.insert((u, u + 1));
        }
        handle.quiesce("live");
        assert_eq!(handle.rebuilds_completed(), 1);
        // The overlay left on top of the rotated checkpoint.
        handle.add_edge("live", 0, 20).expect("insert");
        truth.insert((0, 20));
        assert!(handle.remove_edge("live", 1, 2).expect("remove"));
        truth.remove(&(1, 2));
    }
    // One rotation: generation 1 replaced generation 0.
    assert!(!root.join("checkpoint.0").exists());
    let wal_path = root.join("wal.1");
    // A torn tail: half of one more record that was never acknowledged.
    let mut log = fs::read(&wal_path).unwrap();
    assert_eq!(log.len(), 2 * RECORD_LEN);
    log.extend_from_slice(&encode_record(EdgeOp::Insert(5, 9))[..RECORD_LEN / 2]);
    fs::write(&wal_path, &log).unwrap();

    let registry = Registry::new();
    let decoy = Dag::from_edges(n, &[]).unwrap();
    registry
        .open_durable(
            "live",
            decoy,
            &root,
            WalConfig::sync_every_record(),
            Some(THRESHOLD),
        )
        .expect("reopen durable");
    let handle = registry.get("live").unwrap();
    let checkpoint = Oracle::open(root.join("checkpoint.1")).expect("checkpoint opens");
    let stats = handle.stats();
    assert_eq!(
        stats.pending_inserts + stats.pending_deletions,
        2,
        "{stats:?}"
    );
    assert_eq!(stats.label_entries, checkpoint.label_entries());
    #[cfg(unix)]
    {
        assert_eq!(stats.backend, hoplite::server::IndexBackend::Mapped);
        assert!(
            stats.mapped_bytes >= checkpoint.inner().memory().total(),
            "the adopted labels stay mapped: {stats:?}"
        );
    }
    traversal::assert_matches_bfs(&graph_of(n, &truth), "adopted", |u, v| {
        handle.reach(u, v).expect("reach")
    });
    fs::remove_dir_all(&root).ok();
}

/// When the only checkpoint is corrupt there is no state to serve —
/// that must surface as an explicit error, not silent data loss.
#[test]
fn a_sole_corrupt_checkpoint_is_an_error_not_an_empty_namespace() {
    let (wal, root, _full) = seeded_wal_dir("corrupt");
    let path = root.join("checkpoint.0");
    let mut bytes = fs::read(&path).unwrap();
    bytes[0] ^= 0xFF; // magic — validated on every open
    fs::write(&path, &bytes).unwrap();
    assert!(wal.recover().is_err(), "corrupt sole checkpoint must error");
    fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Replay idempotence.
// ---------------------------------------------------------------------

/// `recover()` is read-only and replay is idempotent: recovering
/// twice yields identical state, and replaying the same ops twice
/// (a crash *during* replay, then a second recovery) changes nothing.
#[test]
fn double_recovery_and_double_replay_are_idempotent() {
    let (wal, root, _full) = seeded_wal_dir("double");
    let first = wal.recover().unwrap().unwrap();
    let second = wal.recover().unwrap().unwrap();
    assert_eq!(first.generation, second.generation);
    assert_eq!(first.ops, second.ops);
    assert_eq!(first.wal_bytes, second.wal_bytes);

    let mut oracle = DynamicOracle::new(first.base);
    oracle.replay(&first.ops).expect("first replay");
    oracle.replay(&first.ops).expect("second replay is a no-op");
    let truth = apply_ops(SEED_EDGES, SCRIPT);
    traversal::assert_matches_bfs(&graph_of(SEED_N, &truth), "double replay", |u, v| {
        oracle.query(u, v)
    });
    fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// End-to-end: registry restart with background rebuilds in between.
// ---------------------------------------------------------------------

/// Drive a durable namespace through enough mutations to trigger
/// several background rebuilds (checkpoint rotations), "kill" the
/// process by dropping the registry, and re-open twice: both restarts
/// must answer exactly like BFS over the acknowledged edge set, and
/// the seed passed at re-open must lose to the on-disk state.
#[test]
fn registry_restart_after_background_rebuilds_matches_bfs() {
    let root = temp_dir("registry");
    let n = 16usize;
    let seed = Dag::from_edges(n, &[(0, 1), (1, 2)]).unwrap();
    let mut truth = apply_ops(&[(0, 1), (1, 2)], &[]);

    {
        let registry = Registry::new();
        registry
            .open_durable("live", seed, &root, WalConfig::sync_every_record(), Some(2))
            .expect("open durable");
        let handle = registry.get("live").unwrap();

        // A deterministic workload: forward-oriented pairs keep the
        // graph acyclic so every insert is acknowledged.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..40 {
            let a = (next() % n as u64) as u32;
            let b = (next() % n as u64) as u32;
            if a == b {
                continue;
            }
            let (u, v) = if a < b { (a, b) } else { (b, a) };
            if i % 5 == 4 {
                handle.remove_edge("live", u, v).expect("remove");
                truth.remove(&(u, v));
            } else {
                handle.add_edge("live", u, v).expect("insert");
                truth.insert((u, v));
            }
        }
        handle.quiesce("live");
        assert!(
            handle.rebuilds_completed() >= 1,
            "threshold 2 over 30+ mutations must have rebuilt"
        );
        traversal::assert_matches_bfs(&graph_of(n, &truth), "before restart", |u, v| {
            handle.reach(u, v).expect("reach")
        });
        // Registry dropped here — the "kill". Acknowledged ops are on
        // disk (sync-every-record), nothing else survives.
    }

    for restart in 1..=2 {
        let registry = Registry::new();
        // A *different* seed proves on-disk state wins over the seed.
        let decoy = Dag::from_edges(n, &[(9, 10)]).unwrap();
        registry
            .open_durable("live", decoy, &root, WalConfig::sync_every_record(), None)
            .expect("reopen durable");
        let handle = registry.get("live").unwrap();
        traversal::assert_matches_bfs(
            &graph_of(n, &truth),
            &format!("restart {restart}"),
            |u, v| handle.reach(u, v).expect("reach"),
        );
    }
    fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Mixed workload under concurrency (satellite c): wire-level reads,
// mutations, background rebuilds, and a restart, vs BFS ground truth.
// ---------------------------------------------------------------------

/// `(n, seed edges, script of (is_insert, a, b))` — a random base DAG
/// plus a random mutation script, both with edges oriented low→high so
/// the graph stays acyclic and every insert is acknowledged.
type Workload = (u32, Vec<(u32, u32)>, Vec<(bool, u32, u32)>);

fn arb_workload() -> impl Strategy<Value = Workload> {
    (4..=20u32).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n, 0..n), 0..24),
            proptest::collection::vec((any::<bool>(), 0..n, 0..n), 0..48),
        )
            .prop_map(move |(seed, script)| (n, seed, script))
    })
}

fn orient(a: u32, b: u32) -> Option<(u32, u32)> {
    match a.cmp(&b) {
        std::cmp::Ordering::Less => Some((a, b)),
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some((b, a)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Wire-level mutations race concurrent wire-level reads and
    /// threshold-2 background rebuilds; once the script drains, the
    /// served answers — and, after a full restart replaying
    /// checkpoint+WAL, the recovered answers — equal BFS over the
    /// acknowledged edge set.
    #[test]
    fn concurrent_wire_workload_then_restart_matches_bfs(
        (n, seed_pairs, script) in arb_workload()
    ) {
        let root = temp_dir("prop");
        let seed_edges: BTreeSet<(u32, u32)> =
            seed_pairs.iter().filter_map(|&(a, b)| orient(a, b)).collect();
        let seed_vec: Vec<(u32, u32)> = seed_edges.iter().copied().collect();
        let seed = Dag::from_edges(n as usize, &seed_vec).unwrap();
        let mut truth = seed_edges.clone();

        let registry = Arc::new(Registry::new());
        registry
            .open_durable("live", seed, &root, WalConfig::default(), Some(2))
            .expect("open durable");
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
        )
        .expect("bind");
        let addr = server.local_addr();

        // Concurrent readers: hammer random pairs the whole time the
        // writer runs. Answers vary while mutations land; the
        // invariant here is liveness + clean frames (no errors, no
        // hangs), with correctness asserted after the writer drains.
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|t| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connect");
                    let mut state = 0xACE1u64 + t;
                    let mut queries = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let u = (state % n as u64) as u32;
                        let v = ((state >> 32) % n as u64) as u32;
                        client.reach("live", u, v).expect("concurrent read");
                        queries += 1;
                    }
                    queries
                })
            })
            .collect();

        let mut writer = Client::connect(addr).expect("writer connect");
        for &(insert, a, b) in &script {
            let Some((u, v)) = orient(a, b) else { continue };
            if insert {
                writer.add_edge("live", u, v).expect("wire insert");
                truth.insert((u, v));
            } else {
                writer.remove_edge("live", u, v).expect("wire remove");
                truth.remove(&(u, v));
            }
        }

        let handle = registry.get("live").unwrap();
        handle.quiesce("live");
        traversal::assert_matches_bfs(&graph_of(n as usize, &truth), "served", |u, v| {
            writer.reach("live", u, v).expect("reach")
        });

        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let queries = r.join().expect("reader thread");
            prop_assert!(queries > 0, "reader never got a query through");
        }
        // Acknowledged mutations must be on disk before the "kill":
        // the default config group-commits, so force the tail out the
        // way a clean shutdown does.
        handle.sync_durability().expect("final sync");
        server.shutdown();
        drop(handle);
        drop(registry);

        // Restart: recover checkpoint + WAL into a fresh registry and
        // compare against the same ground truth.
        let registry = Registry::new();
        let decoy = Dag::from_edges(n as usize, &[]).unwrap();
        registry
            .open_durable("live", decoy, &root, WalConfig::default(), None)
            .expect("reopen");
        let handle = registry.get("live").unwrap();
        traversal::assert_matches_bfs(&graph_of(n as usize, &truth), "restarted", |u, v| {
            handle.reach(u, v).expect("recovered reach")
        });
        fs::remove_dir_all(&root).ok();
    }
}

// Keep the unused-import lint honest: Oracle is exercised indirectly
// (checkpoints are HOPL arenas opened by recovery), and opening one
// directly documents the on-disk format contract.
#[test]
fn checkpoints_are_plain_hopl_arenas() {
    let (_wal, root, _full) = seeded_wal_dir("arena");
    let oracle = Oracle::open(root.join("checkpoint.0")).expect("checkpoint opens as HOPL");
    assert_eq!(oracle.comp_of().len(), SEED_N);
    fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Checkpoints written in the previous arena format.
// ---------------------------------------------------------------------

/// Rewrites a v4 arena as the v3 file the previous format wrote: the
/// version word, a rank-band signature shift in header bytes 32..36,
/// the `OUT_SIG`/`IN_SIG` tags where v4 has its mask sections, and
/// both covering checksums resealed.
fn as_v3_arena(v4: &[u8]) -> Vec<u8> {
    let mut buf = v4.to_vec();
    buf[4..8].copy_from_slice(&3u32.to_le_bytes());
    buf[32..36].copy_from_slice(&9u32.to_le_bytes());
    let count = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    let table_end = 64 + count * 32;
    for entry in buf[64..table_end].chunks_exact_mut(32) {
        match &entry[..8] {
            b"OUT_MASK" => entry[..8].copy_from_slice(b"OUT_SIG\0"),
            b"IN_MASK\0" => entry[..8].copy_from_slice(b"IN_SIG\0\0"),
            _ => {}
        }
    }
    let table_sum = checksum(&buf[64..table_end]);
    buf[48..56].copy_from_slice(&table_sum.to_le_bytes());
    let header_sum = checksum(&buf[..56]);
    buf[56..64].copy_from_slice(&header_sum.to_le_bytes());
    buf
}

/// A durable namespace whose checkpoint is a HOPL v3 arena — written
/// before the top-hop reach masks changed the labels — still opens:
/// recovery relabels the checkpoint's graph into a v4 checkpoint in
/// place, the log replays on top, and the served answers match BFS
/// over the acknowledged edges. A damaged v3 checkpoint is an error
/// naming the failed upgrade, not an empty namespace.
#[test]
fn a_v3_checkpoint_is_upgraded_in_place_and_its_log_replays() {
    let root = temp_dir("v3");
    let n = 150usize;
    let base = gen::random_dag(n, 450, 21);
    let seed_edges: Vec<(u32, u32)> = base.graph().edges().collect();
    let wal = WalDir::open(&root).expect("open wal dir");
    wal.initialize(&base).expect("initialize generation 0");

    // A log that removes a seed edge and inserts every candidate that
    // keeps the graph acyclic.
    let mut ops = vec![EdgeOp::Remove(seed_edges[0].0, seed_edges[0].1)];
    for (u, v) in [(0u32, 149u32), (149, 0), (7, 93), (120, 3), (40, 41)] {
        let mut with = apply_ops(&seed_edges, &ops);
        with.insert((u, v));
        if Dag::new(graph_of(n, &with)).is_ok() {
            ops.push(EdgeOp::Insert(u, v));
        }
    }
    assert!(ops.len() >= 3, "{ops:?}");
    let mut dur = wal
        .durability(0, 0, 0, WalConfig::sync_every_record())
        .expect("open appender");
    for &op in &ops {
        dur.log(op).expect("log");
    }
    dur.sync().expect("sync");
    drop(dur);

    let path = root.join("checkpoint.0");
    let v3 = as_v3_arena(&fs::read(&path).unwrap());
    fs::write(&path, &v3).unwrap();
    let refused = Oracle::open(&path).unwrap_err().to_string();
    assert!(refused.contains("version 3"), "{refused}");

    // A bit flip in a v3 section fails the upgrade, and with no older
    // generation that is an error.
    let comp_of_at = u64::from_le_bytes(v3[72..80].try_into().unwrap()) as usize;
    let mut damaged = v3.clone();
    damaged[comp_of_at] ^= 0x01;
    fs::write(&path, &damaged).unwrap();
    let err = wal
        .recover()
        .err()
        .expect("damaged v3 checkpoint")
        .to_string();
    assert!(err.contains("v3 upgrade"), "{err}");
    fs::write(&path, &v3).unwrap();

    // The registry opens the v3 directory: the seed it is handed loses
    // to the upgraded checkpoint plus its log.
    let truth = apply_ops(&seed_edges, &ops);
    {
        let registry = Registry::new();
        let decoy = Dag::from_edges(n, &[]).unwrap();
        registry
            .open_durable("old", decoy, &root, WalConfig::sync_every_record(), None)
            .expect("open durable over a v3 checkpoint");
        let handle = registry.get("old").unwrap();
        traversal::assert_matches_bfs(&graph_of(n, &truth), "served after the upgrade", |u, v| {
            handle.reach(u, v).expect("reach")
        });
    }

    // On disk the checkpoint is now v4 over the same base, with labels,
    // and recovering again is a plain, stable open.
    let upgraded = Oracle::open(&path).expect("checkpoint.0 is v4 after the upgrade");
    assert!(upgraded.label_entries() > 0);
    traversal::assert_matches_bfs(base.graph(), "upgraded checkpoint", |u, v| {
        upgraded.reaches(u, v)
    });
    let first = wal.recover().unwrap().expect("generation 0");
    let second = wal.recover().unwrap().expect("generation 0");
    assert_eq!(first.generation, 0);
    assert_eq!(first.base.graph(), base.graph());
    assert_eq!(first.ops, ops);
    assert_eq!(
        (second.generation, second.ops, second.wal_bytes),
        (first.generation, first.ops.clone(), first.wal_bytes)
    );
    fs::remove_dir_all(&root).ok();
}
