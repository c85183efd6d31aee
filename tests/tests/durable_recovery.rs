//! Crash-recovery drills for the durable store: a seeded kill at every
//! durability step must leave on-disk state that recovers byte-identically
//! to an uninterrupted engine fed the surviving batches — for both
//! engines, at every kill point, at every batch position. The WAL tail
//! rule is also pinned: a torn final record is truncated with a warning;
//! interior damage is a typed `Corrupted` error.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail fast; a panic here is the test failing"
)]

use std::path::PathBuf;

use proptest::prelude::*;
use sketches::core::SketchError;
use sketches::streamdb::{
    Aggregate, CheckpointPolicy, DurableEngine, KillPoint, QuerySpec, Row, ShardedEngine,
    SketchEngine, StreamEngine, Value, SIMULATED_CRASH_MARKER,
};
use sketches_integration_tests::scratch_dir;
use sketches_workloads::faults::{CrashOp, CrashPlan};

const NUM_BATCHES: u64 = 8;
const BATCH_ROWS: u64 = 120;

fn spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::Sum { field: 2 },
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
            Aggregate::TopK { field: 1, k: 3 },
        ],
    )
    .expect("valid spec")
}

fn batch(seed: u64, idx: u64) -> Vec<Row> {
    (0..BATCH_ROWS)
        .map(|i| {
            let x = i
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed.wrapping_mul(131).wrapping_add(idx));
            vec![
                Value::U64(x % 9),
                Value::U64(x % 211),
                Value::F64((x % 500) as f64),
            ]
        })
        .collect()
}

fn kill_point(op: CrashOp) -> KillPoint {
    match op {
        CrashOp::BeforeWalAppend => KillPoint::BeforeWalAppend,
        CrashOp::MidWalAppend => KillPoint::MidWalAppend,
        CrashOp::AfterWalAppend => KillPoint::AfterWalAppend,
        CrashOp::MidCheckpointTemp => KillPoint::MidCheckpointTemp,
        CrashOp::BeforeCheckpointRename => KillPoint::BeforeCheckpointRename,
        CrashOp::AfterCheckpointRename => KillPoint::AfterCheckpointRename,
    }
}

/// One full drill: ingest until the planted crash, recover, compare against
/// an uninterrupted reference fed the surviving prefix — then resume both
/// and compare again. Written once against `StreamEngine`, run for both
/// engines by the callers below.
fn drill<E: StreamEngine>(tag: &str, make: &dyn Fn() -> E, seed: u64, at_batch: u64, op: CrashOp) {
    let dir = scratch_dir("sketches-durable-drill", tag);
    // A tight row bound so natural checkpoints interleave with planted ones.
    let policy = CheckpointPolicy::new(3 * BATCH_ROWS, u64::MAX).expect("policy");

    let mut durable = DurableEngine::create(&dir, make(), policy).expect("create");
    durable.arm_kill(at_batch, kill_point(op));
    let mut crashed_at = None;
    for i in 0..NUM_BATCHES {
        match durable.process_batch(&batch(seed, i)) {
            Ok(_) => {}
            Err(e) => {
                assert!(
                    e.to_string().contains(SIMULATED_CRASH_MARKER),
                    "unexpected failure: {e}"
                );
                crashed_at = Some(i);
                break;
            }
        }
    }
    assert_eq!(crashed_at, Some(at_batch), "crash fired at the wrong batch");
    assert!(durable.is_poisoned());
    drop(durable);

    // The reference: an uninterrupted engine fed only the batches that
    // must have survived the crash.
    let prefix_end = at_batch + u64::from(op.batch_survives());
    let mut reference = make();
    for i in 0..prefix_end {
        reference.process_batch(&batch(seed, i)).expect("reference");
    }

    let mut recovered = DurableEngine::<E>::recover_with_policy(&dir, policy).expect("recover");
    assert_eq!(
        recovered.engine().to_snapshot_bytes(),
        reference.to_snapshot_bytes(),
        "recovered state diverged (seed {seed}, batch {at_batch}, {op:?})"
    );

    // Resume: upstream re-sends the lost batch (if any) plus the rest.
    for i in prefix_end..NUM_BATCHES {
        recovered.process_batch(&batch(seed, i)).expect("resume");
        reference.process_batch(&batch(seed, i)).expect("resume");
    }
    assert_eq!(
        recovered.engine().to_snapshot_bytes(),
        reference.to_snapshot_bytes(),
        "post-resume state diverged (seed {seed}, batch {at_batch}, {op:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every kill point × several batch positions, sequential engine. The
/// exhaustive grid guarantees no (point, position) pair goes untested even
/// if the seeded property sweep under-samples one.
#[test]
fn crash_grid_sequential() {
    for op in CrashOp::ALL {
        for at_batch in [0, 2, NUM_BATCHES - 1] {
            drill(
                "grid-seq",
                &|| SketchEngine::new(spec()).expect("engine"),
                0xD00D,
                at_batch,
                op,
            );
        }
    }
}

/// The same grid for the sharded engine — the drill is the same function.
#[test]
fn crash_grid_sharded() {
    for op in CrashOp::ALL {
        for at_batch in [0, 2, NUM_BATCHES - 1] {
            drill(
                "grid-shard",
                &|| ShardedEngine::new(spec(), 3).expect("engine"),
                0xD00D,
                at_batch,
                op,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeded crash plans: random (batch, kill-point) pairs against the
    /// sequential engine recover byte-exactly.
    #[test]
    fn prop_seeded_crashes_recover_exactly(seed in 0u64..1_000_000) {
        let plan = CrashPlan::generate(seed, NUM_BATCHES);
        drill(
            "prop-seq",
            &|| SketchEngine::new(spec()).expect("engine"),
            seed,
            plan.at_batch,
            plan.op,
        );
    }

    /// The same property through the sharded engine.
    #[test]
    fn prop_seeded_crashes_recover_exactly_sharded(seed in 0u64..1_000_000) {
        let plan = CrashPlan::generate(seed, NUM_BATCHES);
        drill(
            "prop-shard",
            &|| ShardedEngine::new(spec(), 2).expect("engine"),
            seed,
            plan.at_batch,
            plan.op,
        );
    }
}

/// Find the single WAL segment of a durable directory.
fn wal_path(dir: &std::path::Path) -> PathBuf {
    std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "wal"))
        .expect("wal segment present")
}

/// Builds a store with two logged batches and returns (dir, snapshot of
/// batch-1-only state, snapshot of full state).
fn two_batch_store(tag: &str) -> (PathBuf, Vec<u8>, Vec<u8>) {
    let dir = scratch_dir("sketches-durable-drill", tag);
    let mut durable = DurableEngine::create(
        &dir,
        SketchEngine::new(spec()).expect("engine"),
        CheckpointPolicy::default(),
    )
    .expect("create");
    durable.process_batch(&batch(1, 0)).expect("batch 0");
    let first_only = {
        let mut e = SketchEngine::new(spec()).expect("engine");
        e.process_batch(&batch(1, 0)).expect("batch 0");
        e.to_snapshot_bytes()
    };
    durable.process_batch(&batch(1, 1)).expect("batch 1");
    let full = durable.engine().to_snapshot_bytes();
    (dir, first_only, full)
}

#[test]
fn torn_tail_is_truncated_with_warning() {
    let (dir, first_only, _full) = two_batch_store("torn");
    // Chop bytes off the final record: a torn append.
    let wal = wal_path(&dir);
    let bytes = std::fs::read(&wal).expect("read wal");
    std::fs::write(&wal, &bytes[..bytes.len() - 11]).expect("tear");

    let recovered = DurableEngine::<SketchEngine>::recover(&dir).expect("recover");
    assert_eq!(recovered.engine().to_snapshot_bytes(), first_only);
    let report = recovered.recovery().expect("report");
    assert_eq!(report.batches_replayed, 1);
    assert!(report.torn_tail_bytes > 0);
    assert!(
        report.warnings.iter().any(|w| w.contains("torn")),
        "no torn-tail warning: {:?}",
        report.warnings
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interior_corruption_is_rejected_not_truncated() {
    let (dir, _first_only, _full) = two_batch_store("interior");
    let wal = wal_path(&dir);
    let mut bytes = std::fs::read(&wal).expect("read wal");
    // Damage the FIRST record's body (offset 22 = 14-byte header + 8-byte
    // length prefix) while the second record is intact after it.
    bytes[25] ^= 0x08;
    std::fs::write(&wal, &bytes).expect("corrupt");

    let err = DurableEngine::<SketchEngine>::recover(&dir).expect_err("must reject");
    assert!(matches!(err, SketchError::Corrupted { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_single_byte_of_wal_body_damage_is_detected_or_torn() {
    // Sweep: flip one byte at EVERY offset of the record region. Damage in
    // the final record may be repaired by truncation (recovering the
    // first-batch state); damage in the first record must be rejected.
    // Either way, recovery must never panic and never return full state
    // from a damaged log... unless the flip landed in bytes that do not
    // affect decoding (none exist: length, body, and checksum all bind).
    let (dir, first_only, full) = two_batch_store("sweep");
    let empty = SketchEngine::new(spec())
        .expect("engine")
        .to_snapshot_bytes();
    let wal = wal_path(&dir);
    let pristine = std::fs::read(&wal).expect("read wal");
    let header = 14usize;
    for at in header..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[at] ^= 0x01;
        std::fs::write(&wal, &bytes).expect("write");
        match DurableEngine::<SketchEngine>::recover(&dir) {
            Ok(recovered) => {
                let got = recovered.engine().to_snapshot_bytes();
                assert_ne!(got, full, "byte {at}: damaged log replayed as whole");
                // Truncation stops at a record boundary: the state is a
                // strict batch prefix (one batch, or none when the damaged
                // length prefix swallowed the rest of the file).
                assert!(
                    got == first_only || got == empty,
                    "byte {at}: recovered state is not a batch prefix"
                );
                assert!(recovered.recovery().expect("report").torn_tail_bytes > 0);
            }
            Err(SketchError::Corrupted { .. }) => {}
            Err(e) => panic!("byte {at}: unexpected error class: {e}"),
        }
        // recover() may have truncated the segment; restore it for the
        // next offset.
        std::fs::write(&wal, &pristine).expect("restore");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stray_tmp_checkpoint_is_discarded() {
    let (dir, _first_only, full) = two_batch_store("tmp");
    // A temp file that never committed must be ignored and deleted, even
    // if its content is garbage.
    let stray = dir.join("checkpoint-00000000000000000009.skcp.tmp");
    std::fs::write(&stray, b"half-written garbage").expect("stray");
    let recovered = DurableEngine::<SketchEngine>::recover(&dir).expect("recover");
    assert_eq!(recovered.engine().to_snapshot_bytes(), full);
    assert!(!stray.exists(), "stray tmp survived recovery");
    assert!(recovered
        .recovery()
        .expect("report")
        .warnings
        .iter()
        .any(|w| w.contains("temp")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_lag_stays_bounded() {
    let dir = scratch_dir("sketches-durable-drill", "lag");
    let policy = CheckpointPolicy::new(250, u64::MAX).expect("policy");
    let mut durable =
        DurableEngine::create(&dir, SketchEngine::new(spec()).expect("engine"), policy)
            .expect("create");
    for i in 0..20 {
        durable.process_batch(&batch(3, i)).expect("ingest");
        // The WAL never holds more than the bound plus the batch that
        // tripped it (the checkpoint runs right after that batch).
        assert!(
            durable.wal_rows() < 250 + BATCH_ROWS,
            "lag bound violated: {} rows in WAL",
            durable.wal_rows()
        );
    }
    // 20 batches x 120 rows with a 250-row bound trip a checkpoint every
    // third batch: six epochs by batch 17.
    assert!(durable.epoch() >= 6, "checkpoints not keeping up");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn create_refuses_existing_store_and_recover_needs_one() {
    let dir = scratch_dir("sketches-durable-drill", "guard");
    let durable = DurableEngine::create(
        &dir,
        SketchEngine::new(spec()).expect("engine"),
        CheckpointPolicy::default(),
    )
    .expect("create");
    drop(durable);
    let err = DurableEngine::create(
        &dir,
        SketchEngine::new(spec()).expect("engine"),
        CheckpointPolicy::default(),
    )
    .expect_err("must refuse");
    assert!(matches!(err, SketchError::InvalidParameter { .. }), "{err}");

    let empty = scratch_dir("sketches-durable-drill", "guard-empty");
    std::fs::create_dir_all(&empty).expect("mkdir");
    let err = DurableEngine::<SketchEngine>::recover(&empty).expect_err("nothing to recover");
    assert!(matches!(err, SketchError::Corrupted { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}
