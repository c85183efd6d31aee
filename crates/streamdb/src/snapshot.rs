//! Checksummed checkpoint snapshots of the stream engines.
//!
//! A snapshot is a self-validating byte envelope around an engine's full
//! state (spec, config, every group's sketch states, RNG positions):
//!
//! ```text
//! +-------+---------+------+---------------------+-------------------+
//! | magic | version | kind | len-prefixed payload| xxh64 checksum    |
//! | SKCP  |  u16    | u8   | u64 len + bytes     | u64 (all prior)   |
//! +-------+---------+------+---------------------+-------------------+
//! ```
//!
//! * the **checksum** (seeded xxh64 over every byte before it) catches bit
//!   flips and truncations;
//! * the **magic/version/kind** header catches format and version skew;
//! * the **payload codec** ([`sketches_core::ByteReader`]) validates every
//!   structural invariant on the way in: length prefixes against remaining
//!   bytes, sketch parameters against the engine config, sorted group
//!   keys, sparse-entry ordering, …
//!
//! Every corruption is reported as a typed
//! [`SketchError::Corrupted`] — restore never panics and never produces a
//! silently-wrong engine. Restoring is *exact*: the restored engine's
//! future behaviour (including RNG-driven sketch decisions) is
//! byte-identical to the original's, which experiment E22 asserts.
//!
//! Snapshots are in-memory byte images; durability (where to write them,
//! fsync discipline) is the caller's concern.

use std::borrow::Borrow;

use sketches_core::{ByteReader, ByteWriter, SketchError, SketchResult};
use sketches_hash::xxhash::xxh64;

use crate::engine::SketchEngine;
use crate::sharded::ShardedEngine;

/// Leading magic of every snapshot ("SKetch CheckPoint").
const MAGIC: &[u8; 4] = b"SKCP";

/// Format version; bumped on any layout change so old readers fail with a
/// typed error instead of misparsing. Version 2: [`EngineConfig`] gained
/// the SF-sketch width fields (`sf_fat_width`, `sf_slim_width`). Version
/// 3: the sharded payload lost its leading channel-depth `u64` (the knob
/// is gone; it starts at the shard count).
///
/// [`EngineConfig`]: crate::engine::EngineConfig
const VERSION: u16 = 3;

/// Kind tag: a sequential [`SketchEngine`].
const KIND_ENGINE: u8 = 1;

/// Kind tag: a [`ShardedEngine`].
const KIND_SHARDED: u8 = 2;

/// Seed of the envelope checksum, distinct from every sketch seed.
const CHECKSUM_SEED: u64 = 0x5AFE_C0DE_CAFE_0001;

/// Smallest well-formed snapshot: header (4 + 2 + 1), payload length
/// prefix (8), checksum (8).
const MIN_LEN: usize = 4 + 2 + 1 + 8 + 8;

/// The engine kind a snapshot envelope holds — the typed face of the
/// envelope's kind byte, so callers never match on raw header bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A sequential [`SketchEngine`].
    Engine,
    /// A [`ShardedEngine`] (also what the concurrent engine publishes).
    Sharded,
}

impl std::fmt::Display for SnapshotKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Engine => "engine",
            Self::Sharded => "sharded",
        })
    }
}

/// A restored engine snapshot: whichever engine kind the bytes contained.
#[derive(Debug, Clone)]
#[allow(
    clippy::large_enum_variant,
    reason = "one short-lived value per restore: boxing buys only an allocation"
)]
pub enum Snapshot {
    /// A sequential engine.
    Engine(SketchEngine),
    /// A sharded engine (shard count restored too).
    Sharded(ShardedEngine),
}

impl Snapshot {
    /// The kind of engine this snapshot holds.
    #[must_use]
    pub fn kind(&self) -> SnapshotKind {
        match self {
            Self::Engine(_) => SnapshotKind::Engine,
            Self::Sharded(_) => SnapshotKind::Sharded,
        }
    }

    /// Reads the kind tag out of a raw envelope without restoring it —
    /// header validation only (length, magic, version, known kind), no
    /// checksum pass and no payload decode.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on truncation, bad magic,
    /// version skew, or an unknown kind byte.
    pub fn kind_of(bytes: &[u8]) -> SketchResult<SnapshotKind> {
        let (kind, _) = parse_header(bytes)?;
        Ok(kind)
    }

    /// Reads the payload length out of a raw envelope without restoring
    /// it — the typed replacement for hand-indexing the length prefix at
    /// byte 7. Validates the header and that the declared payload actually
    /// fits the buffer.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on truncation, bad magic,
    /// version skew, an unknown kind, or a length the buffer cannot hold.
    pub fn payload_len(bytes: &[u8]) -> SketchResult<usize> {
        let (_, len) = parse_header(bytes)?;
        Ok(len)
    }
    /// Serializes the snapshot to its checksummed envelope.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Self::Engine(engine) => encode(SnapshotKind::Engine, std::slice::from_ref(engine)),
            Self::Sharded(sharded) => encode(SnapshotKind::Sharded, &sharded.shards),
        }
    }

    /// Restores a snapshot from [`to_bytes`](Self::to_bytes) output.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on any damage: truncation, bit
    /// flips (checksum mismatch), bad magic, unsupported version, unknown
    /// kind, or a payload whose structure fails validation.
    pub fn from_bytes(bytes: &[u8]) -> SketchResult<Self> {
        if bytes.len() < MIN_LEN {
            return Err(SketchError::corrupted(format!(
                "snapshot too short: {} bytes (need at least {MIN_LEN})",
                bytes.len()
            )));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        // Verify the checksum first: it distinguishes transport damage
        // (flips/truncation) from genuine format skew in the header.
        let stored = u64::from_le_bytes(tail.try_into().map_err(|_| {
            // Unreachable given the length guard, but no panic paths here.
            SketchError::corrupted("snapshot checksum tail malformed")
        })?);
        if xxh64(body, CHECKSUM_SEED) != stored {
            return Err(SketchError::corrupted("snapshot checksum mismatch"));
        }
        let mut r = ByteReader::new(body);
        let magic = r.bytes(4)?;
        if magic != MAGIC {
            return Err(SketchError::corrupted(format!(
                "bad snapshot magic {magic:?} (expected {MAGIC:?})"
            )));
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(SketchError::corrupted(format!(
                "unsupported snapshot version {version} (this build reads {VERSION})"
            )));
        }
        let kind = r.u8()?;
        let payload = r.len_prefixed()?;
        r.expect_end("snapshot envelope")?;
        let mut pr = ByteReader::new(payload);
        let snapshot = match kind {
            KIND_ENGINE => Self::Engine(SketchEngine::read_state_payload(&mut pr)?),
            KIND_SHARDED => {
                let num_shards = pr.u32()? as usize;
                if num_shards == 0 {
                    return Err(SketchError::corrupted("snapshot has zero shards"));
                }
                // Each shard payload carries at least its 8-byte length
                // prefix; reject counts the buffer cannot possibly hold
                // before allocating for them.
                if num_shards > pr.remaining() / 8 {
                    return Err(SketchError::corrupted(format!(
                        "snapshot claims {num_shards} shards but only {} payload bytes remain",
                        pr.remaining()
                    )));
                }
                let mut shards = Vec::with_capacity(num_shards);
                for i in 0..num_shards {
                    let shard_bytes = pr.len_prefixed()?;
                    let mut sr = ByteReader::new(shard_bytes);
                    let shard = SketchEngine::read_state_payload(&mut sr)?;
                    sr.expect_end("snapshot shard payload")?;
                    if i > 0 {
                        let first: &SketchEngine = &shards[0];
                        if shard.spec != first.spec || shard.config != first.config {
                            return Err(SketchError::corrupted(format!(
                                "snapshot shard {i} disagrees with shard 0 on spec or config"
                            )));
                        }
                    }
                    shards.push(shard);
                }
                Self::Sharded(ShardedEngine::from_shards(shards))
            }
            other => {
                return Err(SketchError::corrupted(format!(
                    "unknown snapshot kind {other} (expected {KIND_ENGINE} or {KIND_SHARDED})"
                )));
            }
        };
        pr.expect_end("snapshot payload")?;
        Ok(snapshot)
    }
}

/// The one envelope writer, over *borrowed* shards — serializing never
/// copies sketch state. [`SnapshotKind::Engine`] frames `shards[0]`'s
/// payload bare; [`SnapshotKind::Sharded`] frames the shard count and
/// every shard's payload length-prefixed, which is why the sharded
/// engine, the concurrent engine and its read handle (which hold their
/// shards three different ways) all produce identical bytes.
pub(crate) fn encode<S: Borrow<SketchEngine>>(kind: SnapshotKind, shards: &[S]) -> Vec<u8> {
    let mut payload = ByteWriter::new();
    let kind = match kind {
        SnapshotKind::Engine => {
            shards[0].borrow().write_state_payload(&mut payload);
            KIND_ENGINE
        }
        SnapshotKind::Sharded => {
            payload.put_u32(shards.len() as u32);
            for shard in shards {
                let mut sw = ByteWriter::new();
                shard.borrow().write_state_payload(&mut sw);
                payload.put_len_prefixed(sw.as_slice());
            }
            KIND_SHARDED
        }
    };
    let mut w = ByteWriter::new();
    w.put_bytes(MAGIC);
    w.put_u16(VERSION);
    w.put_u8(kind);
    w.put_len_prefixed(payload.as_slice());
    let checksum = xxh64(w.as_slice(), CHECKSUM_SEED);
    w.put_u64(checksum);
    w.into_bytes()
}

/// Shared header walk behind [`Snapshot::kind_of`] /
/// [`Snapshot::payload_len`]: validates magic, version, kind, and that the
/// declared payload fits, returning `(kind, payload_len)`.
fn parse_header(bytes: &[u8]) -> SketchResult<(SnapshotKind, usize)> {
    if bytes.len() < MIN_LEN {
        return Err(SketchError::corrupted(format!(
            "snapshot too short: {} bytes (need at least {MIN_LEN})",
            bytes.len()
        )));
    }
    let mut r = ByteReader::new(bytes);
    let magic = r.bytes(4)?;
    if magic != MAGIC {
        return Err(SketchError::corrupted(format!(
            "bad snapshot magic {magic:?} (expected {MAGIC:?})"
        )));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SketchError::corrupted(format!(
            "unsupported snapshot version {version} (this build reads {VERSION})"
        )));
    }
    let kind = match r.u8()? {
        KIND_ENGINE => SnapshotKind::Engine,
        KIND_SHARDED => SnapshotKind::Sharded,
        other => {
            return Err(SketchError::corrupted(format!(
                "unknown snapshot kind {other} (expected {KIND_ENGINE} or {KIND_SHARDED})"
            )));
        }
    };
    let len = r.u64()?;
    // Header (15) + payload + checksum (8) must fit the buffer.
    if len > (bytes.len() - MIN_LEN) as u64 {
        return Err(SketchError::corrupted(format!(
            "snapshot declares a {len}-byte payload but only {} bytes follow the header",
            bytes.len() - MIN_LEN
        )));
    }
    Ok((kind, len as usize))
}

impl SketchEngine {
    /// Serializes this engine as a checksummed snapshot.
    #[must_use]
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        encode(SnapshotKind::Engine, std::slice::from_ref(self))
    }

    /// Restores an engine from [`to_snapshot_bytes`](Self::to_snapshot_bytes)
    /// output.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on any damage, or if the bytes
    /// hold a sharded snapshot instead.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> SketchResult<Self> {
        match Snapshot::from_bytes(bytes)? {
            Snapshot::Engine(engine) => Ok(engine),
            Snapshot::Sharded(_) => Err(SketchError::corrupted(
                "snapshot holds a sharded engine, not a sequential one",
            )),
        }
    }
}

impl ShardedEngine {
    /// Serializes this engine as a checksummed snapshot (shard count
    /// included, so restore rebuilds the same topology).
    #[must_use]
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        encode(SnapshotKind::Sharded, &self.shards)
    }

    /// Restores a sharded engine from
    /// [`to_snapshot_bytes`](Self::to_snapshot_bytes) output.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on any damage, or if the bytes
    /// hold a sequential snapshot instead.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> SketchResult<Self> {
        match Snapshot::from_bytes(bytes)? {
            Snapshot::Sharded(sharded) => Ok(sharded),
            Snapshot::Engine(_) => Err(SketchError::corrupted(
                "snapshot holds a sequential engine, not a sharded one",
            )),
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::useless_vec,
    reason = "`row!` expands to `vec![...]`, which tests also pass to slice-taking query methods"
)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::query::{Aggregate, QuerySpec};
    use crate::row;
    use crate::value::Row;

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
        .unwrap()
    }

    fn rows(n: u64, num_groups: u64) -> Vec<Row> {
        (0..n)
            .map(|i| row![i % num_groups, i % 97, (i % 1_000) as f64])
            .collect()
    }

    fn reports(engine: &SketchEngine, num_groups: u64) -> Vec<String> {
        (0..num_groups)
            .map(|g| format!("{:?}", engine.report(&row![g]).unwrap()))
            .collect()
    }

    #[test]
    fn engine_snapshot_round_trips_and_resumes_identically() {
        let data = rows(5_000, 13);
        let (warm, rest) = data.split_at(3_000);
        let mut original = SketchEngine::new(spec()).unwrap();
        original.process_batch(warm).unwrap();

        let bytes = original.to_snapshot_bytes();
        let mut restored = SketchEngine::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.to_snapshot_bytes(), bytes);

        // Exact restore: future ingest (including RNG-driven KLL
        // promotions) stays byte-identical to the original.
        original.process_batch(rest).unwrap();
        restored.process_batch(rest).unwrap();
        assert_eq!(restored.to_snapshot_bytes(), original.to_snapshot_bytes());
        assert_eq!(reports(&restored, 13), reports(&original, 13));
    }

    #[test]
    fn sharded_snapshot_round_trips_and_resumes_identically() {
        let data = rows(6_000, 11);
        let (warm, rest) = data.split_at(4_000);
        let mut original = ShardedEngine::new(spec(), 4).unwrap();
        original.process_batch(warm).unwrap();

        let bytes = original.to_snapshot_bytes();
        let mut restored = ShardedEngine::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.num_shards(), 4);
        assert_eq!(restored.to_snapshot_bytes(), bytes);

        original.process_batch(rest).unwrap();
        restored.process_batch(rest).unwrap();
        assert_eq!(restored.to_snapshot_bytes(), original.to_snapshot_bytes());
        for g in 0..11u64 {
            assert_eq!(
                restored.report(&row![g]).unwrap(),
                original.report(&row![g]).unwrap()
            );
        }
    }

    #[test]
    fn kind_mismatch_is_typed() {
        let mut engine = SketchEngine::new(spec()).unwrap();
        engine.process_batch(&rows(100, 3)).unwrap();
        let bytes = engine.to_snapshot_bytes();
        assert!(matches!(
            ShardedEngine::from_snapshot_bytes(&bytes),
            Err(SketchError::Corrupted { .. })
        ));
        let sharded = ShardedEngine::new(spec(), 2).unwrap();
        assert!(matches!(
            SketchEngine::from_snapshot_bytes(&sharded.to_snapshot_bytes()),
            Err(SketchError::Corrupted { .. })
        ));
    }

    #[test]
    fn corrupted_snapshots_are_typed_never_panic() {
        let mut engine = SketchEngine::with_config(
            spec(),
            EngineConfig {
                hll_precision: 4,
                kll_k: 8,
                space_saving_counters: 4,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        engine.process_batch(&rows(200, 3)).unwrap();
        let bytes = engine.to_snapshot_bytes();

        // Every truncation.
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes[..cut]),
                    Err(SketchError::Corrupted { .. })
                ),
                "truncation to {cut} bytes not detected"
            );
        }
        // A bit flip in every byte (checksum catches body flips; flips in
        // the checksum itself mismatch the body).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                matches!(
                    Snapshot::from_bytes(&bad),
                    Err(SketchError::Corrupted { .. })
                ),
                "bit flip at byte {i} not detected"
            );
        }
    }

    #[test]
    fn kind_and_payload_len_read_without_restoring() {
        let mut engine = SketchEngine::new(spec()).unwrap();
        engine.process_batch(&rows(500, 5)).unwrap();
        let bytes = engine.to_snapshot_bytes();
        assert_eq!(Snapshot::kind_of(&bytes).unwrap(), SnapshotKind::Engine);
        // Envelope = 15-byte header + payload + 8-byte checksum.
        assert_eq!(Snapshot::payload_len(&bytes).unwrap(), bytes.len() - 15 - 8);
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap().kind(),
            SnapshotKind::Engine
        );

        let sharded = ShardedEngine::new(spec(), 3).unwrap();
        let sbytes = sharded.to_snapshot_bytes();
        assert_eq!(Snapshot::kind_of(&sbytes).unwrap(), SnapshotKind::Sharded);
        assert_eq!(SnapshotKind::Sharded.to_string(), "sharded");

        // Header helpers reject damage with typed errors, never panic.
        assert!(matches!(
            Snapshot::kind_of(&bytes[..10]),
            Err(SketchError::Corrupted { .. })
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Snapshot::payload_len(&bad),
            Err(SketchError::Corrupted { .. })
        ));
        let mut lying = bytes.clone();
        // Inflate the declared payload length beyond the buffer.
        lying[7..15].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Snapshot::payload_len(&lying),
            Err(SketchError::Corrupted { .. })
        ));
    }

    #[test]
    fn version_skew_is_typed() {
        let sharded = ShardedEngine::new(spec(), 2).unwrap();
        // A future version, and version 2 — the last format that carried
        // the channel-depth field, which this build must refuse to guess
        // at rather than misparse.
        for version in [0x00FFu16, 2] {
            let mut bytes = sharded.to_snapshot_bytes();
            // Rewrite the version field (bytes 4..6) and re-seal the
            // checksum so only the version check can reject it.
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            let body_len = bytes.len() - 8;
            let sum = xxh64(&bytes[..body_len], CHECKSUM_SEED).to_le_bytes();
            bytes[body_len..].copy_from_slice(&sum);
            match Snapshot::from_bytes(&bytes) {
                Err(SketchError::Corrupted { reason }) => assert!(
                    reason.contains(&format!("unsupported snapshot version {version}")),
                    "{reason}"
                ),
                other => panic!("expected version error, got {other:?}"),
            }
            assert!(matches!(
                Snapshot::kind_of(&bytes),
                Err(SketchError::Corrupted { .. })
            ));
        }
    }

    #[test]
    fn shard_count_mismatch_in_payload_is_typed() {
        let sharded = ShardedEngine::new(spec(), 2).unwrap();
        let mut bytes = sharded.to_snapshot_bytes();
        // The shard count is the u32 that opens the payload, right after
        // the 4+2+1+8 = 15-byte envelope header.
        let count_at = 15;
        bytes[count_at] = 7;
        let body_len = bytes.len() - 8;
        let sum = xxh64(&bytes[..body_len], CHECKSUM_SEED).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        match Snapshot::from_bytes(&bytes) {
            Err(SketchError::Corrupted { .. }) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
    }
}
