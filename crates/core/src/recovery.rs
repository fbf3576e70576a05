//! Crash recovery: the checkpoint manifest and the durable mutation
//! engine that ties the WAL, checkpoints and replay together.
//!
//! # The durability protocol
//!
//! A durable directory holds exactly three kinds of files:
//!
//! * `snap-N.codx` — a CODX v3 artifact snapshot (graph + hierarchy +
//!   HIMOR) taken at checkpoint `N`;
//! * `wal-N.codw` — the write-ahead log of every mutation applied *after*
//!   checkpoint `N`;
//! * `MANIFEST` — a tiny CRC-guarded record naming the live
//!   `(snapshot, wal, offset)` triple plus the pinned HIMOR seed.
//!
//! Every state transition preserves one invariant: **at any crash
//! instant, the manifest on disk names a snapshot and a WAL that together
//! reproduce the engine.** Appends go to the WAL (fsync'd per policy)
//! *before* the in-memory apply. A checkpoint writes the new snapshot and
//! a fresh WAL first, then atomically swaps the manifest
//! (temp+fsync+rename), and only then garbage-collects the files the old
//! manifest referenced — so a crash before the swap leaves the old triple
//! authoritative and the half-written new files are mere garbage, while a
//! crash after the swap leaves the new triple live and the old files
//! garbage. [`DurableCod::open`] sweeps both kinds of leftovers.
//!
//! # Recovery ≡ never crashing
//!
//! Recovery loads the manifest's snapshot, rehydrates a [`DynamicCod`]
//! from it ([`DynamicCod::from_artifacts`]), truncates the WAL's torn
//! tail, and replays the record suffix past the manifest offset through
//! the ordinary mutation pipeline. Because every rebuild/repair derives
//! from the pinned HIMOR seed (PR 8's determinism contract), the
//! recovered artifacts are **bit-identical** to those of a process that
//! never crashed and applied the same durable prefix — at any thread
//! count. `tests/durability.rs` proves this by byte-comparing
//! [`DurableCod::snapshot_bytes`] against a clean replay at 1/2/8
//! threads, with crashes injected at every WAL/checkpoint failpoint site.
//!
//! # MANIFEST format, version 1
//!
//! ```text
//! header:  magic "CODF" | version u32 = 1
//! body:    payload_len u64 | payload | crc32 u32
//!          payload = seed u64 | events_covered u64 | wal_offset u64
//!                  | snapshot name: len u32 + bytes
//!                  | wal name:      len u32 + bytes
//! footer:  total_len u64   (must equal the file's byte length)
//! ```

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cod_graph::AttributedGraph;
use rand::prelude::*;

use crate::codx::{save_artifacts, serialize_artifacts, MappedArtifacts};
use crate::dynamic::{DynamicCod, MutationFlushReport};
use crate::error::{CodError, CodResult};
use crate::failpoint::{self, Site};
use crate::mutation::Mutation;
use crate::persist::{self, crc32};
use crate::pipeline::{CodAnswer, CodConfig};
use crate::telemetry::MetricsSnapshot;
use crate::wal::{self, FsyncPolicy, TornTail, WalWriter, WAL_HEADER_LEN};

/// The manifest's file name inside a durable directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

const MANIFEST_MAGIC: &[u8; 4] = b"CODF";
const MANIFEST_VERSION: u32 = 1;

/// Knobs of the durability subsystem.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// When appended WAL records are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// Applied events since the last checkpoint that trigger the next one.
    pub checkpoint_every_events: u64,
    /// WAL length in bytes that triggers a checkpoint regardless of the
    /// event count.
    pub checkpoint_wal_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            fsync: FsyncPolicy::default(),
            checkpoint_every_events: 4096,
            checkpoint_wal_bytes: 16 << 20,
        }
    }
}

/// What [`DurableCod::open`] observed while recovering.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Events the manifest's snapshot already covered.
    pub checkpoint_events: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed: u64,
    /// The torn tail truncated off the WAL, if any.
    pub torn_tail: Option<TornTail>,
    /// Stale atomic-save temp files swept from the directory.
    pub swept_temps: usize,
    /// Wall-clock time of the whole recovery (load + replay + flush).
    pub wall_time: Duration,
}

/// The CRC-guarded checkpoint manifest: which snapshot and WAL are live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// The pinned HIMOR seed of the engine that wrote the checkpoint.
    pub seed: u64,
    /// Total mutation events the snapshot has absorbed.
    pub events_covered: u64,
    /// WAL byte offset the snapshot covers; replay starts here.
    pub wal_offset: u64,
    /// File name of the live snapshot (relative to the directory).
    pub snapshot: String,
    /// File name of the live WAL (relative to the directory).
    pub wal: String,
}

impl Manifest {
    /// Serializes into a complete CODF v1 byte image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(32 + self.snapshot.len() + self.wal.len());
        payload.extend_from_slice(&self.seed.to_le_bytes());
        payload.extend_from_slice(&self.events_covered.to_le_bytes());
        payload.extend_from_slice(&self.wal_offset.to_le_bytes());
        for name in [&self.snapshot, &self.wal] {
            payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
        }
        let total = 4 + 4 + 8 + payload.len() + 4 + 8;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&(total as u64).to_le_bytes());
        debug_assert_eq!(out.len(), total);
        out
    }

    /// Parses a CODF image; every failure is [`CodError::IndexCorrupt`].
    pub fn from_bytes(bytes: &[u8]) -> CodResult<Self> {
        let corrupt = |msg: String| CodError::IndexCorrupt(format!("manifest: {msg}"));
        if bytes.len() < 4 + 4 + 8 + 4 + 8 {
            return Err(corrupt(format!("too short: {} bytes", bytes.len())));
        }
        if &bytes[..4] != MANIFEST_MAGIC {
            return Err(corrupt("bad magic; not a COD manifest".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap_or([0; 4]));
        if version != MANIFEST_VERSION {
            return Err(corrupt(format!(
                "unsupported version {version} (expected {MANIFEST_VERSION})"
            )));
        }
        let total = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap_or([0; 8]));
        if total != bytes.len() as u64 {
            return Err(corrupt(format!(
                "total-length footer says {total} bytes but the file has {}",
                bytes.len()
            )));
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap_or([0; 8]));
        if 16 + len as usize + 4 + 8 != bytes.len() {
            return Err(corrupt(format!(
                "payload length {len} inconsistent with file size {}",
                bytes.len()
            )));
        }
        let payload = &bytes[16..16 + len as usize];
        let stored = u32::from_le_bytes(
            bytes[16 + len as usize..16 + len as usize + 4]
                .try_into()
                .unwrap_or([0; 4]),
        );
        let actual = crc32(payload);
        if stored != actual {
            return Err(corrupt(format!(
                "checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
            )));
        }
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize, what: &str| -> CodResult<&[u8]> {
            if *pos + n > payload.len() {
                return Err(CodError::IndexCorrupt(format!(
                    "manifest: truncated while reading {what}"
                )));
            }
            let s = &payload[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let read_u64 = |pos: &mut usize, what: &str| -> CodResult<u64> {
            Ok(u64::from_le_bytes(
                take(pos, 8, what)?.try_into().unwrap_or([0; 8]),
            ))
        };
        let seed = read_u64(&mut pos, "seed")?;
        let events_covered = read_u64(&mut pos, "events covered")?;
        let wal_offset = read_u64(&mut pos, "wal offset")?;
        let mut read_name = |what: &str| -> CodResult<String> {
            let n =
                u32::from_le_bytes(take(&mut pos, 4, what)?.try_into().unwrap_or([0; 4])) as usize;
            let s = take(&mut pos, n, what)?;
            let name = std::str::from_utf8(s)
                .map_err(|_| CodError::IndexCorrupt(format!("manifest: {what} is not UTF-8")))?;
            if name.is_empty() || name.contains('/') || name.contains('\\') || name.contains("..") {
                return Err(CodError::IndexCorrupt(format!(
                    "manifest: {what} {name:?} is not a plain file name"
                )));
            }
            Ok(name.to_owned())
        };
        let snapshot = read_name("snapshot name")?;
        let walname = read_name("wal name")?;
        if pos != payload.len() {
            return Err(corrupt(format!(
                "{} trailing payload bytes",
                payload.len() - pos
            )));
        }
        Ok(Manifest {
            seed,
            events_covered,
            wal_offset,
            snapshot,
            wal: walname,
        })
    }

    /// Reads the manifest of a durable directory.
    pub fn load(dir: &Path) -> CodResult<Self> {
        let bytes = std::fs::read(dir.join(MANIFEST_NAME))?;
        Self::from_bytes(&bytes)
    }

    /// Atomically replaces the directory's manifest (temp+fsync+rename).
    fn store(&self, dir: &Path) -> CodResult<()> {
        persist::write_atomically(&dir.join(MANIFEST_NAME), &self.to_bytes())
    }
}

/// A [`DynamicCod`] whose every mutation is durably logged, checkpointed
/// and recoverable.
///
/// The wrapper owns the application order: [`DurableCod::apply`] appends
/// to the WAL **first**, then applies in memory, then (past the
/// configured thresholds) takes a checkpoint. Queries and flushes pass
/// through to the inner engine unchanged.
pub struct DurableCod {
    inner: DynamicCod,
    wal: WalWriter,
    dir: PathBuf,
    dcfg: DurabilityConfig,
    manifest: Manifest,
    /// Monotone checkpoint counter (parsed back from the snapshot name on
    /// open, so restarts keep ascending).
    checkpoint_id: u64,
    /// Total events ever applied: `manifest.events_covered` + WAL records.
    events_total: u64,
}

impl DurableCod {
    /// Creates a fresh durable directory around `g`: builds the engine,
    /// writes checkpoint 0 (snapshot + empty WAL + manifest) and returns
    /// the handle. Fails if `dir` already holds a manifest — recover that
    /// with [`DurableCod::open`] instead of silently discarding it.
    pub fn create(
        dir: &Path,
        g: &AttributedGraph,
        cfg: CodConfig,
        seed: u64,
        dcfg: DurabilityConfig,
    ) -> CodResult<Self> {
        std::fs::create_dir_all(dir)?;
        if dir.join(MANIFEST_NAME).exists() {
            return Err(CodError::InvalidQuery(format!(
                "{} already holds a durable state; open it instead of re-creating",
                dir.display()
            )));
        }
        let _ = persist::sweep_temp_files(dir);
        let inner = DynamicCod::with_seed(g, cfg, seed)?;
        let mut me = DurableCod {
            inner,
            // Placeholder writer; `checkpoint_to` swaps in wal-0.
            wal: WalWriter::open(&dir.join(".bootstrap.codw"), dcfg.fsync)?.0,
            dir: dir.to_path_buf(),
            dcfg,
            manifest: Manifest {
                seed,
                events_covered: 0,
                wal_offset: WAL_HEADER_LEN,
                snapshot: String::new(),
                wal: String::new(),
            },
            checkpoint_id: 0,
            events_total: 0,
        };
        me.checkpoint_to(0)?;
        let _ = std::fs::remove_file(dir.join(".bootstrap.codw"));
        Ok(me)
    }

    /// Opens (recovers) a durable directory: sweep stale temp files, load
    /// the manifest's snapshot, truncate the WAL's torn tail, replay the
    /// suffix, flush, and GC unreferenced files. Returns the handle plus
    /// a [`RecoveryReport`] of what recovery observed.
    pub fn open(
        dir: &Path,
        cfg: CodConfig,
        dcfg: DurabilityConfig,
    ) -> CodResult<(Self, RecoveryReport)> {
        let t0 = Instant::now();
        let swept = persist::sweep_temp_files(dir)?;
        let manifest = Manifest::load(dir)?;
        let mapped = MappedArtifacts::open_eager(&dir.join(&manifest.snapshot))?;
        let mut inner = DynamicCod::from_artifacts(
            mapped.graph()?,
            mapped.hierarchy()?,
            mapped.himor()?,
            cfg,
            manifest.seed,
        )?;
        drop(mapped);
        let (wal, torn) = WalWriter::open(&dir.join(&manifest.wal), dcfg.fsync)?;
        let records = wal::read_records(wal.path(), manifest.wal_offset)?;
        let mut applied = 0usize;
        for (i, m) in records.iter().enumerate() {
            match inner.apply(m) {
                Ok(_) => applied += 1,
                Err(e) => {
                    return Err(CodError::ReplayHalted {
                        applied,
                        failed_event: i + 1,
                        cause: Box::new(e),
                    });
                }
            }
        }
        // One flush brings the artifacts current (rebuild or repair); the
        // recovered state is now query-ready.
        inner.artifacts()?;
        let checkpoint_id = parse_checkpoint_id(&manifest.snapshot);
        let me = DurableCod {
            events_total: manifest.events_covered + records.len() as u64,
            inner,
            wal,
            dir: dir.to_path_buf(),
            dcfg,
            manifest,
            checkpoint_id,
        };
        me.gc();
        let report = RecoveryReport {
            checkpoint_events: me.manifest.events_covered,
            replayed: records.len() as u64,
            torn_tail: torn,
            swept_temps: swept,
            wall_time: t0.elapsed(),
        };
        me.inner
            .metrics_registry()
            .record_recovery(report.replayed, report.wall_time.as_nanos() as u64);
        Ok((me, report))
    }

    /// Whether `dir` holds a durable state (a manifest).
    pub fn exists(dir: &Path) -> bool {
        dir.join(MANIFEST_NAME).exists()
    }

    /// Applies one mutation durably: WAL append (fsync per policy) first,
    /// in-memory apply second, checkpoint third when thresholds trip.
    /// Returns whether the event changed anything (no-ops are still
    /// logged — replay must walk the identical event sequence).
    pub fn apply(&mut self, m: &Mutation) -> CodResult<bool> {
        let before = self.wal.offset();
        let receipt = self.wal.append(m)?;
        let reg = self.inner.metrics_registry();
        reg.record_wal_append();
        if receipt.synced {
            reg.record_wal_fsync();
        }
        let changed = match self.inner.apply(m) {
            Ok(changed) => changed,
            Err(e) => {
                // The event was rejected (e.g. out-of-range set_attrs):
                // drop its record so replay never trips over it.
                self.wal.rollback_last(before)?;
                return Err(e);
            }
        };
        self.events_total += 1;
        self.maybe_checkpoint()?;
        Ok(changed)
    }

    /// Forces every appended record to stable storage now.
    pub fn flush_wal(&mut self) -> CodResult<()> {
        if self.wal.flush_sync()? {
            self.inner.metrics_registry().record_wal_fsync();
        }
        Ok(())
    }

    /// Takes a checkpoint now: snapshot the flushed artifacts, start a
    /// fresh WAL, swap the manifest, GC the superseded files.
    pub fn checkpoint(&mut self) -> CodResult<()> {
        self.checkpoint_to(self.checkpoint_id + 1)
    }

    fn maybe_checkpoint(&mut self) -> CodResult<()> {
        let since = self.events_total - self.manifest.events_covered;
        if since >= self.dcfg.checkpoint_every_events
            || self.wal.offset() >= self.dcfg.checkpoint_wal_bytes
        {
            self.checkpoint()?;
        }
        Ok(())
    }

    fn checkpoint_to(&mut self, id: u64) -> CodResult<()> {
        // Flush first: the snapshot must embody every applied event.
        let (g, dendro, index) = self.inner.artifacts()?;
        failpoint::hit(Site::CheckpointCommit, None);
        let snap = format!("snap-{id}.codx");
        let walname = format!("wal-{id}.codw");
        save_artifacts(&self.dir.join(&snap), g, dendro, index)?;
        let (new_wal, _torn) = WalWriter::open(&self.dir.join(&walname), self.dcfg.fsync)?;
        let manifest = Manifest {
            seed: self.inner.himor_seed(),
            events_covered: self.events_total,
            wal_offset: new_wal.offset(),
            snapshot: snap,
            wal: walname,
        };
        failpoint::hit(Site::ManifestSwap, None);
        manifest.store(&self.dir)?;
        // The swap committed: the new triple is authoritative.
        self.wal = new_wal;
        self.manifest = manifest;
        self.checkpoint_id = id;
        self.gc();
        Ok(())
    }

    /// Removes `snap-*.codx` / `wal-*.codw` files the live manifest does
    /// not reference. Best-effort: a file that cannot be removed is left
    /// for the next sweep.
    fn gc(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let is_artifact = (name.starts_with("snap-") && name.ends_with(".codx"))
                || (name.starts_with("wal-") && name.ends_with(".codw"));
            if is_artifact && name != self.manifest.snapshot && name != self.manifest.wal {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// The directory this engine persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The live manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Total mutation events ever applied (checkpointed + WAL).
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// Records in the live WAL (events since the last checkpoint).
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// Read access to the wrapped engine.
    pub fn engine(&self) -> &DynamicCod {
        &self.inner
    }

    /// Passthrough: toggle the inner engine's repair self-verification
    /// (on by default; see [`DynamicCod::set_repair_verification`]). Turning
    /// it off trades exactness for speed: recovery rebuilds the hierarchy,
    /// so a reopened instance can then differ from the live one whose
    /// splices went unverified.
    pub fn set_repair_verification(&mut self, on: bool) {
        self.inner.set_repair_verification(on);
    }

    /// Answers a CODL query on the current graph, flushing first: the
    /// inner engine's [`DynamicCod::query`], so a compressed read draws
    /// one master seed from `rng`, pooled or not, and index hits and
    /// `None` draw nothing. The read is tallied in
    /// [`DurableCod::metrics_snapshot`] beside the writes.
    pub fn query<R: Rng>(
        &mut self,
        q: cod_graph::NodeId,
        attr: cod_graph::AttrId,
        rng: &mut R,
    ) -> CodResult<Option<CodAnswer>> {
        self.inner.query(q, attr, rng)
    }

    /// Flushes pending mutations through the repair pipeline.
    pub fn flush(&mut self) -> CodResult<MutationFlushReport> {
        self.inner.flush()
    }

    /// A point-in-time snapshot of the one registry: reads, mutations,
    /// repairs, WAL and recovery counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics_snapshot()
    }

    /// The current artifacts as one canonical CODX v3 byte image — the
    /// bit-identity witness the durability tests compare across
    /// crash/recover/thread-count variations.
    pub fn snapshot_bytes(&mut self) -> CodResult<Vec<u8>> {
        let (g, dendro, index) = self.inner.artifacts()?;
        serialize_artifacts(g, dendro, index)
    }
}

/// `snap-N.codx` → `N`; unknown shapes restart the counter high enough to
/// never collide (0 is only produced by `create`).
fn parse_checkpoint_id(snapshot: &str) -> u64 {
    snapshot
        .strip_prefix("snap-")
        .and_then(|s| s.strip_suffix(".codx"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::{AttrInterner, AttrTable, GraphBuilder};
    use cod_influence::Model;

    fn star_graph() -> AttributedGraph {
        let mut b = GraphBuilder::new(8);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        b.add_edge(5, 6);
        b.add_edge(6, 7);
        let attrs = AttrTable::from_lists(vec![vec![0]; 8]);
        let mut interner = AttrInterner::new();
        interner.intern("A");
        AttributedGraph::from_parts(b.build(), attrs, interner)
    }

    fn cfg() -> CodConfig {
        CodConfig {
            k: 2,
            theta: 60,
            model: Model::WeightedCascade,
            ..CodConfig::default()
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("cod_rec_{tag}_{}_{seq}", std::process::id()))
    }

    #[test]
    fn manifest_round_trip_and_corruption() {
        let m = Manifest {
            seed: 42,
            events_covered: 17,
            wal_offset: 8,
            snapshot: "snap-3.codx".into(),
            wal: "wal-3.codw".into(),
        };
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
        // Any single-bit flip is detected.
        for byte in 0..bytes.len() {
            let mut b = bytes.clone();
            b[byte] ^= 0x01;
            assert!(
                Manifest::from_bytes(&b).is_err(),
                "flip at byte {byte} must be detected"
            );
        }
        // Truncations never panic.
        for keep in 0..bytes.len() {
            assert!(Manifest::from_bytes(&bytes[..keep]).is_err());
        }
    }

    #[test]
    fn manifest_rejects_path_traversal_names() {
        let m = Manifest {
            seed: 1,
            events_covered: 0,
            wal_offset: 8,
            snapshot: "../evil.codx".into(),
            wal: "wal-0.codw".into(),
        };
        let err = Manifest::from_bytes(&m.to_bytes()).unwrap_err();
        assert!(matches!(err, CodError::IndexCorrupt(_)), "{err}");
    }

    #[test]
    fn create_apply_reopen_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let g = star_graph();
        let mut d = DurableCod::create(&dir, &g, cfg(), 77, DurabilityConfig::default()).unwrap();
        assert!(DurableCod::exists(&dir));
        d.apply(&Mutation::InsertEdge { u: 1, v: 2 }).unwrap();
        d.apply(&Mutation::RemoveEdge { u: 5, v: 6 }).unwrap();
        d.apply(&Mutation::SetAttrs {
            node: 3,
            attrs: vec![0],
        })
        .unwrap();
        let live = d.snapshot_bytes().unwrap();
        assert_eq!(d.events_total(), 3);
        drop(d);

        let (mut back, report) =
            DurableCod::open(&dir, cfg(), DurabilityConfig::default()).unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(report.checkpoint_events, 0);
        assert!(report.torn_tail.is_none());
        assert_eq!(back.events_total(), 3);
        assert_eq!(back.snapshot_bytes().unwrap(), live, "recovered ≡ live");
        let snap = back.metrics_snapshot();
        assert_eq!(snap.recovery_replayed_records, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rotates_and_gcs() {
        let dir = tmp_dir("rotate");
        let g = star_graph();
        let mut d = DurableCod::create(&dir, &g, cfg(), 5, DurabilityConfig::default()).unwrap();
        d.apply(&Mutation::InsertEdge { u: 2, v: 4 }).unwrap();
        assert_eq!(d.wal_records(), 1);
        d.checkpoint().unwrap();
        assert_eq!(d.wal_records(), 0, "fresh WAL after checkpoint");
        assert_eq!(d.manifest().events_covered, 1);
        assert_eq!(d.manifest().snapshot, "snap-1.codx");
        // Superseded checkpoint-0 files are gone.
        assert!(!dir.join("snap-0.codx").exists());
        assert!(!dir.join("wal-0.codw").exists());
        // Reopen sees the checkpointed state with nothing to replay.
        let live = d.snapshot_bytes().unwrap();
        drop(d);
        let (mut back, report) =
            DurableCod::open(&dir, cfg(), DurabilityConfig::default()).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.checkpoint_events, 1);
        assert_eq!(back.snapshot_bytes().unwrap(), live);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_threshold_triggers_automatic_checkpoint() {
        let dir = tmp_dir("auto");
        let g = star_graph();
        let dcfg = DurabilityConfig {
            checkpoint_every_events: 2,
            ..DurabilityConfig::default()
        };
        let mut d = DurableCod::create(&dir, &g, cfg(), 5, dcfg).unwrap();
        d.apply(&Mutation::InsertEdge { u: 2, v: 4 }).unwrap();
        assert_eq!(d.manifest().events_covered, 0);
        d.apply(&Mutation::InsertEdge { u: 3, v: 7 }).unwrap();
        assert_eq!(d.manifest().events_covered, 2, "second event checkpoints");
        assert_eq!(d.wal_records(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejected_event_is_rolled_back_from_the_wal() {
        let dir = tmp_dir("rollback");
        let g = star_graph();
        let mut d = DurableCod::create(&dir, &g, cfg(), 5, DurabilityConfig::default()).unwrap();
        let err = d
            .apply(&Mutation::SetAttrs {
                node: 999,
                attrs: vec![0],
            })
            .unwrap_err();
        assert!(matches!(err, CodError::InvalidQuery(_)), "{err}");
        assert_eq!(d.wal_records(), 0, "rejected event left no WAL record");
        assert_eq!(d.events_total(), 0);
        // The directory still recovers cleanly.
        drop(d);
        let (_, report) = DurableCod::open(&dir, cfg(), DurabilityConfig::default()).unwrap();
        assert_eq!(report.replayed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_to_clobber_existing_state() {
        let dir = tmp_dir("clobber");
        let g = star_graph();
        let d = DurableCod::create(&dir, &g, cfg(), 5, DurabilityConfig::default()).unwrap();
        drop(d);
        let err = match DurableCod::create(&dir, &g, cfg(), 5, DurabilityConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("re-create over live state must fail"),
        };
        assert!(matches!(err, CodError::InvalidQuery(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
