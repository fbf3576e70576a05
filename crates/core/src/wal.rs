//! CODW — the append-only mutation write-ahead log.
//!
//! Durability for streaming mutations: every [`Mutation`] is appended
//! (and, per policy, fsync'd) **before** `DynamicCod` applies it, so a
//! crash at any instant loses at most the records the fsync policy had
//! not yet forced to stable storage — never an *applied but unlogged*
//! event. Recovery (`crate::recovery`) replays the suffix of this log
//! past the last checkpoint through the incremental repair pipeline.
//!
//! # CODW format, version 1
//!
//! ```text
//! header:  magic "CODW" | version u32 = 1
//! records: len u32 | payload (len bytes) | crc32(payload) u32
//!          payload = one encoded event (tag u8 + fields; see
//!          `mutation::encode_event`)
//! ```
//!
//! There is no footer: the file is append-only and a crash can land
//! mid-record. [`WalWriter::open`] therefore scans the record stream and
//! **truncates** the tail at the first record whose length prefix,
//! checksum or event encoding fails to validate, surfacing what it cut as
//! a [`TornTail`] report. A torn tail is an expected crash artifact, not
//! corruption — every complete record before it is intact by CRC.
//!
//! # Fsync policy
//!
//! * [`FsyncPolicy::Always`] — `sync_data` after every record: zero loss
//!   window, highest latency.
//! * [`FsyncPolicy::GroupCommit`] — sync when `max_records` are pending
//!   **or** `max_delay` has elapsed since the first unsynced record,
//!   whichever comes first: bounded loss window, amortized cost.
//! * [`FsyncPolicy::Os`] — never sync explicitly; the OS page cache
//!   decides. Loss window is unbounded under power failure but `kill -9`
//!   of the process alone loses nothing (the kernel still holds the
//!   pages).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::error::{CodError, CodResult};
use crate::failpoint::{self, Site};
use crate::mutation::{self, Mutation};
use crate::persist::crc32;

/// File magic for the write-ahead log.
pub const WAL_MAGIC: &[u8; 4] = b"CODW";
/// Current CODW format version.
pub const WAL_VERSION: u32 = 1;
/// Header length: magic + version.
pub const WAL_HEADER_LEN: u64 = 8;

/// A record payload larger than this is treated as a torn/corrupt length
/// prefix. One event is ~9 bytes + 4 per attribute; 16 MiB is orders of
/// magnitude beyond any legitimate record.
const MAX_RECORD_LEN: u32 = 16 << 20;

/// When to force appended records to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `sync_data` after every appended record.
    Always,
    /// Sync when `max_records` are pending or `max_delay` has elapsed
    /// since the first unsynced record, whichever comes first.
    GroupCommit {
        /// Pending-record threshold that forces a sync (≥ 1).
        max_records: usize,
        /// Age of the oldest unsynced record that forces a sync.
        max_delay: Duration,
    },
    /// Never sync explicitly; leave flushing to the OS page cache.
    Os,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::GroupCommit {
            max_records: 32,
            max_delay: Duration::from_millis(10),
        }
    }
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `always`, `os`, or `group:N:MS`
    /// (`group` alone takes the defaults).
    pub fn parse(spec: &str) -> Result<FsyncPolicy, String> {
        match spec {
            "always" => Ok(FsyncPolicy::Always),
            "os" => Ok(FsyncPolicy::Os),
            "group" => Ok(FsyncPolicy::default()),
            other => {
                let Some(rest) = other.strip_prefix("group:") else {
                    return Err(format!(
                        "unknown fsync policy {other:?} (expected always, os, group or group:N:MS)"
                    ));
                };
                let (n, ms) = rest
                    .split_once(':')
                    .ok_or_else(|| format!("bad group policy {other:?} (expected group:N:MS)"))?;
                let max_records: usize = n
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad group record count {n:?}"))?;
                let max_delay_ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("bad group delay {ms:?} (milliseconds)"))?;
                Ok(FsyncPolicy::GroupCommit {
                    max_records,
                    max_delay: Duration::from_millis(max_delay_ms),
                })
            }
        }
    }
}

/// What [`WalWriter::open`] truncated off the end of a crashed log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// File offset of the first invalid byte — the log's new length.
    pub valid_offset: u64,
    /// How many trailing bytes were cut.
    pub dropped_bytes: u64,
}

/// Receipt for one appended record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendReceipt {
    /// File offset one past this record (the durable prefix if synced).
    pub end_offset: u64,
    /// Whether this append forced an fsync.
    pub synced: bool,
}

/// Append handle over one CODW file.
///
/// Not internally synchronized: callers (i.e. `DurableCod`) serialize
/// appends the same way they serialize `DynamicCod::apply`.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Current file length == offset of the next record.
    offset: u64,
    /// Complete records currently in the file.
    records: u64,
    /// Records appended since the last sync.
    unsynced: usize,
    /// When the oldest unsynced record was appended.
    oldest_unsynced: Option<Instant>,
}

impl WalWriter {
    /// Opens (or creates) the log at `path` for appending.
    ///
    /// A new file gets a synced `CODW` header. An existing file is
    /// validated: header first, then every record (length sanity → CRC →
    /// event decode must consume the payload exactly). The first invalid
    /// byte ends the trusted prefix — everything past it is truncated
    /// away and reported as a [`TornTail`]. A pre-existing *header*
    /// mismatch (wrong magic/version) is real corruption, not a torn
    /// tail, and fails the open.
    pub fn open(path: &Path, policy: FsyncPolicy) -> CodResult<(Self, Option<TornTail>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let mut torn = None;
        let (offset, records) = if len == 0 {
            file.write_all(WAL_MAGIC)?;
            file.write_all(&WAL_VERSION.to_le_bytes())?;
            file.sync_all()?;
            (WAL_HEADER_LEN, 0)
        } else {
            let mut bytes = Vec::with_capacity(len as usize);
            file.read_to_end(&mut bytes)?;
            let (valid, records) = scan_records(&bytes, path)?;
            if valid < len {
                torn = Some(TornTail {
                    valid_offset: valid,
                    dropped_bytes: len - valid,
                });
                file.set_len(valid)?;
                file.sync_all()?;
            }
            (valid, records)
        };
        file.seek(SeekFrom::Start(offset))?;
        Ok((
            WalWriter {
                file,
                path: path.to_path_buf(),
                policy,
                offset,
                records,
                unsynced: 0,
                oldest_unsynced: None,
            },
            torn,
        ))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current file length (offset of the next record).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Complete records in the file.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one event record, then applies the fsync policy.
    pub fn append(&mut self, m: &Mutation) -> CodResult<AppendReceipt> {
        let mut payload = Vec::with_capacity(16);
        mutation::encode_event(m, &mut payload);
        let mut record = Vec::with_capacity(payload.len() + 8);
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&payload);
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        failpoint::hit(Site::WalAppend, None);
        self.file.write_all(&record)?;
        self.offset += record.len() as u64;
        self.records += 1;
        self.unsynced += 1;
        if self.oldest_unsynced.is_none() {
            self.oldest_unsynced = Some(Instant::now());
        }
        let must_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::GroupCommit {
                max_records,
                max_delay,
            } => {
                self.unsynced >= max_records
                    || self
                        .oldest_unsynced
                        .is_some_and(|t| t.elapsed() >= max_delay)
            }
            FsyncPolicy::Os => false,
        };
        let synced = if must_sync {
            self.sync()?;
            true
        } else {
            false
        };
        Ok(AppendReceipt {
            end_offset: self.offset,
            synced,
        })
    }

    /// Rolls back the most recent append (used when the in-memory apply of
    /// a just-logged event fails): truncates the file to `prev_offset`, so
    /// the log never carries a record that was not applied and would halt
    /// a later replay.
    pub(crate) fn rollback_last(&mut self, prev_offset: u64) -> CodResult<()> {
        self.file.set_len(prev_offset)?;
        self.file.seek(SeekFrom::Start(prev_offset))?;
        self.offset = prev_offset;
        self.records = self.records.saturating_sub(1);
        self.unsynced = self.unsynced.saturating_sub(1);
        if self.unsynced == 0 {
            self.oldest_unsynced = None;
        }
        Ok(())
    }

    /// Forces every appended record to stable storage now, regardless of
    /// policy. Returns whether anything was actually pending.
    pub fn flush_sync(&mut self) -> CodResult<bool> {
        if self.unsynced == 0 {
            return Ok(false);
        }
        self.sync()?;
        Ok(true)
    }

    fn sync(&mut self) -> CodResult<()> {
        failpoint::hit(Site::WalFsync, None);
        self.file.sync_data()?;
        self.unsynced = 0;
        self.oldest_unsynced = None;
        Ok(())
    }
}

/// Validates `bytes` as a CODW image and returns `(valid_prefix_len,
/// record_count)`. The header must be intact (hard error otherwise); the
/// record stream is scanned until the first invalid record.
fn scan_records(bytes: &[u8], path: &Path) -> CodResult<(u64, u64)> {
    if bytes.len() < WAL_HEADER_LEN as usize {
        return Err(CodError::IndexCorrupt(format!(
            "WAL {} too short for its header: {} bytes",
            path.display(),
            bytes.len()
        )));
    }
    if &bytes[..4] != WAL_MAGIC {
        return Err(CodError::IndexCorrupt(format!(
            "WAL {}: bad magic; not a COD write-ahead log",
            path.display()
        )));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap_or([0; 4]));
    if version != WAL_VERSION {
        return Err(CodError::IndexCorrupt(format!(
            "WAL {}: unsupported version {version} (expected {WAL_VERSION})",
            path.display()
        )));
    }
    let mut pos = WAL_HEADER_LEN as usize;
    let mut records = 0u64;
    while pos < bytes.len() {
        match parse_record(&bytes[pos..]) {
            Some((_m, consumed)) => {
                pos += consumed;
                records += 1;
            }
            None => break,
        }
    }
    Ok((pos as u64, records))
}

/// Parses one record from the front of `rest`; `None` marks a torn or
/// corrupt record (the caller truncates there).
fn parse_record(rest: &[u8]) -> Option<(Mutation, usize)> {
    if rest.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(rest[..4].try_into().ok()?);
    if len > MAX_RECORD_LEN {
        return None;
    }
    let end = 4usize.checked_add(len as usize)?.checked_add(4)?;
    if rest.len() < end {
        return None;
    }
    let payload = &rest[4..4 + len as usize];
    let stored = u32::from_le_bytes(rest[4 + len as usize..end].try_into().ok()?);
    if stored != crc32(payload) {
        return None;
    }
    let mut pos = 0usize;
    let m = mutation::decode_event(payload, &mut pos).ok()?;
    if pos != payload.len() {
        return None; // stray bytes inside a CRC-valid payload
    }
    Some((m, end))
}

/// Reads the records starting at byte `from_offset` of a log that
/// [`WalWriter::open`] has already tail-truncated. Unlike `open`, this is
/// a *strict* reader: any invalid record here (or an out-of-range
/// `from_offset`) is corruption, because the torn tail was already cut.
pub fn read_records(path: &Path, from_offset: u64) -> CodResult<Vec<Mutation>> {
    let bytes = std::fs::read(path)?;
    // Validate the header even when the caller starts past it.
    let (valid, _) = scan_records(&bytes, path)?;
    if from_offset < WAL_HEADER_LEN || from_offset > bytes.len() as u64 {
        return Err(CodError::IndexCorrupt(format!(
            "WAL {}: replay offset {from_offset} out of range (file has {} bytes)",
            path.display(),
            bytes.len()
        )));
    }
    if valid < bytes.len() as u64 {
        return Err(CodError::IndexCorrupt(format!(
            "WAL {}: invalid record at offset {valid} (log was not tail-truncated before replay)",
            path.display()
        )));
    }
    let mut pos = from_offset as usize;
    let mut out = Vec::new();
    while pos < bytes.len() {
        match parse_record(&bytes[pos..]) {
            Some((m, consumed)) => {
                pos += consumed;
                out.push(m);
            }
            None => {
                return Err(CodError::IndexCorrupt(format!(
                    "WAL {}: replay offset {pos} does not land on a record boundary",
                    path.display()
                )));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("cod_wal_{tag}_{}_{seq}.codw", std::process::id()))
    }

    fn sample_events() -> Vec<Mutation> {
        vec![
            Mutation::InsertEdge { u: 1, v: 2 },
            Mutation::RemoveEdge { u: 0, v: 3 },
            Mutation::SetAttrs {
                node: 4,
                attrs: vec![7, 9],
            },
            Mutation::SetAttrs {
                node: 5,
                attrs: vec![],
            },
        ]
    }

    #[test]
    fn append_read_round_trip() {
        let path = tmp_path("round_trip");
        let (mut w, torn) = WalWriter::open(&path, FsyncPolicy::Always).unwrap();
        assert!(torn.is_none());
        for m in &sample_events() {
            let r = w.append(m).unwrap();
            assert!(r.synced);
        }
        assert_eq!(w.records(), 4);
        let back = read_records(&path, WAL_HEADER_LEN).unwrap();
        assert_eq!(back, sample_events());
        // Reopen reports the same geometry with no torn tail.
        let offset = w.offset();
        drop(w);
        let (w2, torn) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
        assert!(torn.is_none());
        assert_eq!(w2.offset(), offset);
        assert_eq!(w2.records(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_from_midpoint_offset() {
        let path = tmp_path("midpoint");
        let (mut w, _) = WalWriter::open(&path, FsyncPolicy::Always).unwrap();
        let events = sample_events();
        let mut offsets = vec![WAL_HEADER_LEN];
        for m in &events {
            offsets.push(w.append(m).unwrap().end_offset);
        }
        for (i, &off) in offsets.iter().enumerate() {
            let back = read_records(&path, off).unwrap();
            assert_eq!(back, events[i..], "suffix from record {i}");
        }
        // An offset inside a record is rejected, not misparsed.
        assert!(read_records(&path, offsets[1] + 1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncates_at_every_boundary() {
        let path = tmp_path("torn");
        let (mut w, _) = WalWriter::open(&path, FsyncPolicy::Always).unwrap();
        let events = sample_events();
        let mut ends = vec![WAL_HEADER_LEN];
        for m in &events {
            ends.push(w.append(m).unwrap().end_offset);
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        for keep in WAL_HEADER_LEN as usize..full.len() {
            std::fs::write(&path, &full[..keep]).unwrap();
            let (w, torn) = WalWriter::open(&path, FsyncPolicy::Os).unwrap();
            // The trusted prefix is the last record end ≤ keep.
            let expect = *ends.iter().rfind(|&&e| e <= keep as u64).unwrap();
            let complete = ends
                .iter()
                .filter(|&&e| e != WAL_HEADER_LEN && e <= keep as u64)
                .count();
            assert_eq!(w.offset(), expect, "truncate at {keep}");
            assert_eq!(w.records(), complete as u64);
            if (keep as u64) == expect {
                assert!(torn.is_none(), "keep {keep} is a clean boundary");
            } else {
                let t = torn.unwrap();
                assert_eq!(t.valid_offset, expect);
                assert_eq!(t.dropped_bytes, keep as u64 - expect);
            }
            drop(w);
            let back = read_records(&path, WAL_HEADER_LEN).unwrap();
            assert_eq!(back, events[..complete]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flips_never_panic_and_never_misparse() {
        let path = tmp_path("flip");
        let (mut w, _) = WalWriter::open(&path, FsyncPolicy::Always).unwrap();
        for m in &sample_events() {
            w.append(m).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        for byte in 0..full.len() {
            let mut mutated = full.clone();
            mutated[byte] ^= 0x01;
            std::fs::write(&path, &mutated).unwrap();
            match WalWriter::open(&path, FsyncPolicy::Os) {
                // Header flips are hard errors; record flips tail-truncate.
                Ok((w, _torn)) => {
                    assert!(byte >= WAL_HEADER_LEN as usize, "header flip must error");
                    // Whatever survived must re-read cleanly.
                    let back = read_records(w.path(), WAL_HEADER_LEN).unwrap();
                    assert!(back.len() <= sample_events().len());
                }
                Err(e) => {
                    assert!(matches!(e, CodError::IndexCorrupt(_)), "typed error: {e}");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_syncs_on_record_threshold() {
        let path = tmp_path("group");
        let policy = FsyncPolicy::GroupCommit {
            max_records: 3,
            max_delay: Duration::from_secs(3600),
        };
        let (mut w, _) = WalWriter::open(&path, policy).unwrap();
        let m = Mutation::InsertEdge { u: 1, v: 2 };
        assert!(!w.append(&m).unwrap().synced);
        assert!(!w.append(&m).unwrap().synced);
        assert!(
            w.append(&m).unwrap().synced,
            "third append hits max_records"
        );
        assert!(!w.append(&m).unwrap().synced);
        assert!(w.flush_sync().unwrap());
        assert!(!w.flush_sync().unwrap(), "nothing pending after flush");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policy_parse_accepts_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("os").unwrap(), FsyncPolicy::Os);
        assert_eq!(FsyncPolicy::parse("group").unwrap(), FsyncPolicy::default());
        assert_eq!(
            FsyncPolicy::parse("group:8:250").unwrap(),
            FsyncPolicy::GroupCommit {
                max_records: 8,
                max_delay: Duration::from_millis(250),
            }
        );
        assert!(FsyncPolicy::parse("group:0:250").is_err());
        assert!(FsyncPolicy::parse("nope").is_err());
        assert!(FsyncPolicy::parse("group:x:1").is_err());
    }
}
