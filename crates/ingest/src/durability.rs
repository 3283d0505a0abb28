//! Durability for the ingest service: an append-only event journal, a
//! rotated set of index snapshots, and the [`recover`] escalation ladder
//! that composes them.
//!
//! The contract mirrors classic WAL + checkpoint systems, scoped to the
//! micro-batch: after every flushed batch the writer appends the batch's
//! events to the journal file as one frame (seqs continue the writer's
//! applied-event count), and every `snapshot_every_batches ×
//! max_batch` applied events — however the flushes cut them — it
//! persists the full index ([`OrderCore::save`] under a small header
//! carrying the covered-prefix length) from a background thread. A
//! crash therefore loses at most the events that never reached a flush.
//! All file traffic goes through the
//! [`crate::faults::JournalIo`] seam, so every failure mode — torn
//! write, failed fsync, bit flip, crash at a failpoint — is a scripted,
//! reproducible test case.
//!
//! ## File formats (little-endian)
//!
//! Journal **v3**: header
//! `"KJRN" u32 | version=3 u32 | n u32 | base u64 | header_crc u32`
//! (24 bytes; `base` is the seq of the first record, non-zero after a
//! snapshot-only recovery reset; `header_crc` covers the first 20
//! bytes). The body is a sequence of **delta-encoded frames**, one per
//! shipped batch:
//! `"FRAM" u32 | count u32 | first_seq u64 | payload_len u32 | crc u32`
//! then `payload_len` payload bytes holding `count` records of
//! `kind u8 (0 insert / 1 remove) | zigzag-LEB128(u − prev_u) |
//! zigzag-LEB128(v − u)` — seqs are implicit (`first_seq + i`, the
//! journal is gap-free by construction) and vertex ids are stored as
//! signed deltas, so a typical record is 3–6 bytes instead of the 17 an
//! absolute `seq | kind | u | v` record takes.
//! The frame CRC covers everything after the marker (count, first_seq,
//! payload_len, payload). The reader validates frame-by-frame: any
//! corruption (bad marker, bad CRC, broken seq continuity, torn frame)
//! ends the readable prefix at the last fully-valid frame instead of
//! silently replaying garbage.
//!
//! Snapshot **v2**: `"KSNP" u32 | version=2 u32 | ops u64 | crc u32`
//! then the checksummed [`OrderCore::save`] payload; the CRC covers
//! `ops` + payload, so a flipped `ops` field cannot silently shift the
//! replay point. Snapshots are written temp-file + fsync + rename +
//! parent-directory fsync — durable across power loss, not just process
//! crash — and rotated: `ingest.ksnp` is the newest generation,
//! `ingest.ksnp.1` the previous, up to
//! [`DurabilityConfig::snapshot_generations`].
//!
//! These are the only versions read: a journal or snapshot whose header
//! declares any other version is refused, never upgraded in place.
//!
//! ## Recovery
//!
//! [`recover`] takes one path whichever rung of the ladder fires: it
//! chooses a source (a snapshot generation and the `ops` it covers, or
//! genesis), repairs the journal (truncates its damaged suffix, or resets
//! it at the snapshot's `ops`), replays the journal tail once through the
//! planner, and returns the engine with one [`RecoveryReport`]. Repairs
//! land before it returns, so recovering the same directory again
//! restores the same prefix and finds no damage.

use crate::faults::StorageHandle;
use kcore_graph::DynamicGraph;
use kcore_maint::journal::{replay_batched, GraphEvent, JournalEntry};
use kcore_maint::{OrderCore, PersistError, PlannedCore, Planner, PlannerConfig};
use std::io;
use std::path::{Path, PathBuf};

const JOURNAL_MAGIC: u32 = 0x4B4A_524E; // "KJRN"
const SNAPSHOT_MAGIC: u32 = 0x4B53_4E50; // "KSNP"
const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"FRAM");
const JOURNAL_VERSION: u32 = 3;
const SNAPSHOT_VERSION: u32 = 2;
/// Journal header: magic, version, n, base, header_crc.
const HEADER_BYTES: usize = 4 + 4 + 4 + 8 + 4;
/// Frame header: marker, count, first_seq, payload_len, crc.
const FRAME_HEADER_BYTES: usize = 4 + 4 + 8 + 4 + 4;
/// Snapshot header: magic, version, ops, crc.
const SNAP_HEADER_BYTES: usize = 4 + 4 + 8 + 4;

// ---------------------------------------------------------------- CRC32

/// IEEE CRC-32 (reflected, poly 0xEDB88320) — the journal/snapshot
/// record checksum. Hand-rolled table so the crate stays dependency-free.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Incremental CRC-32 over multiple slices.
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let mut c = self.0;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
        self
    }

    pub(crate) fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// -------------------------------------------------------- configuration

/// Where and how often the service persists.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Append-only event journal.
    pub journal_path: PathBuf,
    /// Newest index snapshot (temp-file + rename + dir fsync); older
    /// generations live beside it with `.1`, `.2`, … suffixes.
    pub snapshot_path: PathBuf,
    /// Persist the index every this many full batches' worth of applied
    /// events, i.e. every `snapshot_every_batches × max_batch` events
    /// (`0` = only on graceful shutdown). Counting events keeps the
    /// cadence steady when a light load flushes one event at a time.
    pub snapshot_every_batches: usize,
    /// `fsync` the journal after every shipped batch. Off by default:
    /// the bench measures the cheap mode, and the recovery contract
    /// (lose at most the unflushed tail) already holds per OS buffer.
    pub fsync: bool,
    /// Snapshot generations retained, including the newest (`>= 1`).
    /// More generations give the recovery ladder more rungs before it
    /// falls back to a genesis replay.
    pub snapshot_generations: usize,
    /// The storage seam all file traffic routes through — real
    /// `std::fs` by default, a scripted [`crate::faults::FaultPlan`] in
    /// fault-injection tests.
    pub storage: StorageHandle,
}

impl DurabilityConfig {
    /// Journal + snapshot under `dir` with shutdown-only snapshots, two
    /// retained generations, and real storage.
    pub fn in_dir<P: AsRef<Path>>(dir: P) -> Self {
        let dir = dir.as_ref();
        DurabilityConfig {
            journal_path: dir.join("ingest.kjrn"),
            snapshot_path: dir.join("ingest.ksnp"),
            snapshot_every_batches: 0,
            fsync: false,
            snapshot_generations: 2,
            storage: StorageHandle::real(),
        }
    }

    /// Sets the periodic-snapshot cadence, in full batches' worth of
    /// applied events (see [`DurabilityConfig::snapshot_every_batches`]).
    pub fn snapshot_every(mut self, batches: usize) -> Self {
        self.snapshot_every_batches = batches;
        self
    }

    /// Sets how many snapshot generations are retained.
    pub fn generations(mut self, generations: usize) -> Self {
        self.snapshot_generations = generations.max(1);
        self
    }

    /// Routes all storage through a scripted fault plan.
    pub fn with_faults(mut self, plan: crate::faults::FaultPlan) -> Self {
        self.storage = StorageHandle::faulty(plan);
        self
    }

    /// Routes all storage through the given handle.
    pub fn with_storage(mut self, storage: StorageHandle) -> Self {
        self.storage = storage;
        self
    }
}

/// Path of snapshot generation `g` (0 = the configured path itself).
pub fn snapshot_generation_path(path: &Path, generation: usize) -> PathBuf {
    if generation == 0 {
        path.to_path_buf()
    } else {
        let mut os = path.as_os_str().to_os_string();
        os.push(format!(".{generation}"));
        PathBuf::from(os)
    }
}

/// Why recovery failed.
#[derive(Debug)]
pub enum RecoverError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The journal file is missing, not a journal, or header-corrupt —
    /// and no snapshot could stand in for it.
    BadJournal(&'static str),
    /// The snapshot file exists but failed validation.
    BadSnapshot(PersistError),
    /// Snapshot and journal disagree (different vertex universe, or the
    /// journal starts past genesis with no usable snapshot).
    Mismatch(&'static str),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "io error: {e}"),
            RecoverError::BadJournal(what) => write!(f, "bad journal: {what}"),
            RecoverError::BadSnapshot(e) => write!(f, "bad snapshot: {e}"),
            RecoverError::Mismatch(what) => write!(f, "snapshot/journal mismatch: {what}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

// ------------------------------------------------------ journal: write

/// Zigzag-maps a signed delta into the unsigned LEB128 domain.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_leb128(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn get_leb128(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*at)?;
        *at += 1;
        if shift == 63 && b > 1 {
            return None; // > 64 bits: not a value we ever wrote
        }
        x |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Encodes one shipped batch as a v3 delta frame: marker, count,
/// first_seq, payload length, frame CRC, then the zigzag-LEB128 delta
/// payload. Entries must carry contiguous seqs (the journal is gap-free
/// by construction — seqs are stored once, as `first_seq`). Public so
/// the bench can measure the encoding cost and byte size.
pub fn encode_frame(entries: &[JournalEntry]) -> Vec<u8> {
    debug_assert!(entries.windows(2).all(|w| w[1].seq == w[0].seq + 1));
    let mut payload = Vec::with_capacity(entries.len() * 6);
    let mut prev_u = 0u32;
    for e in entries {
        let (kind, u, v) = match e.event {
            GraphEvent::EdgeInserted(u, v) => (0u8, u, v),
            GraphEvent::EdgeRemoved(u, v) => (1u8, u, v),
        };
        payload.push(kind);
        put_leb128(&mut payload, zigzag(i64::from(u) - i64::from(prev_u)));
        put_leb128(&mut payload, zigzag(i64::from(v) - i64::from(u)));
        prev_u = u;
    }
    let first_seq = entries.first().map_or(0, |e| e.seq);
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    out.extend_from_slice(&first_seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&out[4..20]).update(&payload);
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

pub(crate) fn encode_journal_header(n: usize, base: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES);
    out.extend_from_slice(&JOURNAL_MAGIC.to_le_bytes());
    out.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&base.to_le_bytes());
    let crc = crc32(&out[..20]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Atomically (re)writes a journal file: temp file + fsync + rename +
/// parent-directory fsync. Used for the snapshot-only journal reset.
fn write_journal_atomic(storage: &StorageHandle, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("kjrn.tmp");
    storage.with(|io| {
        io.write_file(&tmp, bytes)?;
        io.sync_file(&tmp)?;
        io.rename(&tmp, path)?;
        io.sync_dir(path.parent().unwrap_or_else(|| Path::new(".")))
    })
}

/// The append-only journal file, opened once by the writer thread. All
/// traffic routes through the config's [`StorageHandle`].
#[derive(Debug)]
pub struct JournalSink {
    path: PathBuf,
    storage: StorageHandle,
    fsync: bool,
    /// Events the journal held at open (`base` + intact records).
    existing: u64,
    /// Byte length of the validated prefix — where a failed append is
    /// truncated back to so the file never holds a partial frame
    /// followed by a good one.
    intact_len: u64,
}

impl JournalSink {
    /// Creates the journal (writing a v3 header) or re-opens an existing
    /// one for append after validating its header against `n`. A file of
    /// any other version is refused; a damaged suffix is truncated so
    /// resumed appends continue the intact prefix.
    pub fn open(
        path: &Path,
        n: usize,
        fsync: bool,
        storage: &StorageHandle,
    ) -> io::Result<JournalSink> {
        let bytes = match storage.with(|io| io.read(path)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        if bytes.is_empty() {
            let header = encode_journal_header(n, 0);
            storage.with(|io| io.append(path, &header))?;
            if fsync {
                storage.with(|io| io.sync_data(path))?;
            }
            return Ok(JournalSink {
                path: path.to_path_buf(),
                storage: storage.clone(),
                fsync,
                existing: 0,
                intact_len: HEADER_BYTES as u64,
            });
        }
        let contents = parse_journal(&bytes).map_err(|e| match e {
            RecoverError::Io(io) => io,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        })?;
        if contents.n != n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("journal declares {} vertices, engine has {n}", contents.n),
            ));
        }
        if contents.damage.is_some() {
            // Drop the damaged bytes so resumed appends continue the
            // intact prefix instead of landing behind garbage.
            storage.with(|io| io.truncate(path, contents.intact_bytes))?;
        }
        Ok(JournalSink {
            path: path.to_path_buf(),
            storage: storage.clone(),
            fsync,
            existing: contents.base + contents.events.len() as u64,
            intact_len: contents.intact_bytes,
        })
    }

    /// Events the journal held when this sink opened it (`base` + intact
    /// records): the seq a resumed writer must continue at for the file
    /// to stay gap-free.
    pub fn existing(&self) -> u64 {
        self.existing
    }

    /// Appends one shipped tail as a checksummed frame. On a failed
    /// write the file is truncated back to the last intact frame
    /// boundary, so a later retry of the same entries cannot land behind
    /// partial bytes; the original error is returned either way.
    pub fn append(&mut self, entries: &[JournalEntry]) -> io::Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let frame = encode_frame(entries);
        if let Err(e) = self.storage.with(|io| io.append(&self.path, &frame)) {
            let _ = self
                .storage
                .with(|io| io.truncate(&self.path, self.intact_len));
            return Err(e);
        }
        self.intact_len += frame.len() as u64;
        if self.fsync {
            self.storage.with(|io| io.sync_data(&self.path))?;
        }
        Ok(())
    }

    /// Re-attempts the journal fsync (after a failed one — the data is
    /// already appended, only durability is outstanding).
    pub fn sync(&mut self) -> io::Result<()> {
        self.storage.with(|io| io.sync_data(&self.path))
    }
}

// ------------------------------------------------------- journal: read

/// What [`read_journal`] yields.
#[derive(Debug, Clone)]
pub struct JournalContents {
    /// Vertex universe the journal was created over.
    pub n: usize,
    /// Seq of the first record (non-zero after a snapshot-only reset).
    pub base: u64,
    /// Intact events, gap-free from `base`.
    pub events: Vec<(u64, GraphEvent)>,
    /// Byte length of the validated prefix (header + whole valid
    /// frames) — the truncation point that repairs a damaged file.
    pub intact_bytes: u64,
    /// Why the readable prefix ended early, if it did. `None` = the
    /// whole file validated.
    pub damage: Option<&'static str>,
}

impl JournalContents {
    /// Seq one past the last intact event.
    pub fn durable_seq(&self) -> u64 {
        self.base + self.events.len() as u64
    }
}

/// Reads and validates a v3 journal file via real
/// storage. Corruption past the header ends the readable prefix
/// (`damage`) instead of failing — the intact prefix is still a valid
/// recovery source. A corrupt *header* is an error: nothing in the file
/// can be trusted.
pub fn read_journal(path: &Path) -> Result<JournalContents, RecoverError> {
    let bytes = StorageHandle::real()
        .with(|io| io.read(path))
        .map_err(|_| RecoverError::BadJournal("journal file missing or unreadable"))?;
    parse_journal(&bytes)
}

fn parse_journal(bytes: &[u8]) -> Result<JournalContents, RecoverError> {
    if bytes.len() < HEADER_BYTES {
        return Err(RecoverError::BadJournal("shorter than the header"));
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    if word(0) != JOURNAL_MAGIC {
        return Err(RecoverError::BadJournal("not a kcore journal"));
    }
    if word(20) != crc32(&bytes[..20]) {
        return Err(RecoverError::BadJournal("journal header checksum mismatch"));
    }
    if word(4) != JOURNAL_VERSION {
        return Err(RecoverError::BadJournal("unsupported journal version"));
    }
    let n = word(8) as usize;
    let base = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let mut events = Vec::new();
    let mut at = HEADER_BYTES;
    let mut intact = at;
    let mut damage = None;
    let mut expected_seq = base;
    'frames: while at < bytes.len() {
        if at + FRAME_HEADER_BYTES > bytes.len() {
            damage = Some("torn frame header");
            break;
        }
        if word(at) != FRAME_MAGIC {
            damage = Some("bad frame marker");
            break;
        }
        let count = word(at + 4) as usize;
        let first_seq = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
        let payload_len = word(at + 16) as usize;
        let Some(end) = payload_len.checked_add(at + FRAME_HEADER_BYTES) else {
            damage = Some("frame length overflow");
            break;
        };
        if end > bytes.len() {
            damage = Some("torn frame body");
            break;
        }
        let payload = &bytes[at + FRAME_HEADER_BYTES..end];
        let mut crc = Crc32::new();
        crc.update(&bytes[at + 4..at + 20]).update(payload);
        if word(at + 20) != crc.finish() {
            damage = Some("frame checksum mismatch");
            break;
        }
        if first_seq != expected_seq {
            damage = Some("sequence break");
            break;
        }
        // The CRC already vouches for the bytes; the decode checks below
        // guard against a frame that was *written* malformed.
        let mut frame_events = Vec::with_capacity(count);
        let mut r = 0usize;
        let mut prev_u = 0u32;
        for i in 0..count {
            let Some(&kind) = payload.get(r) else {
                damage = Some("frame payload underrun");
                break 'frames;
            };
            r += 1;
            if kind > 1 {
                damage = Some("unknown record kind");
                break 'frames;
            }
            let (Some(du), Some(dv)) = (get_leb128(payload, &mut r), get_leb128(payload, &mut r))
            else {
                damage = Some("frame payload underrun");
                break 'frames;
            };
            let Some(u) = u32::try_from(i64::from(prev_u) + unzigzag(du)).ok() else {
                damage = Some("vertex delta out of range");
                break 'frames;
            };
            let Some(v) = u32::try_from(i64::from(u) + unzigzag(dv)).ok() else {
                damage = Some("vertex delta out of range");
                break 'frames;
            };
            prev_u = u;
            frame_events.push((
                first_seq + i as u64,
                if kind == 0 {
                    GraphEvent::EdgeInserted(u, v)
                } else {
                    GraphEvent::EdgeRemoved(u, v)
                },
            ));
        }
        if r != payload.len() {
            damage = Some("frame payload overrun");
            break;
        }
        expected_seq += frame_events.len() as u64;
        events.extend(frame_events);
        at = end;
        intact = at;
    }
    Ok(JournalContents {
        n,
        base,
        events,
        intact_bytes: intact as u64,
        damage,
    })
}

// ----------------------------------------------------------- snapshots

fn encode_snapshot(ops: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SNAP_HEADER_BYTES + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&ops.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&ops.to_le_bytes()).update(payload);
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Persists the index snapshot into `d`'s rotation: temp file + fsync +
/// generation shift (`ksnp` → `ksnp.1` → …, oldest dropped) + rename +
/// parent-directory fsync. The directory fsync is what makes the rename
/// itself durable across power loss.
pub fn persist_index_snapshot(d: &DurabilityConfig, ops: u64, payload: &[u8]) -> io::Result<()> {
    let path = &d.snapshot_path;
    let bytes = encode_snapshot(ops, payload);
    let tmp = path.with_extension("ksnp.tmp");
    d.storage.with(|io| {
        io.write_file(&tmp, &bytes)?;
        io.sync_file(&tmp)
    })?;
    for g in (1..d.snapshot_generations.max(1)).rev() {
        let from = snapshot_generation_path(path, g - 1);
        d.storage.with(|io| {
            if io.exists(&from)? {
                io.rename(&from, &snapshot_generation_path(path, g))?;
            }
            io::Result::Ok(())
        })?;
    }
    d.storage.with(|io| {
        io.rename(&tmp, path)?;
        io.sync_dir(path.parent().unwrap_or_else(|| Path::new(".")))
    })
}

/// Loads a v2 index snapshot: `(ops covered, restored index)`. The CRC
/// is verified over `ops` + payload before the payload's own structural
/// validation runs.
pub fn load_index_snapshot(path: &Path, seed: u64) -> Result<(u64, OrderCore), RecoverError> {
    load_snapshot_with(&StorageHandle::real(), path, seed)
}

fn load_snapshot_with(
    storage: &StorageHandle,
    path: &Path,
    seed: u64,
) -> Result<(u64, OrderCore), RecoverError> {
    let bytes = storage.with(|io| io.read(path))?;
    if bytes.len() < SNAP_HEADER_BYTES {
        return Err(RecoverError::BadSnapshot(PersistError::BadHeader));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if magic != SNAPSHOT_MAGIC || version != SNAPSHOT_VERSION {
        return Err(RecoverError::BadSnapshot(PersistError::BadHeader));
    }
    let ops = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let stored = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    let payload = &bytes[SNAP_HEADER_BYTES..];
    let mut crc = Crc32::new();
    crc.update(&ops.to_le_bytes()).update(payload);
    if stored != crc.finish() {
        return Err(RecoverError::BadSnapshot(PersistError::Corrupted(
            "snapshot checksum mismatch",
        )));
    }
    let index: OrderCore = OrderCore::load(payload, seed).map_err(RecoverError::BadSnapshot)?;
    Ok((ops, index))
}

// ------------------------------------------------------------ recovery

/// Which rung of the recovery escalation ladder restored the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRung {
    /// Newest snapshot + fully-intact journal: the clean path.
    Primary,
    /// Newest snapshot, but the journal carried a damaged suffix that
    /// was truncated to the last checksummed frame.
    TruncatedTail,
    /// The newest snapshot generation was unusable; an older retained
    /// generation ([`RecoveryReport::snapshot_generation`]) recovered and
    /// journal replay covered the difference.
    OlderGeneration,
    /// The journal was unusable or behind the snapshot; state comes from
    /// the snapshot alone and the journal was reset at its `ops`.
    SnapshotOnly,
    /// No usable snapshot: the whole journal replayed from an empty
    /// graph.
    GenesisReplay,
}

impl std::fmt::Display for RecoveryRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryRung::Primary => write!(f, "primary"),
            RecoveryRung::TruncatedTail => write!(f, "truncated-tail"),
            RecoveryRung::OlderGeneration => write!(f, "older-generation"),
            RecoveryRung::SnapshotOnly => write!(f, "snapshot-only"),
            RecoveryRung::GenesisReplay => write!(f, "genesis-replay"),
        }
    }
}

/// What [`recover`] did and what it could not save.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The ladder rung that produced the restored state.
    pub rung: RecoveryRung,
    /// Snapshot generation used (0 = newest), `None` for genesis.
    pub snapshot_generation: Option<usize>,
    /// Snapshot generations that existed but failed validation (or could
    /// not be paired with the journal).
    pub snapshots_rejected: usize,
    /// Events the restored state covers — journal seqs `0..durable_ops`
    /// are reflected, everything past them is lost. A resumed service
    /// continues the journal here
    /// ([`crate::IngestService::spawn_recovered`] starts its writer's
    /// event count at this seq).
    pub durable_ops: u64,
    /// Events replayed from the journal on top of the snapshot (or the
    /// empty universe).
    pub replayed: usize,
    /// Why the journal's readable prefix ended early, if it did.
    pub journal_damage: Option<&'static str>,
    /// Journal bytes discarded: those past the last checksummed frame,
    /// or the whole file when the journal was reset
    /// ([`RecoveryRung::SnapshotOnly`]).
    pub journal_truncated_bytes: u64,
    /// Wall-clock time the whole ladder took, nanoseconds. Purely
    /// observational (per-rung recovery timing for the metrics layer);
    /// never feeds back into recovery decisions.
    pub elapsed_ns: u64,
}

impl RecoveryReport {
    /// Stable metric name of the rung that fired, matching the
    /// `recovery_rung_*` counter names the ingest service registers.
    pub fn rung_metric(&self) -> &'static str {
        match self.rung {
            RecoveryRung::Primary => "primary",
            RecoveryRung::TruncatedTail => "truncated_tail",
            RecoveryRung::OlderGeneration => "older_generation",
            RecoveryRung::SnapshotOnly => "snapshot_only",
            RecoveryRung::GenesisReplay => "genesis_replay",
        }
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rung {} · durable {} ops · {} replayed",
            self.rung, self.durable_ops, self.replayed
        )?;
        if let Some(g) = self.snapshot_generation {
            write!(f, " · snapshot gen {g}")?;
        }
        if self.snapshots_rejected > 0 {
            write!(f, " · {} snapshot(s) rejected", self.snapshots_rejected)?;
        }
        if let Some(damage) = self.journal_damage {
            write!(
                f,
                " · journal {damage} ({} bytes dropped)",
                self.journal_truncated_bytes
            )?;
        }
        if self.rung == RecoveryRung::SnapshotOnly {
            write!(f, " · journal reset")?;
        }
        Ok(())
    }
}

/// What [`recover`] restored: the engine, and the report of how.
pub struct Recovered {
    /// The rebuilt engine — planner-driven, order index fresh only if
    /// the tail replay ended on an order-based batch (call
    /// [`PlannedCore::ensure_order_fresh`] if you need it eagerly).
    pub engine: PlannedCore,
    /// Which ladder rung fired, the seq the journal resumes at
    /// ([`RecoveryReport::durable_ops`]) and exactly what was lost.
    pub report: RecoveryReport,
}

/// Restores a service's engine from its durability directory. Every
/// rung of the escalation ladder runs the same four steps:
///
/// 1. **Source** — the newest snapshot generation that validates and
///    fits the journal, or genesis (the empty universe at seq 0) when
///    none does;
/// 2. **Journal repair** — truncate the journal's damaged suffix to the
///    last checksummed frame, or, when the journal is unusable or lost a
///    suffix the snapshot still covers, reset it to an empty v3 file
///    based at the snapshot's `ops`;
/// 3. **Replay** — the journal tail past the source, **through the
///    planner** ([`replay_batched`] onto a [`PlannedCore`]):
///    `replay_batch` groups events into micro-batches and the planner
///    prices each one (recompute vs order-based passes), so a long tail
///    replays at batch speed;
/// 4. **Report** — which rung fired and exactly what was lost, in
///    [`Recovered::report`].
///
/// The rungs, from the clean path down:
///
/// 1. newest snapshot + intact journal tail ([`RecoveryRung::Primary`]);
/// 2. same, with the journal's damaged suffix truncated
///    ([`RecoveryRung::TruncatedTail`]);
/// 3. an older retained snapshot generation when newer ones fail
///    validation ([`RecoveryRung::OlderGeneration`]);
/// 4. the snapshot alone, resetting the journal
///    ([`RecoveryRung::SnapshotOnly`]);
/// 5. a full replay from the empty universe when no snapshot is usable
///    ([`RecoveryRung::GenesisReplay`]).
///
/// Repairs are made before returning, so a subsequent
/// [`crate::IngestService::spawn_recovered`] opens clean files, and a
/// second `recover()` over the same directory restores the same prefix
/// with no journal damage left to report.
pub fn recover(
    d: &DurabilityConfig,
    seed: u64,
    planner: PlannerConfig,
    replay_batch: usize,
) -> Result<Recovered, RecoverError> {
    let t0 = std::time::Instant::now();
    let mut rec = recover_impl(d, seed, planner, replay_batch)?;
    rec.report.elapsed_ns = t0.elapsed().as_nanos() as u64;
    Ok(rec)
}

fn recover_impl(
    d: &DurabilityConfig,
    seed: u64,
    planner: PlannerConfig,
    replay_batch: usize,
) -> Result<Recovered, RecoverError> {
    let storage = &d.storage;
    // The journal's length on disk and its intact prefix; `None` when the
    // file is missing or its header is unusable.
    let (journal_len, journal) = match storage.with(|io| io.read(&d.journal_path)) {
        Ok(bytes) => (bytes.len() as u64, parse_journal(&bytes).ok()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => (0, None),
        Err(e) => return Err(RecoverError::Io(e)),
    };

    // 1. Source. Scan the snapshot generations newest-first, keeping the
    // first one the journal can replay from and, separately, the newest
    // one *ahead* of the journal's durable prefix (usable only by
    // resetting the journal).
    let mut rejected = 0usize;
    let mut replayable: Option<(usize, u64, OrderCore)> = None;
    let mut ahead: Option<(usize, u64, OrderCore)> = None;
    for g in 0..d.snapshot_generations.max(1) {
        let p = snapshot_generation_path(&d.snapshot_path, g);
        // A failed check rejects the generation, as a failed read of it
        // would.
        let loaded = match storage.with(|io| io.exists(&p)) {
            Ok(false) => continue,
            Ok(true) => load_snapshot_with(storage, &p, seed),
            Err(e) => Err(RecoverError::Io(e)),
        };
        let (ops, index) = match loaded {
            Ok(loaded) => loaded,
            Err(_) => {
                rejected += 1;
                continue;
            }
        };
        match &journal {
            Some(j) => {
                if index.graph().num_vertices() != j.n {
                    rejected += 1;
                    continue;
                }
                if ops >= j.base && ops <= j.durable_seq() {
                    replayable = Some((g, ops, index));
                    break;
                }
                if ops > j.durable_seq() && ahead.is_none() {
                    // The journal lost a suffix this snapshot still
                    // covers; hold it in case no replayable rung exists.
                    ahead = Some((g, ops, index));
                } else {
                    rejected += 1;
                }
            }
            None => {
                // No usable journal at all: the newest loadable snapshot
                // is the only source of truth.
                ahead = Some((g, ops, index));
                break;
            }
        }
    }
    // An `ahead` snapshot covers strictly more events than the journal's
    // durable prefix, so it wins: resetting the journal at its `ops`
    // loses nothing the journal still has.
    let reset = ahead.is_some();
    let (generation, ops, index) = match ahead.or(replayable) {
        Some((g, ops, index)) => (Some(g), ops, index),
        None => {
            // Genesis: the journal must carry the full history from seq 0.
            let Some(j) = &journal else {
                return Err(RecoverError::BadJournal(
                    "journal file missing or unreadable, and no usable snapshot",
                ));
            };
            if j.base != 0 {
                return Err(RecoverError::Mismatch(
                    "journal starts past genesis with no usable snapshot",
                ));
            }
            let empty = OrderCore::new(DynamicGraph::with_vertices(j.n), seed);
            (None, 0, empty)
        }
    };

    // 2. Journal repair, and the tail left to replay past the source.
    let (tail, durable_ops, journal_truncated_bytes): (&[(u64, GraphEvent)], u64, u64) =
        match &journal {
            Some(j) if !reset => {
                if j.damage.is_some() {
                    storage.with(|io| io.truncate(&d.journal_path, j.intact_bytes))?;
                }
                let from = (ops - j.base) as usize;
                let dropped = journal_len - j.intact_bytes;
                (&j.events[from..], j.durable_seq(), dropped)
            }
            _ => {
                let n = index.graph().num_vertices();
                write_journal_atomic(storage, &d.journal_path, &encode_journal_header(n, ops))?;
                (&[], ops, journal_len)
            }
        };

    // 3. Replay.
    let mut engine = PlannedCore::from_parts(index, Planner::new(planner));
    let events = tail.iter().map(|&(_, e)| e);
    replay_batched(&mut engine, events, replay_batch.max(1));

    // 4. Report.
    let journal_damage = journal.as_ref().and_then(|j| j.damage);
    let rung = match generation {
        None => RecoveryRung::GenesisReplay,
        Some(_) if reset => RecoveryRung::SnapshotOnly,
        Some(0) if journal_damage.is_none() => RecoveryRung::Primary,
        Some(0) => RecoveryRung::TruncatedTail,
        Some(_) => RecoveryRung::OlderGeneration,
    };
    Ok(Recovered {
        engine,
        report: RecoveryReport {
            rung,
            snapshot_generation: generation,
            snapshots_rejected: rejected,
            durable_ops,
            replayed: tail.len(),
            journal_damage,
            journal_truncated_bytes,
            elapsed_ns: 0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan, OpClass};
    use kcore_maint::journal::Journaled;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("kcore_ingest_durability")
            .join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn path_graph(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::with_vertices(n);
        for v in 0..n as u32 - 1 {
            g.insert_edge_unchecked(v, v + 1);
        }
        g
    }

    #[test]
    fn journal_roundtrip_and_reopen_append() {
        let dir = tmpdir("roundtrip");
        let jp = dir.join("j.kjrn");
        let storage = StorageHandle::real();
        let mut j: Journaled<OrderCore> = Journaled::new(OrderCore::new(path_graph(6), 1));
        let mut sink = JournalSink::open(&jp, 6, false, &storage).unwrap();
        j.insert_edge(0, 2).unwrap();
        j.insert_edge(0, 3).unwrap();
        sink.append(&j.drain_since(0)).unwrap();
        drop(sink);

        // Re-open for append (header validated), ship one more.
        let mut sink = JournalSink::open(&jp, 6, false, &storage).unwrap();
        assert_eq!(sink.existing(), 2);
        j.remove_edge(0, 2).unwrap();
        sink.append(&j.drain_since(2)).unwrap();
        drop(sink);

        let contents = read_journal(&jp).unwrap();
        assert_eq!(contents.n, 6);
        assert_eq!(contents.base, 0);
        assert!(contents.damage.is_none());
        assert_eq!(
            contents.events,
            vec![
                (0, GraphEvent::EdgeInserted(0, 2)),
                (1, GraphEvent::EdgeInserted(0, 3)),
                (2, GraphEvent::EdgeRemoved(0, 2)),
            ]
        );
        assert_eq!(contents.intact_bytes, std::fs::metadata(&jp).unwrap().len());

        // Wrong universe on re-open is refused.
        assert!(JournalSink::open(&jp, 7, false, &storage).is_err());
    }

    #[test]
    fn torn_tail_yields_intact_prefix() {
        let dir = tmpdir("torn");
        let jp = dir.join("j.kjrn");
        // Journal-only recovery (no checkpoint): the engine must start
        // from the empty universe, since only events are journaled.
        let storage = StorageHandle::real();
        let mut j: Journaled<OrderCore> =
            Journaled::new(OrderCore::new(DynamicGraph::with_vertices(5), 1));
        let mut sink = JournalSink::open(&jp, 5, false, &storage).unwrap();
        j.insert_edge(0, 2).unwrap();
        sink.append(&j.drain_since(0)).unwrap();
        j.insert_edge(1, 4).unwrap();
        sink.append(&j.drain_since(1)).unwrap();
        drop(sink);

        // Chop mid-frame: the second frame loses its record's last bytes.
        let bytes = std::fs::read(&jp).unwrap();
        std::fs::write(&jp, &bytes[..bytes.len() - 5]).unwrap();
        let contents = read_journal(&jp).unwrap();
        assert!(contents.damage.is_some());
        assert_eq!(contents.events, vec![(0, GraphEvent::EdgeInserted(0, 2))]);

        // And recovery over the torn journal still works on the prefix.
        let d = DurabilityConfig {
            journal_path: jp.clone(),
            snapshot_path: dir.join("none.ksnp"),
            ..DurabilityConfig::in_dir(&dir)
        };
        let rec = recover(&d, 3, PlannerConfig::default(), 64).unwrap();
        assert_eq!(rec.report.rung, RecoveryRung::GenesisReplay);
        assert!(rec.report.journal_damage.is_some());
        assert_eq!(rec.report.durable_ops, 1);
        assert!(rec.report.journal_truncated_bytes > 0);
        let mut oracle = DynamicGraph::with_vertices(5);
        oracle.insert_edge(0, 2).unwrap();
        assert_eq!(
            rec.engine.cores(),
            &kcore_decomp::core_decomposition(&oracle)[..]
        );
        // recover() repaired the file: re-reading it is clean now.
        assert!(read_journal(&jp).unwrap().damage.is_none());
    }

    #[test]
    fn snapshot_rejects_garbage_and_survives_rename_protocol() {
        let dir = tmpdir("snap");
        let d = DurabilityConfig::in_dir(&dir).generations(1);
        let sp = d.snapshot_path.clone();
        let index: OrderCore = OrderCore::new(path_graph(4), 9);
        let mut payload = Vec::new();
        index.save(&mut payload).unwrap();
        persist_index_snapshot(&d, 7, &payload).unwrap();
        assert!(
            !sp.with_extension("ksnp.tmp").exists(),
            "temp file renamed away"
        );
        let (ops, loaded) = load_index_snapshot(&sp, 9).unwrap();
        assert_eq!(ops, 7);
        assert_eq!(loaded.cores(), index.cores());

        std::fs::write(&sp, b"not a snapshot at all").unwrap();
        assert!(matches!(
            load_index_snapshot(&sp, 9),
            Err(RecoverError::BadSnapshot(_))
        ));
    }

    #[test]
    fn fault_pre_v3_journal_versions_are_refused() {
        let dir = tmpdir("old_versions");
        let storage = StorageHandle::real();
        for version in [1u32, 2] {
            // A well-formed v3 file whose header declares an older version
            // (header CRC recomputed, so only the version can be at fault).
            let jp = dir.join(format!("v{version}.kjrn"));
            let mut j: Journaled<OrderCore> =
                Journaled::new(OrderCore::new(DynamicGraph::with_vertices(4), 1));
            let mut sink = JournalSink::open(&jp, 4, false, &storage).unwrap();
            j.insert_edge(0, 1).unwrap();
            sink.append(&j.drain_since(0)).unwrap();
            drop(sink);
            let mut bytes = std::fs::read(&jp).unwrap();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let crc = crc32(&bytes[..20]);
            bytes[20..24].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&jp, &bytes).unwrap();

            assert!(
                matches!(read_journal(&jp), Err(RecoverError::BadJournal(_))),
                "read_journal accepted a v{version} header"
            );
            let err = JournalSink::open(&jp, 4, false, &storage).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                std::fs::read(&jp).unwrap(),
                bytes,
                "a refused v{version} journal must be left untouched"
            );
        }
    }

    #[test]
    fn delta_frames_roundtrip_hostile_id_patterns() {
        // Wide swings between consecutive ids, u > v, u == prev, max-id
        // vertices: every zigzag/LEB128 edge case in one frame.
        let n = u32::MAX;
        let pats = [
            (0u32, 1u32),
            (u32::MAX - 1, 0),
            (0, u32::MAX - 1),
            (5, 5 + 1),
            (5, 2),
            (1_000_000, 999_999),
        ];
        let entries: Vec<JournalEntry> = pats
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| JournalEntry {
                seq: 7 + i as u64,
                event: if i % 2 == 0 {
                    GraphEvent::EdgeInserted(u, v)
                } else {
                    GraphEvent::EdgeRemoved(u, v)
                },
                transitions: Vec::new(),
            })
            .collect();
        let mut bytes = encode_journal_header(n as usize, 7);
        bytes.extend_from_slice(&encode_frame(&entries));
        let dir = tmpdir("hostile_deltas");
        let jp = dir.join("j.kjrn");
        std::fs::write(&jp, &bytes).unwrap();
        let contents = read_journal(&jp).unwrap();
        assert!(contents.damage.is_none());
        let expect: Vec<(u64, GraphEvent)> = entries.iter().map(|e| (e.seq, e.event)).collect();
        assert_eq!(contents.events, expect);
    }

    #[test]
    fn fault_every_body_byte_flip_is_detected() {
        let dir = tmpdir("flip_sweep");
        let jp = dir.join("j.kjrn");
        let storage = StorageHandle::real();
        let mut j: Journaled<OrderCore> =
            Journaled::new(OrderCore::new(DynamicGraph::with_vertices(8), 1));
        let mut sink = JournalSink::open(&jp, 8, false, &storage).unwrap();
        j.insert_edge(0, 1).unwrap();
        j.insert_edge(1, 2).unwrap();
        sink.append(&j.drain_since(0)).unwrap();
        j.insert_edge(2, 3).unwrap();
        j.remove_edge(0, 1).unwrap();
        sink.append(&j.drain_since(2)).unwrap();
        drop(sink);
        let clean = std::fs::read(&jp).unwrap();
        let clean_events = read_journal(&jp).unwrap().events;
        assert_eq!(clean_events.len(), 4);

        // Flip every single byte of the body (frames + records): the
        // reader must either still return a strict prefix of the clean
        // events (damage reported) or keep the file fully intact only
        // when the flip cancels out — which a single XOR never does.
        for at in HEADER_BYTES..clean.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = clean.clone();
                corrupt[at] ^= mask;
                std::fs::write(&jp, &corrupt).unwrap();
                let contents = read_journal(&jp).unwrap();
                assert!(
                    contents.damage.is_some(),
                    "flip at byte {at} mask {mask:#x} went undetected"
                );
                assert!(
                    contents.events.len() < clean_events.len(),
                    "flip at byte {at} replayed a full corrupt stream"
                );
                assert_eq!(
                    contents.events[..],
                    clean_events[..contents.events.len()],
                    "flip at byte {at} corrupted the *prefix*"
                );
            }
        }

        // Header flips are fatal (nothing in the file can be trusted).
        for at in 0..HEADER_BYTES {
            let mut corrupt = clean.clone();
            corrupt[at] ^= 0x01;
            std::fs::write(&jp, &corrupt).unwrap();
            assert!(
                read_journal(&jp).is_err(),
                "header flip at byte {at} went undetected"
            );
        }
    }

    #[test]
    fn fault_snapshot_rotation_and_older_generation_rung() {
        let dir = tmpdir("rotation");
        let d = DurabilityConfig::in_dir(&dir).generations(3);
        let storage = StorageHandle::real();

        // Build a journal of 4 inserts and snapshots at ops 2 and 4.
        let mut j: Journaled<OrderCore> =
            Journaled::new(OrderCore::new(DynamicGraph::with_vertices(6), 7));
        let mut sink = JournalSink::open(&d.journal_path, 6, false, &storage).unwrap();
        j.insert_edge(0, 1).unwrap();
        j.insert_edge(1, 2).unwrap();
        sink.append(&j.drain_since(0)).unwrap();
        let mut payload = Vec::new();
        j.engine_mut().save(&mut payload).unwrap();
        persist_index_snapshot(&d, 2, &payload).unwrap();
        j.insert_edge(2, 3).unwrap();
        j.insert_edge(3, 4).unwrap();
        sink.append(&j.drain_since(2)).unwrap();
        payload.clear();
        j.engine_mut().save(&mut payload).unwrap();
        persist_index_snapshot(&d, 4, &payload).unwrap();
        drop(sink);

        // Both generations on disk; newest wins cleanly.
        assert!(snapshot_generation_path(&d.snapshot_path, 1).exists());
        let rec = recover(&d, 7, PlannerConfig::default(), 64).unwrap();
        assert_eq!(rec.report.rung, RecoveryRung::Primary);
        assert_eq!(rec.report.snapshot_generation, Some(0));
        assert_eq!(rec.report.replayed, 0);
        assert_eq!(rec.engine.cores(), j.engine().cores());

        // Corrupt the newest generation: the ladder falls back to gen 1
        // and replays the journal difference.
        let newest = std::fs::read(&d.snapshot_path).unwrap();
        let mut corrupt = newest.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        std::fs::write(&d.snapshot_path, &corrupt).unwrap();
        let rec = recover(&d, 7, PlannerConfig::default(), 64).unwrap();
        assert_eq!(rec.report.rung, RecoveryRung::OlderGeneration);
        assert_eq!(rec.report.snapshot_generation, Some(1));
        assert_eq!(rec.report.snapshots_rejected, 1);
        assert_eq!(rec.report.replayed, 2);
        assert_eq!(rec.engine.cores(), j.engine().cores());

        // Corrupt both: genesis replay still restores everything.
        std::fs::write(snapshot_generation_path(&d.snapshot_path, 1), b"junk").unwrap();
        let rec = recover(&d, 7, PlannerConfig::default(), 64).unwrap();
        assert_eq!(rec.report.rung, RecoveryRung::GenesisReplay);
        assert_eq!(rec.report.snapshots_rejected, 2);
        assert_eq!(rec.report.replayed, 4);
        assert_eq!(rec.engine.cores(), j.engine().cores());
    }

    #[test]
    fn fault_snapshot_only_rung_resets_journal() {
        let dir = tmpdir("snaponly");
        let d = DurabilityConfig::in_dir(&dir);
        let storage = StorageHandle::real();
        let mut j: Journaled<OrderCore> =
            Journaled::new(OrderCore::new(DynamicGraph::with_vertices(5), 7));
        let mut sink = JournalSink::open(&d.journal_path, 5, false, &storage).unwrap();
        j.insert_edge(0, 1).unwrap();
        j.insert_edge(1, 2).unwrap();
        j.insert_edge(2, 3).unwrap();
        sink.append(&j.drain_since(0)).unwrap();
        drop(sink);
        let mut payload = Vec::new();
        j.engine_mut().save(&mut payload).unwrap();
        persist_index_snapshot(&d, 3, &payload).unwrap();

        // Destroy the journal header: the snapshot alone must carry the
        // state, and the journal is reset at its coverage.
        let mut bytes = std::fs::read(&d.journal_path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&d.journal_path, &bytes).unwrap();
        let rec = recover(&d, 7, PlannerConfig::default(), 64).unwrap();
        assert_eq!(rec.report.rung, RecoveryRung::SnapshotOnly);
        assert_eq!(rec.report.durable_ops, 3);
        assert_eq!(rec.engine.cores(), j.engine().cores());
        let reset = read_journal(&d.journal_path).unwrap();
        assert_eq!(reset.base, 3);
        assert!(reset.events.is_empty());
        // The resumed service can append to the reset journal.
        let sink = JournalSink::open(&d.journal_path, 5, false, &storage).unwrap();
        assert_eq!(sink.existing(), 3);
    }

    #[test]
    fn fault_failed_append_truncates_partial_frame() {
        let dir = tmpdir("shortappend");
        let jp = dir.join("j.kjrn");
        let storage = StorageHandle::faulty(FaultPlan::new().fault(
            OpClass::JournalAppend,
            1,
            FaultKind::ShortWrite { keep: 10 },
        ));
        let mut j: Journaled<OrderCore> =
            Journaled::new(OrderCore::new(DynamicGraph::with_vertices(4), 1));
        let mut sink = JournalSink::open(&jp, 4, false, &storage).unwrap();
        j.insert_edge(0, 1).unwrap();
        let tail = j.drain_since(0);
        // The scripted short write fails the append, but the sink repairs
        // the file back to the frame boundary …
        assert!(sink.append(&tail).is_err());
        // … so retrying the same entries lands cleanly.
        sink.append(&tail).unwrap();
        j.insert_edge(1, 2).unwrap();
        sink.append(&j.drain_since(1)).unwrap();
        drop(sink);
        let contents = read_journal(&jp).unwrap();
        assert!(contents.damage.is_none());
        assert_eq!(contents.events.len(), 2);
    }
}
