//! Deterministic fault injection for the durability layer.
//!
//! Every byte the ingest service persists flows through the [`JournalIo`]
//! trait — journal appends, snapshot writes, fsyncs, renames, directory
//! syncs, reads, truncations, and the existence checks that decide which
//! of those run. Production uses [`RealIo`] (plain
//! `std::fs`); tests swap in [`FaultyIo`], which executes a scripted
//! [`FaultPlan`] against per-class operation counters: *the k-th journal
//! append fails short*, *the 2nd rename crashes the process*, *the 0th
//! snapshot read comes back with a flipped bit*. The discipline is the
//! same as [`crate::ClockMode::Scripted`]: no randomness, no timing —
//! a fault fires at an exact operation count, so every failure
//! interleaving is a reproducible test case on any host.
//!
//! [`FaultKind::Crash`] models `kill -9` at a failpoint: the scripted
//! operation is *not* performed and every later operation on the handle
//! fails, freezing the on-disk state exactly as a power cut would. The
//! kill-at-every-failpoint sweep in `tests/fault_injection.rs` first
//! profiles a clean run ([`StorageHandle::op_counts`]), then replays the
//! workload once per (class, index) pair and asserts recovery restores
//! the oracle state on the reported durable prefix.
//!
//! [`FaultPlan::panic_at_flush`] is the same idea one layer up: the
//! ingest writer reads the plan's engine-panic script once at spawn, and
//! at the scripted flush it applies the first half of the pending events
//! and then panics inside its own `catch_unwind`. The engine is left
//! genuinely ahead of the journal, which exercises the supervised
//! writer's `recover()` path. Engine panics are not an [`OpClass`]: they
//! do not move the storage counters, and [`StorageHandle::op_counts`]
//! does not list them.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The storage operation classes a [`FaultPlan`] can target. Each class
/// has its own 0-based operation counter inside [`FaultyIo`]; counters
/// include operations that fail naturally (e.g. a `Read` of a missing
/// file), so indices are a pure function of the call sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Appending bytes to the journal (header creation included).
    JournalAppend,
    /// `fsync` of journal data after an append.
    JournalSync,
    /// Whole-file writes: snapshot temp files, journal rewrites/resets.
    FileWrite,
    /// `fsync` of a freshly written file before its rename.
    FileSync,
    /// Atomic renames (snapshot rotation, temp-file publication).
    Rename,
    /// Parent-directory `fsync` after a rename.
    DirSync,
    /// Whole-file reads (journal and snapshot loads).
    Read,
    /// Truncations (torn-tail and failed-append repair).
    Truncate,
    /// Existence checks (which snapshot generations to rotate or load,
    /// whether checkpoint zero is due).
    Exists,
}

/// Number of [`OpClass`] variants (per-class counter array size).
const OP_CLASSES: usize = 9;

impl OpClass {
    fn idx(self) -> usize {
        match self {
            OpClass::JournalAppend => 0,
            OpClass::JournalSync => 1,
            OpClass::FileWrite => 2,
            OpClass::FileSync => 3,
            OpClass::Rename => 4,
            OpClass::DirSync => 5,
            OpClass::Read => 6,
            OpClass::Truncate => 7,
            OpClass::Exists => 8,
        }
    }

    /// All classes, in counter order.
    pub const ALL: [OpClass; OP_CLASSES] = [
        OpClass::JournalAppend,
        OpClass::JournalSync,
        OpClass::FileWrite,
        OpClass::FileSync,
        OpClass::Rename,
        OpClass::DirSync,
        OpClass::Read,
        OpClass::Truncate,
        OpClass::Exists,
    ];
}

/// What a scripted fault does when its operation count comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A data write persists only its first `keep` bytes, then errors —
    /// the torn-write case. On non-write classes this degrades to
    /// [`FaultKind::IoError`].
    ShortWrite {
        /// Bytes that reach the file before the failure.
        keep: usize,
    },
    /// The operation fails without side effects. On a sync class this is
    /// the "failed fsync" case: the data write succeeded, durability
    /// didn't.
    IoError,
    /// Silent corruption: a data write lands with one byte flipped, a
    /// read returns one flipped byte — and reports **success**. The case
    /// per-record CRCs exist for. Non-data classes degrade to
    /// [`FaultKind::IoError`].
    BitFlip {
        /// Byte position, taken modulo the payload length.
        offset: usize,
        /// XOR mask applied to the byte (`0` is replaced by `0x01`).
        mask: u8,
    },
    /// Process death at the failpoint: the operation is not performed
    /// and every subsequent operation fails, freezing the on-disk state.
    Crash,
}

/// One injected (or about to be injected) fault: class, operation index,
/// kind.
pub type InjectedFault = (OpClass, u64, FaultKind);

/// A deterministic fault script: a set of `(class, nth-op, kind)`
/// triples, plus the flushes at which the ingest writer's engine panics.
/// Built with the builder methods and handed to [`StorageHandle::faulty`]
/// (or [`crate::DurabilityConfig::with_faults`]).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    scripted: Vec<InjectedFault>,
    engine_panics: Vec<u64>,
}

impl FaultPlan {
    /// An empty plan (no faults — useful to profile operation counts).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Scripts `kind` to fire on the `nth` (0-based) operation of
    /// `class`.
    pub fn fault(mut self, class: OpClass, nth: u64, kind: FaultKind) -> Self {
        self.scripted.push((class, nth, kind));
        self
    }

    /// Scripts a [`FaultKind::Crash`] at the `nth` operation of `class`.
    pub fn crash(self, class: OpClass, nth: u64) -> Self {
        self.fault(class, nth, FaultKind::Crash)
    }

    /// Scripts an engine panic in the `nth` (0-based) flush that reaches
    /// the engine of an ingest writer spawned over this storage: the
    /// writer applies the first half of the flush's events, then panics.
    /// Flushes that panicked count towards `nth`.
    pub fn panic_at_flush(mut self, nth: u64) -> Self {
        self.engine_panics.push(nth);
        self
    }

    fn take(&mut self, class: OpClass, nth: u64) -> Option<FaultKind> {
        let at = self
            .scripted
            .iter()
            .position(|&(c, n, _)| c == class && n == nth)?;
        Some(self.scripted.swap_remove(at).2)
    }
}

/// The storage seam: every persistent-state operation the durability
/// layer performs. `&mut self` because implementations keep counters;
/// handles are shared through [`StorageHandle`]'s mutex.
pub trait JournalIo: Send {
    /// Appends `bytes` to `path`, creating the file if absent.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// `fsync`s journal data previously appended to `path`.
    fn sync_data(&mut self, path: &Path) -> io::Result<()>;
    /// Creates/overwrites `path` with `bytes`.
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// `fsync`s `path` (written via [`JournalIo::write_file`]).
    fn sync_file(&mut self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    /// `fsync`s a directory, making prior renames in it power-loss
    /// durable.
    fn sync_dir(&mut self, dir: &Path) -> io::Result<()>;
    /// Reads `path` in full.
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>>;
    /// Truncates `path` to `len` bytes.
    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()>;
    /// Whether `path` exists; an error when that cannot be determined.
    fn exists(&mut self, path: &Path) -> io::Result<bool>;

    /// Faults this handle has injected so far (empty for real storage).
    fn fired(&self) -> Vec<InjectedFault> {
        Vec::new()
    }
    /// Whether a scripted [`FaultKind::Crash`] has fired.
    fn crashed(&self) -> bool {
        false
    }
    /// Per-class operation counts (empty for real storage) — the
    /// profile a kill-sweep enumerates failpoints from.
    fn op_counts(&self) -> Vec<(OpClass, u64)> {
        Vec::new()
    }
}

/// Plain `std::fs` storage. Opens per operation: the durability layer
/// performs a handful of operations per flush, so handle caching would
/// buy microseconds and cost staleness bugs across renames/truncates.
#[derive(Debug, Default)]
pub struct RealIo;

fn dir_or_cwd(dir: &Path) -> &Path {
    if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    }
}

impl JournalIo for RealIo {
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().append(true).create(true).open(path)?;
        f.write_all(bytes)
    }

    fn sync_data(&mut self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_data()
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn sync_file(&mut self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        File::open(dir_or_cwd(dir))?.sync_all()
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn exists(&mut self, path: &Path) -> io::Result<bool> {
        path.try_exists()
    }
}

/// [`RealIo`] under a [`FaultPlan`]: performs every operation for real
/// unless the per-class counter matches a scripted fault.
pub struct FaultyIo {
    inner: RealIo,
    plan: FaultPlan,
    counts: [u64; OP_CLASSES],
    crashed: bool,
    fired: Vec<InjectedFault>,
}

impl FaultyIo {
    /// Wraps real storage under `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultyIo {
            inner: RealIo,
            plan,
            counts: [0; OP_CLASSES],
            crashed: false,
            fired: Vec::new(),
        }
    }

    /// Advances the class counter and returns the fault scheduled for
    /// this operation, if any. A prior crash short-circuits everything.
    fn arm(&mut self, class: OpClass) -> Result<Option<FaultKind>, io::Error> {
        if self.crashed {
            return Err(io::Error::other("storage crashed (scripted)"));
        }
        let nth = self.counts[class.idx()];
        self.counts[class.idx()] += 1;
        match self.plan.take(class, nth) {
            Some(FaultKind::Crash) => {
                self.crashed = true;
                self.fired.push((class, nth, FaultKind::Crash));
                Err(io::Error::other("crash at failpoint (scripted)"))
            }
            Some(kind) => {
                self.fired.push((class, nth, kind));
                Ok(Some(kind))
            }
            None => Ok(None),
        }
    }

    /// A data write under the armed fault: short writes persist a
    /// prefix, bit flips persist silently corrupted bytes, other kinds
    /// degrade to a clean error.
    fn faulted_write(
        &mut self,
        fault: FaultKind,
        bytes: &[u8],
        mut op: impl FnMut(&mut RealIo, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        match fault {
            FaultKind::ShortWrite { keep } => {
                op(&mut self.inner, &bytes[..keep.min(bytes.len())])?;
                Err(io::Error::other("short write (scripted)"))
            }
            FaultKind::BitFlip { offset, mask } => {
                let mut corrupted = bytes.to_vec();
                if !corrupted.is_empty() {
                    let at = offset % corrupted.len();
                    corrupted[at] ^= if mask == 0 { 1 } else { mask };
                }
                op(&mut self.inner, &corrupted)
            }
            _ => Err(io::Error::other("io error (scripted)")),
        }
    }
}

impl JournalIo for FaultyIo {
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.arm(OpClass::JournalAppend)? {
            None => self.inner.append(path, bytes),
            Some(fault) => self.faulted_write(fault, bytes, |io, b| io.append(path, b)),
        }
    }

    fn sync_data(&mut self, path: &Path) -> io::Result<()> {
        match self.arm(OpClass::JournalSync)? {
            None => self.inner.sync_data(path),
            Some(_) => Err(io::Error::other("fsync failed (scripted)")),
        }
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.arm(OpClass::FileWrite)? {
            None => self.inner.write_file(path, bytes),
            Some(fault) => self.faulted_write(fault, bytes, |io, b| io.write_file(path, b)),
        }
    }

    fn sync_file(&mut self, path: &Path) -> io::Result<()> {
        match self.arm(OpClass::FileSync)? {
            None => self.inner.sync_file(path),
            Some(_) => Err(io::Error::other("fsync failed (scripted)")),
        }
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        match self.arm(OpClass::Rename)? {
            None => self.inner.rename(from, to),
            Some(_) => Err(io::Error::other("rename failed (scripted)")),
        }
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        match self.arm(OpClass::DirSync)? {
            None => self.inner.sync_dir(dir),
            Some(_) => Err(io::Error::other("dir fsync failed (scripted)")),
        }
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        match self.arm(OpClass::Read)? {
            None => self.inner.read(path),
            Some(FaultKind::BitFlip { offset, mask }) => {
                let mut bytes = self.inner.read(path)?;
                if !bytes.is_empty() {
                    let at = offset % bytes.len();
                    bytes[at] ^= if mask == 0 { 1 } else { mask };
                }
                Ok(bytes)
            }
            Some(_) => Err(io::Error::other("read failed (scripted)")),
        }
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        match self.arm(OpClass::Truncate)? {
            None => self.inner.truncate(path, len),
            Some(_) => Err(io::Error::other("truncate failed (scripted)")),
        }
    }

    fn exists(&mut self, path: &Path) -> io::Result<bool> {
        match self.arm(OpClass::Exists)? {
            None => self.inner.exists(path),
            Some(_) => Err(io::Error::other("exists check failed (scripted)")),
        }
    }

    fn fired(&self) -> Vec<InjectedFault> {
        self.fired.clone()
    }

    fn crashed(&self) -> bool {
        self.crashed
    }

    fn op_counts(&self) -> Vec<(OpClass, u64)> {
        OpClass::ALL
            .iter()
            .map(|&c| (c, self.counts[c.idx()]))
            .collect()
    }
}

/// Cloneable, thread-safe handle to one [`JournalIo`] implementation.
/// The writer thread, its checkpoint writes, the spawn-time sink open,
/// and `recover()` all share the same handle, so a scripted plan sees
/// one global operation sequence.
#[derive(Clone)]
pub struct StorageHandle {
    /// `None` is plain [`RealIo`]: stateless, so it needs no lock, and a
    /// background checkpoint's fsync never blocks a journal append.
    io: Option<Arc<Mutex<Box<dyn JournalIo>>>>,
    /// The plan's [`FaultPlan::panic_at_flush`] script (empty unless
    /// built by [`StorageHandle::faulty`]).
    engine_panics: Vec<u64>,
}

impl StorageHandle {
    /// Plain `std::fs` storage — the production default.
    pub fn real() -> Self {
        StorageHandle {
            io: None,
            engine_panics: Vec::new(),
        }
    }

    /// Real storage under a scripted [`FaultPlan`].
    pub fn faulty(mut plan: FaultPlan) -> Self {
        let engine_panics = std::mem::take(&mut plan.engine_panics);
        StorageHandle {
            engine_panics,
            ..Self::custom(Box::new(FaultyIo::new(plan)))
        }
    }

    /// Wraps a custom [`JournalIo`] implementation.
    pub fn custom(io: Box<dyn JournalIo>) -> Self {
        StorageHandle {
            io: Some(Arc::new(Mutex::new(io))),
            engine_panics: Vec::new(),
        }
    }

    /// The flushes at which an ingest writer spawned over this storage
    /// panics (see [`FaultPlan::panic_at_flush`]).
    pub(crate) fn engine_panics(&self) -> &[u64] {
        &self.engine_panics
    }

    /// Runs `f` against the storage, under the handle's lock unless it
    /// is plain real storage.
    pub fn with<R>(&self, f: impl FnOnce(&mut dyn JournalIo) -> R) -> R {
        match &self.io {
            Some(io) => f(io.lock().expect("storage handle poisoned").as_mut()),
            None => f(&mut RealIo),
        }
    }

    /// Faults injected so far (empty for real storage).
    pub fn fired_faults(&self) -> Vec<InjectedFault> {
        self.with(|io| io.fired())
    }

    /// Whether a scripted crash has fired.
    pub fn crashed(&self) -> bool {
        self.with(|io| io.crashed())
    }

    /// Per-class operation counts (empty for real storage).
    pub fn op_counts(&self) -> Vec<(OpClass, u64)> {
        self.with(|io| io.op_counts())
    }
}

impl Default for StorageHandle {
    fn default() -> Self {
        StorageHandle::real()
    }
}

impl fmt::Debug for StorageHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StorageHandle")
            .field("faulty", &self.io.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("kcore_ingest_faults");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn fault_plan_fires_at_exact_op_counts() {
        let p = tmpfile("exact.bin");
        std::fs::remove_file(&p).ok();
        let storage = StorageHandle::faulty(
            FaultPlan::new()
                .fault(OpClass::JournalAppend, 1, FaultKind::ShortWrite { keep: 2 })
                .fault(OpClass::JournalAppend, 3, FaultKind::IoError),
        );
        // Op 0: clean. Op 1: short (2 of 4 bytes land). Op 2: clean.
        // Op 3: refused without side effects.
        storage.with(|io| io.append(&p, b"aaaa")).unwrap();
        assert!(storage.with(|io| io.append(&p, b"bbbb")).is_err());
        storage.with(|io| io.append(&p, b"cccc")).unwrap();
        assert!(storage.with(|io| io.append(&p, b"dddd")).is_err());
        assert_eq!(std::fs::read(&p).unwrap(), b"aaaabbcccc");
        assert_eq!(storage.fired_faults().len(), 2);
        assert!(!storage.crashed());
        let counts = storage.op_counts();
        assert!(counts.contains(&(OpClass::JournalAppend, 4)));
    }

    #[test]
    fn fault_crash_freezes_all_later_ops() {
        let p = tmpfile("crash.bin");
        std::fs::remove_file(&p).ok();
        let storage = StorageHandle::faulty(FaultPlan::new().crash(OpClass::JournalAppend, 1));
        storage.with(|io| io.append(&p, b"live")).unwrap();
        assert!(storage.with(|io| io.append(&p, b"dead")).is_err());
        assert!(storage.crashed());
        // Everything after the crash fails, across classes.
        assert!(storage.with(|io| io.read(&p)).is_err());
        assert!(storage.with(|io| io.sync_dir(p.parent().unwrap())).is_err());
        assert_eq!(std::fs::read(&p).unwrap(), b"live");
    }

    #[test]
    fn fault_bit_flip_is_silent() {
        let p = tmpfile("flip.bin");
        std::fs::remove_file(&p).ok();
        let storage = StorageHandle::faulty(FaultPlan::new().fault(
            OpClass::FileWrite,
            0,
            FaultKind::BitFlip {
                offset: 1,
                mask: 0xFF,
            },
        ));
        // The write *reports success* — only the bytes lie.
        storage
            .with(|io| io.write_file(&p, b"\x00\x00\x00"))
            .unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"\x00\xFF\x00");
        // Reads can lie the same way.
        let storage = StorageHandle::faulty(FaultPlan::new().fault(
            OpClass::Read,
            0,
            FaultKind::BitFlip {
                offset: 0,
                mask: 0x01,
            },
        ));
        assert_eq!(storage.with(|io| io.read(&p)).unwrap(), b"\x01\xFF\x00");
    }

    #[test]
    fn fault_engine_panics_stay_out_of_the_op_classes() {
        let storage = StorageHandle::faulty(
            FaultPlan::new()
                .panic_at_flush(2)
                .crash(OpClass::Rename, 0)
                .panic_at_flush(5),
        );
        assert_eq!(storage.engine_panics(), &[2, 5]);
        // The panic script is not a storage fault: nothing fired, and the
        // per-class counters a kill sweep enumerates do not see it.
        assert!(storage.fired_faults().is_empty());
        assert_eq!(storage.op_counts().len(), OpClass::ALL.len());
        assert!(storage.op_counts().iter().all(|&(_, n)| n == 0));
        assert!(StorageHandle::real().engine_panics().is_empty());
    }
}
