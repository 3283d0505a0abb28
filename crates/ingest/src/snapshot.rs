//! Immutable, epoch-versioned views of the maintained core state, and
//! the handle readers load them through.
//!
//! The writer publishes a fresh [`CoreSnapshot`] after every flushed
//! micro-batch; readers [`SnapshotHandle::load`]
//! whichever epoch is current and then work on an immutable object — no
//! torn reads, and two loads in a row may observe different epochs but
//! never a half-applied batch (snapshots are only cut at micro-batch
//! boundaries).
//!
//! Two layers keep both sides cheap:
//!
//! * **Publication** recycles flat buffers: `cores` is an `Arc<[u32]>`
//!   from the writer's small pool, and a publish rewrites only the cores
//!   that changed since that buffer was last published, so a reader's
//!   cached lines of it stay valid wherever no core moved (see
//!   [`crate::chunked`]). A held snapshot pins its buffer: the writer
//!   never writes a buffer a snapshot still holds.
//! * **Loading** goes through an epoch-validated double buffer
//!   (seqlock-style): the writer stores into the inactive slot, bumps
//!   an atomic version *after* the store, and then overwrites the slot
//!   it just retired with the same snapshot, so the handle pins only
//!   the newest epoch and its buffer (with readers that drop their
//!   snapshots, two buffers alternate). A reader snapshots the
//!   version, clones from the slot it names, and retries on the (rare)
//!   torn window where the version moved mid-clone. The slots are
//!   `Mutex`-held `Arc`s locked only for one `Arc` clone or store, so a
//!   load never waits on the writer's batch work. The two sides can
//!   still contend: a publish waits (for one `Arc` clone) on a reader
//!   still cloning out of a slot it writes, and that reader then sees
//!   the version move and retries.

use kcore_graph::VertexId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// One consistent view of the core state: everything a query thread
/// needs, owned (no borrow into the writer's engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSnapshot {
    /// Publication counter: strictly increasing, starting at 0 for the
    /// pre-stream snapshot cut at spawn.
    pub epoch: u64,
    /// Events covered: this snapshot reflects exactly the first `ops`
    /// submitted events (journal seqs `0..ops`), applied in order.
    pub ops: u64,
    /// Vertex-universe size.
    pub num_vertices: usize,
    /// Live edges.
    pub num_edges: usize,
    /// Core number per vertex, in a buffer the writer recycles once no
    /// snapshot holds it: holding a snapshot pins one `n`-core buffer.
    pub cores: Arc<[u32]>,
    /// `histogram[k]` = vertices with core exactly `k`
    /// (`histogram.len() == degeneracy + 1`); maintained incrementally
    /// from core deltas by the writer's mirror.
    pub histogram: Vec<usize>,
    /// Largest `k` with a non-empty k-core.
    pub degeneracy: u32,
    /// Publication time (writer-clock nanoseconds: wall time since the
    /// writer started, or the scripted clock's value).
    pub published_at_ns: u64,
}

impl CoreSnapshot {
    /// Core number of one vertex.
    pub fn core(&self, v: VertexId) -> u32 {
        self.cores[v as usize]
    }

    /// Members of the k-core at this epoch. The incrementally
    /// maintained histogram gives the exact member count up front, so
    /// the result is allocated once at its final size — and an empty
    /// `k`-core returns without scanning the cores at all.
    pub fn kcore_members(&self, k: u32) -> Vec<VertexId> {
        let total: usize = self.histogram.iter().skip(k as usize).copied().sum();
        let mut out = Vec::with_capacity(total);
        if total == 0 {
            return out;
        }
        for (v, &c) in self.cores.iter().enumerate() {
            if c >= k {
                out.push(v as VertexId);
            }
        }
        debug_assert_eq!(out.len(), total);
        out
    }
}

/// How many torn-read retries [`SnapshotHandle::load`] attempts before
/// settling for the slot it last cloned. A torn clone is still a fully
/// consistent (just previous-epoch) snapshot — slots are only ever
/// replaced wholesale — so the cap bounds latency without risking a
/// half-written view.
const LOAD_RETRY_CAP: usize = 64;

#[derive(Debug)]
struct Slots {
    /// Publication version; `version % 2` names the slot holding the
    /// *latest* snapshot. Bumped with `Release` after the slot write.
    version: AtomicU64,
    slots: [Mutex<Arc<CoreSnapshot>>; 2],
}

/// Shared slot pair the writer publishes through; clone freely across
/// reader threads. Readers validate an atomic epoch around a slot clone.
/// Loads never wait on the writer's batch work; a publish can briefly
/// wait on a reader still cloning out of a slot it writes.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    shared: Arc<Slots>,
}

impl SnapshotHandle {
    pub(crate) fn new(initial: CoreSnapshot) -> Self {
        let initial = Arc::new(initial);
        SnapshotHandle {
            shared: Arc::new(Slots {
                version: AtomicU64::new(0),
                slots: [Mutex::new(initial.clone()), Mutex::new(initial)],
            }),
        }
    }

    /// The current snapshot.
    ///
    /// Reads the version, clones out of the slot it names, and
    /// re-checks the version: unchanged means the clone is the latest
    /// publication. A concurrent publish directs the *next* load at the
    /// other slot, so the retry loop terminates immediately in practice
    /// (`LOAD_RETRY_CAP` bounds the adversarial case; the fallback
    /// return is a consistent, at-most-one-epoch-old snapshot, and
    /// epochs observed by any single reader are still monotone — a slot
    /// only ever holds snapshots at least as new as the version that
    /// last named it).
    pub fn load(&self) -> Arc<CoreSnapshot> {
        let mut tries = 0;
        loop {
            let v1 = self.shared.version.load(Ordering::Acquire);
            let snap = self.shared.slots[(v1 % 2) as usize]
                .lock()
                .expect("snapshot slot poisoned")
                .clone();
            let v2 = self.shared.version.load(Ordering::Acquire);
            if v1 == v2 || tries >= LOAD_RETRY_CAP {
                return snap;
            }
            tries += 1;
        }
    }

    /// Single-writer publication: writes the inactive slot, flips the
    /// version to direct readers at it, then drops the retired epoch
    /// from the other slot (a reader that read the old version and
    /// clones from it gets the new epoch, then retries on the version).
    pub(crate) fn publish(&self, snap: Arc<CoreSnapshot>) {
        let v = self.shared.version.load(Ordering::Relaxed);
        let next = v + 1;
        *self.shared.slots[(next % 2) as usize]
            .lock()
            .expect("snapshot slot poisoned") = snap.clone();
        self.shared.version.store(next, Ordering::Release);
        *self.shared.slots[(v % 2) as usize]
            .lock()
            .expect("snapshot slot poisoned") = snap;
    }
}

/// A push subscription: the writer sends every published snapshot into
/// each subscriber's unbounded channel (dead receivers are dropped).
/// This is the test hook behind the snapshot-consistency proptests — a
/// polling reader can miss epochs, a subscriber sees all of them.
pub type SnapshotReceiver = mpsc::Receiver<Arc<CoreSnapshot>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64, cores: Vec<u32>) -> CoreSnapshot {
        let degeneracy = cores.iter().copied().max().unwrap_or(0);
        let mut histogram = vec![0usize; degeneracy as usize + 1];
        for &c in &cores {
            histogram[c as usize] += 1;
        }
        CoreSnapshot {
            epoch,
            ops: 0,
            num_vertices: cores.len(),
            num_edges: 0,
            cores: cores.into(),
            histogram,
            degeneracy,
            published_at_ns: 0,
        }
    }

    #[test]
    fn load_returns_latest_published() {
        let h = SnapshotHandle::new(snap(0, vec![0, 0]));
        let reader = h.clone();
        assert_eq!(reader.load().epoch, 0);
        let old = reader.load();
        h.publish(Arc::new(snap(1, vec![1, 1])));
        // The old Arc stays valid and immutable; new loads see epoch 1.
        assert_eq!(old.epoch, 0);
        assert_eq!(reader.load().epoch, 1);
        assert_eq!(reader.load().cores.to_vec(), vec![1, 1]);
        // Several publications in a row keep alternating slots.
        for e in 2..9u64 {
            h.publish(Arc::new(snap(e, vec![e as u32; 2])));
            assert_eq!(reader.load().epoch, e);
        }
    }

    #[test]
    fn kcore_members_filters_by_core() {
        let s = snap(3, vec![2, 1, 2, 0, 3]);
        assert_eq!(s.kcore_members(2), vec![0, 2, 4]);
        assert_eq!(s.kcore_members(3), vec![4]);
        assert_eq!(s.kcore_members(0).len(), 5);
        assert!(s.kcore_members(4).is_empty());
        assert_eq!(s.core(4), 3);
        // Exact-capacity allocation straight from the histogram.
        let members = s.kcore_members(2);
        assert_eq!(members.capacity(), members.len());
    }

    #[test]
    fn concurrent_loads_see_monotone_epochs() {
        let h = SnapshotHandle::new(snap(0, vec![0; 64]));
        let writer = h.clone();
        const EPOCHS: u64 = 2000;
        std::thread::scope(|s| {
            let mut readers = Vec::new();
            for _ in 0..2 {
                let handle = h.clone();
                readers.push(s.spawn(move || {
                    let mut last = 0u64;
                    let mut distinct = 0usize;
                    while last < EPOCHS {
                        let snap = handle.load();
                        assert!(
                            snap.epoch >= last,
                            "reader saw epoch {} after {}",
                            snap.epoch,
                            last
                        );
                        // Payload must always match its epoch label —
                        // the torn-read guard this test exists for.
                        assert_eq!(snap.cores[0], snap.epoch as u32);
                        if snap.epoch != last {
                            distinct += 1;
                        }
                        last = snap.epoch;
                    }
                    distinct
                }));
            }
            for e in 1..=EPOCHS {
                writer.publish(Arc::new(snap(e, vec![e as u32; 64])));
            }
            for r in readers {
                assert!(r.join().unwrap() >= 1);
            }
        });
    }
}
