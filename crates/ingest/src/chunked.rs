//! The writer's core mirror and the flat snapshot buffers it publishes.
//!
//! A [`CoreMirror`] holds the engine's core numbers as one flat array
//! plus a per-level histogram, both kept current from the engine's
//! drained change set (`O(changed)`), or after a recovery by a full
//! compare ([`CoreMirror::sync_full`]).
//!
//! Publishing ([`CoreMirror::snapshot_cores`]) hands out an
//! `Arc<[u32]>` of all `n` cores from a small pool of recycled buffers.
//! The mirror picks a buffer no snapshot still holds (`Arc::get_mut`)
//! and rewrites only the cores that changed since that buffer was last
//! published, which it reads from a short log of changed vertex ids. A
//! buffer that fell behind the log, and every buffer after a
//! `sync_full`, is brought up to date by a line compare that writes only
//! the 64-byte lines that differ. When every pooled buffer is held, the
//! publish copies the cores into a fresh buffer outside the pool.
//!
//! So a reader's cached lines of a buffer stay valid across publishes
//! except where a core value actually changed, and a snapshot read is
//! one indexed load with no pointer table on its path. A held snapshot
//! pins one `n`-core buffer; a holder that lags past the pool makes each
//! publish an `O(n)` copy. The README's "Snapshot publication & memory
//! layout" section has the measurements.

use kcore_graph::VertexId;
use std::sync::Arc;

/// Cores per accounting block (1024 × `u32` = one 4 KiB page): publish
/// cost is reported in blocks written into snapshot buffers.
pub const CHUNK: usize = 1024;

/// Snapshot buffers the mirror recycles. The snapshot handle pins only
/// the newest epoch, so with readers that drop their snapshots two
/// buffers alternate; the other two cover readers still holding older
/// epochs across a publish.
pub(crate) const POOL: usize = 4;

/// Cores per 64-byte cache line: the unit the full compare copies.
const LINE: usize = 16;

/// One pooled buffer and the log position its contents reflect.
#[derive(Debug)]
struct PoolBuffer {
    cores: Arc<[u32]>,
    synced: u64,
}

/// What the last [`CoreMirror::snapshot_cores`] call wrote.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PublishCost {
    /// [`CHUNK`]-core blocks that took at least one write.
    pub(crate) blocks_written: u64,
    /// Whether every pooled buffer was held, so the cores were copied
    /// into a fresh buffer outside the pool.
    pub(crate) unpooled: bool,
}

/// Moves one vertex from level `old` to level `new` in a histogram.
fn recount(counts: &mut Vec<usize>, old: u32, new: u32) {
    counts[old as usize] -= 1;
    let k = new as usize;
    if counts.len() <= k {
        counts.resize(k + 1, 0);
    }
    counts[k] += 1;
}

/// The writer's live mirror of the engine's core numbers, plus the
/// per-level histogram and the pool of snapshot buffers it publishes.
#[derive(Debug)]
pub struct CoreMirror {
    cores: Vec<u32>,
    /// `counts[k]` = vertices with core exactly `k`; may carry zero
    /// tail levels (a dismissal can empty the top level) — the
    /// histogram accessor truncates at the degeneracy.
    counts: Vec<usize>,
    /// Vertices whose core changed, in order; entry `i` sits at log
    /// position `log_base + i`. A buffer synced at position `p` is
    /// brought up to date by rewriting the vertices from `p` on.
    log: Vec<VertexId>,
    log_base: u64,
    /// Entries kept for lagging buffers; past this a full compare is
    /// about as cheap as patching.
    log_cap: usize,
    pool: Vec<PoolBuffer>,
    /// Per-block marks of the publish in progress.
    written: Vec<bool>,
    last: PublishCost,
}

impl CoreMirror {
    /// Builds from the engine's current cores (`O(n)`, once at spawn).
    pub fn from_slice(cores: &[u32]) -> Self {
        let max = cores.iter().copied().max().unwrap_or(0) as usize;
        let mut counts = vec![0usize; max + 1];
        for &c in cores {
            counts[c as usize] += 1;
        }
        CoreMirror {
            cores: cores.to_vec(),
            counts,
            log: Vec::new(),
            log_base: 0,
            log_cap: (cores.len() / 8).max(CHUNK),
            pool: Vec::with_capacity(POOL),
            written: vec![false; cores.len().div_ceil(CHUNK)],
            last: PublishCost::default(),
        }
    }

    /// The current cores.
    pub(crate) fn cores(&self) -> &[u32] {
        &self.cores
    }

    fn log_end(&self) -> u64 {
        self.log_base + self.log.len() as u64
    }

    /// Applies one vertex's (possibly unchanged) core value; returns
    /// `true` when it changed.
    #[inline]
    pub fn apply(&mut self, v: VertexId, new_core: u32) -> bool {
        let old = self.cores[v as usize];
        if old == new_core {
            return false;
        }
        recount(&mut self.counts, old, new_core);
        self.cores[v as usize] = new_core;
        self.log.push(v);
        true
    }

    /// Full resync against the engine's core slice (same length), by an
    /// `O(n)` compare. Every pooled buffer is then out of date with the
    /// log, so each takes a line compare the next time it is published.
    /// Returns the number of cores that changed.
    pub fn sync_full(&mut self, new: &[u32]) -> usize {
        assert_eq!(
            new.len(),
            self.cores.len(),
            "the vertex count never changes"
        );
        let mut changed = 0usize;
        for (&old, &fresh) in self.cores.iter().zip(new) {
            if old != fresh {
                changed += 1;
                recount(&mut self.counts, old, fresh);
            }
        }
        self.cores.copy_from_slice(new);
        // Past every buffer's position: all of them fell behind the log.
        self.log_base = self.log_end() + 1;
        self.log.clear();
        changed
    }

    /// Publishes the current cores as an immutable buffer: a pooled one
    /// no snapshot holds, brought up to date, or else a fresh copy.
    pub fn snapshot_cores(&mut self) -> Arc<[u32]> {
        let end = self.log_end();
        self.written.fill(false);
        // Of the free buffers, the most recently published has the
        // fewest cores to rewrite.
        let mut pick = None;
        for (i, b) in self.pool.iter_mut().enumerate() {
            if Arc::get_mut(&mut b.cores).is_some() && pick.is_none_or(|(_, s)| b.synced > s) {
                pick = Some((i, b.synced));
            }
        }
        let unpooled = pick.is_none() && self.pool.len() == POOL;
        let out = match pick {
            Some((i, synced)) => {
                let b = &mut self.pool[i];
                let buf = Arc::get_mut(&mut b.cores).expect("picked a free buffer");
                if synced >= self.log_base {
                    let from = (synced - self.log_base) as usize;
                    for &v in &self.log[from..] {
                        let v = v as usize;
                        if buf[v] != self.cores[v] {
                            buf[v] = self.cores[v];
                            self.written[v / CHUNK] = true;
                        }
                    }
                } else {
                    for (i, (dst, src)) in buf
                        .chunks_mut(LINE)
                        .zip(self.cores.chunks(LINE))
                        .enumerate()
                    {
                        if dst != src {
                            dst.copy_from_slice(src);
                            self.written[i * LINE / CHUNK] = true;
                        }
                    }
                }
                b.synced = end;
                b.cores.clone()
            }
            None => {
                self.written.fill(true);
                let cores: Arc<[u32]> = Arc::from(&self.cores[..]);
                if !unpooled {
                    self.pool.push(PoolBuffer {
                        cores: cores.clone(),
                        synced: end,
                    });
                }
                cores
            }
        };
        debug_assert!(
            out[..] == self.cores[..],
            "a published buffer differs from the mirror"
        );
        self.last = PublishCost {
            blocks_written: self.written.iter().filter(|&&w| w).count() as u64,
            unpooled,
        };
        self.trim_log();
        out
    }

    /// Drops the log entries every pooled buffer has passed, and those
    /// older than `log_cap` (their buffers will take a full compare).
    /// It drains only once it can drop half the log, so each entry is
    /// moved at most once on average.
    fn trim_log(&mut self) {
        let end = self.log_end();
        let oldest = self.pool.iter().map(|b| b.synced).min().unwrap_or(end);
        let keep_from = oldest
            .max(end.saturating_sub(self.log_cap as u64))
            .max(self.log_base);
        let drop = (keep_from - self.log_base) as usize;
        if drop > 0 && 2 * drop >= self.log.len() {
            self.log.drain(..drop);
            self.log_base = keep_from;
        }
    }

    /// What the last [`CoreMirror::snapshot_cores`] call wrote.
    pub(crate) fn last_publish(&self) -> PublishCost {
        self.last
    }

    /// Largest `k` with a non-empty `k`-core.
    pub fn degeneracy(&self) -> u32 {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0) as u32
    }

    /// `hist[k]` = vertices with core exactly `k`, truncated at the
    /// degeneracy (`hist.len() == degeneracy + 1`).
    pub fn histogram(&self) -> Vec<usize> {
        self.counts[..=self.degeneracy() as usize].to_vec()
    }

    /// [`CHUNK`]-core blocks per snapshot buffer.
    pub fn num_chunks(&self) -> usize {
        self.written.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_roundtrip() {
        for n in [0usize, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17] {
            let vals: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
            let mut m = CoreMirror::from_slice(&vals);
            assert_eq!(m.cores(), &vals[..]);
            assert_eq!(m.num_chunks(), n.div_ceil(CHUNK));
            assert_eq!(m.snapshot_cores().to_vec(), vals);
            assert_eq!(m.last_publish().blocks_written, n.div_ceil(CHUNK) as u64);
        }
    }

    #[test]
    fn equality_uses_values_not_pointers() {
        let vals: Vec<u32> = (0..CHUNK as u32 + 100).collect();
        let mut a = CoreMirror::from_slice(&vals);
        let mut b = CoreMirror::from_slice(&vals);
        let (sa, sb) = (a.snapshot_cores(), b.snapshot_cores());
        assert!(!Arc::ptr_eq(&sa, &sb));
        assert_eq!(sa, sb);
        b.apply(3, 999);
        assert_ne!(sa, b.snapshot_cores());
        b.apply(3, 3);
        assert_eq!(sa, b.snapshot_cores(), "restored value => equal again");
    }

    #[test]
    fn mirror_tracks_histogram_and_degeneracy() {
        let mut m = CoreMirror::from_slice(&[0, 1, 1, 2]);
        assert_eq!(m.histogram(), vec![1, 2, 1]);
        assert_eq!(m.degeneracy(), 2);

        m.apply(0, 5);
        assert_eq!(m.degeneracy(), 5);
        assert_eq!(m.histogram(), vec![0, 2, 1, 0, 0, 1]);

        m.apply(0, 0);
        assert_eq!(m.degeneracy(), 2, "emptied top levels are truncated");
        assert_eq!(m.histogram(), vec![1, 2, 1]);
        let total: usize = m.histogram().iter().sum();
        assert_eq!(total, 4);
    }

    /// A held buffer is never written: the publish takes another one,
    /// and only the blocks holding a changed core take a write.
    #[test]
    fn publish_never_writes_a_held_buffer() {
        let vals = vec![1u32; 3 * CHUNK];
        let mut m = CoreMirror::from_slice(&vals);
        let held = m.snapshot_cores();
        // Two more buffers join the pool while `held` pins the first.
        m.apply(5, 2);
        let second = m.snapshot_cores();
        assert!(!Arc::ptr_eq(&held, &second));
        assert_eq!(held[5], 1, "the held buffer keeps its epoch");
        drop(second);
        // The released buffer is rewritten in place: only block 2.
        m.apply((2 * CHUNK + 7) as u32, 3);
        let third = m.snapshot_cores();
        assert_eq!(m.last_publish().blocks_written, 1);
        assert_eq!((third[5], third[2 * CHUNK + 7]), (2, 3));
        assert_eq!((held[5], held[2 * CHUNK + 7]), (1, 1));
        assert_eq!(m.pool.len(), 2);
    }

    /// Every pooled buffer held: the publish copies outside the pool,
    /// and the pool never grows past `POOL`.
    #[test]
    fn a_full_pool_of_held_buffers_publishes_an_unpooled_copy() {
        let mut m = CoreMirror::from_slice(&[0; 100]);
        let mut held = Vec::new();
        for v in 0..POOL as u32 + 2 {
            m.apply(v, 1);
            held.push(m.snapshot_cores());
            assert_eq!(m.last_publish().unpooled, v as usize >= POOL);
        }
        assert_eq!(m.pool.len(), POOL);
        for (i, s) in held.iter().enumerate() {
            assert_eq!(s.iter().filter(|&&c| c == 1).count(), i + 1);
        }
        held.clear();
        m.apply(50, 1);
        let s = m.snapshot_cores();
        assert!(!m.last_publish().unpooled);
        assert_eq!(s.iter().filter(|&&c| c == 1).count(), POOL + 3);
    }

    /// `sync_full` puts every pooled buffer behind the log: each one
    /// republished afterwards takes the line compare and matches.
    #[test]
    fn mirror_sync_full_resyncs_every_pooled_buffer() {
        let vals = vec![2u32; 4 * CHUNK];
        let mut m = CoreMirror::from_slice(&vals);
        let held: Vec<_> = (0..POOL).map(|_| m.snapshot_cores()).collect();
        assert_eq!(m.pool.len(), POOL);
        drop(held);

        let mut new = vals.clone();
        new[2 * CHUNK + 7] = 9;
        new[3 * CHUNK] = 0;
        assert_eq!(m.sync_full(&new), 2);
        assert_eq!(m.histogram(), {
            let mut h = vec![0usize; 10];
            h[0] = 1;
            h[2] = 4 * CHUNK - 2;
            h[9] = 1;
            h
        });
        let held: Vec<_> = (0..POOL).map(|_| m.snapshot_cores()).collect();
        for s in &held {
            assert_eq!(s.to_vec(), new);
        }
        assert_eq!(m.pool.len(), POOL, "resynced in place, no new buffer");
        // A no-op sync changes nothing.
        assert_eq!(m.sync_full(&new), 0);
    }

    /// A buffer pinned while more than `log_cap` entries go by falls
    /// behind the log and takes the line compare when it comes back.
    #[test]
    fn a_buffer_that_lags_past_the_log_takes_the_full_compare() {
        let n = 2 * CHUNK;
        let mut m = CoreMirror::from_slice(&vec![0; n]);
        let pinned = m.snapshot_cores();
        let mut value = 0;
        let mut rounds = 0;
        while m.pool[0].synced >= m.log_base {
            value += 1;
            for v in 0..n as u32 {
                m.apply(v, value);
            }
            drop(m.snapshot_cores());
            rounds += 1;
        }
        assert!(rounds <= 2, "the log is capped at log_cap entries");
        drop(pinned);
        // The second pooled buffer is newer, so publish it away first.
        let newer = m.snapshot_cores();
        let lagging = m.snapshot_cores();
        assert!(lagging.iter().all(|&c| c == value));
        assert_eq!(m.last_publish().blocks_written, 2);
        drop((newer, lagging));
    }
}
