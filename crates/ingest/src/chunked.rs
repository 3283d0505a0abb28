//! Chunked persistent core array — the copy-on-write storage behind
//! O(changed) snapshot publication.
//!
//! A [`ChunkedCores`] stores core numbers in fixed-size
//! `Arc<[u32; CHUNK]>` chunks. Cloning the whole array is `O(chunks)`
//! reference-count bumps; writing through [`ChunkedCores::set`] clones
//! **only** the chunk it lands in (and only when that chunk is still
//! shared with an older snapshot — `Arc::make_mut`). A flush that
//! changes `c` vertices therefore publishes a snapshot for the price of
//! at most `min(c, touched chunks)` 4 KiB chunk copies plus one vector
//! of `Arc` clones, instead of the old `O(n)` full-vector rebuild.
//!
//! [`CoreMirror`] is the writer-side companion: the same chunked array
//! plus an incrementally maintained per-level histogram, fed either by
//! the engine's drained change set (`O(changed)`) or by a chunk-compare
//! fallback ([`CoreMirror::sync_full`]) that still preserves sharing
//! for untouched chunks.
//!
//! Invariant throughout: slots past `len` inside the last chunk are
//! zero, so chunk-granular equality (and the shared all-zero chunk used
//! for growth) never needs a length-aware compare.

use kcore_graph::VertexId;
use std::sync::{Arc, OnceLock};

/// Core numbers per chunk: 1024 × `u32` = one 4 KiB page. Small enough
/// that a localised batch dirties few pages, large enough that the
/// per-chunk `Arc` overhead (16 bytes + refcounts) is noise — see the
/// README's "Snapshot publication & memory layout" section.
pub const CHUNK: usize = 1024;

fn zero_chunk() -> Arc<[u32; CHUNK]> {
    static ZERO: OnceLock<Arc<[u32; CHUNK]>> = OnceLock::new();
    ZERO.get_or_init(|| Arc::new([0u32; CHUNK])).clone()
}

/// A persistent (copy-on-write) `u32` array in `Arc`-shared chunks.
#[derive(Debug, Clone, Default)]
pub struct ChunkedCores {
    len: usize,
    chunks: Vec<Arc<[u32; CHUNK]>>,
}

impl ChunkedCores {
    /// Builds from a flat slice (fresh chunks, no sharing).
    pub fn from_slice(values: &[u32]) -> Self {
        let mut chunks = Vec::with_capacity(values.len().div_ceil(CHUNK));
        for block in values.chunks(CHUNK) {
            if block.iter().all(|&x| x == 0) {
                chunks.push(zero_chunk());
            } else {
                let mut arr = [0u32; CHUNK];
                arr[..block.len()].copy_from_slice(block);
                chunks.push(Arc::new(arr));
            }
        }
        ChunkedCores {
            len: values.len(),
            chunks,
        }
    }

    /// Logical length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of backing chunks.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.len);
        self.chunks[i / CHUNK][i % CHUNK]
    }

    /// Writes element `i`, cloning the containing chunk first if it is
    /// shared with another `ChunkedCores`. Returns `true` when a clone
    /// (an actual copy-on-write) happened.
    #[inline]
    pub fn set(&mut self, i: usize, value: u32) -> bool {
        debug_assert!(i < self.len);
        let chunk = &mut self.chunks[i / CHUNK];
        let copied = Arc::strong_count(chunk) > 1;
        Arc::make_mut(chunk)[i % CHUNK] = value;
        copied
    }

    /// Extends to `new_len` with zeros. New whole chunks alias one
    /// static all-zero chunk until first written.
    pub fn grow(&mut self, new_len: usize) {
        assert!(new_len >= self.len, "ChunkedCores never shrinks");
        while self.chunks.len() * CHUNK < new_len {
            self.chunks.push(zero_chunk());
        }
        // Slots between the old and new length inside existing chunks
        // are already zero by the padding invariant.
        self.len = new_len;
    }

    /// Iterates the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| c.iter().copied())
            .take(self.len)
    }

    /// Flattens into a `Vec` (tests / oracle comparisons).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter());
        out
    }

    /// `true` iff chunk `ci` is the same allocation in both arrays —
    /// the sharing probe the COW unit tests assert with.
    pub fn chunk_ptr_eq(&self, other: &ChunkedCores, ci: usize) -> bool {
        match (self.chunks.get(ci), other.chunks.get(ci)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// How many chunk allocations the two arrays share.
    pub fn shared_chunks(&self, other: &ChunkedCores) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

impl PartialEq for ChunkedCores {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        // Pointer-equal chunks (the common case across epochs) compare
        // for free; padding past `len` is zero on both sides, so whole
        // chunks compare without a length-aware tail case.
        self.chunks
            .iter()
            .zip(&other.chunks)
            .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Eq for ChunkedCores {}

/// The writer's live mirror of the engine's core numbers: a
/// [`ChunkedCores`] plus the per-level histogram, both maintained
/// incrementally from core deltas so composing a snapshot never rescans
/// all `n` vertices.
#[derive(Debug, Clone)]
pub struct CoreMirror {
    cores: ChunkedCores,
    /// `counts[k]` = vertices with core exactly `k`; may carry zero
    /// tail levels (a dismissal can empty the top level) — the
    /// histogram accessor truncates at the degeneracy.
    counts: Vec<usize>,
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
            cores: ChunkedCores::from_slice(cores),
            counts,
        }
    }

    /// Logical length.
    #[inline]
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// `true` when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Extends with core-0 vertices.
    pub fn grow(&mut self, new_len: usize) {
        let added = new_len - self.cores.len();
        self.cores.grow(new_len);
        self.counts[0] += added;
    }

    /// Applies one vertex's (possibly unchanged) core value; returns
    /// `true` when a chunk was copy-on-written.
    #[inline]
    pub fn apply(&mut self, v: VertexId, new_core: u32) -> bool {
        let old = self.cores.get(v as usize);
        if old == new_core {
            return false;
        }
        self.counts[old as usize] -= 1;
        let k = new_core as usize;
        if self.counts.len() <= k {
            self.counts.resize(k + 1, 0);
        }
        self.counts[k] += 1;
        self.cores.set(v as usize, new_core)
    }

    /// Fallback sync against the engine's full core slice: an `O(n)`
    /// *compare* but an `O(changed)` *copy* — unchanged chunks keep
    /// their shared allocation. Returns `(elements changed, chunks
    /// copied)`.
    pub fn sync_full(&mut self, new: &[u32]) -> (usize, usize) {
        assert_eq!(new.len(), self.cores.len, "grow before syncing");
        let mut changed = 0usize;
        let mut copied = 0usize;
        for ci in 0..self.cores.chunks.len() {
            let start = ci * CHUNK;
            let end = (start + CHUNK).min(new.len());
            if start >= end {
                break;
            }
            let fresh = &new[start..end];
            let stale = &self.cores.chunks[ci][..fresh.len()];
            if stale == fresh {
                continue;
            }
            for (&o, &n) in stale.iter().zip(fresh) {
                if o != n {
                    changed += 1;
                    self.counts[o as usize] -= 1;
                    let k = n as usize;
                    if self.counts.len() <= k {
                        self.counts.resize(k + 1, 0);
                    }
                    self.counts[k] += 1;
                }
            }
            let chunk = &mut self.cores.chunks[ci];
            if Arc::strong_count(chunk) > 1 {
                copied += 1;
            }
            Arc::make_mut(chunk)[..fresh.len()].copy_from_slice(fresh);
        }
        (changed, copied)
    }

    /// A publishable clone of the cores (`O(chunks)` `Arc` bumps).
    pub fn snapshot_cores(&self) -> ChunkedCores {
        self.cores.clone()
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

    /// Total backing chunks (for the publish-cost report).
    pub fn num_chunks(&self) -> usize {
        self.cores.num_chunks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_roundtrip() {
        for n in [0usize, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17] {
            let vals: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
            let cc = ChunkedCores::from_slice(&vals);
            assert_eq!(cc.len(), n);
            assert_eq!(cc.to_vec(), vals);
            assert_eq!(cc.num_chunks(), n.div_ceil(CHUNK));
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(cc.get(i), v);
            }
        }
    }

    #[test]
    fn set_copies_only_shared_chunks() {
        let vals = vec![1u32; 2 * CHUNK + 10];
        let mut a = ChunkedCores::from_slice(&vals);
        let b = a.clone();
        assert_eq!(a.shared_chunks(&b), 3);

        // Writing into chunk 0 of `a` must unshare exactly chunk 0.
        assert!(a.set(5, 42), "shared chunk must be copied");
        assert!(!a.set(6, 43), "second write hits the now-unique chunk");
        assert!(!a.chunk_ptr_eq(&b, 0));
        assert!(a.chunk_ptr_eq(&b, 1));
        assert!(a.chunk_ptr_eq(&b, 2));
        assert_eq!(a.shared_chunks(&b), 2);

        // b is untouched (persistence), a sees the writes.
        assert_eq!(b.get(5), 1);
        assert_eq!(a.get(5), 42);
        assert_eq!(a.get(6), 43);
        assert_ne!(a, b);
    }

    #[test]
    fn equality_uses_values_not_pointers() {
        let vals: Vec<u32> = (0..CHUNK as u32 + 100).collect();
        let a = ChunkedCores::from_slice(&vals);
        let mut b = ChunkedCores::from_slice(&vals);
        assert_eq!(a, b);
        b.set(3, 999);
        assert_ne!(a, b);
        b.set(3, 3);
        assert_eq!(
            a, b,
            "restored value => equal again despite distinct chunks"
        );
    }

    #[test]
    fn grow_shares_the_zero_chunk() {
        let mut a = ChunkedCores::from_slice(&[]);
        a.grow(3 * CHUNK);
        let b = a.clone();
        assert_eq!(a.shared_chunks(&b), 3);
        assert_eq!(a.get(3 * CHUNK - 1), 0);
        // All-zero chunks also alias each other via the static chunk.
        assert!(a.chunk_ptr_eq(&a.clone(), 0));

        // Growth into a partial chunk keeps the padding-zero invariant.
        let mut c = ChunkedCores::from_slice(&[7; 10]);
        c.grow(20);
        assert_eq!(c.len(), 20);
        assert_eq!(c.get(15), 0);
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

        m.grow(6);
        assert_eq!(m.len(), 6);
        assert_eq!(m.histogram(), vec![3, 2, 1]);
        let total: usize = m.histogram().iter().sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn mirror_sync_full_preserves_sharing() {
        let vals = vec![2u32; 4 * CHUNK];
        let mut m = CoreMirror::from_slice(&vals);
        let before = m.snapshot_cores();

        // Change one vertex in chunk 2 via the fallback path.
        let mut new = vals.clone();
        new[2 * CHUNK + 7] = 9;
        let (changed, copied) = m.sync_full(&new);
        assert_eq!(changed, 1);
        assert_eq!(copied, 1, "only the dirtied chunk is copied");
        let after = m.snapshot_cores();
        assert_eq!(after.shared_chunks(&before), 3);
        assert_eq!(after.to_vec(), new);
        assert_eq!(m.histogram(), {
            let mut h = vec![0usize; 10];
            h[2] = 4 * CHUNK - 1;
            h[9] = 1;
            h
        });

        // No-op sync copies nothing.
        let (changed, copied) = m.sync_full(&new);
        assert_eq!((changed, copied), (0, 0));
    }

    #[test]
    fn mirror_apply_reports_cow() {
        let mut m = CoreMirror::from_slice(&[1; 100]);
        let snap = m.snapshot_cores();
        assert!(m.apply(4, 3), "chunk shared with snapshot => copy");
        assert!(!m.apply(5, 3), "now unique => in-place");
        assert!(!m.apply(6, 1), "unchanged value is free");
        assert_eq!(snap.get(4), 1);
        let _ = snap;
    }
}
