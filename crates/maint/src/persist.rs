//! Index persistence: save a maintained [`OrderCore`] to a compact binary
//! file and load it back without re-running the decomposition.
//!
//! Index creation is the one-time cost of Table III; for large graphs it
//! dwarfs a single update by orders of magnitude, so deployments
//! checkpoint the index. The format stores the graph (edge list), the
//! global k-order, and the three per-vertex arrays (`core`, `deg⁺`,
//! `mcd`), all little-endian `u32`, guarded by a magic header and an
//! Fx-hash checksum. Loading re-validates the cheap structural facts
//! (grouping, Lemma 5.1) and rebuilds the `A_k` lists by tail appends
//! (one stride step per vertex, no relabel).

use crate::order_core::OrderCore;
use kcore_decomp::validate::compute_mcd;
use kcore_graph::{DynamicGraph, FxHashSet, VertexId};
use kcore_order::OrderSeq;
use std::hash::{BuildHasher, Hasher};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: u32 = 0x4B4F_5244; // "KORD"
const VERSION: u32 = 1;

/// Errors while loading a persisted index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a kcore index file / wrong version.
    BadHeader,
    /// The checksum did not match (truncated or corrupted file).
    Corrupted(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadHeader => write!(f, "not a kcore index file"),
            PersistError::Corrupted(what) => write!(f, "corrupted index file: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn checksum(words: &[u32]) -> u64 {
    let mut h = kcore_graph::FxBuildHasher::default().build_hasher();
    for &w in words {
        h.write_u32(w);
    }
    h.finish()
}

impl<S: OrderSeq> OrderCore<S> {
    /// Serialises the index (graph + k-order + per-vertex arrays) in one
    /// pass: each word is written once, little-endian, into a buffer of
    /// the final size while the checksum runs over it.
    pub fn save<W: Write>(&self, mut out: W) -> io::Result<()> {
        let n = self.graph.num_vertices();
        let m = self.graph.num_edges();
        let mut bytes: Vec<u8> = Vec::with_capacity(4 * (4 + 2 * m + 4 * n) + 8);
        let mut sum = kcore_graph::FxBuildHasher::default().build_hasher();
        let mut put = |w: u32| {
            sum.write_u32(w);
            bytes.extend_from_slice(&w.to_le_bytes());
        };
        for w in [MAGIC, VERSION, n as u32, m as u32] {
            put(w);
        }
        // Each undirected edge once, as (u, v) with u < v.
        for u in 0..n as VertexId {
            for &v in self.graph.neighbors(u) {
                if u < v {
                    put(u);
                    put(v);
                }
            }
        }
        // The global k-order O_0 O_1 O_2 …, walked out of the A_k.
        for k in 0..self.order.levels() as u32 {
            for v in self.order.iter(k) {
                put(v);
            }
        }
        for array in [&self.core, &self.deg_plus, &self.mcd] {
            for &w in array.iter() {
                put(w);
            }
        }
        bytes.extend_from_slice(&sum.finish().to_le_bytes());
        out.write_all(&bytes)
    }

    /// Saves to a file path.
    pub fn save_to_path<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.save(io::BufWriter::new(file))
    }

    /// Deserialises an index previously written by [`OrderCore::save`].
    /// Each level's `A_k` is rebuilt from the stored k-order; the stored
    /// arrays are structurally validated (checksum, permutation, core
    /// grouping, Lemma 5.1, `mcd` definition).
    pub fn load<R: Read>(mut input: R, seed: u64) -> Result<Self, PersistError> {
        let mut bytes = Vec::new();
        input.read_to_end(&mut bytes)?;
        if bytes.len() < 24 || (bytes.len() - 8) % 4 != 0 {
            return Err(PersistError::BadHeader);
        }
        let (word_bytes, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let words: Vec<u32> = word_bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if words[0] != MAGIC || words[1] != VERSION {
            return Err(PersistError::BadHeader);
        }
        let stored_sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        if checksum(&words) != stored_sum {
            return Err(PersistError::Corrupted("checksum mismatch"));
        }
        let n = words[2] as usize;
        let m = words[3] as usize;
        if words.len() != 4 + 2 * m + 4 * n {
            return Err(PersistError::Corrupted("length mismatch"));
        }
        let mut at = 4usize;
        let mut graph = DynamicGraph::with_vertices(n);
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for _ in 0..m {
            let (u, v) = (words[at], words[at + 1]);
            at += 2;
            if u as usize >= n || v as usize >= n || u == v {
                return Err(PersistError::Corrupted("bad edge"));
            }
            if !seen.insert(kcore_graph::edge_key(u, v)) {
                return Err(PersistError::Corrupted("duplicate edge"));
            }
            graph.insert_edge_unchecked(u, v);
        }
        // Lay the adjacency out once, before the validation scans below
        // and the engine's first batch.
        graph.compact_adjacency();
        let order: Vec<VertexId> = words[at..at + n].to_vec();
        at += n;
        let core: Vec<u32> = words[at..at + n].to_vec();
        at += n;
        let deg_plus: Vec<u32> = words[at..at + n].to_vec();
        at += n;
        let mcd: Vec<u32> = words[at..at + n].to_vec();

        // Structural validation.
        let mut pos = vec![u32::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            if v as usize >= n || pos[v as usize] != u32::MAX {
                return Err(PersistError::Corrupted("order is not a permutation"));
            }
            pos[v as usize] = i as u32;
        }
        for w in order.windows(2) {
            if core[w[0] as usize] > core[w[1] as usize] {
                return Err(PersistError::Corrupted("order not grouped by core"));
            }
        }
        for v in 0..n as VertexId {
            let later = graph
                .neighbors(v)
                .iter()
                .filter(|&&w| pos[w as usize] > pos[v as usize])
                .count() as u32;
            if later != deg_plus[v as usize] || later > core[v as usize] {
                return Err(PersistError::Corrupted("deg+ / Lemma 5.1 violation"));
            }
        }
        if mcd != compute_mcd(&graph, &core) {
            return Err(PersistError::Corrupted("mcd mismatch"));
        }

        // Rebuild `A_k` through the shared `KOrder` constructor (one
        // place initialises every field of the index, including the
        // per-level counts and batch scratch).
        let ko = kcore_decomp::KOrder {
            core,
            order,
            deg_plus,
            mcd,
        };
        Ok(OrderCore::from_korder(graph, ko, seed))
    }

    /// Loads from a file path.
    pub fn load_from_path<P: AsRef<Path>>(path: P, seed: u64) -> Result<Self, PersistError> {
        let file = std::fs::File::open(path)?;
        Self::load(io::BufReader::new(file), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrderCore;
    use kcore_graph::fixtures;
    use kcore_traversal::UpdateStats;

    fn roundtrip(oc: &OrderCore) -> OrderCore {
        let mut buf = Vec::new();
        oc.save(&mut buf).unwrap();
        OrderCore::load(&buf[..], 99).unwrap()
    }

    #[test]
    fn save_load_roundtrip_preserves_everything() {
        let pg = fixtures::PaperGraph::small();
        let mut oc: OrderCore = OrderCore::new(pg.graph.clone(), 5);
        oc.insert_edge(pg.v(4), pg.u(0)).unwrap();
        let loaded = roundtrip(&oc);
        assert_eq!(loaded.cores(), oc.cores());
        assert_eq!(loaded.global_order(), oc.global_order());
        loaded.validate();
    }

    #[test]
    fn loaded_engine_keeps_working() {
        let mut oc: OrderCore = OrderCore::new(fixtures::path(20), 3);
        oc.insert_edge(0, 19).unwrap();
        let mut loaded = roundtrip(&oc);
        loaded.insert_edge(0, 10).unwrap();
        loaded.remove_edge(0, 19).unwrap();
        loaded.validate();
    }

    #[test]
    fn rejects_bad_header_and_truncation() {
        let oc: OrderCore = OrderCore::new(fixtures::triangle(), 1);
        let mut buf = Vec::new();
        oc.save(&mut buf).unwrap();

        // truncation
        let err = <OrderCore>::load(&buf[..buf.len() - 5], 1).unwrap_err();
        assert!(matches!(
            err,
            PersistError::BadHeader | PersistError::Corrupted(_)
        ));

        // bad magic
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            <OrderCore>::load(&bad[..], 1).unwrap_err(),
            PersistError::BadHeader
        ));

        // flipped payload byte -> checksum mismatch
        let mut bad = buf.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(matches!(
            <OrderCore>::load(&bad[..], 1).unwrap_err(),
            PersistError::Corrupted(_)
        ));

        // empty input
        assert!(matches!(
            <OrderCore>::load(&[][..], 1).unwrap_err(),
            PersistError::BadHeader
        ));
    }

    /// The two-pass encoder `save` replaced: collect every word into a
    /// `Vec<u32>` (edges through `graph.edges()`), checksum it, then
    /// convert to bytes. Kept as the reference for the KORD format.
    fn reference_save(oc: &OrderCore) -> Vec<u8> {
        let n = oc.graph.num_vertices();
        let m = oc.graph.num_edges();
        let mut words: Vec<u32> = vec![MAGIC, VERSION, n as u32, m as u32];
        for (u, v) in oc.graph.edges() {
            words.push(u);
            words.push(v);
        }
        words.extend(oc.global_order());
        words.extend_from_slice(&oc.core);
        words.extend_from_slice(&oc.deg_plus);
        words.extend_from_slice(&oc.mcd);
        let sum = checksum(&words);
        let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// `barabasi_albert(2000, 4, 17)` indexed with seed 5, after
    /// `churn_stream(&base, 24, 96, 96, 31)`.
    fn churned_ba<S: OrderSeq>() -> OrderCore<S> {
        use crate::CoreMaintainer;
        use kcore_gen::{barabasi_albert, churn_stream};
        let base = barabasi_albert(2000, 4, 17);
        let mut oc: OrderCore<S> = OrderCore::new(base.clone(), 5);
        for b in churn_stream(&base, 24, 96, 96, 31) {
            oc.insert_batch(&b.inserts);
            oc.remove_batch(&b.removes);
        }
        oc
    }

    /// Length and checksum trailer of [`churned_ba`]'s KORD file. The
    /// reference encoder reads the same k-order walk as `save`, so these
    /// pinned values are what ties both the encoding and the maintained
    /// k-order to a fixed file.
    const CHURNED_BA_KORD_LEN: usize = 95_944;
    const CHURNED_BA_KORD_SUM: u64 = 0x6e06_a275_3d0f_36a4;

    #[test]
    fn one_pass_save_is_byte_identical_to_the_reference_encoding() {
        let oc: OrderCore = churned_ba();
        let mut buf = Vec::new();
        oc.save(&mut buf).unwrap();
        assert_eq!(buf, reference_save(&oc));
        assert_eq!(roundtrip(&oc).cores(), oc.cores());
    }

    #[test]
    fn churned_index_file_matches_its_pinned_digest() {
        fn file_of<S: OrderSeq>() -> Vec<u8> {
            let mut buf = Vec::new();
            churned_ba::<S>().save(&mut buf).unwrap();
            buf
        }
        for buf in [
            file_of::<kcore_order::TagList>(),
            file_of::<kcore_order::TreapLevels>(),
        ] {
            assert_eq!(buf.len(), CHURNED_BA_KORD_LEN);
            let trailer = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
            assert_eq!(trailer, CHURNED_BA_KORD_SUM, "checksum {trailer:#018x}");
        }
    }

    /// [`churned_ba`]'s stream summed per direction: the pass counters
    /// pin every decision the promotion and dismissal passes take, so a
    /// change to how a pass walks its vertices cannot silently alter what
    /// it visits, changes or refreshes.
    #[test]
    fn churned_stream_pass_counters_are_pinned() {
        fn counters<S: OrderSeq>() -> (UpdateStats, UpdateStats) {
            use crate::CoreMaintainer;
            use kcore_gen::{barabasi_albert, churn_stream};
            let base = barabasi_albert(2000, 4, 17);
            let mut oc: OrderCore<S> = OrderCore::new(base.clone(), 5);
            let (mut ins, mut rem) = (UpdateStats::default(), UpdateStats::default());
            for b in churn_stream(&base, 24, 96, 96, 31) {
                ins.absorb(oc.insert_batch(&b.inserts));
                rem.absorb(oc.remove_batch(&b.removes));
            }
            (ins, rem)
        }
        let inserts = UpdateStats {
            visited: 5523,
            changed: 2519,
            refreshed: 8378,
            noop: 587,
            skipped: 0,
            passes: 86,
            merged_seeds: 1687,
        };
        let removes = UpdateStats {
            visited: 5627,
            changed: 2077,
            refreshed: 4272,
            noop: 1153,
            skipped: 0,
            passes: 88,
            merged_seeds: 1196,
        };
        assert_eq!(counters::<kcore_order::TagList>(), (inserts, removes));
        assert_eq!(counters::<kcore_order::TreapLevels>(), (inserts, removes));
    }

    #[test]
    fn file_roundtrip() {
        let oc: OrderCore = OrderCore::new(fixtures::petersen(), 2);
        let dir = std::env::temp_dir().join("kcore_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("petersen.kord");
        oc.save_to_path(&path).unwrap();
        let loaded: OrderCore = OrderCore::load_from_path(&path, 2).unwrap();
        assert_eq!(loaded.cores(), oc.cores());
        loaded.validate();
        std::fs::remove_file(path).ok();
    }
}
