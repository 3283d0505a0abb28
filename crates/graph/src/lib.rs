//! # kcore-graph
//!
//! Dynamic undirected graph substrate used by every crate in this workspace.
//! [`DynamicGraph`] is the only graph type: the static decompositions, the
//! maintenance engines and the ingest writer all read it.
//!
//! The representation is deliberately simple and fast for the access pattern
//! of core-maintenance algorithms:
//!
//! * vertices are dense `u32` ids (`VertexId`), so every per-vertex attribute
//!   in the higher layers is a flat `Vec` indexed by vertex;
//! * adjacency is a flat [`arena::AdjArena`] — one contiguous backing
//!   buffer with per-vertex slices, `O(1)` amortised edge insertion,
//!   `O(deg)` removal via `swap_remove`, CSR-style compaction on demand,
//!   and cache-friendly neighbour scans (the inner loops of both
//!   maintenance algorithms are neighbour scans) with zero per-vertex
//!   heap allocations;
//! * parallel edges and self loops are rejected (k-core theory assumes a
//!   simple graph), with an `O(min(deg(u), deg(v)))` membership probe.
//!
//! The crate also ships:
//!
//! * [`hash`] — an Fx-style integer hasher (SipHash is a measurable
//!   hot-spot on integer keys; `rustc-hash` is not among the allowed
//!   offline dependencies so the 20-line algorithm is implemented here);
//! * [`io`] — plain text edge-list reading/writing;
//! * [`atomic`] — the floored atomic degree counters of the parallel peel;
//! * [`stats`] — degree statistics used when reporting Table I;
//! * [`fixtures`] — the running-example graph of the paper (Fig 3) and a
//!   handful of tiny graphs shared by unit tests across the workspace.

pub mod arena;
pub mod atomic;
pub mod fixtures;
pub mod graph;
pub mod hash;
pub mod io;
pub mod stats;

pub use arena::AdjArena;
pub use atomic::AtomicDegrees;
pub use graph::{
    edge_key, key_edge, DynamicGraph, EdgeListError, VertexId, DEFAULT_MAX_HOLE_RATIO, NO_VERTEX,
};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
