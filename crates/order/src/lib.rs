//! # kcore-order
//!
//! Order-maintenance data structures backing the k-order of the paper
//! (Section VI, "Implementation"). The paper pairs each level's sequence
//! `O_k` with a structure `A_k` that answers `u ⪯ v` over it; here `A_k`
//! holds the sequence itself, so it is the one record of `O_k`, read back
//! through [`OrderSeq::iter`].
//!
//! * [`tag::TagList`] — the engine's `A_k`: one **order-maintenance
//!   list** for every level, indexed by vertex id, with `u64` labels
//!   (Dietz–Sleator list labelling with Bender et al.'s relabel
//!   thresholds). A vertex's label, `next` and `prev` sit in one record
//!   indexed by the vertex, and a level keeps only its head and tail, so
//!   there are no node handles: an order key is the vertex's label, and
//!   insertions relabel a small neighbourhood now and then.
//! * [`treap::OrderTreap`] — the paper's `A_k`: an **order-statistics tree
//!   implemented on top of treaps** with parent pointers and subtree sizes,
//!   supporting `rank` in `O(log n)` from a node handle (the paper's
//!   one-to-one vertex → node mapping is the handle itself). Raw pointers
//!   from the C++ original are replaced with `u32` arena indices. Kept for
//!   the ablation benchmark, behind the [`seq::TreapLevels`] adapter that
//!   owns one treap per level and the vertex → handle array.
//! * [`heap::MinRankHeap`] — the paper's `B`: a monotone radix heap of
//!   `(rank, vertex)` pairs with lazy deletion, giving the "jump to the
//!   next relevant vertex" step of `OrderInsert` with `O(1)` pushes. Its
//!   contract is that no key is pushed below the last popped key; a
//!   promotion pass keeps it because it pushes all seeds before the first
//!   pop and afterwards only grants `deg*` to neighbours ranked after the
//!   vertex just popped.
//!
//! [`seq::OrderSeq`] is the vertex-addressed, per-level interface over the
//! two `A_k` implementations, so the maintenance algorithms in
//! `kcore-maint` can be instantiated with either.

pub mod heap;
pub mod seq;
pub mod tag;
pub mod treap;

pub use heap::MinRankHeap;
pub use seq::{OrderSeq, TreapLevels};
pub use tag::TagList;
pub use treap::OrderTreap;

/// Sentinel used by the arena structures ("no node" / "no vertex").
pub const NONE: u32 = u32::MAX;
