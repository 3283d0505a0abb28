//! # kcore-order
//!
//! Order-maintenance data structures backing the k-order of the paper
//! (Section VI, "Implementation"). The paper pairs each level's sequence
//! `O_k` with a structure `A_k` that answers `u ⪯ v` over it; here `A_k`
//! holds the sequence itself, so it is the one record of `O_k`, read back
//! through [`OrderSeq::iter`].
//!
//! * [`tag::TagList`] — the engine's `A_k`: an **order-maintenance list**
//!   with `u64` labels (Dietz–Sleator list labelling with Bender et al.'s
//!   relabel thresholds). Order tests and order keys are `O(1)` label
//!   reads; insertions relabel a small neighbourhood now and then.
//! * [`treap::OrderTreap`] — the paper's `A_k`: an **order-statistics tree
//!   implemented on top of treaps** with parent pointers and subtree sizes,
//!   supporting `rank` in `O(log n)` from a node handle (the paper's
//!   one-to-one vertex → node mapping is the handle itself). Raw pointers
//!   from the C++ original are replaced with `u32` arena indices. Kept for
//!   the ablation benchmark.
//! * [`heap::MinRankHeap`] — the paper's `B`: a binary min-heap of
//!   `(rank, vertex)` pairs with lazy deletion, giving the `O(1)` "jump to
//!   the next relevant vertex" step of `OrderInsert`.
//!
//! [`seq::OrderSeq`] abstracts over the two `A_k` implementations so the
//! maintenance algorithms in `kcore-maint` can be instantiated with either.

pub mod heap;
pub mod seq;
pub mod tag;
pub mod treap;

pub use heap::MinRankHeap;
pub use seq::OrderSeq;
pub use tag::TagList;
pub use treap::OrderTreap;

/// Sentinel used by the arena structures ("no node" / "no vertex").
pub const NONE: u32 = u32::MAX;
