//! # kcore-maint
//!
//! The paper's contribution: **order-based core maintenance**.
//!
//! [`OrderCore`] owns a dynamic graph plus the *k-order index*:
//!
//! * per core value `k`, the sequence `O_k` as an intrusive doubly-linked
//!   list and an order structure `A_k` (the `O(1)` label list by default,
//!   the paper's treap for the ablation) answering `u ⪯ v` through a
//!   monotone order key;
//! * per vertex, `core`, `deg⁺` (remaining degree, Definition 5.2) and
//!   `mcd` (needed by removals).
//!
//! [`OrderCore::insert_edge`] implements `OrderInsert` (Algorithm 2 with
//! `RemoveCandidates`, Algorithm 3); [`OrderCore::remove_edge`] implements
//! `OrderRemoval` (Algorithm 4). Both maintain the k-order so that
//! Lemma 5.1 (`deg⁺(v) <= k` for all `v ∈ O_k`) holds after every update —
//! [`OrderCore::validate`] asserts exactly that, plus agreement with a
//! from-scratch decomposition.
//!
//! One deliberate deviation from a literal reading of the pseudocode, with
//! no semantic effect: the `A_K` structure is **frozen during a pass** and
//! repaired in the ending phase. All order tests during a pass compare
//! positions in the pass-start snapshot (which is what Algorithms 2 and 3
//! mean by `⪯`), so deferring the `A_K` edits — moving `V*` into
//! `A_{K+1}`, repositioning the Observation 6.1 vertices — keeps the jump
//! heap's rank keys mutually consistent without changing any decision the
//! algorithm takes.
//!
//! [`maintainer::CoreMaintainer`] unifies this engine with the traversal
//! baseline and a naive recompute baseline for the benchmark harness.

pub mod batch;
pub mod components;
pub mod journal;
pub mod maintainer;
pub mod order_core;
pub mod persist;
pub mod planner;
pub mod query;
pub mod vertex;

mod insert;
mod par_pass;
mod remove;

pub use components::BatchOptions;
pub use kcore_traversal::UpdateStats;
pub use maintainer::{CoreMaintainer, RecomputeCore};
pub use order_core::OrderCore;
pub use persist::PersistError;
pub use planner::{PlanPolicy, PlannedCore, Planner, PlannerConfig, PlannerStats, Strategy};
pub use vertex::BatchOp;

/// `OrderCore` instantiated with the paper's treap-backed `A_k` (the
/// ablation variant).
pub type TreapOrderCore = OrderCore<kcore_order::OrderTreap>;

/// [`PlannedCore`] over the paper's treap-backed `A_k` (the ablation
/// variant).
pub type PlannedTreapCore = PlannedCore<kcore_order::OrderTreap>;

#[cfg(test)]
mod tests;
