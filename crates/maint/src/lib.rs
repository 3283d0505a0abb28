//! # kcore-maint
//!
//! The paper's contribution: **order-based core maintenance**.
//!
//! [`OrderCore`] owns a dynamic graph plus the *k-order index*:
//!
//! * per core value `k`, an order structure `A_k` that holds the sequence
//!   `O_k` itself — the only record of it — and answers `u ⪯ v` through
//!   a monotone order key. By default all levels share one label list
//!   indexed by vertex id, so the key of `v` is `label[v]` and no node
//!   handles exist; the paper's treap runs for the ablation;
//! * per vertex, `core`, `deg⁺` (remaining degree, Definition 5.2) and
//!   `mcd` (needed by removals).
//!
//! [`OrderCore::insert_edges`] implements `OrderInsert` (Algorithm 2 with
//! `RemoveCandidates`, Algorithm 3); [`OrderCore::remove_edges`]
//! implements `OrderRemoval` (Algorithm 4). The paper states both one edge
//! at a time; here an apply phase admits a whole batch against the frozen
//! k-order, then one multi-seed pass runs per affected level.
//! [`OrderCore::insert_edge`] / [`OrderCore::remove_edge`] are batches of
//! one that return an error where a batch skips the entry. Both maintain
//! the k-order so that Lemma 5.1 (`deg⁺(v) <= k` for all `v ∈ O_k`) holds
//! after every update — [`OrderCore::validate`] asserts exactly that,
//! plus agreement with a from-scratch decomposition.
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
//! Maintenance always runs on the calling thread. [`PlannedCore`] prices
//! each batch against a full recompute; the recompute is the only
//! multi-core path (the parallel peel, [`Strategy::ParRecompute`], when a
//! `Parallelism` is set).
//!
//! [`maintainer::CoreMaintainer`] unifies this engine with the traversal
//! baseline and a naive recompute baseline for the benchmark harness.

pub mod batch;
pub mod journal;
pub mod maintainer;
pub mod order_core;
pub mod persist;
pub mod planner;
pub mod query;
pub mod vertex;

mod insert;
mod remove;

pub use kcore_traversal::UpdateStats;
pub use maintainer::{CoreMaintainer, RecomputeCore};
pub use order_core::OrderCore;
pub use persist::PersistError;
pub use planner::{PlanPolicy, PlannedCore, Planner, PlannerConfig, PlannerStats, Strategy};

/// `OrderCore` instantiated with the paper's treap-backed `A_k` (the
/// ablation variant).
pub type TreapOrderCore = OrderCore<kcore_order::TreapLevels>;

/// [`PlannedCore`] over the paper's treap-backed `A_k` (the ablation
/// variant).
pub type PlannedTreapCore = PlannedCore<kcore_order::TreapLevels>;

#[cfg(test)]
mod tests;
