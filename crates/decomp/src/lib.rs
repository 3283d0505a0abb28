//! # kcore-decomp
//!
//! Static k-core machinery, all of it over one graph type,
//! [`kcore_graph::DynamicGraph`]:
//!
//! * [`bucket`] — the Batagelj–Zaversnik `O(m + n)` core decomposition
//!   (`CoreDecomp`, Algorithm 1 of the paper);
//! * [`par`] — the level-synchronous **parallel** peel
//!   (`par_core_decomposition`) with atomic degree counters and a
//!   long-lived worker team, bit-identical to the sequential
//!   decomposition at every thread count;
//! * [`korder`] — peeling that additionally emits a **k-order** and the
//!   remaining degrees `deg⁺`, under the three victim-selection heuristics
//!   of Section VI (*small deg⁺ first* — the paper's choice —, *large* and
//!   *random*), used both to build the order index and for the Fig 9
//!   comparison;
//! * [`regions`] — subcore (`sc`), pure-core (`pc`) and order-core (`oc`)
//!   size analysis behind Fig 5;
//! * [`validate`] — definitional oracles (`core`, `mcd`, `pcd`, Lemma 5.1
//!   k-order validity) used by tests across the workspace.

pub mod bucket;
pub mod korder;
pub mod par;
pub mod regions;
pub mod team;
pub mod validate;

pub use bucket::{core_decomposition, max_core};
pub use korder::{korder_decomposition, korder_from_cores, Heuristic, KOrder};
pub use par::{par_core_decomposition, Parallelism};
pub use validate::{compute_mcd, compute_pcd, is_valid_korder};
