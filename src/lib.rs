//! # kcore — order-based core maintenance for dynamic graphs
//!
//! A from-scratch Rust implementation of
//! *"A Fast Order-Based Approach for Core Maintenance"*
//! (Zhang, Yu, Zhang, Qin — ICDE 2017), including every substrate the
//! paper depends on: the dynamic graph store, the `O(m + n)` core
//! decomposition, the k-order index (order-maintenance label lists and a
//! jump heap), the traversal baseline family (`Trav-h`), synthetic
//! workload generators, and a benchmark harness regenerating every table
//! and figure of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use kcore::OrderCore;
//! use kcore::graph::DynamicGraph;
//!
//! // A path 0-1-2: every vertex is in the 1-core only.
//! let mut g = DynamicGraph::with_vertices(3);
//! g.insert_edge(0, 1).unwrap();
//! g.insert_edge(1, 2).unwrap();
//!
//! let mut cores = OrderCore::new(g, 42);
//! assert_eq!(cores.cores(), &[1, 1, 1]);
//!
//! // Closing the triangle promotes everyone to the 2-core …
//! cores.insert_edge(2, 0).unwrap();
//! assert_eq!(cores.cores(), &[2, 2, 2]);
//!
//! // … and removing any edge demotes them again.
//! cores.remove_edge(0, 1).unwrap();
//! assert_eq!(cores.cores(), &[1, 1, 1]);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `kcore-graph` | dynamic graph, I/O, fixtures, stats |
//! | [`order`] | `kcore-order` | label-list `A_k` (and the paper's treap), the one record of each `O_k`; jump heap |
//! | [`decomp`] | `kcore-decomp` | decomposition, k-order generation, `sc`/`pc`/`oc` |
//! | [`traversal`] | `kcore-traversal` | the Sariyüce et al. baseline, `Trav-h` |
//! | [`maint`] | `kcore-maint` | `OrderInsert` / `OrderRemoval` (the paper) |
//! | [`gen`] | `kcore-gen` | generators, dataset registry, samplers |
//! | [`ingest`] | `kcore-ingest` | streaming ingest service, snapshots, durability |
//! | [`obs`] | `kcore-obs` | metrics registry, latency histograms, span tracing |

pub use kcore_decomp as decomp;
pub use kcore_gen as gen;
pub use kcore_graph as graph;
pub use kcore_ingest as ingest;
pub use kcore_maint as maint;
pub use kcore_obs as obs;
pub use kcore_order as order;
pub use kcore_traversal as traversal;

pub use kcore_decomp::{core_decomposition, korder_decomposition, Heuristic};
pub use kcore_graph::{DynamicGraph, VertexId};
pub use kcore_ingest::{CoreSnapshot, GraphEvent, IngestConfig, IngestService, ObsConfig};
pub use kcore_maint::{
    CoreMaintainer, PlanPolicy, PlannedTreapCore, PlannerConfig, RecomputeCore, TreapOrderCore,
    UpdateStats,
};
pub use kcore_obs::{Histogram, MetricsRegistry, MetricsSnapshot, SpanRecorder};
pub use kcore_traversal::{SubCoreAlgo, TraversalCore};

/// The default order-based maintenance engine (label-list `A_k`).
pub type OrderCore = kcore_maint::OrderCore;

/// The default planner-driven engine (label-list `A_k`).
pub type PlannedCore = kcore_maint::PlannedCore;
