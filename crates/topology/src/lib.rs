//! Transit–stub Internet topology generation (Inet-3.0 substitute).
//!
//! The paper's evaluation (§5.1) runs over a ModelNet emulation of an
//! Inet-3.0 topology: 3037 routers in a transit–stub arrangement, link
//! latencies derived from pseudo-geographical distance, client nodes hanging
//! off distinct stub routers at 1 ms. What the multicast protocol actually
//! observes is the resulting *client-to-client* one-way latency and hop
//! distributions, which the paper reports as: mean hop distance 5.54 with
//! 74.28 % of pairs within 5–6 hops, and mean end-to-end latency 49.83 ms
//! with 50 % of pairs within 39–60 ms.
//!
//! This crate generates a deterministic transit–stub router graph on a 2-D
//! plane, assigns link latencies proportional to Euclidean distance, routes
//! all client pairs with Dijkstra, and exposes the resulting
//! [`RoutedModel`] — the latency/hop/coordinate oracle consumed by the
//! simulator and by the paper's distance/latency monitors. Default
//! parameters are calibrated to reproduce the distribution shape above
//! (verified by `ModelStats` tests and the `netstats` bench).
//!
//! # Examples
//!
//! ```
//! use egm_topology::{TransitStubConfig, RoutedModel};
//!
//! let model = TransitStubConfig::default()
//!     .with_clients(32)
//!     .with_seed(7)
//!     .build();
//! let stats = model.stats();
//! assert!(stats.mean_latency_ms > 0.0);
//! assert_eq!(model.client_count(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod geometry;
pub mod graph;
pub mod model;
pub mod stats;
pub mod transit_stub;

pub use geometry::Point;
pub use graph::Graph;
pub use model::{MemoryShape, PartitionPlan, RoutedModel};
pub use stats::ModelStats;
pub use transit_stub::TransitStubConfig;
