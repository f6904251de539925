//! Whole-system simulator: sites (heap + collector) over a deterministic
//! network, an oracle for ground-truth reachability, and the experiment
//! runner used by the benchmark harness.
//!
//! The simulator replays a [`ggd_mutator::Scenario`] against a cluster of
//! sites. Each site is a [`SiteRuntime`] owning a [`ggd_heap::SiteHeap`] and
//! a garbage-detection engine implementing the [`Collector`] trait;
//! reference-carrying mutator messages and GGD control messages share one
//! [`ggd_net::Transport`], so the per-class message counts reported by every
//! experiment come straight from the network metrics. [`Cluster`] is generic
//! over the transport: experiments run it on the deterministic
//! [`ggd_net::SimNetwork`] (the default type parameter), while the threaded
//! constructors ([`Cluster::threaded`], [`Cluster::threaded_from_scenario`])
//! run the identical drive loop over [`ggd_net::ThreadedNetwork`] on real OS
//! threads.
//!
//! # Example
//!
//! ```
//! use ggd_mutator::workloads;
//! use ggd_sim::{CausalCollector, Cluster, ClusterConfig};
//!
//! let scenario = workloads::paper_example();
//! let mut cluster =
//!     Cluster::from_scenario(&scenario, ClusterConfig::default(), CausalCollector::new);
//! let report = cluster.run(&scenario);
//! assert_eq!(report.safety_violations, 0);
//! assert_eq!(report.residual_garbage, 0, "objects 2,3,4 must be reclaimed");
//! ```

mod cluster;
mod collector;
mod fleet;
mod oracle;
mod parallel;
mod plan;
mod report;
mod runtime;

pub use cluster::{Cluster, ClusterConfig};
pub use collector::{
    CausalCollector, Collector, RefListingCollector, SimPayload, TracingCollector,
};
pub use oracle::Oracle;
pub use parallel::ParallelCluster;
pub use report::RunReport;
pub use runtime::{SiteRuntime, SiteTick, SyncMode};
// Durability configuration re-exported so cluster users need not depend on
// ggd-store directly.
pub use ggd_store::{DurabilityConfig, DurabilityMode, MembershipAnnouncement, MembershipChange};
