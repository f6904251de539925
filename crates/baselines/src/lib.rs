//! Baseline global-garbage-detection engines the paper argues against.
//!
//! Two families are implemented, so that every comparative claim of the
//! paper can be measured rather than asserted:
//!
//! * [`RefListingEngine`] — *reference listing* with **eager log-keeping**
//!   (the family of [15, 2, 19] in the paper, §2.3/§3). Every third-party
//!   exchange of a reference costs an extra control message to keep the
//!   target's reference list up to date, and distributed cycles of garbage
//!   are never reclaimed. Used by experiments E5 and E6.
//! * [`TracingEngine`] — a conceptually centralised graph-tracing GGD in the
//!   spirit of Ladin & Liskov \[11\] (§2.4): every site eagerly reports its
//!   portion of the global root graph to a coordinator, which can only
//!   declare garbage once it has heard from *every* site — the paper's
//!   "consensus bottleneck". It is comprehensive (collects cycles) but its
//!   message complexity scales with the number of live objects and a single
//!   stalled site blocks every reclamation. Used by experiments E3, E6, E7
//!   and E8.
//!
//! Both engines speak their own control-message dialect and are driven
//! through the same hooks as the causal engine (exports, third-party sends,
//! reachability snapshots, incoming messages), so the `ggd-sim` cluster can
//! swap them in transparently.

mod reflisting;
mod tracing;

pub use reflisting::{RefListingEngine, RefListingMessage};
pub use tracing::{TracingEngine, TracingMessage};
