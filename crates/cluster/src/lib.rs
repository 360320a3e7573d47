//! **fgcache-cluster** — cluster mode for the fgcache workspace.
//!
//! The paper manages each cache independently; this crate scales the
//! same aggregating cache across a fleet. Three pieces:
//!
//! 1. **Ownership** ([`ring`]): a rendezvous-hash ring maps every
//!    [`FileId`](fgcache_types::FileId) to exactly one
//!    [`NodeId`]. Membership changes move the minimum possible keys —
//!    a leave moves exactly the departed node's keys, a join an
//!    expected `1/(n+1)` fraction — without any token or bucket state.
//! 2. **Routing** ([`node`]): a [`ClusterNode`] serves locally-owned
//!    groups from its own
//!    [`ShardedAggregatingCache`](fgcache_core::ShardedAggregatingCache)
//!    and proxies the rest to the owner over any
//!    [`Transport`](fgcache_net::Transport) as a depth-bounded owned
//!    fetch. Concurrent misses for the same group collapse through a
//!    [`SingleFlight`](fgcache_net::SingleFlight); retries of one
//!    request id are answered once by the server in front of each node,
//!    through the same type (the other half of exactly-once).
//! 3. **Membership** ([`ring::ClusterView`]): explicit, epoch'd views
//!    pushed over the wire (`ClusterUpdate`); stale epochs are ignored,
//!    so delivery is idempotent and order-tolerant.
//!
//! The crate deliberately has no socket code: it talks to peers only
//! through the [`Transport`](fgcache_net::Transport) seam, so the same
//! `ClusterNode` runs over in-process simulated transports (a
//! 100-node virtual cluster in one process) and over real TCP — and the
//! two are differentially tested against each other.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod node;
pub mod ring;

pub use node::{ClusterNode, ClusterNodeStats, PeerConnector, RebalanceReport};
pub use ring::{ownership_weight, ClusterView, NodeId, OwnershipRing};
