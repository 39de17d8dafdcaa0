//! # dynamo — an availability-first replicated blob store (§6.1)
//!
//! A from-scratch implementation of the storage substrate the paper uses
//! for its shopping-cart example: "Dynamo is a replicated blob store
//! implemented with a Dynamic Hash Table... interesting in many ways
//! including its conscious choice to support availability over
//! consistency. Dynamo always accepts a PUT to the store even if this
//! may result in an inconsistent GET later on."
//!
//! What's here, all built on the `sim` substrate:
//!
//! - [`vclock::VectorClock`] — the causality metadata that distinguishes
//!   ancestors (dropped) from genuine siblings (surfaced).
//! - [`version`] — sibling-set maintenance: no version in a slot ever
//!   dominates another.
//! - [`node::StoreNode`] — replica + coordinator + hint holder + gossip
//!   peer: N/R/W quorums, **sloppy quorum with hinted handoff** (a PUT is
//!   never refused for consistency reasons), read repair, and periodic
//!   anti-entropy.
//! - Live membership: every node embeds a [`membership::Gossiper`] and
//!   routes by a [`membership::HashRing`] derived from the gossiped
//!   view. `CtlJoin`/`CtlLeave` control messages grow and shrink the
//!   ring at runtime; moved key ranges stream to their new owners as
//!   durable-guess-backed transfers (see [`node::StoreNode`]).
//!
//! The store is generic over the blob type `V` and deliberately knows
//! nothing about reconciliation: "the shopping cart application on top of
//! the Dynamo storage system is responsible for the semantics of eventual
//! consistency and commutativity" (§6.4). See the `cart` crate for that
//! application.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod msg;
pub mod node;
pub mod vclock;
pub mod version;
pub mod workload;

pub use harness::{
    build_cluster, crdt_store_nodes, standby_view, store_nodes, Cluster, Probe, ProbeResult,
};
pub use msg::DynamoMsg;
pub use node::{DynamoConfig, GossipMode, StoreNode};
pub use vclock::{Causality, StoreId, VectorClock};
pub use version::{merge_version, merge_versions, same_versions, Dot, Versioned};
pub use workload::{run_workload, Loader, WorkloadConfig, WorkloadReport};
