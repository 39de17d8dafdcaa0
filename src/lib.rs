//! # quicksand — a reproduction of *Building on Quicksand*
//! (Helland & Campbell, CIDR 2009)
//!
//! This facade re-exports the workspace crates; see the README for the
//! architecture and EXPERIMENTS.md for the derived evaluation.
//!
//! - [`core`] (`quicksand_core`) — the paper's pattern library:
//!   uniquifiers, idempotence, operation-centric state, ACID 2.0,
//!   memories/guesses/apologies, escrow locking, resource policies, the
//!   seat-reservation pattern.
//! - [`crdt`] — delta-state CRDTs realizing ACID 2.0 (§8), with a
//!   generic anti-entropy replication actor.
//! - [`sim`] — the deterministic discrete-event substrate.
//! - [`tandem`] — the NonStop model: DP1 (1984) vs DP2 (1986).
//! - [`logship`] — asynchronous log shipping and stuck-tail recovery.
//! - [`dynamo`] — the availability-first replicated blob store.
//! - [`membership`] — gossip-based cluster membership: a view CRDT, a
//!   consistent-hash ring, and live rebalancing with durable guesses.
//! - [`twopc`] — the Two-Phase Commit baseline the paper argues against.
//! - [`cart`], [`bank`], [`inventory`] — the worked example applications.
//! - [`chaos`] — cross-substrate chaos scenarios: per-substrate
//!   [`ChaosRun`](sim::chaos::ChaosRun) builders with invariant sets,
//!   over the seed-driven fault-plan engine in [`sim::chaos`].
//! - [`service`] — the wall-clock peer: the cart service on the
//!   multi-threaded runtime, with the one construct / drive / settle /
//!   audit harness every wall-clock driver shares.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod service;

pub use bank;
pub use cart;
pub use crdt;
pub use dynamo;
pub use eventlog;
pub use inventory;
pub use logship;
pub use membership;
pub use quicksand_core as core;
pub use sim;
pub use tandem;
pub use twopc;
