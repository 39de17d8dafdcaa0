//! quicksand-runtime: a wall-clock, multi-threaded runtime that serves
//! real traffic with the *same unmodified actors* the simulator runs.
//!
//! "Building on Quicksand" argues the application's job is to keep its
//! promises over fallible machinery — and the machinery here really is
//! fallible: OS threads, real sockets, a host clock, panics as crashes.
//! The actors don't change. Any [`sim::Actor`] — dynamo stores, CRDT
//! carts, the lot — runs under this runtime exactly as written, because
//! both engines drive the same [`sim::EngineCore`] for every effect an
//! actor can express. The simulator explores schedules deterministically;
//! the runtime serves traffic at wall-clock speed; the actor cannot tell
//! which one is underneath except by how fast the clock moves.
//!
//! ```no_run
//! use quicksand_runtime::RuntimeBuilder;
//! # use sim::{Actor, Context, NodeId};
//! # struct Echo;
//! # impl Actor<u64> for Echo {
//! #     fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
//! #         ctx.send(from, msg);
//! #     }
//! # }
//! let mut b = RuntimeBuilder::new();
//! let a = b.add_node(Echo);
//! let _b2 = b.add_node(Echo);
//! let rt = b.launch(); // or .launch_tcp() for real sockets
//! rt.inject(a, _b2, 42);
//! let report = rt.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
pub(crate) mod runtime;
pub mod telemetry;
pub(crate) mod timer;
pub mod transport;

pub use chaos::{rendered_timeline, ChaosController, ChaosStats, NetChaos};
pub use clock::WallClock;
pub use runtime::{
    BoxedActor, Runtime, RuntimeBuilder, RuntimeReport, TransportKind, DEFAULT_FLIGHT_CAP,
    DEFAULT_GUESS_DEADLINE, DEFAULT_SPAN_CAP,
};
pub use telemetry::NodeStatus;
pub use transport::Transport;
