//! The quicksand benchmark: four pinned workloads over the wall-clock
//! cart service and the event log, measured end to end and, in a second
//! traced run, layer by layer. See `README.md` beside this package.

pub mod alloc;
pub mod cart;
pub mod cells;
pub mod evlog;
pub mod measure;
pub mod repeat;
pub mod report;
pub mod stats;
pub mod sys;
pub mod traced;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
