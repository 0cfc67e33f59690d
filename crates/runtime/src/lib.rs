//! # partir-runtime — executing auto-parallelized programs
//!
//! Two execution back-ends over the plans produced by `partir-core` and
//! one compute core:
//!
//! * [`task`] — the shared compute core: plan/partition validation, loop
//!   bodies lowered once per run to flat register programs (`lower`), and
//!   the chunk-at-a-time executor implementing the paper's runtime
//!   mechanisms (legality checking, two-step buffered reductions,
//!   relaxation guards, private sub-partitions) over either backend's
//!   storage;
//! * [`exec`] — a real threaded executor (one task per subregion on a
//!   worker pool, all over one shared store);
//! * [`dist`] — an SPMD rank-sharded backend: each rank holds only its
//!   shard of every region plus ghost cells derived from the constraint
//!   solution, exchanging over in-process mailboxes with results
//!   bit-identical to the sequential interpreter.

pub mod dist;
pub mod exec;
pub mod fault;
mod lower;
pub mod shared;
pub mod task;

pub mod prelude {
    pub use crate::dist::{execute_ranks, DistError, DistOptions, DistReport, RankStore};
    pub use crate::exec::{execute_program, ExecError, ExecOptions, ExecReport};
    pub use crate::fault::{CheckpointPolicy, FaultPlan, RankCrash, RetryPolicy};
    pub use crate::shared::SharedStore;
    pub use crate::task::{LegalityViolation, PlanError};
}

pub use prelude::*;
