//! # partir-runtime — executing auto-parallelized programs
//!
//! One driver and one compute core over the plans produced by
//! `partir-core`:
//!
//! * [`task`] — the compute core: plan/partition validation, loop bodies
//!   lowered once per run to flat register programs (`lower`), and the
//!   chunk-at-a-time executor implementing the paper's runtime mechanisms
//!   (legality checking, two-step buffered reductions, relaxation guards,
//!   private sub-partitions) over any rank's storage;
//! * [`dist`] — the SPMD driver, [`execute_ranks`]: each rank holds its
//!   shard of every region plus ghost cells derived from the constraint
//!   solution and exchanges over in-process mailboxes, or one rank works
//!   in place on the caller's store with several workers (the threads
//!   backend). Results are bit-identical to the sequential interpreter.

pub mod dist;
pub mod fault;
mod lower;
pub mod shared;
pub mod task;

pub mod prelude {
    pub use crate::dist::{execute_ranks, DistError, DistOptions, DistReport, Layout, RankStore};
    pub use crate::fault::{CheckpointPolicy, FaultPlan, RankCrash};
    pub use crate::shared::SharedStore;
    pub use crate::task::{LegalityViolation, PlanError};
}

pub use prelude::*;
