//! # partir-ir — the loop IR the auto-parallelizer consumes
//!
//! The paper's constraint inference (Algorithm 1) is defined on a normalized
//! statement language for parallelizable loops. This crate provides:
//!
//! * [`ast`] — that statement language plus a builder;
//! * [`analysis`] — the syntactic parallelizability check of Section 2 and
//!   the per-access-site summaries (derivation paths from the loop variable)
//!   that constraint inference consumes;
//! * [`interp`] — the sequential reference interpreter: a plain tree walk
//!   over a [`Store`](partir_dpl::region::Store), the oracle every
//!   executor in `partir-runtime` is tested against (they run their own
//!   lowered form of the same loops and share no evaluation code with it).

pub mod analysis;
pub mod ast;
pub mod interp;

pub mod prelude {
    pub use crate::analysis::{analyze, AccessInfo, AccessKind, LoopSummary, NotParallelizable};
    pub use crate::ast::{
        AccessId, BinOp, IVar, Loop, LoopBuilder, Program, ReduceOp, Stmt, UnOp, VExpr, VVar,
    };
    pub use crate::interp::{run_loop_over, run_loop_seq, run_program_seq, SeqCtx};
}

pub use prelude::*;
