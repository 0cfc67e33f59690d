//! # partir-core — constraint-based automatic data partitioning
//!
//! The paper's primary contribution: partitioning-constraint inference
//! (Algorithm 1), the constraint solver (Algorithm 2) with the DPL lemma
//! engine (Figure 8), unification (Algorithm 3), external constraints
//! (Section 3.3), and the reduction optimizations of Section 5.

pub mod cache;
pub mod eval;
pub mod exchange;
pub mod fingerprint;
pub mod infer;
pub mod lang;
pub mod lemmas;
pub mod optimize;
pub mod pipeline;
pub mod placement;
pub mod solve;
pub mod unify;

pub mod prelude {
    pub use crate::cache::{CacheError, CacheStats, DistArtifacts, PlanCache, SolvedPlan};
    pub use crate::eval::{Evaluator, ExtBindings};
    pub use crate::exchange::{
        access_sets, block_assignment, derive_exchange, derive_exchange_with, AccessSets,
        BufferRoute, BufferedSets, ExchangeError, ExchangePlan, ExchangeStats, LoopExchange,
        PairMessages, PairVolume, PostMessage,
    };
    pub use crate::fingerprint::{solve_fingerprint, store_index_fingerprint, Fingerprint};
    pub use crate::infer::{infer, Inference, InferredLoop};
    pub use crate::lang::{ExtId, ExternalDecl, FnRef, PExpr, PSym, Pred, Subset, System};
    pub use crate::lemmas::{entails_subset, prove_comp, prove_disj, prove_part, FactCtx};
    pub use crate::optimize::{
        apply_relaxation, choose_reduce_mode, disjointness_preferences, private_subpartition,
        ReduceMode, RelaxInfo, RelaxPolicy,
    };
    pub use crate::pipeline::{
        auto_parallelize, AccessPlan, AutoError, Hints, LoopPlan, Options, ParallelPlan, PartId,
        PlannedReduce, Timings,
    };
    pub use crate::placement::{
        evacuate_placement, place, CommGraph, Placement, PlacementConfig, PlacementPolicy,
        PlacementReport,
    };
    pub use crate::solve::{solve, solve_with, Solution, SolveBudget, SolveError, SolveStats};
    pub use crate::unify::{unify, Rep, Unified};
}

pub use prelude::*;
