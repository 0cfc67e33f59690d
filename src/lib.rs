//! # partir — constraint-based automatic data partitioning
//!
//! A from-scratch Rust reproduction of *"A Constraint-Based Approach to
//! Automatic Data Partitioning for Distributed Memory Execution"*
//! (Lee, Papadakis, Slaughter, Aiken — SC '19).
//!
//! The front door is the [`Partir`] builder: describe a program once, let
//! the constraint pipeline solve its partitioning into a shareable
//! [`Plan`], and run it on either backend via [`Run`]. Solves are
//! cacheable: a fingerprint-keyed [`PlanCache`] keys on the structure of
//! the solve inputs and shares the immutable artifact — including
//! memoized exchange plans, placements, and legality proofs — across
//! runs and threads, and the
//! [`serve`] module turns that into a concurrent solve service.
//! Underneath, this facade re-exports the workspace crates:
//!
//! * [`dpl`] — regions, first-class partitions, and the Dependent
//!   Partitioning Language operators (`equal`, `image`, `preimage`,
//!   `IMAGE`/`PREIMAGE`, pointwise set algebra);
//! * [`ir`] — the loop IR for parallelizable loops, the syntactic
//!   parallelizability analysis, and the reference interpreter;
//! * [`core`] — the paper's contribution: constraint inference
//!   (Algorithm 1), the lemma engine (Figure 8), the constraint solver
//!   (Algorithm 2), unification (Algorithm 3), external constraints, the
//!   Section 5 reduction optimizations, and the end-to-end
//!   [`core::pipeline::auto_parallelize`] pass;
//! * [`runtime`] — one compute core (legality checking, reduction
//!   buffers, relaxation guards, private sub-partitions) under one SPMD
//!   driver: rank-sharded with constraint-derived ghost exchange, or one
//!   rank in place on host threads;
//! * [`apps`] — the five benchmark applications of the paper's evaluation
//!   and the distributed-memory simulator that prices their weak scaling.
//!
//! ## Quickstart
//!
//! ```
//! use partir::prelude::*;
//!
//! // for i in R: S[g(i)] += R[i]   (Figure 7)
//! let mut schema = Schema::new();
//! let r = schema.add_region("R", 100);
//! let s = schema.add_region("S", 100);
//! let rx = schema.add_field(r, "x", FieldKind::F64);
//! let sx = schema.add_field(s, "x", FieldKind::F64);
//! let mut fns = FnTable::new();
//! let g = fns.add("g", r, s, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 3, modulus: 100 }));
//!
//! let mut b = LoopBuilder::new("scatter", r);
//! let i = b.loop_var();
//! let v = b.val_read(r, rx, i);
//! let gi = b.idx_apply(g, i);
//! b.val_reduce(s, sx, gi, ReduceOp::Add, VExpr::var(v));
//! let program = vec![b.finish()];
//!
//! // Solve once into a shareable Plan, cached under its fingerprint.
//! let cache = PlanCache::default();
//! let plan = Partir::new(program, fns, schema.clone())
//!     .colors(8)
//!     .cache(&cache)
//!     .solve()
//!     .expect("parallelizable");
//! println!("{}", plan.render_dpl()); // the synthesized DPL program
//!
//! // Run on 4 SPMD ranks with constraint-derived ghosts.
//! let mut store = Store::new(schema);
//! let outcome = Run::new()
//!     .backend(Backend::Ranks(4))
//!     .run(&plan, &mut store)
//!     .expect("bit-identical to sequential");
//! assert!(outcome.report.tasks_run() > 0);
//! ```

pub use partir_apps as apps;
pub use partir_core as core;
pub use partir_dpl as dpl;
pub use partir_ir as ir;
pub use partir_obs as obs;
pub use partir_runtime as runtime;

mod builder;
mod error;
mod plan;
pub mod serve;

pub use builder::Partir;
pub use error::{Error, ServeError};
pub use partir_core::cache::{CacheStats, PlanCache};
pub use plan::{Backend, Plan, Run, RunOutcome, RunReport};
pub use serve::{ServeConfig, ServeReply, Server, Ticket};

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::{
        Backend, Error, Partir, Plan, PlanCache, Run, RunOutcome, RunReport, ServeConfig,
        ServeError, ServeReply, Server,
    };
    pub use partir_core::prelude::*;
    pub use partir_dpl::prelude::*;
    pub use partir_ir::prelude::*;
    pub use partir_obs::ObsConfig;
    pub use partir_runtime::prelude::*;
}
