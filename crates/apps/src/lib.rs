//! # partir-apps — the paper's five benchmark applications
//!
//! Each application module provides: a deterministic workload generator, the
//! sequential loop IR that the auto-parallelizer consumes, the app's hint
//! sets (Section 6's Auto+Hint configurations), a hand-optimized strategy
//! mirroring the published manual implementations — written as a plan over
//! the same program, so it is legality-checked and runs on both backends —
//! and the weak-scaling series of its Figure 14 subplot, every line a plan
//! priced by the analytic distributed-memory simulator in [`sim`].

pub mod circuit;
pub mod miniaero;
pub mod pennant;
pub mod sim;
pub mod spmv;
pub mod stencil;
pub mod support;
