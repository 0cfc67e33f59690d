//! Stencil (Section 6.2 / Figure 14b).
//!
//! A 9-point stencil over a 2D grid (the Parallel Research Kernels
//! stencil). The grid is linearized row-major with periodic boundary
//! (every neighbor is an affine map `i ↦ (i + off) mod N` of the linear
//! index — eight distinct functions, one per neighbor point), so each
//! uncentered read produces a distinct subset constraint and the solver
//! synthesizes eight affine image partitions, exactly as described in the
//! paper.
//!
//! The hand-optimized comparator differs in one way (Section 6.2): it keeps
//! an explicit halo copy so all inter-node movement in each direction is
//! one transfer, where the auto-parallelized version's eight partitions
//! need two transfers per direction. Its plan reads each direction's four
//! neighbours through one halo partition; both versions move the same
//! bytes.

use crate::sim::MachineModel;
use crate::support::{weak_scaling, Instance, ScaleSeries};
use partir_core::eval::ExtBindings;
use partir_core::pipeline::{auto_parallelize, Hints, Options, ParallelPlan, PartId};
use partir_dpl::func::{FnDef, FnId, FnTable, IndexFn};
use partir_dpl::index_set::IndexSet;
use partir_dpl::ops::equal;
use partir_dpl::partition::Partition;
use partir_dpl::region::{FieldId, FieldKind, RegionId, Schema, Store};
use partir_ir::analysis::AccessInfo;
use partir_ir::ast::{Loop, LoopBuilder, ReduceOp, VExpr};

/// The 8 neighbor offsets of a 9-point stencil on an `nx`-wide row-major
/// grid (the center point is the ninth).
fn offsets(nx: i64) -> [i64; 8] {
    [-nx - 1, -nx, -nx + 1, -1, 1, nx - 1, nx, nx + 1]
}

/// A generated stencil instance.
pub struct Stencil {
    pub store: Store,
    pub fns: FnTable,
    pub program: Vec<Loop>,
    pub grid: RegionId,
    pub f_in: FieldId,
    pub f_out: FieldId,
    pub nx: u64,
    pub ny: u64,
}

pub struct StencilParams {
    pub nx: u64,
    pub ny: u64,
}

impl Default for StencilParams {
    fn default() -> Self {
        StencilParams { nx: 100, ny: 100 }
    }
}

impl Stencil {
    pub fn generate(p: &StencilParams) -> Self {
        let n = p.nx * p.ny;
        let mut schema = Schema::new();
        let grid = schema.add_region("Grid", n);
        let f_in = schema.add_field(grid, "in", FieldKind::F64);
        let f_out = schema.add_field(grid, "out", FieldKind::F64);
        let mut fns = FnTable::new();
        let neighbor_fns: Vec<_> = offsets(p.nx as i64)
            .iter()
            .map(|&off| {
                fns.add(
                    format!("n{off:+}"),
                    grid,
                    grid,
                    FnDef::Index(IndexFn::AffineMod { mul: 1, add: off, modulus: n }),
                )
            })
            .collect();

        let mut store = Store::new(schema);
        for (i, v) in store.f64s_mut(f_in).iter_mut().enumerate() {
            *v = ((i % 13) + 1) as f64;
        }

        // Loop 1: out[i] = in[i] + Σ_k w_k · in[n_k(i)].
        let mut b = LoopBuilder::new("stencil", grid);
        let i = b.loop_var();
        let center = b.val_read(grid, f_in, i);
        let mut acc = VExpr::mul(VExpr::Const(4.0), VExpr::var(center));
        for (k, &nf) in neighbor_fns.iter().enumerate() {
            let ni = b.idx_apply(nf, i);
            let v = b.val_read(grid, f_in, ni);
            let w = if k % 2 == 0 { -0.25 } else { -0.5 };
            acc = VExpr::add(acc, VExpr::mul(VExpr::Const(w), VExpr::var(v)));
        }
        b.val_write(grid, f_out, i, acc);
        let l1 = b.finish();

        // Loop 2: in[i] += 1 (the PRK "add roots" step).
        let mut b = LoopBuilder::new("increment", grid);
        let i = b.loop_var();
        b.val_reduce(grid, f_in, i, ReduceOp::Add, VExpr::Const(1.0));
        let l2 = b.finish();

        Stencil { store, fns, program: vec![l1, l2], grid, f_in, f_out, nx: p.nx, ny: p.ny }
    }

    pub fn auto_plan(&self) -> ParallelPlan {
        auto_parallelize(
            &self.program,
            &self.fns,
            self.store.schema(),
            &Hints::new(),
            Options::default(),
        )
        .expect("stencil auto-parallelizes")
    }

    pub fn n_points(&self) -> u64 {
        self.nx * self.ny
    }

    /// The hand-optimized strategy as a plan: the solver's block
    /// partitioning, but the four neighbour reads of each direction go
    /// through one halo partition, `block ∪ up` or `block ∪ down` (the row
    /// above or below each block, periodic, widened by one element for the
    /// corner offsets), so each direction is one transfer. Partitions:
    /// `[block, block ∪ up, block ∪ down]`.
    pub fn manual_plan(&self, nodes: usize) -> (ParallelPlan, ExtBindings) {
        let n = self.n_points();
        let block = equal(self.grid, n, nodes);
        let halo = |start: u64, s: &IndexSet| s.union(&wrap_range(start % n, self.nx + 1, n));
        let up = block.iter().map(|s| halo(s.min().unwrap_or(0) + n - self.nx - 1, s)).collect();
        let down = block.iter().map(|s| halo(s.max().unwrap_or(0) + 1, s)).collect();
        let (up, down) = (Partition::new(self.grid, up), Partition::new(self.grid, down));
        let mut exts = ExtBindings::new();
        for p in [block, up, down] {
            exts.push(p);
        }
        let upward = |f: FnId| matches!(self.fns.get(f).def, FnDef::Index(IndexFn::AffineMod { add, .. }) if add < 0);
        let bind = |_, a: &AccessInfo| match a.path.first() {
            None => (PartId(0), None),
            Some(&f) => (PartId(if upward(f) { 1 } else { 2 }), None),
        };
        let plan =
            ParallelPlan::from_bindings(&self.program, &self.fns, &exts, &[PartId(0); 2], bind);
        (plan.expect("the stencil program is parallelizable"), exts)
    }
}

/// A wrapped contiguous range `[start, start+len)` on a periodic domain.
fn wrap_range(start: u64, len: u64, n: u64) -> IndexSet {
    if start + len <= n {
        IndexSet::from_range(start, start + len)
    } else {
        IndexSet::from_range(start, n).union(&IndexSet::from_range(0, (start + len) % n))
    }
}

/// Figure 14b: Manual vs Auto weak scaling. `rows_per_node` grid rows per
/// node (weak scaling grows `ny`).
pub fn fig14b_series(nx: u64, rows_per_node: u64, nodes_list: &[usize]) -> Vec<ScaleSeries> {
    weak_scaling(nodes_list, |n| {
        let app = Stencil::generate(&StencilParams { nx, ny: rows_per_node * n as u64 });
        let machine = MachineModel::gpu_cluster(n);
        let (manual, exts) = app.manual_plan(n);
        let manual_parts = manual.evaluate(&app.store, &app.fns, n, &exts);
        let auto_ = app.auto_plan();
        let auto_parts = auto_.evaluate(&app.store, &app.fns, n, &ExtBindings::new());
        Instance {
            items: app.n_points() as f64,
            weights: vec![9.0, 1.0],
            lines: vec![
                ("Manual", manual, manual_parts, machine),
                ("Auto", auto_, auto_parts, machine),
            ],
            program: app.program,
            store: app.store,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_runtime::dist::{execute_ranks, DistOptions, Layout};

    #[test]
    fn stencil_parallel_matches_sequential() {
        let app = Stencil::generate(&StencilParams { nx: 20, ny: 25 });
        let mut seq = app.store.clone();
        // Two outer timesteps to exercise the in/out interplay.
        for _ in 0..2 {
            partir_ir::interp::run_program_seq(&app.program, &mut seq, &app.fns);
        }
        let plan = app.auto_plan();
        let parts = plan.evaluate(&app.store, &app.fns, 4, &ExtBindings::new());
        let mut par = app.store.clone();
        for _ in 0..2 {
            execute_ranks(
                &app.program,
                &plan,
                &parts,
                Layout::InPlace { workers: 4 },
                &mut par,
                &app.fns,
                &DistOptions::default(),
            )
            .expect("parallel stencil");
        }
        assert_eq!(seq.f64s(app.f_out), par.f64s(app.f_out));
        assert_eq!(seq.f64s(app.f_in), par.f64s(app.f_in));
    }

    #[test]
    fn auto_plan_has_eight_image_partitions() {
        let app = Stencil::generate(&StencilParams { nx: 16, ny: 16 });
        let plan = app.auto_plan();
        let images = plan
            .partition_ids
            .iter()
            .filter(|&&id| {
                matches!(plan.system.arena.node(id), partir_core::lang::Expr::Image { .. })
            })
            .count();
        assert_eq!(images, 8, "{}", plan.render_dpl(&app.fns));
    }

    #[test]
    fn fig14b_manual_beats_auto_slightly() {
        let series = fig14b_series(256, 256, &[1, 4, 16]);
        let (manual, auto_) = (&series[0], &series[1]);
        // Manual ≥ Auto at scale (fewer messages, simpler partitions),
        // but the gap stays small (paper: ~3%).
        let m16 = manual.at(16).unwrap();
        let a16 = auto_.at(16).unwrap();
        assert!(m16 >= a16, "manual {m16} vs auto {a16}");
        assert!(a16 > 0.85 * m16, "gap should be small: {m16} vs {a16}");
    }
}
