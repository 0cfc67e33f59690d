//! MiniAero (Section 6.3 / Figure 14c).
//!
//! A proxy for the compressible Navier-Stokes mini-app: a 3D hexahedral
//! mesh where faces are shared between neighboring cells and every face
//! stores pointers to the two cells it separates. The flux loops read face
//! properties and update both adjacent cells through uncentered reductions
//! using two different pointer fields — exactly the Figure 11a pattern —
//! so the Section 5.1 relaxation applies and eliminates reduction buffers
//! completely (the paper states this explicitly).
//!
//! The hand-optimized comparator duplicates boundary faces so each node's
//! faces are contiguous; the auto version partitions the *sequential* mesh,
//! whose face subregions are fragmented at block boundaries — the source of
//! the paper's ~2% average gap.

use crate::sim::MachineModel;
use crate::support::{weak_scaling, Instance, ScaleSeries};
use partir_core::eval::ExtBindings;
use partir_core::optimize::RelaxPolicy;
use partir_core::pipeline::{
    auto_parallelize, Hints, Options, ParallelPlan, PartId, PlannedReduce,
};
use partir_dpl::func::{FnId, FnTable};
use partir_dpl::index_set::IndexSet;
use partir_dpl::ops::{equal, image, union_pointwise};
use partir_dpl::partition::Partition;
use partir_dpl::region::{FieldId, FieldKind, RegionId, Schema, Store};
use partir_ir::analysis::AccessInfo;
use partir_ir::ast::{Loop, LoopBuilder, ReduceOp, VExpr};

/// A generated MiniAero instance.
pub struct MiniAero {
    pub store: Store,
    pub fns: FnTable,
    pub program: Vec<Loop>,
    pub cells: RegionId,
    pub faces: RegionId,
    pub q: FieldId,
    pub res: FieldId,
    pub flux: FieldId,
    pub f_left: FnId,
    pub f_right: FnId,
    pub n_cells: u64,
    pub n_faces: u64,
    pub nx: u64,
    pub ny: u64,
    pub nz: u64,
}

pub struct MiniAeroParams {
    pub nx: u64,
    pub ny: u64,
    pub nz: u64,
}

impl Default for MiniAeroParams {
    fn default() -> Self {
        MiniAeroParams { nx: 8, ny: 8, nz: 8 }
    }
}

impl MiniAero {
    /// Generates a periodic `nx × ny × nz` hex mesh. Cells are linearized
    /// `c = (z·ny + y)·nx + x`; faces come in three axis groups of `n`
    /// faces each (`f = axis·n + c`, the face between `c` and its +axis
    /// neighbor) — the "sequential execution" numbering the paper's auto
    /// version uses.
    pub fn generate(p: &MiniAeroParams) -> Self {
        let n = p.nx * p.ny * p.nz;
        let n_faces = 3 * n;
        let mut schema = Schema::new();
        let cells = schema.add_region("Cells", n);
        let faces = schema.add_region("Faces", n_faces);
        let q = schema.add_field(cells, "q", FieldKind::F64);
        let res = schema.add_field(cells, "res", FieldKind::F64);
        let area = schema.add_field(faces, "area", FieldKind::F64);
        let flux = schema.add_field(faces, "flux", FieldKind::F64);
        let left = schema.add_field(faces, "left", FieldKind::Ptr(cells));
        let right = schema.add_field(faces, "right", FieldKind::Ptr(cells));
        let mut fns = FnTable::new();
        let f_left = fns.add_ptr_field("Faces[.].left", faces, cells, left);
        let f_right = fns.add_ptr_field("Faces[.].right", faces, cells, right);

        let mut store = Store::new(schema);
        let idx = |x: u64, y: u64, z: u64| (z * p.ny + y) * p.nx + x;
        for z in 0..p.nz {
            for y in 0..p.ny {
                for x in 0..p.nx {
                    let c = idx(x, y, z);
                    let neighbors = [
                        idx((x + 1) % p.nx, y, z),
                        idx(x, (y + 1) % p.ny, z),
                        idx(x, y, (z + 1) % p.nz),
                    ];
                    for (axis, &nb) in neighbors.iter().enumerate() {
                        let f = axis as u64 * n + c;
                        store.ptrs_mut(left)[f as usize] = c;
                        store.ptrs_mut(right)[f as usize] = nb;
                        store.f64s_mut(area)[f as usize] = 1.0 + (axis as f64) * 0.5;
                    }
                    store.f64s_mut(q)[c as usize] = 1.0 + (c % 9) as f64;
                }
            }
        }

        let program =
            Self::build_loops(cells, faces, q, res, area, flux, left, right, f_left, f_right);
        MiniAero {
            store,
            fns,
            program,
            cells,
            faces,
            q,
            res,
            flux,
            f_left,
            f_right,
            n_cells: n,
            n_faces,
            nx: p.nx,
            ny: p.ny,
            nz: p.nz,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_loops(
        cells: RegionId,
        faces: RegionId,
        q: FieldId,
        res: FieldId,
        area: FieldId,
        flux: FieldId,
        left: FieldId,
        right: FieldId,
        f_left: FnId,
        f_right: FnId,
    ) -> Vec<Loop> {
        // Loop 1 (compute_face_flux): upwind-ish flux from the two adjacent
        // cell states.
        let mut b = LoopBuilder::new("compute_flux", faces);
        let f = b.loop_var();
        let a = b.val_read(faces, area, f);
        let cl = b.idx_read(faces, left, f, f_left);
        let ql = b.val_read(cells, q, cl);
        let cr = b.idx_read(faces, right, f, f_right);
        let qr = b.val_read(cells, q, cr);
        b.val_write(
            faces,
            flux,
            f,
            VExpr::mul(VExpr::var(a), VExpr::sub(VExpr::var(ql), VExpr::var(qr))),
        );
        let l1 = b.finish();

        // Loop 2 (apply_flux): two uncentered reductions through different
        // pointer fields (Figure 11a shape) — the relaxation target.
        let mut b = LoopBuilder::new("apply_flux", faces);
        let f = b.loop_var();
        let fl = b.val_read(faces, flux, f);
        let cl = b.idx_read(faces, left, f, f_left);
        b.val_reduce(
            cells,
            res,
            cl,
            ReduceOp::Add,
            VExpr::Un(partir_ir::ast::UnOp::Neg, Box::new(VExpr::var(fl))),
        );
        let cr = b.idx_read(faces, right, f, f_right);
        b.val_reduce(cells, res, cr, ReduceOp::Add, VExpr::var(fl));
        let l2 = b.finish();

        // Loop 3 (update): q += dt·res; res = 0.
        let mut b = LoopBuilder::new("update", cells);
        let c = b.loop_var();
        let qv = b.val_read(cells, q, c);
        let rv = b.val_read(cells, res, c);
        b.val_write(
            cells,
            q,
            c,
            VExpr::add(VExpr::var(qv), VExpr::mul(VExpr::Const(0.01), VExpr::var(rv))),
        );
        b.val_write(cells, res, c, VExpr::Const(0.0));
        let l3 = b.finish();

        vec![l1, l2, l3]
    }

    pub fn auto_plan(&self) -> ParallelPlan {
        auto_parallelize(
            &self.program,
            &self.fns,
            self.store.schema(),
            &Hints::new(),
            Options::default(),
        )
        .expect("MiniAero auto-parallelizes")
    }

    /// The hand-optimized strategy (Section 6.3) as a plan: the mesh
    /// generator duplicates boundary faces so each node's faces and cells
    /// are contiguous — cells in `equal` blocks, faces in the three axis
    /// groups restricted to the node's cells. Cell reads and flux
    /// reductions go through one ghost partition, `block ∪ image(faces,
    /// left) ∪ image(faces, right)`; the reductions buffer only cells
    /// another node's faces also touch (`private[c] = block[c] −
    /// ⋃_{d≠c} touched[d]`). Partitions: `[ghost, faces, block, private]`.
    pub fn manual_plan(&self, nodes: usize) -> (ParallelPlan, ExtBindings) {
        let n = self.n_cells;
        let block = equal(self.cells, n, nodes);
        let faces = block.iter().map(|s| {
            let shifted =
                |axis| s.runs().iter().map(move |&(lo, hi)| (axis * n + lo, axis * n + hi));
            IndexSet::from_sorted_runs((0..3u64).flat_map(shifted))
        });
        let faces = Partition::new(self.faces, faces.collect());
        let touched_by = |f| image(&self.store, &self.fns, &faces, f, self.cells);
        let touched = union_pointwise(&touched_by(self.f_left), &touched_by(self.f_right));
        let private = block.iter().enumerate().map(|(c, s)| {
            let others = touched.iter().enumerate().filter(|&(d, _)| d != c);
            others.fold(s.clone(), |own, (_, t)| own.difference(t))
        });
        let private = Partition::new(self.cells, private.collect());
        let mut exts = ExtBindings::new();
        exts.push(union_pointwise(&block, &touched));
        exts.push(faces);
        exts.push(block);
        exts.push(private);
        // Loops: compute_flux and apply_flux over faces, update over cells.
        let bind = |l, a: &AccessInfo| match (l, a.region == self.cells) {
            (_, false) => (PartId(1), None),
            (2, true) => (PartId(2), None),
            (_, true) => (PartId(0), Some(PlannedReduce::BufferedPrivate { private: PartId(3) })),
        };
        let iters = [PartId(1), PartId(1), PartId(2)];
        let plan = ParallelPlan::from_bindings(&self.program, &self.fns, &exts, &iters, bind);
        (plan.expect("the MiniAero program is parallelizable"), exts)
    }
}

/// Figure 14c: Manual vs Auto weak scaling, plus the ablation with the
/// Section 5.1 relaxation off (buffered flux reductions); the mesh grows
/// in z.
pub fn fig14c_series(nx: u64, ny: u64, nz_per_node: u64, nodes_list: &[usize]) -> Vec<ScaleSeries> {
    weak_scaling(nodes_list, |n| {
        let app = MiniAero::generate(&MiniAeroParams { nx, ny, nz: nz_per_node * n as u64 });
        let machine = MachineModel::gpu_cluster(n);
        let (manual, exts) = app.manual_plan(n);
        let manual_parts = manual.evaluate(&app.store, &app.fns, n, &exts);
        let auto_line = |label, relax| {
            let schema = app.store.schema();
            let opts = Options { relax, ..Options::default() };
            let plan = auto_parallelize(&app.program, &app.fns, schema, &Hints::new(), opts)
                .expect("MiniAero auto-parallelizes");
            let parts = plan.evaluate(&app.store, &app.fns, n, &ExtBindings::new());
            (label, plan, parts, machine)
        };
        let lines = vec![
            ("Manual", manual, manual_parts, machine),
            auto_line("Auto", RelaxPolicy::Auto),
            auto_line("Auto(no-relax)", RelaxPolicy::Off),
        ];
        Instance {
            items: app.n_cells as f64,
            weights: vec![12.0, 4.0, 4.0],
            lines,
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
    fn relaxation_applies_to_flux_reductions() {
        let app = MiniAero::generate(&MiniAeroParams { nx: 4, ny: 4, nz: 4 });
        let plan = app.auto_plan();
        assert!(plan.loops[1].relaxed, "apply_flux is relaxed");
        let guarded = plan.loops[1]
            .accesses
            .iter()
            .filter(|a| matches!(a.reduce, Some(PlannedReduce::Guarded)))
            .count();
        assert_eq!(guarded, 2, "both cell reductions guarded");
        // No buffered reductions anywhere: buffers eliminated completely.
        for lp in &plan.loops {
            for a in &lp.accesses {
                assert!(!matches!(
                    a.reduce,
                    Some(PlannedReduce::Buffered) | Some(PlannedReduce::BufferedPrivate { .. })
                ));
            }
        }
    }

    #[test]
    fn miniaero_parallel_matches_sequential() {
        let app = MiniAero::generate(&MiniAeroParams { nx: 6, ny: 5, nz: 4 });
        let mut seq = app.store.clone();
        for _ in 0..3 {
            partir_ir::interp::run_program_seq(&app.program, &mut seq, &app.fns);
        }
        let plan = app.auto_plan();
        let parts = plan.evaluate(&app.store, &app.fns, 5, &ExtBindings::new());
        let mut par = app.store.clone();
        let mut buffer_bytes = 0u64;
        let mut guard_hits = 0u64;
        for _ in 0..3 {
            let r = execute_ranks(
                &app.program,
                &plan,
                &parts,
                Layout::InPlace { workers: 4 },
                &mut par,
                &app.fns,
                &DistOptions::default(),
            )
            .expect("parallel miniaero")
            .report;
            buffer_bytes += r.buffer_bytes;
            guard_hits += r.guard_hits;
        }
        assert_eq!(seq.f64s(app.q), par.f64s(app.q));
        assert_eq!(seq.f64s(app.flux), par.f64s(app.flux));
        assert_eq!(buffer_bytes, 0, "no reduction buffers");
        assert!(guard_hits > 0);
    }

    #[test]
    fn fig14c_auto_within_a_few_percent_of_manual() {
        let series = fig14c_series(16, 16, 16, &[1, 4, 16]);
        let (manual, auto_) = (&series[0], &series[1]);
        let m = manual.at(16).unwrap();
        let a = auto_.at(16).unwrap();
        // Paper: both ~98% efficient, auto ~2% slower on average.
        assert!(a > 0.80 * m, "gap should be small: auto {a} vs manual {m}");
    }
}
