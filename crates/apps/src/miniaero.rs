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

use crate::sim::{MachineModel, SimAccess, SimKind, SimLoop, SimSpec};
use crate::support::{sim_spec_from_plan, weak_scaling, LoopWeights, ScaleSeries};
use partir_core::eval::ExtBindings;
use partir_core::optimize::RelaxPolicy;
use partir_core::pipeline::{auto_parallelize, Hints, Options, ParallelPlan};
use partir_dpl::func::{FnId, FnTable};
use partir_dpl::index_set::IndexSet;
use partir_dpl::ops::equal;
use partir_dpl::partition::Partition;
use partir_dpl::region::{FieldId, FieldKind, RegionId, Schema, Store};
use partir_ir::ast::{Loop, LoopBuilder, ReduceOp, VExpr};
use std::collections::HashMap;

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

    /// The hand-optimized strategy (Section 6.3): the mesh generator
    /// duplicates boundary faces so each node's faces and cells are
    /// contiguous blocks; flux reductions become node-local (direct), with
    /// one consolidated ghost-cell exchange per neighbor.
    pub fn manual_sim_spec(&self, nodes: usize) -> SimSpec {
        let n = self.n_cells;
        let cell_block = equal(self.cells, n, nodes);
        // Faces of each node: the three axis groups restricted to the
        // node's cells — contiguous in each group (3 runs).
        let face_part = Partition::new(
            self.faces,
            cell_block
                .subregions()
                .iter()
                .map(|s| {
                    let mut acc = IndexSet::new();
                    for axis in 0..3u64 {
                        for &(lo, hi) in s.runs() {
                            acc = acc.union(&IndexSet::from_range(axis * n + lo, axis * n + hi));
                        }
                    }
                    acc
                })
                .collect(),
        );
        // Ghost cells: the +z face of the last plane crosses the block
        // boundary; model one plane per side, consolidated.
        let plane = (self.nx * self.ny).min(n);
        let ghost = Partition::new(
            self.cells,
            cell_block
                .subregions()
                .iter()
                .map(|s| {
                    let hi = s.max().unwrap_or(0);
                    let start = (hi + 1) % n;
                    let end = (start + plane).min(n);
                    let wrapped = if start + plane > n { (start + plane) % n } else { 0 };
                    s.union(&IndexSet::from_range(start, end))
                        .union(&IndexSet::from_range(0, wrapped))
                })
                .collect(),
        );
        let mut region_sizes = HashMap::new();
        region_sizes.insert(self.cells, n);
        region_sizes.insert(self.faces, self.n_faces);
        SimSpec {
            loops: vec![
                SimLoop {
                    name: "compute_flux".into(),
                    iter: face_part.clone(),
                    work_per_iter: 12.0,
                    accesses: vec![
                        SimAccess {
                            region: self.faces,
                            part: face_part.clone(),
                            kind: SimKind::Read,
                            bytes_per_elem: 16.0,
                            group: None,
                            expr_weight: 1.0,
                        },
                        SimAccess {
                            region: self.cells,
                            part: ghost.clone(),
                            kind: SimKind::Read,
                            bytes_per_elem: 8.0,
                            group: Some(1),
                            expr_weight: 1.0,
                        },
                        SimAccess {
                            region: self.faces,
                            part: face_part.clone(),
                            kind: SimKind::Write,
                            bytes_per_elem: 8.0,
                            group: None,
                            expr_weight: 1.0,
                        },
                    ],
                },
                SimLoop {
                    name: "apply_flux".into(),
                    iter: face_part.clone(),
                    work_per_iter: 4.0,
                    accesses: vec![
                        SimAccess {
                            region: self.faces,
                            part: face_part,
                            kind: SimKind::Read,
                            bytes_per_elem: 8.0,
                            group: None,
                            expr_weight: 1.0,
                        },
                        // Duplicated boundary faces make the reduction
                        // node-local up to one ghost plane merged back.
                        SimAccess {
                            region: self.cells,
                            part: ghost,
                            kind: SimKind::ReduceDirect,
                            bytes_per_elem: 8.0,
                            group: Some(2),
                            expr_weight: 1.0,
                        },
                    ],
                },
                SimLoop {
                    name: "update".into(),
                    iter: cell_block.clone(),
                    work_per_iter: 4.0,
                    accesses: vec![SimAccess {
                        region: self.cells,
                        part: cell_block,
                        kind: SimKind::Write,
                        bytes_per_elem: 16.0,
                        group: None,
                        expr_weight: 1.0,
                    }],
                },
            ],
            region_sizes,
            initial_home: HashMap::new(),
        }
    }
}

/// Figure 14c: Manual vs Auto weak scaling, plus the ablation with the
/// Section 5.1 relaxation off (buffered flux reductions); the mesh grows
/// in z.
pub fn fig14c_series(nx: u64, ny: u64, nz_per_node: u64, nodes_list: &[usize]) -> Vec<ScaleSeries> {
    weak_scaling(nodes_list, |n| {
        let app = MiniAero::generate(&MiniAeroParams { nx, ny, nz: nz_per_node * n as u64 });
        let auto_spec = |relax| {
            let plan = auto_parallelize(
                &app.program,
                &app.fns,
                app.store.schema(),
                &Hints::new(),
                Options { relax, ..Options::default() },
            )
            .expect("MiniAero auto-parallelizes");
            let parts = plan.evaluate(&app.store, &app.fns, n, &ExtBindings::new());
            let weights = LoopWeights(vec![12.0, 4.0, 4.0]);
            sim_spec_from_plan(&app.program, &plan, &parts, &app.store, &weights)
        };
        let specs = vec![
            ("Manual", app.manual_sim_spec(n)),
            ("Auto", auto_spec(RelaxPolicy::Auto)),
            ("Auto(no-relax)", auto_spec(RelaxPolicy::Off)),
        ];
        (app.n_cells as f64, MachineModel::gpu_cluster(n), specs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_core::pipeline::PlannedReduce;
    use partir_runtime::exec::{execute_program, ExecOptions};

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
            let r = execute_program(
                &app.program,
                &plan,
                &parts,
                &mut par,
                &app.fns,
                &ExecOptions { n_threads: 4, check_legality: true, ..ExecOptions::default() },
            )
            .expect("parallel miniaero");
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
