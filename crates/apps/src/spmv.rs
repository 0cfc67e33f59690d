//! SpMV microbenchmark (Figure 10 / Section 6.1).
//!
//! CSR sparse matrix–vector product `Y = Mat · X`. The paper's experiment
//! uses a diagonal (banded) matrix with a fixed number of non-zeros per
//! row, which makes the auto-partitioned code perfectly balanced — Figure
//! 14a reports 99% parallel efficiency at 256 nodes, Auto only (there is no
//! hand-optimized comparator for this microbenchmark).
//!
//! The loop exercises the generalized `IMAGE` operator (Section 4): the
//! inner loop's iteration space is the CSR row range, a set-valued function
//! of the outer index.

use crate::sim::{FailureModel, MachineModel};
use crate::support::{weak_scaling, Instance, ScaleSeries};
use partir_core::eval::ExtBindings;
use partir_core::pipeline::{auto_parallelize, Hints, Options, ParallelPlan};
use partir_dpl::func::{FnId, FnTable};
use partir_dpl::region::{FieldId, FieldKind, RegionId, Schema, Store};
use partir_ir::ast::{Loop, LoopBuilder, ReduceOp, VExpr};

/// A generated SpMV instance.
pub struct Spmv {
    pub store: Store,
    pub fns: FnTable,
    pub program: Vec<Loop>,
    pub y: RegionId,
    pub x: RegionId,
    pub mat: RegionId,
    pub yv: FieldId,
    pub xv: FieldId,
    pub nnz: u64,
    pub rows: u64,
}

/// Parameters: `rows`, band half-width `halo` (nnz/row = 2·halo+1), and an
/// optional `band_shift` displacing the band off the diagonal.
pub struct SpmvParams {
    pub rows: u64,
    pub halo: u64,
    /// Row `i` reads columns centered at `(i + band_shift) mod rows`
    /// instead of `i`, with periodic wrap. `0` keeps the paper's clipped
    /// on-diagonal band. A large shift (e.g. `rows/2`) models a renumbered
    /// matrix whose index order is misaligned with its communication
    /// structure: block placement then ships nearly every X read
    /// cross-rank, while cost-driven placement can co-locate each row
    /// block with the column block it actually reads.
    pub band_shift: u64,
}

impl Default for SpmvParams {
    fn default() -> Self {
        SpmvParams { rows: 10_000, halo: 2, band_shift: 0 }
    }
}

impl Spmv {
    /// Builds the banded matrix of the paper's experiment: row `i` has
    /// non-zeros in columns `i−halo ..= i+halo` (clipped), so every row
    /// has (almost) the same count and the matrix is block-local. With
    /// `band_shift > 0` the band is centered at `(i + shift) mod rows`
    /// (periodic, exactly `2·halo+1` nnz per row) — same work, scrambled
    /// locality.
    pub fn generate(p: &SpmvParams) -> Self {
        let rows = p.rows;
        let shift = if rows == 0 { 0 } else { p.band_shift % rows };
        // Count nnz first. Clipped [lo, hi) window for the on-diagonal
        // band; the shifted band instead enumerates the periodic window
        // `(i + shift − halo ..= i + shift + halo) mod rows`.
        let nnz_of = |i: u64| -> (u64, u64) {
            let lo = i.saturating_sub(p.halo);
            let hi = (i + p.halo + 1).min(rows);
            (lo, hi)
        };
        let nnz: u64 = if shift > 0 {
            rows * (2 * p.halo + 1).min(rows)
        } else {
            (0..rows)
                .map(|i| {
                    let (l, h) = nnz_of(i);
                    h - l
                })
                .sum()
        };

        let mut schema = Schema::new();
        let mat = schema.add_region("Mat", nnz);
        let x = schema.add_region("X", rows);
        let y = schema.add_region("Y", rows);
        let yv = schema.add_field(y, "val", FieldKind::F64);
        let range_f = schema.add_field(y, "range", FieldKind::Range(mat));
        let mval = schema.add_field(mat, "val", FieldKind::F64);
        let mind = schema.add_field(mat, "ind", FieldKind::Ptr(x));
        let xv = schema.add_field(x, "val", FieldKind::F64);

        let mut fns = FnTable::new();
        let ranges = fns.add_range_field("Ranges", y, mat, range_f);
        let ind = fns.add_ptr_field("Mat[.].ind", mat, x, mind);

        let mut store = Store::new(schema);
        let mut k = 0u64;
        for i in 0..rows {
            let start = k;
            if shift > 0 {
                let w = (2 * p.halo + 1).min(rows);
                let center = (i + shift) % rows;
                let first = (center + rows - p.halo.min(rows - 1)) % rows;
                for o in 0..w {
                    let j = (first + o) % rows;
                    store.ptrs_mut(mind)[k as usize] = j;
                    store.f64s_mut(mval)[k as usize] = 1.0 + ((i + j) % 5) as f64;
                    k += 1;
                }
            } else {
                let (lo, hi) = nnz_of(i);
                for j in lo..hi {
                    store.ptrs_mut(mind)[k as usize] = j;
                    store.f64s_mut(mval)[k as usize] = 1.0 + ((i + j) % 5) as f64;
                    k += 1;
                }
            }
            store.ranges_mut(range_f)[i as usize] = (start, k);
        }
        for (j, v) in store.f64s_mut(xv).iter_mut().enumerate() {
            *v = 1.0 + (j % 7) as f64;
        }

        let program = vec![Self::build_loop(y, mat, x, yv, range_f, mval, mind, xv, ranges, ind)];
        Spmv { store, fns, program, y, x, mat, yv, xv, nnz, rows }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_loop(
        y: RegionId,
        mat: RegionId,
        x: RegionId,
        yv: FieldId,
        _range_f: FieldId,
        mval: FieldId,
        mind: FieldId,
        xv: FieldId,
        ranges: FnId,
        ind: FnId,
    ) -> Loop {
        // for i in Y: for k in Ranges(i): Y[i] += Mat[k].val * X[Mat[k].ind]
        let mut b = LoopBuilder::new("spmv", y);
        let i = b.loop_var();
        let k = b.begin_for_each(ranges, i);
        let a = b.val_read(mat, mval, k);
        let col = b.idx_read(mat, mind, k, ind);
        let xval = b.val_read(x, xv, col);
        b.val_reduce(y, yv, i, ReduceOp::Add, VExpr::mul(VExpr::var(a), VExpr::var(xval)));
        b.end_for_each();
        b.finish()
    }

    /// Auto-parallelizes (no hints, as in the paper).
    pub fn auto_plan(&self) -> ParallelPlan {
        auto_parallelize(
            &self.program,
            &self.fns,
            self.store.schema(),
            &Hints::new(),
            Options::default(),
        )
        .expect("SpMV auto-parallelizes")
    }

    /// Reference sequential result.
    pub fn run_sequential(&self) -> Vec<f64> {
        let mut store = self.store.clone();
        partir_ir::interp::run_program_seq(&self.program, &mut store, &self.fns);
        store.f64s(self.yv).to_vec()
    }
}

/// Figure 14a: weak scaling of the Auto configuration, and the same
/// configuration priced under a node-failure model (checkpoint overhead +
/// expected recompute of lost subregions), showing how much of the
/// weak-scaling headroom failures consume at large node counts.
/// `rows_per_node` scales the matrix with node count (the paper used 0.4e9
/// nnz/node on real hardware; the simulator default is scaled down —
/// shapes, not magnitudes, are the target).
pub fn fig14a_series(rows_per_node: u64, nodes_list: &[usize]) -> Vec<ScaleSeries> {
    weak_scaling(nodes_list, |n| {
        let app = Spmv::generate(&SpmvParams {
            rows: rows_per_node * n as u64,
            halo: 2,
            ..SpmvParams::default()
        });
        let plan = app.auto_plan();
        let parts = plan.evaluate(&app.store, &app.fns, n, &ExtBindings::new());
        let machine = MachineModel::gpu_cluster(n);
        let faulty = machine.with_failure(FailureModel::commodity());
        Instance {
            items: app.nnz as f64,
            weights: vec![2.0 * (app.nnz as f64) / (app.rows as f64); app.program.len()],
            lines: vec![
                ("Auto", plan.clone(), parts.clone(), machine),
                ("Auto+faults", plan, parts, faulty),
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
    fn spmv_parallel_matches_sequential() {
        let app = Spmv::generate(&SpmvParams { rows: 500, halo: 2, ..SpmvParams::default() });
        let expected = app.run_sequential();
        let plan = app.auto_plan();
        let parts = plan.evaluate(&app.store, &app.fns, 4, &ExtBindings::new());
        let mut store = app.store.clone();
        execute_ranks(
            &app.program,
            &plan,
            &parts,
            Layout::InPlace { workers: 4 },
            &mut store,
            &app.fns,
            &DistOptions::default(),
        )
        .expect("parallel execution");
        assert_eq!(store.f64s(app.yv), &expected[..]);
    }

    #[test]
    fn shifted_band_matches_sequential_with_uniform_rows() {
        let app = Spmv::generate(&SpmvParams { rows: 512, halo: 2, band_shift: 256 });
        // Periodic band: exactly 2·halo+1 nnz per row, no edge clipping.
        assert_eq!(app.nnz, 512 * 5);
        let expected = app.run_sequential();
        let plan = app.auto_plan();
        let parts = plan.evaluate(&app.store, &app.fns, 4, &ExtBindings::new());
        let mut store = app.store.clone();
        execute_ranks(
            &app.program,
            &plan,
            &parts,
            Layout::InPlace { workers: 4 },
            &mut store,
            &app.fns,
            &DistOptions::default(),
        )
        .expect("shifted-band parallel execution");
        assert_eq!(store.f64s(app.yv), &expected[..]);
        // The shift really moved the band: row 0 must read around column 256.
        let mind = app.store.schema().field_by_name(app.mat, "ind").unwrap();
        let cols = app.store.ptrs(mind);
        assert!(cols[..5].iter().all(|&j| (254..=258).contains(&j)), "{:?}", &cols[..5]);
    }

    #[test]
    fn spmv_plan_uses_image_chain() {
        // Figure 10b: P1 = equal(Y); P2 = IMAGE-chain partitions of Mat/X.
        let app = Spmv::generate(&SpmvParams { rows: 100, halo: 1, ..SpmvParams::default() });
        let plan = app.auto_plan();
        let dpl = plan.render_dpl(&app.fns);
        assert!(dpl.contains("equal"), "{dpl}");
        assert!(dpl.contains("image"), "{dpl}");
    }

    #[test]
    fn fig14a_faults_overlay_costs_throughput() {
        let series = fig14a_series(20_000, &[1, 16]);
        let (plain, faulty) = (&series[0], &series[1]);
        assert_eq!(faulty.label, "Auto+faults");
        for (p, f) in plain.points.iter().zip(&faulty.points) {
            assert!(
                f.throughput_per_node < p.throughput_per_node,
                "failure model must cost throughput at {} nodes",
                p.nodes
            );
            assert!(f.sim.expected_iteration_time_s > f.sim.iteration_time_s);
            assert_eq!(f.sim.iteration_time_s, p.sim.iteration_time_s);
        }
    }

    #[test]
    fn fig14a_scales_nearly_flat() {
        let series = &fig14a_series(20_000, &[1, 4, 16])[0];
        // The banded matrix makes Auto essentially perfectly scalable
        // (99% efficiency in the paper; the simulator should stay >90%
        // even at modest per-node sizes).
        assert!(series.efficiency() > 0.90, "expected near-flat weak scaling, got {:?}", series);
    }
}
