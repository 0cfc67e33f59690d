//! PENNANT (Section 6.5 / Figure 14e).
//!
//! A proxy for Lagrangian hydrodynamics on a 2D quadrilateral mesh: each
//! zone consists of four sides; each side carries five pointers — previous
//! and next side in the same zone (`mapss3`/`mapss4`), the zone (`mapsz`),
//! and the two endpoint points (`mapsp1`/`mapsp2`) — exactly the access
//! structure the paper describes.
//!
//! The mesh generator mirrors PENNANT's: the mesh is split into vertical
//! *pieces*; points shared between pieces live in the *initial entries* of
//! the point region. That layout makes the unhinted Auto configuration
//! collapse beyond a few nodes (all shared points land in the first `equal`
//! subregion). The paper evaluates four configurations:
//!
//! * **Auto** — no hints; drops off after 4 nodes;
//! * **Auto+Hint1** — an external constraint describing the point
//!   partitioning; matches Manual up to ~32 nodes, then struggles because
//!   the solver-derived partitions are deeply-derived/fragmented (runtime
//!   metadata);
//! * **Auto+Hint2** — additionally reuses the generator's side and zone
//!   partitions (including the *recursive* side-neighbor constraints) and
//!   provides the private-point partition as a private sub-partition; no
//!   noticeable difference from Manual;
//! * **Manual** — the hand-optimized strategy.

use crate::sim::MachineModel;
use crate::support::{weak_scaling, Instance, ScaleSeries};
use partir_core::eval::ExtBindings;
use partir_core::lang::{FnRef, PExpr};
use partir_core::pipeline::{
    auto_parallelize, Hints, Options, ParallelPlan, PartId, PlannedReduce,
};
use partir_dpl::func::{FnId, FnTable};
use partir_dpl::index_set::IndexSet;
use partir_dpl::partition::Partition;
use partir_dpl::region::{FieldId, FieldKind, RegionId, Schema, Store};
use partir_ir::analysis::AccessInfo;
use partir_ir::ast::{Loop, LoopBuilder, ReduceOp, VExpr};
use std::collections::HashMap;

/// Which hint set to use (the four Figure 14e configurations).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PennantConfig {
    Auto,
    Hint1,
    Hint2,
}

/// A generated PENNANT instance.
pub struct Pennant {
    pub store: Store,
    pub fns: FnTable,
    pub program: Vec<Loop>,
    pub rz: RegionId,
    pub rs: RegionId,
    pub rp: RegionId,
    pub px: FieldId,
    pub pf: FieldId,
    pub vol: FieldId,
    pub f_mapsz: FnId,
    pub f_mapsp1: FnId,
    pub f_mapsp2: FnId,
    pub f_mapss3: FnId,
    pub f_mapss4: FnId,
    pub n_zones: u64,
    pub n_sides: u64,
    pub n_points: u64,
    pub pieces: usize,
    /// Per-piece index sets computed by the generator.
    piece_zones: Vec<IndexSet>,
    piece_sides: Vec<IndexSet>,
    piece_points_owned: Vec<IndexSet>,
    piece_points_private: Vec<IndexSet>,
    piece_points_access: Vec<IndexSet>,
}

pub struct PennantParams {
    pub pieces: usize,
    /// Zones per piece in x.
    pub zw: u64,
    /// Zones in y.
    pub zy: u64,
}

impl Default for PennantParams {
    fn default() -> Self {
        PennantParams { pieces: 4, zw: 8, zy: 8 }
    }
}

impl Pennant {
    pub fn generate(p: &PennantParams) -> Self {
        let zx = p.pieces as u64 * p.zw;
        let n_zones = zx * p.zy;
        let n_sides = 4 * n_zones;
        let py = p.zy + 1;
        let n_points = (zx + 1) * py;

        // ---- Point numbering: shared (internal piece-boundary) columns
        // first, ordered by column then row; then private points
        // piece-major. ----
        let is_shared_col = |c: u64| -> bool { c.is_multiple_of(p.zw) && c != 0 && c != zx };
        let mut point_id = vec![u64::MAX; n_points as usize];
        let flat = |c: u64, r: u64| -> usize { (c * py + r) as usize };
        let mut next = 0u64;
        let mut shared_count = 0u64;
        for c in 0..=zx {
            if is_shared_col(c) {
                for r in 0..py {
                    point_id[flat(c, r)] = next;
                    next += 1;
                }
                shared_count += py;
            }
        }
        // Private points, piece-major: piece k owns columns
        // [k·zw .. (k+1)·zw] minus internal boundary columns it doesn't own
        // (a shared column belongs to the piece on its right).
        let col_piece = |c: u64| -> usize {
            if c == zx {
                p.pieces - 1
            } else {
                (c / p.zw) as usize
            }
        };
        for k in 0..p.pieces {
            for c in 0..=zx {
                if col_piece(c) == k && !is_shared_col(c) {
                    for r in 0..py {
                        point_id[flat(c, r)] = next;
                        next += 1;
                    }
                }
            }
        }
        assert_eq!(next, n_points);

        // ---- Regions and fields. ----
        let mut schema = Schema::new();
        let rz = schema.add_region("rz", n_zones);
        let rs = schema.add_region("rs", n_sides);
        let rp = schema.add_region("rp", n_points);
        let vol = schema.add_field(rz, "vol", FieldKind::F64);
        let energy = schema.add_field(rz, "energy", FieldKind::F64);
        let px = schema.add_field(rp, "px", FieldKind::F64);
        let pf = schema.add_field(rp, "pf", FieldKind::F64);
        let len = schema.add_field(rs, "len", FieldKind::F64);
        let area = schema.add_field(rs, "area", FieldKind::F64);
        let mapsz = schema.add_field(rs, "mapsz", FieldKind::Ptr(rz));
        let mapsp1 = schema.add_field(rs, "mapsp1", FieldKind::Ptr(rp));
        let mapsp2 = schema.add_field(rs, "mapsp2", FieldKind::Ptr(rp));
        let mapss3 = schema.add_field(rs, "mapss3", FieldKind::Ptr(rs));
        let mapss4 = schema.add_field(rs, "mapss4", FieldKind::Ptr(rs));
        let mut fns = FnTable::new();
        let f_mapsz = fns.add_ptr_field("rs[.].mapsz", rs, rz, mapsz);
        let f_mapsp1 = fns.add_ptr_field("rs[.].mapsp1", rs, rp, mapsp1);
        let f_mapsp2 = fns.add_ptr_field("rs[.].mapsp2", rs, rp, mapsp2);
        let f_mapss3 = fns.add_ptr_field("rs[.].mapss3", rs, rs, mapss3);
        let f_mapss4 = fns.add_ptr_field("rs[.].mapss4", rs, rs, mapss4);

        let mut store = Store::new(schema);

        // ---- Zones and sides, piece-major. ----
        // Zone ordering: piece-major, then column-major within the piece.
        let mut piece_zones = vec![Vec::new(); p.pieces];
        let mut zone_of = HashMap::new();
        let mut z_next = 0u64;
        for (k, zones) in piece_zones.iter_mut().enumerate() {
            for lc in 0..p.zw {
                let c = k as u64 * p.zw + lc;
                for r in 0..p.zy {
                    zone_of.insert((c, r), z_next);
                    zones.push(z_next);
                    z_next += 1;
                }
            }
        }
        for k in 0..p.pieces {
            for lc in 0..p.zw {
                let c = k as u64 * p.zw + lc;
                for r in 0..p.zy {
                    let z = zone_of[&(c, r)];
                    // Corners counter-clockwise.
                    let corners = [
                        point_id[flat(c, r)],
                        point_id[flat(c + 1, r)],
                        point_id[flat(c + 1, r + 1)],
                        point_id[flat(c, r + 1)],
                    ];
                    for side in 0..4u64 {
                        let s = 4 * z + side;
                        store.ptrs_mut(mapsz)[s as usize] = z;
                        store.ptrs_mut(mapsp1)[s as usize] = corners[side as usize];
                        store.ptrs_mut(mapsp2)[s as usize] = corners[((side + 1) % 4) as usize];
                        store.ptrs_mut(mapss3)[s as usize] = 4 * z + (side + 3) % 4;
                        store.ptrs_mut(mapss4)[s as usize] = 4 * z + (side + 1) % 4;
                    }
                }
            }
        }
        for (i, v) in store.f64s_mut(px).iter_mut().enumerate() {
            *v = 1.0 + (i % 11) as f64;
        }

        // ---- Per-piece index sets. ----
        let piece_zone_sets: Vec<IndexSet> =
            piece_zones.iter().map(|zs| IndexSet::from_indices(zs.iter().copied())).collect();
        let piece_side_sets: Vec<IndexSet> = piece_zones
            .iter()
            .map(|zs| IndexSet::from_indices(zs.iter().flat_map(|&z| (4 * z)..(4 * z + 4))))
            .collect();
        let mut piece_points_owned = Vec::new();
        let mut piece_points_private = Vec::new();
        let mut piece_points_access = Vec::new();
        for k in 0..p.pieces {
            let mut owned = Vec::new();
            let mut private = Vec::new();
            for c in 0..=zx {
                if col_piece(c) == k || (is_shared_col(c) && col_piece(c) == k) {
                    for r in 0..py {
                        let id = point_id[flat(c, r)];
                        owned.push(id);
                        if !is_shared_col(c) {
                            private.push(id);
                        }
                    }
                }
            }
            // Access = all corners of the piece's zones.
            let mut access = Vec::new();
            for lc in 0..p.zw {
                let c = k as u64 * p.zw + lc;
                for r in 0..p.zy {
                    for (dc, dr) in [(0, 0), (1, 0), (1, 1), (0, 1)] {
                        access.push(point_id[flat(c + dc, r + dr)]);
                    }
                }
            }
            piece_points_owned.push(IndexSet::from_indices(owned));
            piece_points_private.push(IndexSet::from_indices(private));
            piece_points_access.push(IndexSet::from_indices(access));
        }
        let _ = shared_count;

        let fields = PennantFields {
            rz,
            rs,
            rp,
            vol,
            energy,
            px,
            pf,
            len,
            area,
            mapsz,
            mapsp1,
            mapsp2,
            mapss3,
            f_mapsz,
            f_mapsp1,
            f_mapsp2,
            f_mapss3,
            f_mapss4,
        };
        let program = Self::build_loops(&fields);

        Pennant {
            store,
            fns,
            program,
            rz,
            rs,
            rp,
            px,
            pf,
            vol,
            f_mapsz,
            f_mapsp1,
            f_mapsp2,
            f_mapss3,
            f_mapss4,
            n_zones,
            n_sides,
            n_points,
            pieces: p.pieces,
            piece_zones: piece_zone_sets,
            piece_sides: piece_side_sets,
            piece_points_owned,
            piece_points_private,
            piece_points_access,
        }
    }

    fn build_loops(f: &PennantFields) -> Vec<Loop> {
        // Loop 1 (calc_lengths): side length from its two endpoints.
        let mut b = LoopBuilder::new("calc_lengths", f.rs);
        let s = b.loop_var();
        let p1 = b.idx_read(f.rs, f.mapsp1, s, f.f_mapsp1);
        let x1 = b.val_read(f.rp, f.px, p1);
        let p2 = b.idx_read(f.rs, f.mapsp2, s, f.f_mapsp2);
        let x2 = b.val_read(f.rp, f.px, p2);
        b.val_write(
            f.rs,
            f.len,
            s,
            VExpr::Un(
                partir_ir::ast::UnOp::Abs,
                Box::new(VExpr::sub(VExpr::var(x2), VExpr::var(x1))),
            ),
        );
        let l1 = b.finish();

        // Loop 2 (calc_zone_vol): side area from neighbor-side lengths
        // (uncentered read of rs via mapss3), accumulated into the zone
        // volume (uncentered reduction via mapsz).
        let mut b = LoopBuilder::new("calc_zone_vol", f.rs);
        let s = b.loop_var();
        let own = b.val_read(f.rs, f.len, s);
        let prev = b.idx_read(f.rs, f.mapss3, s, f.f_mapss3);
        let lp = b.val_read(f.rs, f.len, prev);
        let a = VExpr::mul(VExpr::Const(0.5), VExpr::mul(VExpr::var(own), VExpr::var(lp)));
        b.val_write(f.rs, f.area, s, a.clone());
        let z = b.idx_read(f.rs, f.mapsz, s, f.f_mapsz);
        b.val_reduce(f.rz, f.vol, z, ReduceOp::Add, a);
        let l2 = b.finish();

        // Loop 3 (point_force): corner forces scattered to both endpoint
        // points — two uncentered reductions through different pointer
        // fields.
        let mut b = LoopBuilder::new("point_force", f.rs);
        let s = b.loop_var();
        let av = b.val_read(f.rs, f.area, s);
        let force = VExpr::mul(VExpr::Const(0.25), VExpr::var(av));
        let p1 = b.idx_read(f.rs, f.mapsp1, s, f.f_mapsp1);
        b.val_reduce(f.rp, f.pf, p1, ReduceOp::Add, force.clone());
        let p2 = b.idx_read(f.rs, f.mapsp2, s, f.f_mapsp2);
        b.val_reduce(
            f.rp,
            f.pf,
            p2,
            ReduceOp::Add,
            VExpr::Un(partir_ir::ast::UnOp::Neg, Box::new(force)),
        );
        let l3 = b.finish();

        // Loop 4 (update_points): advance positions, reset forces.
        let mut b = LoopBuilder::new("update_points", f.rp);
        let p = b.loop_var();
        let xv = b.val_read(f.rp, f.px, p);
        let fv = b.val_read(f.rp, f.pf, p);
        b.val_write(
            f.rp,
            f.px,
            p,
            VExpr::add(VExpr::var(xv), VExpr::mul(VExpr::Const(0.0625), VExpr::var(fv))),
        );
        b.val_write(f.rp, f.pf, p, VExpr::Const(0.0));
        let l4 = b.finish();

        // Loop 5 (update_zones): accumulate energy, reset volumes.
        let mut b = LoopBuilder::new("update_zones", f.rz);
        let z = b.loop_var();
        let vv = b.val_read(f.rz, f.vol, z);
        let ev = b.val_read(f.rz, f.energy, z);
        b.val_write(
            f.rz,
            f.energy,
            z,
            VExpr::add(VExpr::var(ev), VExpr::mul(VExpr::Const(0.5), VExpr::var(vv))),
        );
        b.val_write(f.rz, f.vol, z, VExpr::Const(0.0));
        let l5 = b.finish();

        vec![l1, l2, l3, l4, l5]
    }

    pub fn items(&self) -> f64 {
        self.n_zones as f64
    }

    /// Piece-aligned partitions as `Partition`s.
    pub fn piece_parts(&self) -> PieceParts {
        PieceParts {
            zones: Partition::new(self.rz, self.piece_zones.clone()),
            sides: Partition::new(self.rs, self.piece_sides.clone()),
            points_owned: Partition::new(self.rp, self.piece_points_owned.clone()),
            points_private: Partition::new(self.rp, self.piece_points_private.clone()),
            points_access: Partition::new(self.rp, self.piece_points_access.clone()),
        }
    }

    /// The hints and external bindings of one of the three auto
    /// configurations, for callers that drive the pipeline themselves
    /// (e.g. through the `partir::Partir` builder).
    pub fn hint_setup(&self, config: PennantConfig) -> (Hints, ExtBindings) {
        let parts = self.piece_parts();
        let mut hints = Hints::new();
        let mut exts = ExtBindings::new();
        match config {
            PennantConfig::Auto => {}
            PennantConfig::Hint1 => {
                // Hint 1 (Section 6.5): "an external constraint describing
                // the partitioning of points" — only the generator's point
                // partition. This fixes the shared-points-first data
                // placement (the point loops and homes align with the
                // pieces), but every side/zone/point-access partition is
                // still *derived* by the solver from equal side partitions;
                // the resulting DPL is deeper and the runtime pays for it
                // at scale, as the paper reports beyond 32–64 nodes.
                let pp_own = hints.external("pp", self.rp);
                exts.push(parts.points_owned.clone());
                hints.fact_disj(PExpr::ext(pp_own));
                hints.fact_comp(PExpr::ext(pp_own), self.rp);
            }
            PennantConfig::Hint2 => {
                // Hint 2 reuses the generator's side partition with the
                // image facts for the point maps...
                let rs_p = hints.external("rs_p", self.rs);
                let pp_acc = hints.external("pp_acc", self.rp);
                exts.push(parts.sides.clone());
                exts.push(parts.points_access.clone());
                hints.fact_disj(PExpr::ext(rs_p));
                hints.fact_comp(PExpr::ext(rs_p), self.rs);
                // The access partition covers every point (each point is a
                // corner of some zone), so it can serve as an (aliased)
                // iteration partition for the point-update loop.
                hints.fact_comp(PExpr::ext(pp_acc), self.rp);
                hints.fact_subset(
                    PExpr::image(PExpr::ext(rs_p), FnRef::Fn(self.f_mapsp1), self.rp),
                    PExpr::ext(pp_acc),
                );
                hints.fact_subset(
                    PExpr::image(PExpr::ext(rs_p), FnRef::Fn(self.f_mapsp2), self.rp),
                    PExpr::ext(pp_acc),
                );
                // ...plus the zone partition, the recursive side-neighbor
                // invariants, and the private-point sub-partition.
                let rz_p = hints.external("rz_p", self.rz);
                let rp_p_private = hints.external("rp_p_private", self.rp);
                exts.push(parts.zones.clone());
                exts.push(parts.points_private.clone());
                hints.fact_disj(PExpr::ext(rz_p));
                hints.fact_comp(PExpr::ext(rz_p), self.rz);
                hints.fact_subset(
                    PExpr::image(PExpr::ext(rs_p), FnRef::Fn(self.f_mapsz), self.rz),
                    PExpr::ext(rz_p),
                );
                hints.fact_subset(
                    PExpr::image(PExpr::ext(rs_p), FnRef::Fn(self.f_mapss3), self.rs),
                    PExpr::ext(rs_p),
                );
                hints.fact_subset(
                    PExpr::image(PExpr::ext(rs_p), FnRef::Fn(self.f_mapss4), self.rs),
                    PExpr::ext(rs_p),
                );
                hints.fact_disj(PExpr::ext(rp_p_private));
                hints.fact_subset(
                    PExpr::preimage(self.rs, FnRef::Fn(self.f_mapsp1), PExpr::ext(rp_p_private)),
                    PExpr::ext(rs_p),
                );
                hints.private_sub(self.rp, PExpr::ext(rp_p_private));
            }
        }
        (hints, exts)
    }

    /// Builds the plan for one of the three auto configurations; returns
    /// the plan and the external bindings matching the hint declarations.
    pub fn plan(&self, config: PennantConfig) -> (ParallelPlan, ExtBindings) {
        let (hints, exts) = self.hint_setup(config);
        let plan = auto_parallelize(
            &self.program,
            &self.fns,
            self.store.schema(),
            &hints,
            Options::default(),
        )
        .expect("PENNANT auto-parallelizes");
        (plan, exts)
    }

    /// The hand-optimized strategy as a plan: Hint2's bindings — piece
    /// partitions of sides and zones, the ghosted point access partition,
    /// point reductions buffered over the boundary points only (the
    /// private points reduce in place) — with the points each piece owns
    /// as `update_points`' iteration and access partition. Partitions:
    /// `[sides, points_access, zones, points_private, points_owned]`.
    pub fn manual_plan(&self, nodes: usize) -> (ParallelPlan, ExtBindings) {
        assert_eq!(nodes, self.pieces, "one piece per node");
        let p = self.piece_parts();
        let mut exts = ExtBindings::new();
        for part in [p.sides, p.points_access, p.zones, p.points_private, p.points_owned] {
            exts.push(part);
        }
        // Loops: calc_lengths, calc_zone_vol and point_force over sides,
        // update_points over points, update_zones over zones.
        let private = Some(PlannedReduce::BufferedPrivate { private: PartId(3) });
        let bind = |l, a: &AccessInfo| match a.region {
            r if r == self.rs => (PartId(0), None),
            r if r == self.rz => (PartId(2), None),
            _ if l == 3 => (PartId(4), None),
            _ => (PartId(1), private.clone()),
        };
        let iters = [PartId(0), PartId(0), PartId(0), PartId(4), PartId(2)];
        let plan = ParallelPlan::from_bindings(&self.program, &self.fns, &exts, &iters, bind);
        (plan.expect("the PENNANT program is parallelizable"), exts)
    }
}

/// Field/function handles bundled for loop construction.
struct PennantFields {
    rz: RegionId,
    rs: RegionId,
    rp: RegionId,
    vol: FieldId,
    energy: FieldId,
    px: FieldId,
    pf: FieldId,
    len: FieldId,
    area: FieldId,
    mapsz: FieldId,
    mapsp1: FieldId,
    mapsp2: FieldId,
    mapss3: FieldId,
    f_mapsz: FnId,
    f_mapsp1: FnId,
    f_mapsp2: FnId,
    f_mapss3: FnId,
    #[allow(dead_code)]
    f_mapss4: FnId,
}

/// The generator's piece-aligned partitions.
pub struct PieceParts {
    pub zones: Partition,
    pub sides: Partition,
    pub points_owned: Partition,
    pub points_private: Partition,
    pub points_access: Partition,
}

/// Figure 14e: Manual vs Auto+Hint2 vs Auto+Hint1 vs Auto (pieces = nodes).
pub fn fig14e_series(zw: u64, zy: u64, nodes_list: &[usize]) -> Vec<ScaleSeries> {
    weak_scaling(nodes_list, |n| {
        let app = Pennant::generate(&PennantParams { pieces: n, zw, zy });
        let machine = MachineModel::gpu_cluster(n);
        let line = |label, (plan, exts): (ParallelPlan, ExtBindings)| {
            let parts = plan.evaluate(&app.store, &app.fns, n, &exts);
            (label, plan, parts, machine)
        };
        let lines = vec![
            line("Manual", app.manual_plan(n)),
            line("Auto+Hint2", app.plan(PennantConfig::Hint2)),
            line("Auto+Hint1", app.plan(PennantConfig::Hint1)),
            line("Auto", app.plan(PennantConfig::Auto)),
        ];
        Instance {
            items: app.items(),
            weights: vec![6.0, 8.0, 8.0, 4.0, 4.0],
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

    fn small() -> Pennant {
        Pennant::generate(&PennantParams { pieces: 4, zw: 4, zy: 5 })
    }

    #[test]
    fn generator_invariants() {
        let app = small();
        assert_eq!(app.n_zones, 4 * 4 * 5);
        assert_eq!(app.n_sides, 4 * app.n_zones);
        let parts = app.piece_parts();
        assert!(parts.zones.is_disjoint() && parts.zones.is_complete(app.n_zones));
        assert!(parts.sides.is_disjoint() && parts.sides.is_complete(app.n_sides));
        assert!(parts.points_owned.is_disjoint());
        assert!(parts.points_owned.is_complete(app.n_points));
        assert!(parts.points_private.is_disjoint());
        assert!(parts.points_private.subset_of(&parts.points_access));
        // The hint facts hold on the real mesh.
        let img1 = partir_dpl::ops::image(&app.store, &app.fns, &parts.sides, app.f_mapsp1, app.rp);
        assert!(img1.subset_of(&parts.points_access));
        let img_ss3 =
            partir_dpl::ops::image(&app.store, &app.fns, &parts.sides, app.f_mapss3, app.rs);
        assert!(img_ss3.subset_of(&parts.sides), "sides are neighbor-closed");
        let img_z = partir_dpl::ops::image(&app.store, &app.fns, &parts.sides, app.f_mapsz, app.rz);
        assert!(img_z.subset_of(&parts.zones));
    }

    fn run_both(
        app: &Pennant,
        config: PennantConfig,
        colors: usize,
    ) -> partir_runtime::dist::DistReport {
        let mut seq = app.store.clone();
        for _ in 0..2 {
            partir_ir::interp::run_program_seq(&app.program, &mut seq, &app.fns);
        }
        let (plan, exts) = app.plan(config);
        let parts = plan.evaluate(&app.store, &app.fns, colors, &exts);
        let mut par = app.store.clone();
        let mut report = partir_runtime::dist::DistReport::default();
        for _ in 0..2 {
            let r = execute_ranks(
                &app.program,
                &plan,
                &parts,
                Layout::InPlace { workers: 4 },
                &mut par,
                &app.fns,
                &DistOptions::default(),
            )
            .expect("parallel pennant")
            .report;
            report.buffer_bytes += r.buffer_bytes;
            report.guard_hits += r.guard_hits;
        }
        assert_eq!(seq.f64s(app.px), par.f64s(app.px), "{config:?} positions diverged");
        assert_eq!(
            seq.f64s(partir_dpl::region::FieldId(1)),
            par.f64s(partir_dpl::region::FieldId(1)),
            "{config:?} energies diverged"
        );
        report
    }

    #[test]
    fn auto_parallel_matches_sequential() {
        let app = small();
        let report = run_both(&app, PennantConfig::Auto, 4);
        // Auto relaxes the side loops: guarded, no buffers.
        assert_eq!(report.buffer_bytes, 0);
        assert!(report.guard_hits > 0);
    }

    #[test]
    fn hint1_derives_hint2_reuses() {
        let app = small();
        let r1 = run_both(&app, PennantConfig::Hint1, 4);
        let r2 = run_both(&app, PennantConfig::Hint2, 4);
        // Both hint configurations buffer the point reductions over the
        // shared remainder only — Hint1 via the automatically synthesized
        // Theorem 5.1 private sub-partition, Hint2 via the user-provided
        // private points — so the buffer sizes agree (and are tiny).
        assert!(r1.buffer_bytes > 0, "Hint1 buffers point reductions");
        assert!(r2.buffer_bytes > 0, "Hint2 buffers point reductions");
        assert!(
            r2.buffer_bytes <= r1.buffer_bytes,
            "Hint2 never buffers more: {} vs {}",
            r2.buffer_bytes,
            r1.buffer_bytes
        );
        // The distinguishing feature (Section 6.5): Hint1's DPL is deeply
        // derived (preimage/image/difference chains); Hint2's is pure
        // partition reuse.
        let (p1, _) = app.plan(PennantConfig::Hint1);
        let (p2, _) = app.plan(PennantConfig::Hint2);
        let derived_ops = |p: &partir_core::pipeline::ParallelPlan| -> usize {
            p.partition_ids.iter().map(|&id| p.system.arena.weight(id) as usize - 1).sum()
        };
        assert!(derived_ops(&p1) > 0, "{}", p1.render_dpl(&app.fns));
        assert_eq!(
            derived_ops(&p2),
            0,
            "Hint2 synthesizes operator-free DPL:\n{}",
            p2.render_dpl(&app.fns)
        );
    }

    #[test]
    fn hint2_uses_externals_for_sides_and_zones() {
        let app = small();
        let (plan, _) = app.plan(PennantConfig::Hint2);
        let dpl = plan.render_dpl(&app.fns);
        assert!(dpl.contains("rs_p"), "{dpl}");
        assert!(dpl.contains("rz_p"), "{dpl}");
        // Point reductions are BufferedPrivate under Hint2.
        let has_private = plan.loops[2]
            .accesses
            .iter()
            .any(|a| matches!(a.reduce, Some(PlannedReduce::BufferedPrivate { .. })));
        assert!(has_private, "{dpl}");
    }

    #[test]
    fn fig14e_ordering() {
        let series = fig14e_series(16, 64, &[1, 4, 16]);
        let m = series[0].at(16).unwrap();
        let h2 = series[1].at(16).unwrap();
        let h1 = series[2].at(16).unwrap();
        let a = series[3].at(16).unwrap();
        assert!(h2 > 0.8 * m, "Hint2 tracks manual: {h2} vs {m}");
        assert!(a < h1, "Auto below Hint1: {a} vs {h1}");
        assert!(a < 0.7 * m, "Auto collapses: {a} vs {m}");
    }
}
