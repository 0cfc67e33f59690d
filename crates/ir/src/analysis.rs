//! Syntactic parallelizability analysis (Section 2).
//!
//! A loop is parallelizable when values defined in one iteration are never
//! consumed by another. The paper characterizes this syntactically:
//!
//! * all write accesses are centered (index is the loop variable or an
//!   alias);
//! * a region with an uncentered reduction has no other read access and no
//!   reduction with a different operator (a centered reduction counts as a
//!   centered read followed by a centered write, so it is also excluded);
//! * a region with an uncentered read has no write access.
//!
//! The analysis also produces the per-access information Algorithm 1 needs:
//! for every access site, the *path* of function symbols through which its
//! index variable derives from the loop variable (empty path = centered).

use crate::ast::{AccessId, IVar, Loop, ReduceOp, Stmt, VExpr, VVar};
use partir_dpl::func::{FnDef, FnId, FnTable, MultiFn};
use partir_dpl::region::{FieldId, RegionId};
use std::collections::HashMap;
use std::fmt;

/// How an access site touches its region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    Read,
    Write,
    Reduce(ReduceOp),
}

impl AccessKind {
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
    pub fn is_reduce(self) -> bool {
        matches!(self, AccessKind::Reduce(_))
    }
}

/// One region access site with its derivation path from the loop variable.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessInfo {
    pub id: AccessId,
    pub region: RegionId,
    /// The field read or written; `None` for the header of a `ForEach` over
    /// a function no field backs (a single-valued one).
    pub field: Option<FieldId>,
    pub kind: AccessKind,
    /// Function symbols applied to the loop variable to form this access's
    /// index, outermost first; `[]` means the index *is* the loop variable.
    pub path: Vec<FnId>,
}

impl AccessInfo {
    /// Centered accesses index with the loop variable itself.
    pub fn is_centered(&self) -> bool {
        self.path.is_empty()
    }
}

/// The result of analyzing one parallelizable loop.
#[derive(Clone, Debug)]
pub struct LoopSummary {
    pub iter_region: RegionId,
    pub accesses: Vec<AccessInfo>,
    /// True when some reduction access is uncentered — this is what forces
    /// `DISJ` on the iteration-space partition (Algorithm 1, lines 16–17).
    pub has_uncentered_reduce: bool,
}

impl LoopSummary {
    pub fn access(&self, id: AccessId) -> &AccessInfo {
        &self.accesses[id.0 as usize]
    }

    /// All uncentered reduction accesses.
    pub fn uncentered_reduces(&self) -> impl Iterator<Item = &AccessInfo> {
        self.accesses.iter().filter(|a| a.kind.is_reduce() && !a.is_centered())
    }
}

/// Why a loop fails the syntactic parallelizability check.
#[derive(Clone, Debug, PartialEq)]
pub enum NotParallelizable {
    /// A write (or the write half of a reduction used as a write) whose
    /// index is not the loop variable.
    UncenteredWrite { access: AccessId, region: RegionId },
    /// A region with an uncentered reduction also has a read, write, or a
    /// reduction with a different operator.
    ConflictOnReducedRegion { region: RegionId, offending: AccessId },
    /// A region with an uncentered read also has a write or reduction.
    WriteOnUncenteredReadRegion { region: RegionId, offending: AccessId },
    /// An index variable used before its definition or outside the
    /// `ForEach` block that defines it (malformed IR).
    UndefinedIndexVar { var: IVar },
    /// A value variable read before its definition or outside the `ForEach`
    /// block that defines it (malformed IR).
    UndefinedValueVar { var: VVar },
}

impl fmt::Display for NotParallelizable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NotParallelizable::UncenteredWrite { access, region } => {
                write!(f, "uncentered write {access:?} to region {region:?}")
            }
            NotParallelizable::ConflictOnReducedRegion { region, offending } => write!(
                f,
                "region {region:?} has an uncentered reduction conflicting with access {offending:?}"
            ),
            NotParallelizable::WriteOnUncenteredReadRegion { region, offending } => write!(
                f,
                "region {region:?} is read uncentered but written by access {offending:?}"
            ),
            NotParallelizable::UndefinedIndexVar { var } => {
                write!(f, "index variable {var:?} used before definition or out of scope")
            }
            NotParallelizable::UndefinedValueVar { var } => {
                write!(f, "value variable {var:?} used before definition or out of scope")
            }
        }
    }
}

impl std::error::Error for NotParallelizable {}

/// Analyzes a loop: checks the syntactic parallelizability conditions and
/// returns per-access summaries (paths from the loop variable). A ForEach
/// header's read is recorded against its range function's domain, and its
/// field is the range field when the function is one.
pub fn analyze(lp: &Loop, fns: &FnTable) -> Result<LoopSummary, NotParallelizable> {
    let mut paths: HashMap<IVar, Vec<FnId>> = HashMap::new();
    paths.insert(lp.var, Vec::new());
    let mut accesses: Vec<AccessInfo> = Vec::new();

    collect(&lp.body, fns, &mut paths, &mut Vec::new(), &mut accesses)?;
    accesses.sort_by_key(|a| a.id);
    debug_assert!(accesses.iter().enumerate().all(|(i, a)| a.id.0 as usize == i));

    // Rule 1: all writes centered.
    for a in &accesses {
        if a.kind.is_write() && !a.is_centered() {
            return Err(NotParallelizable::UncenteredWrite { access: a.id, region: a.region });
        }
    }

    // Group per (region, field) for the exclusivity rules — Regent
    // privileges are field-granular, which is what lets Figure 1a's second
    // loop reduce `Cells[c].vel` while reading `Cells[h(c)].acc`.
    let mut by_field: HashMap<(RegionId, Option<FieldId>), Vec<&AccessInfo>> = HashMap::new();
    for a in &accesses {
        by_field.entry((a.region, a.field)).or_default().push(a);
    }
    for (&(region, _field), list) in &by_field {
        let unc_reduce_op: Option<ReduceOp> = list.iter().find_map(|a| match a.kind {
            AccessKind::Reduce(op) if !a.is_centered() => Some(op),
            _ => None,
        });
        if let Some(op) = unc_reduce_op {
            // No reads, no writes, and all reductions must be uncentered
            // with the same operator.
            for a in list {
                let ok = matches!(a.kind, AccessKind::Reduce(o) if o == op && !a.is_centered());
                if !ok {
                    return Err(NotParallelizable::ConflictOnReducedRegion {
                        region,
                        offending: a.id,
                    });
                }
            }
        }
        let has_unc_read = list.iter().any(|a| a.kind.is_read() && !a.is_centered());
        if has_unc_read {
            for a in list {
                if a.kind.is_write() || a.kind.is_reduce() {
                    return Err(NotParallelizable::WriteOnUncenteredReadRegion {
                        region,
                        offending: a.id,
                    });
                }
            }
        }
    }

    let has_uncentered_reduce = accesses.iter().any(|a| a.kind.is_reduce() && !a.is_centered());
    Ok(LoopSummary { iter_region: lp.region, accesses, has_uncentered_reduce })
}

/// Walks one block. A variable is in scope from its definition to the end
/// of the block defining it: `paths` and `values` hold the index and value
/// variables visible at the current statement, and a `ForEach` body's
/// additions are dropped when it ends (`LoopBuilder` hands them out for
/// use after `end_for_each`; no partitioned run can reproduce what the
/// interpreter's frame would still hold there).
fn collect(
    body: &[Stmt],
    fns: &FnTable,
    paths: &mut HashMap<IVar, Vec<FnId>>,
    values: &mut Vec<VVar>,
    accesses: &mut Vec<AccessInfo>,
) -> Result<(), NotParallelizable> {
    let check = |value: &VExpr, values: &[VVar]| {
        let mut read = Vec::new();
        value.vars(&mut read);
        match read.into_iter().find(|v| !values.contains(v)) {
            Some(var) => Err(NotParallelizable::UndefinedValueVar { var }),
            None => Ok(()),
        }
    };
    for s in body {
        match s {
            Stmt::IdxRead { access, dst, region, field, src, f } => {
                let src_path = paths
                    .get(src)
                    .cloned()
                    .ok_or(NotParallelizable::UndefinedIndexVar { var: *src })?;
                accesses.push(AccessInfo {
                    id: *access,
                    region: *region,
                    field: Some(*field),
                    kind: AccessKind::Read,
                    path: src_path.clone(),
                });
                let mut dst_path = src_path;
                dst_path.push(*f);
                paths.insert(*dst, dst_path);
            }
            Stmt::IdxApply { dst, f, src } => {
                let mut p = paths
                    .get(src)
                    .cloned()
                    .ok_or(NotParallelizable::UndefinedIndexVar { var: *src })?;
                p.push(*f);
                paths.insert(*dst, p);
            }
            Stmt::IdxCopy { dst, src } => {
                let p = paths
                    .get(src)
                    .cloned()
                    .ok_or(NotParallelizable::UndefinedIndexVar { var: *src })?;
                paths.insert(*dst, p);
            }
            Stmt::ValRead { access, dst, region, field, idx } => {
                values.push(*dst);
                let p = paths
                    .get(idx)
                    .cloned()
                    .ok_or(NotParallelizable::UndefinedIndexVar { var: *idx })?;
                accesses.push(AccessInfo {
                    id: *access,
                    region: *region,
                    field: Some(*field),
                    kind: AccessKind::Read,
                    path: p,
                });
            }
            Stmt::ValWrite { access, region, field, idx, value } => {
                check(value, values)?;
                let p = paths
                    .get(idx)
                    .cloned()
                    .ok_or(NotParallelizable::UndefinedIndexVar { var: *idx })?;
                accesses.push(AccessInfo {
                    id: *access,
                    region: *region,
                    field: Some(*field),
                    kind: AccessKind::Write,
                    path: p,
                });
            }
            Stmt::ValReduce { access, region, field, idx, op, value } => {
                check(value, values)?;
                let p = paths
                    .get(idx)
                    .cloned()
                    .ok_or(NotParallelizable::UndefinedIndexVar { var: *idx })?;
                accesses.push(AccessInfo {
                    id: *access,
                    region: *region,
                    field: Some(*field),
                    kind: AccessKind::Reduce(*op),
                    path: p,
                });
            }
            Stmt::ForEach { range_access, var, f, src, body } => {
                let src_path = paths
                    .get(src)
                    .cloned()
                    .ok_or(NotParallelizable::UndefinedIndexVar { var: *src })?;
                // Reading the range bounds is a read of `f`'s backing
                // field at `src`, in the region that owns it.
                let nf = fns.get(*f);
                let field = match &nf.def {
                    FnDef::Multi(MultiFn::RangeField { field }) => Some(*field),
                    _ => None,
                };
                accesses.push(AccessInfo {
                    id: *range_access,
                    region: nf.domain,
                    field,
                    kind: AccessKind::Read,
                    path: src_path.clone(),
                });
                let mut var_path = src_path;
                var_path.push(*f);
                let mut inner = paths.clone();
                inner.insert(*var, var_path);
                let outer_values = values.len();
                collect(body, fns, &mut inner, values, accesses)?;
                values.truncate(outer_values);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{LoopBuilder, VExpr};
    use partir_dpl::func::FnTable;
    use partir_dpl::region::{FieldKind, Schema};

    /// Builds the Figure 1a particles loop:
    /// for p in Particles: c = Particles[p].cell;
    ///   Particles[p].pos += f(Cells[c].vel, Cells[h(c)].vel)
    fn figure1_first_loop() -> (Loop, FnTable) {
        let mut schema = Schema::new();
        let cells = schema.add_region("Cells", 100);
        let particles = schema.add_region("Particles", 1000);
        let cell_f = schema.add_field(particles, "cell", FieldKind::Ptr(cells));
        let pos = schema.add_field(particles, "pos", FieldKind::F64);
        let vel = schema.add_field(cells, "vel", FieldKind::F64);
        let mut fns = FnTable::new();
        let fcell = fns.add_ptr_field("Particles[.].cell", particles, cells, cell_f);
        let h = fns.add_affine("h", cells, cells, 1, 1);

        let mut b = LoopBuilder::new("particles", particles);
        let p = b.loop_var();
        let c = b.idx_read(particles, cell_f, p, fcell);
        let v1 = b.val_read(cells, vel, c);
        let hc = b.idx_apply(h, c);
        let v2 = b.val_read(cells, vel, hc);
        b.val_reduce(particles, pos, p, ReduceOp::Add, VExpr::add(VExpr::var(v1), VExpr::var(v2)));
        (b.finish(), fns)
    }

    #[test]
    fn figure1_loop_is_parallelizable() {
        let (lp, fns) = figure1_first_loop();
        let s = analyze(&lp, &fns).expect("parallelizable");
        assert_eq!(s.accesses.len(), 4);
        // Access 0: Particles[p].cell — centered read.
        assert!(s.accesses[0].is_centered());
        assert!(s.accesses[0].kind.is_read());
        // Access 1: Cells[c].vel — uncentered read, path [cell].
        assert!(!s.accesses[1].is_centered());
        assert_eq!(s.accesses[1].path.len(), 1);
        // Access 2: Cells[h(c)].vel — path [cell, h].
        assert_eq!(s.accesses[2].path.len(), 2);
        // Access 3: centered reduction on Particles.
        assert!(s.accesses[3].is_centered());
        assert!(s.accesses[3].kind.is_reduce());
        assert!(!s.has_uncentered_reduce);
    }

    #[test]
    fn uncentered_write_rejected() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let fld = schema.add_field(r, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let g = fns.add_affine("g", r, r, 1, 1);
        let mut b = LoopBuilder::new("bad", r);
        let i = b.loop_var();
        let gi = b.idx_apply(g, i);
        b.val_write(r, fld, gi, VExpr::Const(1.0));
        let lp = b.finish();
        match analyze(&lp, &fns) {
            Err(NotParallelizable::UncenteredWrite { region, .. }) => assert_eq!(region, r),
            other => panic!("expected UncenteredWrite, got {other:?}"),
        }
    }

    #[test]
    fn figure7_uncentered_reduce_flagged() {
        // for i in R: S[g(i)] += R[i]
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let s_ = schema.add_region("S", 10);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s_, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let g = fns.add_affine("g", r, s_, 1, 0);
        let mut b = LoopBuilder::new("fig7", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        let gi = b.idx_apply(g, i);
        b.val_reduce(s_, sx, gi, ReduceOp::Add, VExpr::var(v));
        let lp = b.finish();
        let summary = analyze(&lp, &fns).expect("parallelizable");
        assert!(summary.has_uncentered_reduce);
        assert_eq!(summary.uncentered_reduces().count(), 1);
    }

    #[test]
    fn read_on_uncentered_reduce_region_rejected() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let s_ = schema.add_region("S", 10);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s_, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let g = fns.add_affine("g", r, s_, 1, 0);
        let mut b = LoopBuilder::new("bad", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        let gi = b.idx_apply(g, i);
        b.val_reduce(s_, sx, gi, ReduceOp::Add, VExpr::var(v));
        let _conflict = b.val_read(s_, sx, i); // read on the reduced region
        let lp = b.finish();
        match analyze(&lp, &fns) {
            Err(NotParallelizable::ConflictOnReducedRegion { region, .. }) => {
                assert_eq!(region, s_)
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn mixed_reduce_ops_on_region_rejected() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let s_ = schema.add_region("S", 10);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s_, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let g = fns.add_affine("g", r, s_, 1, 0);
        let h = fns.add_affine("h", r, s_, 1, 1);
        let mut b = LoopBuilder::new("bad", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        let gi = b.idx_apply(g, i);
        b.val_reduce(s_, sx, gi, ReduceOp::Add, VExpr::var(v));
        let hi = b.idx_apply(h, i);
        b.val_reduce(s_, sx, hi, ReduceOp::Max, VExpr::var(v));
        let lp = b.finish();
        assert!(matches!(
            analyze(&lp, &fns),
            Err(NotParallelizable::ConflictOnReducedRegion { .. })
        ));
    }

    #[test]
    fn same_op_multiple_uncentered_reduces_allowed() {
        // Figure 11a: S[f(i)] += R[i]; S[g(i)] += R[i].
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let s_ = schema.add_region("S", 10);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s_, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let f = fns.add_affine("f", r, s_, 1, 0);
        let g = fns.add_affine("g", r, s_, 1, 1);
        let mut b = LoopBuilder::new("fig11", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        let fi = b.idx_apply(f, i);
        b.val_reduce(s_, sx, fi, ReduceOp::Add, VExpr::var(v));
        let gi = b.idx_apply(g, i);
        b.val_reduce(s_, sx, gi, ReduceOp::Add, VExpr::var(v));
        let lp = b.finish();
        let s = analyze(&lp, &fns).expect("parallelizable");
        assert_eq!(s.uncentered_reduces().count(), 2);
    }

    #[test]
    fn write_on_uncentered_read_region_rejected() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let g = fns.add_affine("g", r, r, 1, 1);
        let mut b = LoopBuilder::new("bad", r);
        let i = b.loop_var();
        let gi = b.idx_apply(g, i);
        let v = b.val_read(r, rx, gi); // uncentered read of R
        b.val_write(r, rx, i, VExpr::var(v)); // centered write of R
        let lp = b.finish();
        assert!(matches!(
            analyze(&lp, &fns),
            Err(NotParallelizable::WriteOnUncenteredReadRegion { .. })
        ));
    }

    #[test]
    fn spmv_foreach_paths() {
        // Figure 10a: for i in Y: for k in Ranges(i): Y[i] += Mat[k].val * X[Mat[k].ind]
        let mut schema = Schema::new();
        let mat = schema.add_region("Mat", 100);
        let x = schema.add_region("X", 10);
        let y = schema.add_region("Y", 10);
        let yv = schema.add_field(y, "val", FieldKind::F64);
        let range_f = schema.add_field(y, "range", FieldKind::Range(mat));
        let mval = schema.add_field(mat, "val", FieldKind::F64);
        let mind = schema.add_field(mat, "ind", FieldKind::Ptr(x));
        let xv = schema.add_field(x, "val", FieldKind::F64);
        let mut fns = FnTable::new();
        let ranges = fns.add_range_field("Ranges", y, mat, range_f);
        let ind = fns.add_ptr_field("Mat[.].ind", mat, x, mind);

        let mut b = LoopBuilder::new("spmv", y);
        let i = b.loop_var();
        let k = b.begin_for_each(ranges, i);
        let a = b.val_read(mat, mval, k);
        let col = b.idx_read(mat, mind, k, ind);
        let xval = b.val_read(x, xv, col);
        b.val_reduce(y, yv, i, ReduceOp::Add, VExpr::mul(VExpr::var(a), VExpr::var(xval)));
        b.end_for_each();
        let lp = b.finish();
        let s = analyze(&lp, &fns).expect("parallelizable");
        // Header access on Y (range field), centered.
        assert_eq!(s.accesses[0].region, y);
        assert!(s.accesses[0].is_centered());
        // Mat accesses have path [Ranges].
        assert_eq!(s.accesses[1].path, vec![ranges]);
        assert_eq!(s.accesses[2].path, vec![ranges]);
        // X access has path [Ranges, ind].
        assert_eq!(s.accesses[3].path, vec![ranges, ind]);
        // Y reduction is centered.
        assert!(s.accesses[4].is_centered());
        assert!(!s.has_uncentered_reduce);
    }

    #[test]
    fn foreach_header_reads_the_range_field() {
        // for i in Y: for k in Ranges(i): for j in Cols(k): Y[i] += Mat[j].val
        let mut schema = Schema::new();
        let mat = schema.add_region("Mat", 100);
        let y = schema.add_region("Y", 10);
        let yv = schema.add_field(y, "val", FieldKind::F64);
        let rows = schema.add_field(y, "rows", FieldKind::Range(mat));
        let cols = schema.add_field(mat, "cols", FieldKind::Range(mat));
        let mval = schema.add_field(mat, "val", FieldKind::F64);
        let mut fns = FnTable::new();
        let f_rows = fns.add_range_field("Rows", y, mat, rows);
        let f_cols = fns.add_range_field("Cols", mat, mat, cols);

        let mut b = LoopBuilder::new("nested", y);
        let i = b.loop_var();
        let k = b.begin_for_each(f_rows, i);
        let j = b.begin_for_each(f_cols, k);
        let v = b.val_read(mat, mval, j);
        b.val_reduce(y, yv, i, ReduceOp::Add, VExpr::var(v));
        b.end_for_each();
        b.end_for_each();
        let s = analyze(&b.finish(), &fns).expect("parallelizable");
        assert_eq!((s.accesses[0].region, s.accesses[0].field), (y, Some(rows)));
        assert_eq!((s.accesses[1].region, s.accesses[1].field), (mat, Some(cols)));
        assert_eq!(s.accesses[1].path, vec![f_rows]);
    }
}
