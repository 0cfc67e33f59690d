//! Lowering of loop bodies to flat register programs.
//!
//! [`lower_loop`] turns one [`Loop`] into the form the chunked executor in
//! [`crate::task`] runs: `VExpr` trees become three-address ops over value
//! registers (temporaries reused, constants in registers filled once),
//! `IdxCopy` disappears into register aliasing, every declared function is
//! resolved from the [`FnTable`] into [`IdxStep`]s with their target sizes
//! bound, and `ForEach` bodies become nested blocks whose free variables
//! are listed as imports from the enclosing block. The cost is linear in
//! the number of statements, so it is paid once per run and not cached.
//!
//! The executor runs each op over all lanes (iterations) of a chunk before
//! the next op. That order equals the interpreter's iteration-major order
//! unless two *distinct* access sites can touch one element from different
//! lanes with a mutation involved (DESIGN.md §7 has the argument);
//! [`lower_loop`] finds those pairs in the body. Reduction-only fields
//! whose sites share a block are applied lane by lane at the last site
//! ([`Op::Reduce`] with several sites); anything else makes the loop
//! [`Lowered::serial`], one lane per chunk through the same executor.
//! Serial alone would be correct for both; grouping is kept because the
//! Circuit run is 1.3–1.5× slower without it (EXPERIMENTS.md, "Lane-major
//! reduction groups against plain serial execution").

use partir_dpl::func::{FnDef, FnId, FnTable, IndexFn, MultiFn};
use partir_dpl::index_set::Idx;
use partir_dpl::region::{FieldId, Schema};
use partir_ir::ast::{AccessId, BinOp, IVar, Loop, ReduceOp, Stmt, UnOp, VExpr, VVar};
use std::collections::{HashMap, HashSet};

/// An index register: one `Idx` per lane.
pub(crate) type IReg = u32;
/// A value register: one `f64` per lane.
pub(crate) type VReg = u32;

/// The index register holding the loop variable.
pub(crate) const LOOP_VAR: IReg = 0;

/// One op of a lowered body. Region accesses keep their [`AccessId`], which
/// indexes the `LoopSetup`'s per-access modes and partitions.
pub(crate) enum Op {
    /// `dst = field[idx]` for a pointer field.
    LoadPtr {
        access: AccessId,
        field: FieldId,
        idx: IReg,
        dst: IReg,
    },
    /// `dst = step(src)`: one step of a declared index function.
    Apply {
        step: IdxStep,
        src: IReg,
        dst: IReg,
    },
    /// `dst = field[idx]`.
    Load {
        access: AccessId,
        field: FieldId,
        idx: IReg,
        dst: VReg,
    },
    /// `field[idx] = src`.
    Store {
        access: AccessId,
        field: FieldId,
        idx: IReg,
        src: VReg,
    },
    /// `field[idx] op= src` for every site, lane by lane with the sites in
    /// program order inside a lane. `tmp` is scratch for the whole-run
    /// read-modify-write of a single site.
    Reduce {
        sites: Vec<ReduceSite>,
        tmp: VReg,
    },
    Un {
        op: UnOp,
        dst: VReg,
        a: VReg,
    },
    Bin {
        op: BinOp,
        dst: VReg,
        a: VReg,
        b: VReg,
    },
    ForEach(ForEach),
}

pub(crate) struct ReduceSite {
    pub access: AccessId,
    pub field: FieldId,
    pub idx: IReg,
    pub op: ReduceOp,
    pub src: VReg,
}

/// `for var in F(src): body`. The body runs over inner chunks of
/// (parent lane, element of `F`) pairs; `imports_*` list the enclosing
/// block's registers the body reads, as `(outer, inner)`: the inner
/// register receives the outer one's value at each pair's parent lane.
pub(crate) struct ForEach {
    pub access: AccessId,
    pub src: IReg,
    pub expand: Expand,
    pub var: IReg,
    pub imports_i: Vec<(IReg, IReg)>,
    pub imports_v: Vec<(VReg, VReg)>,
    pub body: Vec<Op>,
}

/// What a `ForEach` header iterates over.
pub(crate) enum Expand {
    /// `field[src].0 .. min(field[src].1, size)`.
    Range { field: FieldId, size: u64 },
    /// The one image of a single-valued function.
    Single(Vec<IdxStep>),
}

/// One step of a declared index function (`Compose` flattens to several,
/// `Identity` to none).
pub(crate) enum IdxStep {
    Affine(Affine),
    /// `field[i]` without a legality check: the function's own lookup, not
    /// an access site.
    Ptr(FieldId),
    /// A set-valued function applied as if single-valued; running it is a
    /// bug in the program.
    MultiValued,
}

/// `(i·mul + add) [mod modulus]`; without a modulus the result must lie in
/// `[0, target)`. Evaluation is exact in `i64` or panics with
/// "affine out of range" (overflow, a negative result, a result beyond the
/// target) — the message the backends report as a task panic.
pub(crate) struct Affine {
    mul: i64,
    add: i64,
    modulus: Option<u64>,
    target: u64,
    /// Inputs below this bound are proved — from `mul`, `add`, `modulus`
    /// and the region sizes — to evaluate without `i64` overflow, so they
    /// skip the checked arithmetic; with `mul == 1` they are also proved
    /// to need only an add and one wrap or range test.
    safe_below: u64,
    /// `add` reduced into `[0, modulus)` for the unit-stride modular form.
    step: u64,
}

/// Magnitudes up to here add without leaving `i64` or wrapping `u64`.
const SMALL: u64 = 1 << 62;

#[cold]
fn out_of_range() -> ! {
    panic!("affine out of range")
}

impl Affine {
    /// `in_bound` bounds the inputs from above (exclusive): the size of the
    /// function's domain region, or what the previous step can produce.
    fn new(mul: i64, add: i64, modulus: Option<u64>, target: u64, in_bound: u64) -> Affine {
        let small_add = add.unsigned_abs() <= SMALL;
        let (safe_below, step) = match (mul, modulus) {
            (1, Some(m)) if small_add && (1..=SMALL).contains(&m) => {
                (m, add.rem_euclid(m as i64) as u64)
            }
            (1, None) if small_add && target <= SMALL => (SMALL, 0),
            (1, _) => (0, 0),
            _ => {
                // Linear in `i`, so the extremes sit at the ends of the
                // input range.
                let fits = |i: u64| {
                    i64::try_from(i as i128 * mul as i128 + add as i128).is_ok()
                        && i64::try_from(i).is_ok()
                };
                let modulus_ok = modulus.is_none_or(|m| i64::try_from(m).is_ok_and(|m| m > 0));
                let proved = modulus_ok && fits(0) && fits(in_bound.saturating_sub(1));
                (if proved { in_bound } else { 0 }, 0)
            }
        };
        Affine { mul, add, modulus, target, safe_below, step }
    }

    /// Exclusive upper bound of the results.
    fn out_bound(&self) -> u64 {
        self.modulus.unwrap_or(self.target)
    }

    #[inline]
    pub fn eval(&self, i: Idx) -> Idx {
        if i >= self.safe_below {
            return self.checked(i);
        }
        match (self.mul, self.modulus) {
            (1, Some(m)) => {
                let r = i + self.step;
                if r >= m {
                    r - m
                } else {
                    r
                }
            }
            (1, None) => {
                // A negative sum wraps far beyond any target.
                let r = i.wrapping_add(self.add as u64);
                if r >= self.target {
                    out_of_range();
                }
                r
            }
            (mul, modulus) => {
                let v = (i as i64).wrapping_mul(mul).wrapping_add(self.add);
                match modulus {
                    Some(m) => v.rem_euclid(m as i64) as Idx,
                    None if v >= 0 && (v as u64) < self.target => v as Idx,
                    None => out_of_range(),
                }
            }
        }
    }

    fn checked(&self, i: Idx) -> Idx {
        let v = i64::try_from(i)
            .ok()
            .and_then(|i| i.checked_mul(self.mul))
            .and_then(|v| v.checked_add(self.add));
        match (v, self.modulus) {
            (Some(v), Some(m)) => v.rem_euclid(m as i64) as Idx,
            (Some(v), None) if v >= 0 && (v as u64) < self.target => v as Idx,
            _ => out_of_range(),
        }
    }

    /// The image of the run `[start, start + n)` when it is again one
    /// unit-stride run, as `(start, period)` of a [`crate::task`] sequence
    /// register (wrapping to 0 at `period`); `None` when the lanes have to
    /// be evaluated one by one.
    pub fn image_of_run(&self, start: Idx, n: usize) -> Option<(Idx, u64)> {
        let end = start.checked_add(n as u64)?;
        if self.mul != 1 || end > self.safe_below {
            return None;
        }
        match self.modulus {
            // `end <= safe_below == m`, so the image wraps at most once.
            Some(m) => Some((self.eval(start), m)),
            None => {
                let first = self.eval(start);
                if n as u64 > self.target - first {
                    out_of_range();
                }
                Some((first, u64::MAX))
            }
        }
    }
}

/// A loop body in executable form.
pub(crate) struct Lowered {
    pub ops: Vec<Op>,
    pub n_iregs: usize,
    pub n_vregs: usize,
    /// Value registers holding constants, filled once per register file.
    pub consts: Vec<(VReg, f64)>,
    /// Deepest `ForEach` nesting.
    pub depth: usize,
    /// The body has conflicting accesses that only iteration-major order
    /// keeps in sequence: chunks hold one lane.
    pub serial: bool,
    /// Size of the largest region a `ForEach` ranges over (0 without one):
    /// inner chunks can fill up even when the iteration space is tiny.
    pub inner_hint: u64,
}

/// A body reads a variable that no enclosing block has assigned by then.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct OutOfScope;

/// Lowers `lp`. The body must be in the single-assignment form
/// `LoopBuilder` produces. A variable is in scope from its assignment to
/// the end of the block (loop body, `ForEach` body) that assigns it.
/// `LoopBuilder` hands out a `ForEach` body's variables for use after
/// `end_for_each`; the parallelizability analysis refuses such a body, so
/// no solve plans one, but `execute_ranks` takes any program with any
/// plan, so a read outside is found here too.
/// The interpreter would read what its frame still holds from
/// the last element or, past an empty range, from the previous iteration,
/// which a partitioned run cannot reproduce.
pub(crate) fn lower_loop(lp: &Loop, fns: &FnTable, schema: &Schema) -> Result<Lowered, OutOfScope> {
    let (groups, serial) = find_hazards(lp);
    let mut lw = Lowering {
        fns,
        schema,
        n_iregs: LOOP_VAR + 1,
        n_vregs: 0,
        consts: Vec::new(),
        free: Vec::new(),
        levels: vec![Level::default()],
        groups: groups.into_iter().map(|(f, size)| (f, (size, Vec::new()))).collect(),
        depth: 0,
        inner_hint: 0,
        out_of_scope: false,
    };
    lw.levels[0].ivars.insert(lp.var, LOOP_VAR);
    let ops = lw.block(&lp.body);
    if lw.out_of_scope {
        return Err(OutOfScope);
    }
    Ok(Lowered {
        ops,
        n_iregs: lw.n_iregs as usize,
        n_vregs: lw.n_vregs as usize,
        consts: lw.consts,
        depth: lw.depth,
        serial,
        inner_hint: lw.inner_hint,
    })
}

/// Resolves a single-valued function into steps, with the sizes of its
/// domain and target regions bound in.
fn bind_fn(fns: &FnTable, schema: &Schema, f: FnId) -> Vec<IdxStep> {
    let nf = fns.get(f);
    match &nf.def {
        FnDef::Index(func) => bind_index_fn(func, schema, nf.domain, nf.range),
        FnDef::Multi(_) => vec![IdxStep::MultiValued],
    }
}

fn bind_index_fn(
    func: &IndexFn,
    schema: &Schema,
    domain: partir_dpl::region::RegionId,
    range: partir_dpl::region::RegionId,
) -> Vec<IdxStep> {
    fn go(f: &IndexFn, in_bound: u64, target: u64, out: &mut Vec<IdxStep>) -> u64 {
        match f {
            IndexFn::Identity => in_bound,
            IndexFn::Affine { mul, add } => {
                push(Affine::new(*mul, *add, None, target, in_bound), out)
            }
            IndexFn::AffineMod { mul, add, modulus } => {
                push(Affine::new(*mul, *add, Some(*modulus), target, in_bound), out)
            }
            IndexFn::Ptr { field } => {
                out.push(IdxStep::Ptr(*field));
                u64::MAX
            }
            // Intermediate results only have to be non-negative.
            IndexFn::Compose(first, second) => {
                let mid = go(first, in_bound, u64::MAX, out);
                go(second, mid, target, out)
            }
        }
    }
    fn push(a: Affine, out: &mut Vec<IdxStep>) -> u64 {
        let bound = a.out_bound();
        out.push(IdxStep::Affine(a));
        bound
    }
    let mut steps = Vec::new();
    go(func, schema.region_size(domain), schema.region_size(range), &mut steps);
    steps
}

/// An access site as the hazard analysis sees it.
struct Site {
    field: FieldId,
    mutates: bool,
    reduces: bool,
    /// Indexed by the loop variable (or an alias): distinct top-level
    /// lanes touch distinct elements.
    centered: bool,
    /// Ids of the enclosing `ForEach` statements, outermost first.
    path: Vec<u32>,
}

/// Finds the fields whose sites op-major order would reorder: returns the
/// reduction groups to apply lane by lane (`field → number of sites`) and
/// whether the loop has to run serially instead.
fn find_hazards(lp: &Loop) -> (HashMap<FieldId, usize>, bool) {
    fn walk(
        body: &[Stmt],
        centered: &mut HashSet<IVar>,
        path: &mut Vec<u32>,
        next_id: &mut u32,
        out: &mut Vec<Site>,
    ) {
        for s in body {
            let (field, idx, mutates, reduces) = match s {
                Stmt::IdxCopy { dst, src } => {
                    if centered.contains(src) {
                        centered.insert(*dst);
                    }
                    continue;
                }
                Stmt::ForEach { body, .. } => {
                    path.push(*next_id);
                    *next_id += 1;
                    walk(body, centered, path, next_id, out);
                    path.pop();
                    continue;
                }
                // Pointer and range fields are never written by a loop.
                Stmt::IdxRead { .. } | Stmt::IdxApply { .. } => continue,
                Stmt::ValRead { field, idx, .. } => (field, idx, false, false),
                Stmt::ValWrite { field, idx, .. } => (field, idx, true, false),
                Stmt::ValReduce { field, idx, .. } => (field, idx, true, true),
            };
            let centered = centered.contains(idx);
            out.push(Site { field: *field, mutates, reduces, centered, path: path.clone() });
        }
    }
    let mut sites = Vec::new();
    walk(&lp.body, &mut HashSet::from([lp.var]), &mut Vec::new(), &mut 0, &mut sites);

    let mut by_field: HashMap<FieldId, Vec<&Site>> = HashMap::new();
    for s in &sites {
        by_field.entry(s.field).or_default().push(s);
    }
    let mut groups = HashMap::new();
    let mut serial = false;
    for (field, list) in by_field {
        // Two instances of distinct sites can meet on one element from
        // different lanes when one of them is uncentered (top-level lanes)
        // or when both sit inside one `ForEach` (its inner lanes).
        let meet = |s: &Site, t: &Site| {
            let one_for_each = !s.path.is_empty() && s.path.first() == t.path.first();
            (s.mutates || t.mutates) && (!(s.centered && t.centered) || one_for_each)
        };
        let conflict = |(k, s): (usize, &&Site)| list[k + 1..].iter().any(|t| meet(s, t));
        if !list.iter().enumerate().any(conflict) {
            continue;
        }
        if list.iter().all(|s| s.reduces && s.path == list[0].path) {
            groups.insert(field, list.len());
        } else {
            serial = true;
        }
    }
    if serial {
        groups.clear();
    }
    (groups, serial)
}

/// The registers of the variables visible in one block.
#[derive(Default)]
struct Level {
    ivars: HashMap<IVar, IReg>,
    vvars: HashMap<VVar, VReg>,
    imports_i: Vec<(IReg, IReg)>,
    imports_v: Vec<(VReg, VReg)>,
}

/// The register an expression's value is in, and whether it is a
/// temporary to release after use.
struct Val {
    reg: VReg,
    temp: bool,
}

struct Lowering<'a> {
    fns: &'a FnTable,
    schema: &'a Schema,
    n_iregs: u32,
    n_vregs: u32,
    consts: Vec<(VReg, f64)>,
    /// Temporaries free for reuse.
    free: Vec<VReg>,
    /// Innermost block last.
    levels: Vec<Level>,
    /// Lane-major reduction groups: `field → (sites in all, sites seen)`.
    groups: HashMap<FieldId, (usize, Vec<(ReduceSite, Val)>)>,
    depth: usize,
    inner_hint: u64,
    /// A variable was read outside the block assigning it; the lowering
    /// runs on with a placeholder register and its result is dropped.
    out_of_scope: bool,
}

impl Lowering<'_> {
    fn new_ireg(&mut self) -> IReg {
        self.n_iregs += 1;
        self.n_iregs - 1
    }

    fn new_vreg(&mut self) -> VReg {
        self.n_vregs += 1;
        self.n_vregs - 1
    }

    fn temp(&mut self) -> VReg {
        self.free.pop().unwrap_or_else(|| self.new_vreg())
    }

    fn release(&mut self, v: Val) {
        if v.temp {
            self.free.push(v.reg);
        }
    }

    fn const_reg(&mut self, c: f64) -> VReg {
        if let Some(&(r, _)) = self.consts.iter().find(|(_, k)| k.to_bits() == c.to_bits()) {
            return r;
        }
        let r = self.new_vreg();
        self.consts.push((r, c));
        r
    }

    fn define_i(&mut self, v: IVar, r: IReg) {
        self.levels.last_mut().expect("a block is open").ivars.insert(v, r);
    }

    /// The register of `v` in the block at `level`, importing it from the
    /// enclosing blocks on first use.
    fn ireg_at(&mut self, level: usize, v: IVar) -> IReg {
        if let Some(&r) = self.levels[level].ivars.get(&v) {
            return r;
        }
        if level == 0 {
            self.out_of_scope = true;
            return LOOP_VAR;
        }
        let outer = self.ireg_at(level - 1, v);
        let inner = self.new_ireg();
        self.levels[level].imports_i.push((outer, inner));
        self.levels[level].ivars.insert(v, inner);
        inner
    }

    fn ireg(&mut self, v: IVar) -> IReg {
        self.ireg_at(self.levels.len() - 1, v)
    }

    fn vreg_at(&mut self, level: usize, v: VVar) -> VReg {
        if let Some(&r) = self.levels[level].vvars.get(&v) {
            return r;
        }
        if level == 0 {
            self.out_of_scope = true;
            return self.const_reg(0.0);
        }
        let outer = self.vreg_at(level - 1, v);
        let inner = self.new_vreg();
        self.levels[level].imports_v.push((outer, inner));
        self.levels[level].vvars.insert(v, inner);
        inner
    }

    fn expr(&mut self, e: &VExpr, ops: &mut Vec<Op>) -> Val {
        match e {
            VExpr::Const(c) => Val { reg: self.const_reg(*c), temp: false },
            VExpr::Var(v) => Val { reg: self.vreg_at(self.levels.len() - 1, *v), temp: false },
            VExpr::Un(op, a) => {
                let a = self.expr(a, ops);
                // The destination is allocated before the operands are
                // released: an op never writes a register it reads.
                let dst = self.temp();
                ops.push(Op::Un { op: *op, dst, a: a.reg });
                self.release(a);
                Val { reg: dst, temp: true }
            }
            VExpr::Bin(op, a, b) => {
                let a = self.expr(a, ops);
                let b = self.expr(b, ops);
                let dst = self.temp();
                ops.push(Op::Bin { op: *op, dst, a: a.reg, b: b.reg });
                self.release(a);
                self.release(b);
                Val { reg: dst, temp: true }
            }
        }
    }

    fn block(&mut self, body: &[Stmt]) -> Vec<Op> {
        let mut ops = Vec::new();
        for s in body {
            match s {
                Stmt::IdxRead { access, dst, field, src, .. } => {
                    let idx = self.ireg(*src);
                    let r = self.new_ireg();
                    self.define_i(*dst, r);
                    ops.push(Op::LoadPtr { access: *access, field: *field, idx, dst: r });
                }
                Stmt::IdxApply { dst, f, src } => {
                    let mut cur = self.ireg(*src);
                    for step in bind_fn(self.fns, self.schema, *f) {
                        let r = self.new_ireg();
                        ops.push(Op::Apply { step, src: cur, dst: r });
                        cur = r;
                    }
                    self.define_i(*dst, cur);
                }
                Stmt::IdxCopy { dst, src } => {
                    let r = self.ireg(*src);
                    self.define_i(*dst, r);
                }
                Stmt::ValRead { access, dst, field, idx, .. } => {
                    let idx = self.ireg(*idx);
                    let r = self.new_vreg();
                    self.levels.last_mut().expect("a block is open").vvars.insert(*dst, r);
                    ops.push(Op::Load { access: *access, field: *field, idx, dst: r });
                }
                Stmt::ValWrite { access, field, idx, value, .. } => {
                    let idx = self.ireg(*idx);
                    let v = self.expr(value, &mut ops);
                    ops.push(Op::Store { access: *access, field: *field, idx, src: v.reg });
                    self.release(v);
                }
                Stmt::ValReduce { access, field, idx, op, value, .. } => {
                    let idx = self.ireg(*idx);
                    let v = self.expr(value, &mut ops);
                    let site =
                        ReduceSite { access: *access, field: *field, idx, op: *op, src: v.reg };
                    // A grouped site keeps its value register until the
                    // group's last site applies them all.
                    let sites = match self.groups.get_mut(field) {
                        Some((size, seen)) => {
                            seen.push((site, v));
                            if seen.len() < *size {
                                continue;
                            }
                            std::mem::take(seen)
                        }
                        None => vec![(site, v)],
                    };
                    let tmp = self.temp();
                    self.free.push(tmp);
                    let (sites, vals): (Vec<_>, Vec<_>) = sites.into_iter().unzip();
                    ops.push(Op::Reduce { sites, tmp });
                    vals.into_iter().for_each(|v| self.release(v));
                }
                Stmt::ForEach { range_access, var, f, src, body } => {
                    let src = self.ireg(*src);
                    let nf = self.fns.get(*f);
                    let size = self.schema.region_size(nf.range);
                    self.inner_hint = self.inner_hint.max(size);
                    let expand = match &nf.def {
                        FnDef::Multi(MultiFn::RangeField { field }) => {
                            Expand::Range { field: *field, size }
                        }
                        FnDef::Multi(MultiFn::Lift(func)) | FnDef::Index(func) => {
                            Expand::Single(bind_index_fn(func, self.schema, nf.domain, nf.range))
                        }
                    };
                    self.levels.push(Level::default());
                    self.depth = self.depth.max(self.levels.len() - 1);
                    let var_reg = self.new_ireg();
                    self.define_i(*var, var_reg);
                    let body = self.block(body);
                    let level = self.levels.pop().expect("pushed above");
                    ops.push(Op::ForEach(ForEach {
                        access: *range_access,
                        src,
                        expand,
                        var: var_reg,
                        imports_i: level.imports_i,
                        imports_v: level.imports_v,
                        body,
                    }));
                }
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_dpl::region::FieldKind;
    use partir_ir::ast::LoopBuilder;

    fn panics(f: impl FnOnce() -> Idx + std::panic::UnwindSafe) -> bool {
        match std::panic::catch_unwind(f) {
            Ok(_) => false,
            Err(p) => {
                assert_eq!(p.downcast_ref::<&str>(), Some(&"affine out of range"));
                true
            }
        }
    }

    /// The reference: `IndexFn::eval`'s checked arithmetic, without its
    /// final range check for modular functions (the runtime reports an
    /// out-of-field element at the access that uses it).
    fn reference(mul: i64, add: i64, modulus: Option<u64>, target: u64, i: Idx) -> Option<Idx> {
        let v = i64::try_from(i).ok()?.checked_mul(mul)?.checked_add(add)?;
        match modulus {
            Some(m) => Some(v.rem_euclid(m as i64) as Idx),
            None => (v >= 0 && (v as u64) < target).then_some(v as Idx),
        }
    }

    #[test]
    fn affine_forms_agree_with_checked_arithmetic() {
        let max = i64::MAX;
        let cases: &[(i64, i64, Option<u64>, u64, u64)] = &[
            // (mul, add, modulus, target, domain size)
            (1, 3, Some(10), 10, 10),
            (1, -3, Some(10), 10, 16), // inputs beyond the modulus
            (1, 25, Some(10), 10, 10), // add beyond the modulus
            (1, 3, None, 10, 10),      // leaves the target at i = 7
            (1, -2, None, 10, 10),     // negative at i < 2
            (2, 1, None, 100, 10),
            (-3, 40, Some(7), 7, 12),
            (3, -5, None, 20, 9),
            // The i64 edge: nothing is provable, every lane is checked.
            (1, max, Some(max as u64), 10, 4),
            (1, max, None, u64::MAX, 4),
            (max, 0, None, u64::MAX, 3),
            (max, max, Some(5), 5, 3),
            (2, 0, Some(u64::MAX), 10, 4),
            (1, i64::MIN, None, 10, 4),
        ];
        for &(mul, add, modulus, target, domain) in cases {
            let a = Affine::new(mul, add, modulus, target, domain);
            for i in (0..domain + 3).chain([1 << 62, (1 << 62) + 1, u64::MAX]) {
                let want = reference(mul, add, modulus, target, i);
                match want {
                    Some(v) => assert_eq!(a.eval(i), v, "({mul}, {add}, {modulus:?}) at {i}"),
                    None => assert!(
                        panics(|| a.eval(i)),
                        "({mul}, {add}, {modulus:?}) at {i} must be out of range"
                    ),
                }
            }
        }
    }

    #[test]
    fn proofs_cover_what_they_can_and_nothing_more() {
        // Unit stride: the whole safe range, or none of it at the edge.
        assert_eq!(Affine::new(1, 3, Some(10), 10, 10).safe_below, 10);
        assert_eq!(Affine::new(1, 3, None, 10, 10).safe_below, SMALL);
        assert_eq!(Affine::new(1, i64::MAX, Some(10), 10, 10).safe_below, 0);
        assert_eq!(Affine::new(1, 3, Some(u64::MAX), 10, 10).safe_below, 0);
        assert_eq!(Affine::new(1, 3, Some(0), 10, 10).safe_below, 0);
        assert_eq!(Affine::new(1, 3, None, u64::MAX, 10).safe_below, 0);
        // General: proved over the domain iff both ends fit in i64.
        assert_eq!(Affine::new(2, 1, None, 100, 10).safe_below, 10);
        assert_eq!(Affine::new(i64::MAX, 0, None, 100, 2).safe_below, 2);
        assert_eq!(Affine::new(i64::MAX, 0, None, 100, 3).safe_below, 0);
        assert_eq!(Affine::new(i64::MAX, 1, None, 100, 2).safe_below, 0);
        assert_eq!(Affine::new(-2, i64::MIN, None, 100, 2).safe_below, 0);
        assert_eq!(Affine::new(2, 0, Some(0), 100, 4).safe_below, 0);
    }

    #[test]
    fn runs_map_to_runs_or_fall_back() {
        let wrap = Affine::new(1, 3, Some(10), 10, 10);
        assert_eq!(wrap.image_of_run(0, 10), Some((3, 10)));
        assert_eq!(wrap.image_of_run(8, 2), Some((1, 10)));
        assert_eq!(wrap.image_of_run(8, 3), None, "inputs beyond the modulus go lane by lane");
        let shift = Affine::new(1, -2, None, 10, 12);
        assert_eq!(shift.image_of_run(2, 10), Some((0, u64::MAX)));
        assert!(panics(|| shift.image_of_run(1, 4).unwrap().0), "negative image");
        assert!(panics(|| shift.image_of_run(4, 9).unwrap().0), "run leaves the target");
        assert_eq!(Affine::new(2, 0, None, 100, 10).image_of_run(0, 4), None);
        assert_eq!(wrap.image_of_run(u64::MAX, 2), None);
    }

    #[test]
    fn compose_checks_only_the_final_step_against_the_target() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 8);
        let f = IndexFn::Compose(
            Box::new(IndexFn::Affine { mul: 1, add: 100 }),
            Box::new(IndexFn::AffineMod { mul: 1, add: 0, modulus: 8 }),
        );
        let steps = bind_index_fn(&f, &schema, r, r);
        let eval = |i: Idx| {
            steps.iter().fold(i, |i, s| match s {
                IdxStep::Affine(a) => a.eval(i),
                _ => unreachable!(),
            })
        };
        assert_eq!(steps.len(), 2);
        assert_eq!(eval(3), (3 + 100) % 8);
        let neg = IndexFn::Compose(
            Box::new(IndexFn::Affine { mul: 1, add: -5 }),
            Box::new(IndexFn::Identity),
        );
        let steps = bind_index_fn(&neg, &schema, r, r);
        assert_eq!(steps.len(), 1, "identity lowers to no step");
        let IdxStep::Affine(a) = &steps[0] else { unreachable!() };
        assert_eq!(a.eval(5), 0);
        assert!(panics(|| a.eval(4)));
    }

    struct Fixture {
        schema: Schema,
        fns: FnTable,
        r: partir_dpl::region::RegionId,
        s: partir_dpl::region::RegionId,
        rx: FieldId,
        sx: FieldId,
        sy: FieldId,
        ptr: FieldId,
        fptr: FnId,
        shift: FnId,
        rows: FnId,
    }

    fn fixture() -> Fixture {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 16);
        let s = schema.add_region("S", 16);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s, "x", FieldKind::F64);
        let sy = schema.add_field(s, "y", FieldKind::F64);
        let ptr = schema.add_field(r, "p", FieldKind::Ptr(s));
        let range = schema.add_field(r, "rows", FieldKind::Range(s));
        let mut fns = FnTable::new();
        let fptr = fns.add_ptr_field("p", r, s, ptr);
        let shift =
            fns.add("g", r, s, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: 16 }));
        let rows = fns.add_range_field("rows", r, s, range);
        Fixture { schema, fns, r, s, rx, sx, sy, ptr, fptr, shift, rows }
    }

    fn reduce_sites(ops: &[Op]) -> Vec<usize> {
        ops.iter()
            .flat_map(|op| match op {
                Op::Reduce { sites, .. } => vec![sites.len()],
                Op::ForEach(fe) => reduce_sites(&fe.body),
                _ => Vec::new(),
            })
            .collect()
    }

    #[test]
    fn two_uncentered_reduce_sites_on_one_field_become_one_lane_major_op() {
        let fx = fixture();
        let mut b = LoopBuilder::new("scatter2", fx.r);
        let i = b.loop_var();
        let v = b.val_read(fx.r, fx.rx, i);
        let p = b.idx_read(fx.r, fx.ptr, i, fx.fptr);
        b.val_reduce(fx.s, fx.sx, p, ReduceOp::Add, VExpr::mul(VExpr::Const(0.1), VExpr::var(v)));
        let g = b.idx_apply(fx.shift, i);
        b.val_reduce(fx.s, fx.sy, g, ReduceOp::Add, VExpr::var(v));
        b.val_reduce(fx.s, fx.sx, g, ReduceOp::Add, VExpr::mul(VExpr::Const(0.3), VExpr::var(v)));
        let code = lower_loop(&b.finish(), &fx.fns, &fx.schema).unwrap();
        assert!(!code.serial);
        // `sy` has one site and stays where it is; the two `sx` sites are
        // applied together at the second one.
        assert_eq!(reduce_sites(&code.ops), [1, 2]);
        // The first site's temporary survives until the group runs: the two
        // products live in different registers.
        let Some(Op::Reduce { sites, .. }) = code.ops.last() else { panic!("group comes last") };
        assert_ne!(sites[0].src, sites[1].src);
    }

    #[test]
    fn single_sites_and_lane_local_fields_stay_op_major() {
        let fx = fixture();
        // Centered read, write and reduction of one field, an uncentered
        // read of another, one uncentered reduction: no hazard.
        let mut b = LoopBuilder::new("plain", fx.s);
        let i = b.loop_var();
        let alias = b.idx_copy(i);
        let v = b.val_read(fx.s, fx.sx, alias);
        b.val_write(fx.s, fx.sx, i, VExpr::add(VExpr::var(v), VExpr::Const(1.0)));
        b.val_reduce(fx.s, fx.sx, i, ReduceOp::Add, VExpr::var(v));
        let code = lower_loop(&b.finish(), &fx.fns, &fx.schema).unwrap();
        assert!(!code.serial);
        assert_eq!(reduce_sites(&code.ops), [1]);
        assert!(
            !code.ops.iter().any(|op| matches!(op, Op::Apply { .. })),
            "the copy is resolved away"
        );
    }

    #[test]
    fn a_centered_reduction_inside_a_for_each_is_one_site_and_fine() {
        let fx = fixture();
        let mut b = LoopBuilder::new("rowsum", fx.r);
        let i = b.loop_var();
        let k = b.begin_for_each(fx.rows, i);
        let v = b.val_read(fx.s, fx.sx, k);
        b.val_reduce(fx.r, fx.rx, i, ReduceOp::Add, VExpr::var(v));
        b.end_for_each();
        let code = lower_loop(&b.finish(), &fx.fns, &fx.schema).unwrap();
        assert!(!code.serial);
        assert_eq!((code.depth, code.inner_hint), (1, 16));
        let Some(Op::ForEach(fe)) = code.ops.first() else { panic!("one ForEach") };
        assert_eq!(fe.imports_i.len(), 1, "the body reads the loop variable");
        assert_eq!(fe.imports_i[0].0, LOOP_VAR);
        assert!(fe.imports_v.is_empty());
    }

    #[test]
    fn conflicts_the_grouping_cannot_order_make_the_loop_serial() {
        let fx = fixture();
        // Read-then-update of a loop-invariant element inside a ForEach:
        // every inner lane of one parent meets on `rx[i]`.
        let mut b = LoopBuilder::new("carried", fx.r);
        let i = b.loop_var();
        let k = b.begin_for_each(fx.rows, i);
        let acc = b.val_read(fx.r, fx.rx, i);
        let v = b.val_read(fx.s, fx.sx, k);
        b.val_write(fx.r, fx.rx, i, VExpr::mul(VExpr::var(acc), VExpr::var(v)));
        b.end_for_each();
        assert!(lower_loop(&b.finish(), &fx.fns, &fx.schema).unwrap().serial);

        // Two uncentered reduction sites in different blocks.
        let mut b = LoopBuilder::new("split", fx.r);
        let i = b.loop_var();
        let v = b.val_read(fx.r, fx.rx, i);
        let p = b.idx_read(fx.r, fx.ptr, i, fx.fptr);
        b.val_reduce(fx.s, fx.sx, p, ReduceOp::Add, VExpr::var(v));
        let k = b.begin_for_each(fx.rows, i);
        b.val_reduce(fx.s, fx.sx, k, ReduceOp::Add, VExpr::var(v));
        b.end_for_each();
        let code = lower_loop(&b.finish(), &fx.fns, &fx.schema).unwrap();
        assert!(code.serial);
        assert_eq!(reduce_sites(&code.ops), [1, 1], "serial loops need no grouping");
    }

    #[test]
    fn temporaries_are_reused_and_constants_shared() {
        let fx = fixture();
        let mut b = LoopBuilder::new("poly", fx.s);
        let i = b.loop_var();
        let x = b.val_read(fx.s, fx.sx, i);
        let mut e = VExpr::Const(2.0);
        for _ in 0..6 {
            e = VExpr::add(VExpr::mul(e, VExpr::var(x)), VExpr::Const(2.0));
        }
        b.val_write(fx.s, fx.sy, i, e);
        let code = lower_loop(&b.finish(), &fx.fns, &fx.schema).unwrap();
        assert_eq!(code.consts.len(), 1);
        // x, the constant, and two temporaries ping-ponging.
        assert_eq!(code.n_vregs, 4);
        for op in &code.ops {
            if let Op::Bin { dst, a, b, .. } = op {
                assert!(dst != a && dst != b, "an op never overwrites its operand");
            }
        }
    }

    #[test]
    fn a_read_outside_the_assigning_block_is_out_of_scope() {
        let fx = fixture();
        // The value read inside the ForEach, used after it.
        let mut b = LoopBuilder::new("last_value", fx.r);
        let i = b.loop_var();
        let k = b.begin_for_each(fx.rows, i);
        let v = b.val_read(fx.s, fx.sx, k);
        b.end_for_each();
        b.val_write(fx.r, fx.rx, i, VExpr::var(v));
        assert_eq!(lower_loop(&b.finish(), &fx.fns, &fx.schema).err(), Some(OutOfScope));

        // The ForEach variable itself, used after the block ...
        let mut b = LoopBuilder::new("last_index", fx.r);
        let i = b.loop_var();
        let k = b.begin_for_each(fx.rows, i);
        b.end_for_each();
        let v = b.val_read(fx.s, fx.sx, k);
        b.val_write(fx.r, fx.rx, i, VExpr::var(v));
        assert_eq!(lower_loop(&b.finish(), &fx.fns, &fx.schema).err(), Some(OutOfScope));

        // ... or in a sibling block, through an import.
        let mut b = LoopBuilder::new("sibling", fx.r);
        let i = b.loop_var();
        let k = b.begin_for_each(fx.rows, i);
        b.end_for_each();
        b.begin_for_each(fx.rows, i);
        let v = b.val_read(fx.s, fx.sx, k);
        b.val_reduce(fx.r, fx.rx, i, ReduceOp::Add, VExpr::var(v));
        b.end_for_each();
        assert_eq!(lower_loop(&b.finish(), &fx.fns, &fx.schema).err(), Some(OutOfScope));

        // Outer variables stay visible inside, however deep.
        let mut b = LoopBuilder::new("nested", fx.r);
        let i = b.loop_var();
        let w = b.val_read(fx.r, fx.rx, i);
        let p = b.idx_read(fx.r, fx.ptr, i, fx.fptr);
        b.begin_for_each(fx.rows, i);
        b.begin_for_each(fx.rows, i);
        b.val_reduce(fx.s, fx.sy, p, ReduceOp::Add, VExpr::var(w));
        b.end_for_each();
        b.end_for_each();
        assert!(lower_loop(&b.finish(), &fx.fns, &fx.schema).is_ok());
    }
}
