//! The loop IR.
//!
//! Programs that the paper auto-parallelizes are sequences of *parallelizable
//! loops* over regions, whose bodies are built from the normalized statement
//! forms that Algorithm 1 consumes:
//!
//! * `c = S[x].fld` — pointer-field read (an uncentered-capable region access
//!   that also defines a new index variable);
//! * `y = f(x)` — applying a declared index function;
//! * `y = x` — index aliasing;
//! * `v = S[x].fld` / `S[x].fld = e` / `S[x].fld op= e` — value reads,
//!   writes, and reductions;
//! * `for k in F(x): …` — data-dependent inner loops (Section 4, SpMV).
//!
//! Every region-accessing statement carries a stable [`AccessId`] (its
//! pre-order position in the loop body) so downstream passes — constraint
//! inference, parallel plans, guarded execution — can refer to individual
//! access sites.

use partir_dpl::func::FnId;
use partir_dpl::region::{FieldId, RegionId};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem;

/// An index-typed local variable (loop variables, pointer values).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IVar(pub u32);

/// A value-typed (f64) local variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VVar(pub u32);

/// Identifies one region-access site within a loop (pre-order position).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessId(pub u32);

impl fmt::Debug for IVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}
impl fmt::Debug for VVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}
impl fmt::Debug for AccessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Reduction operators. All are associative and commutative, which is what
/// the two-step distributed reduction protocol (Section 2) requires.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ReduceOp {
    Add,
    Mul,
    Min,
    Max,
}

impl ReduceOp {
    /// Identity element of the reduction (the initial value of temporary
    /// reduction buffers).
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Add => 0.0,
            ReduceOp::Mul => 1.0,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Applies the reduction: `acc ⊕ v`.
    pub fn apply(self, acc: f64, v: f64) -> f64 {
        match self {
            ReduceOp::Add => acc + v,
            ReduceOp::Mul => acc * v,
            ReduceOp::Min => acc.min(v),
            ReduceOp::Max => acc.max(v),
        }
    }
}

/// Unary math on values.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum UnOp {
    Neg,
    Abs,
    Sqrt,
}

/// Binary math on values.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
}

/// Pure value expressions over previously-read value variables.
#[derive(Clone, Debug, PartialEq)]
pub enum VExpr {
    Const(f64),
    Var(VVar),
    Un(UnOp, Box<VExpr>),
    Bin(BinOp, Box<VExpr>, Box<VExpr>),
}

/// `Const` hashes its bit pattern, so `0.0` and `-0.0` hash apart and each
/// NaN payload is its own value. That is stricter than the derived `==`,
/// under which `Const(0.0) == Const(-0.0)`; no std map can meet the
/// mismatch, since maps need `Eq` and `VExpr` is only `PartialEq`. For the
/// plan-cache key it is the safe direction: the cached plan carries its
/// program, `x / 0.0` and `x / -0.0` differ, and the worst a stricter hash
/// costs is a cache miss.
impl Hash for VExpr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        mem::discriminant(self).hash(state);
        match self {
            VExpr::Const(c) => c.to_bits().hash(state),
            VExpr::Var(v) => v.hash(state),
            VExpr::Un(op, a) => (op, a).hash(state),
            VExpr::Bin(op, a, b) => (op, a, b).hash(state),
        }
    }
}

// The arithmetic names are DSL constructors taking two operands by value,
// not the binary-operator traits (which would force references or clones
// at every use site in loop builders).
#[allow(clippy::should_implement_trait)]
impl VExpr {
    pub fn add(a: VExpr, b: VExpr) -> VExpr {
        VExpr::Bin(BinOp::Add, Box::new(a), Box::new(b))
    }
    pub fn sub(a: VExpr, b: VExpr) -> VExpr {
        VExpr::Bin(BinOp::Sub, Box::new(a), Box::new(b))
    }
    pub fn mul(a: VExpr, b: VExpr) -> VExpr {
        VExpr::Bin(BinOp::Mul, Box::new(a), Box::new(b))
    }
    pub fn div(a: VExpr, b: VExpr) -> VExpr {
        VExpr::Bin(BinOp::Div, Box::new(a), Box::new(b))
    }
    pub fn var(v: VVar) -> VExpr {
        VExpr::Var(v)
    }

    /// Value variables read by this expression.
    pub fn vars(&self, out: &mut Vec<VVar>) {
        match self {
            VExpr::Const(_) => {}
            VExpr::Var(v) => out.push(*v),
            VExpr::Un(_, e) => e.vars(out),
            VExpr::Bin(_, a, b) => {
                a.vars(out);
                b.vars(out);
            }
        }
    }
}

/// One statement of a loop body.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum Stmt {
    /// `dst = region[src].field` where `field` is a pointer field; `f` is the
    /// declared function symbol for `region[·].field`. This is a region
    /// access (it reads `field`) *and* an index definition.
    IdxRead { access: AccessId, dst: IVar, region: RegionId, field: FieldId, src: IVar, f: FnId },
    /// `dst = f(src)` for a declared single-valued index function. Not a
    /// region access.
    IdxApply { dst: IVar, f: FnId, src: IVar },
    /// `dst = src` (aliasing).
    IdxCopy { dst: IVar, src: IVar },
    /// `dst = region[idx].field` for an f64 field.
    ValRead { access: AccessId, dst: VVar, region: RegionId, field: FieldId, idx: IVar },
    /// `region[idx].field = value`.
    ValWrite { access: AccessId, region: RegionId, field: FieldId, idx: IVar, value: VExpr },
    /// `region[idx].field op= value`.
    ValReduce {
        access: AccessId,
        region: RegionId,
        field: FieldId,
        idx: IVar,
        op: ReduceOp,
        value: VExpr,
    },
    /// `for var in F(src): body` — a data-dependent inner loop whose
    /// iteration set is the set-valued function `F` applied to `src`
    /// (Section 4). Reading the range bounds is itself a region access when
    /// `F` is a range field; that access is recorded by `range_access`.
    ForEach { range_access: AccessId, var: IVar, f: FnId, src: IVar, body: Vec<Stmt> },
}

/// A parallelizable-candidate loop: `for var in region: body`.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Loop {
    pub name: String,
    pub var: IVar,
    pub region: RegionId,
    pub body: Vec<Stmt>,
    /// Total number of local index/value variables (allocation hint for
    /// interpreter frames).
    pub num_ivars: u32,
    pub num_vvars: u32,
    /// Total number of access sites.
    pub num_accesses: u32,
}

/// A whole program: the "main loop" body — a sequence of parallelizable
/// loops executed in order (possibly repeated by a driver).
#[derive(Clone, Debug, Default)]
pub struct Program {
    pub loops: Vec<Loop>,
}

impl Program {
    pub fn new() -> Self {
        Program::default()
    }
    pub fn push(&mut self, l: Loop) {
        self.loops.push(l);
    }
}

/// Builder for loops. Allocates variables and access ids, keeps the body
/// well-formed (every variable defined before use).
pub struct LoopBuilder {
    name: String,
    region: RegionId,
    var: IVar,
    next_ivar: u32,
    next_vvar: u32,
    next_access: u32,
    /// Stack of statement lists: the last entry is the innermost open block.
    blocks: Vec<Vec<Stmt>>,
    /// Headers of open `for_each` blocks, innermost last.
    pending_foreach: Vec<(IVar, FnId, IVar, AccessId)>,
}

impl LoopBuilder {
    /// Starts `for <loopvar> in region`. The loop variable is `IVar(0)`.
    pub fn new(name: impl Into<String>, region: RegionId) -> Self {
        LoopBuilder {
            name: name.into(),
            region,
            var: IVar(0),
            next_ivar: 1,
            next_vvar: 0,
            next_access: 0,
            blocks: vec![Vec::new()],
            pending_foreach: Vec::new(),
        }
    }

    pub fn loop_var(&self) -> IVar {
        self.var
    }

    fn fresh_ivar(&mut self) -> IVar {
        let v = IVar(self.next_ivar);
        self.next_ivar += 1;
        v
    }

    fn fresh_vvar(&mut self) -> VVar {
        let v = VVar(self.next_vvar);
        self.next_vvar += 1;
        v
    }

    fn fresh_access(&mut self) -> AccessId {
        let a = AccessId(self.next_access);
        self.next_access += 1;
        a
    }

    fn emit(&mut self, s: Stmt) {
        self.blocks.last_mut().expect("open block").push(s);
    }

    /// `dst = region[src].field` (pointer field).
    pub fn idx_read(&mut self, region: RegionId, field: FieldId, src: IVar, f: FnId) -> IVar {
        let dst = self.fresh_ivar();
        let access = self.fresh_access();
        self.emit(Stmt::IdxRead { access, dst, region, field, src, f });
        dst
    }

    /// `dst = f(src)`.
    pub fn idx_apply(&mut self, f: FnId, src: IVar) -> IVar {
        let dst = self.fresh_ivar();
        self.emit(Stmt::IdxApply { dst, f, src });
        dst
    }

    /// `dst = src`.
    pub fn idx_copy(&mut self, src: IVar) -> IVar {
        let dst = self.fresh_ivar();
        self.emit(Stmt::IdxCopy { dst, src });
        dst
    }

    /// `dst = region[idx].field`.
    pub fn val_read(&mut self, region: RegionId, field: FieldId, idx: IVar) -> VVar {
        let dst = self.fresh_vvar();
        let access = self.fresh_access();
        self.emit(Stmt::ValRead { access, dst, region, field, idx });
        dst
    }

    /// `region[idx].field = value`.
    pub fn val_write(&mut self, region: RegionId, field: FieldId, idx: IVar, value: VExpr) {
        let access = self.fresh_access();
        self.emit(Stmt::ValWrite { access, region, field, idx, value });
    }

    /// `region[idx].field op= value`.
    pub fn val_reduce(
        &mut self,
        region: RegionId,
        field: FieldId,
        idx: IVar,
        op: ReduceOp,
        value: VExpr,
    ) {
        let access = self.fresh_access();
        self.emit(Stmt::ValReduce { access, region, field, idx, op, value });
    }

    /// Opens `for <returned var> in F(src):`; close with [`LoopBuilder::end_for_each`].
    pub fn begin_for_each(&mut self, f: FnId, src: IVar) -> IVar {
        let var = self.fresh_ivar();
        self.blocks.push(Vec::new());
        // The header access id is allocated when the block closes, in
        // pre-order position of the ForEach statement itself — but pre-order
        // requires it *before* the body's accesses, so allocate now and
        // remember it via a sentinel on the stack.
        let range_access = self.fresh_access();
        self.pending_foreach.push((var, f, src, range_access));
        var
    }

    /// Closes the innermost `for_each` block.
    pub fn end_for_each(&mut self) {
        let body = self.blocks.pop().expect("unbalanced end_for_each");
        let (var, f, src, range_access) =
            self.pending_foreach.pop().expect("unbalanced end_for_each");
        self.emit(Stmt::ForEach { range_access, var, f, src, body });
    }

    /// Finishes the loop.
    pub fn finish(mut self) -> Loop {
        assert!(self.pending_foreach.is_empty(), "unclosed for_each block");
        assert_eq!(self.blocks.len(), 1, "unclosed block");
        Loop {
            name: self.name,
            var: self.var,
            region: self.region,
            body: self.blocks.pop().unwrap(),
            num_ivars: self.next_ivar,
            num_vvars: self.next_vvar,
            num_accesses: self.next_access,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_op_identities() {
        assert_eq!(ReduceOp::Add.identity(), 0.0);
        assert_eq!(ReduceOp::Mul.identity(), 1.0);
        assert_eq!(ReduceOp::Min.identity(), f64::INFINITY);
        assert_eq!(ReduceOp::Max.identity(), f64::NEG_INFINITY);
        assert_eq!(ReduceOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Mul.apply(2.0, 3.0), 6.0);
    }

    #[test]
    fn vexpr_vars_collects_reads() {
        let e = VExpr::add(
            VExpr::mul(VExpr::var(VVar(0)), VExpr::Const(2.0)),
            VExpr::Un(UnOp::Neg, Box::new(VExpr::var(VVar(3)))),
        );
        let mut vs = Vec::new();
        e.vars(&mut vs);
        assert_eq!(vs, vec![VVar(0), VVar(3)]);
    }

    #[test]
    fn builder_allocates_pre_order_access_ids() {
        let r = RegionId(0);
        let fld = FieldId(0);
        let vfld = FieldId(1);
        let f = FnId(0);
        let mut b = LoopBuilder::new("l", r);
        let p = b.loop_var();
        let c = b.idx_read(r, fld, p, f); // access a0
        let v = b.val_read(r, vfld, c); // access a1
        b.val_reduce(r, vfld, p, ReduceOp::Add, VExpr::var(v)); // access a2
        let l = b.finish();
        assert_eq!(l.num_accesses, 3);
        assert_eq!(l.num_ivars, 2);
        assert_eq!(l.num_vvars, 1);
        match &l.body[0] {
            Stmt::IdxRead { access, dst, .. } => {
                assert_eq!(*access, AccessId(0));
                assert_eq!(*dst, c);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &l.body[2] {
            Stmt::ValReduce { access, op, .. } => {
                assert_eq!(*access, AccessId(2));
                assert_eq!(*op, ReduceOp::Add);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn builder_nested_for_each() {
        let r = RegionId(0);
        let f = FnId(0);
        let mut b = LoopBuilder::new("spmv", r);
        let i = b.loop_var();
        let k = b.begin_for_each(f, i);
        let _v = b.val_read(r, FieldId(0), k);
        b.end_for_each();
        let l = b.finish();
        assert_eq!(l.body.len(), 1);
        match &l.body[0] {
            Stmt::ForEach { range_access, var, body, .. } => {
                assert_eq!(*range_access, AccessId(0));
                assert_eq!(*var, k);
                assert_eq!(body.len(), 1);
                // Body access allocated after the header: a1.
                match &body[0] {
                    Stmt::ValRead { access, .. } => assert_eq!(*access, AccessId(1)),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unclosed for_each")]
    fn builder_rejects_unclosed_block() {
        let mut b = LoopBuilder::new("bad", RegionId(0));
        let i = b.loop_var();
        b.begin_for_each(FnId(0), i);
        let _ = b.finish();
    }
}
