//! The partitioning-constraint language (Figure 5).
//!
//! Ground terms are regions and partitions. A partitioning constraint is a
//! conjunction of *predicates* — `PART(E, R)`, `DISJ(E)`, `COMP(E, R)` — and
//! *subset constraints* `E1 ⊆ E2`, where expressions `E` are built from
//! partition symbols, externally-provided partitions, and the DPL operators
//! `equal`, `image`, `preimage`, `∪`, `∩`, `−`.
//!
//! Two kinds of conjuncts live in a [`System`]:
//! * **obligations** — constraints inferred from the program that the
//!   solver must discharge by synthesizing partitioning code;
//! * **facts** — user-provided invariants on external partitions
//!   (Section 3.3); the solver may *use* them but never has to prove them
//!   (they are checked dynamically at runtime instead).

pub mod arena;

pub use arena::{Expr, ExprArena, ExprId};

use partir_dpl::func::{FnId, FnTable};
use partir_dpl::region::RegionId;
use std::fmt;

/// A partition symbol: a placeholder the solver must bind to an expression.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PSym(pub u32);

/// An externally-provided partition (fixed: the solver never binds it).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExtId(pub u32);

impl fmt::Debug for PSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}
impl fmt::Debug for ExtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ext{}", self.0)
    }
}

/// A function position in an `image`/`preimage` expression: either a
/// declared function or the identity (`f_ID` in Algorithm 1, used for
/// centered accesses to regions other than the iteration space).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum FnRef {
    Identity,
    Fn(FnId),
}

impl FnRef {
    pub fn display<'a>(&self, fns: &'a FnTable) -> &'a str {
        match self {
            FnRef::Identity => "id",
            FnRef::Fn(f) => fns.name(*f),
        }
    }
}

/// Partition expressions (Figure 5's `E`) in tree form: the form in which
/// hints and hand-built systems are written. It is an input only — interned
/// once into an [`ExprArena`] (through [`ExprArena::intern`], [`IntoExprId`]
/// or `Evaluator::eval`) and never produced from an id.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PExpr {
    Sym(PSym),
    Ext(ExtId),
    /// `equal(R)` — subregion count is elided, as in the paper ("integer
    /// arguments ... do not affect constraint solving").
    Equal(RegionId),
    /// `image(src, f, target)`; also covers the generalized `IMAGE` when
    /// `f` names a set-valued function.
    Image {
        src: Box<PExpr>,
        f: FnRef,
        target: RegionId,
    },
    /// `preimage(domain, f, src)`; also the generalized `PREIMAGE`.
    Preimage {
        domain: RegionId,
        f: FnRef,
        src: Box<PExpr>,
    },
    Union(Box<PExpr>, Box<PExpr>),
    Intersect(Box<PExpr>, Box<PExpr>),
    Difference(Box<PExpr>, Box<PExpr>),
}

impl PExpr {
    pub fn sym(s: PSym) -> PExpr {
        PExpr::Sym(s)
    }
    pub fn ext(e: ExtId) -> PExpr {
        PExpr::Ext(e)
    }
    pub fn image(src: PExpr, f: FnRef, target: RegionId) -> PExpr {
        PExpr::Image { src: Box::new(src), f, target }
    }
    pub fn preimage(domain: RegionId, f: FnRef, src: PExpr) -> PExpr {
        PExpr::Preimage { domain, f, src: Box::new(src) }
    }
    pub fn union(a: PExpr, b: PExpr) -> PExpr {
        PExpr::Union(Box::new(a), Box::new(b))
    }
    pub fn intersect(a: PExpr, b: PExpr) -> PExpr {
        PExpr::Intersect(Box::new(a), Box::new(b))
    }
    pub fn difference(a: PExpr, b: PExpr) -> PExpr {
        PExpr::Difference(Box::new(a), Box::new(b))
    }
}

/// The predicates `ϕ` of Figure 5, over interned expression ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Pred {
    Part(ExprId, RegionId),
    Disj(ExprId),
    Comp(ExprId, RegionId),
}

/// A subset constraint `lhs ⊆ rhs`, over interned expression ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Subset {
    pub lhs: ExprId,
    pub rhs: ExprId,
}

/// Anything a constraint-building API accepts as an expression: an
/// already-interned [`ExprId`] or a tree-form [`PExpr`] (interned on the
/// way in). Keeps `System::require_*` call sites ergonomic in both worlds.
pub trait IntoExprId {
    fn into_expr_id(self, arena: &ExprArena) -> ExprId;
}

impl IntoExprId for ExprId {
    fn into_expr_id(self, _arena: &ExprArena) -> ExprId {
        self
    }
}

impl IntoExprId for &PExpr {
    fn into_expr_id(self, arena: &ExprArena) -> ExprId {
        arena.intern(self)
    }
}

impl IntoExprId for PExpr {
    fn into_expr_id(self, arena: &ExprArena) -> ExprId {
        arena.intern(&self)
    }
}

/// Declaration of an externally-provided partition.
#[derive(Clone, Debug)]
pub struct ExternalDecl {
    pub name: String,
    pub region: RegionId,
}

/// A system of partitioning constraints.
///
/// All expressions are interned in the system's [`ExprArena`]; cloning a
/// `System` shares the arena, so ids stay comparable across the clones the
/// pipeline makes for unification rewrites and trial solves.
#[derive(Clone, Debug, Default)]
pub struct System {
    /// Interning arena for every expression this system mentions.
    pub arena: ExprArena,
    /// Region of each partition symbol (`PART(P, R)` is implicit for every
    /// symbol; compound-expression `PART` predicates go in `obligations`).
    pub sym_regions: Vec<RegionId>,
    /// Names for symbols (diagnostics: which access created them).
    pub sym_names: Vec<String>,
    pub externals: Vec<ExternalDecl>,
    /// Predicates the solver must make true.
    pub pred_obligations: Vec<Pred>,
    /// Subset constraints the solver must make true.
    pub subset_obligations: Vec<Subset>,
    /// User-provided invariants (assumed true; checkable at runtime).
    pub pred_facts: Vec<Pred>,
    pub subset_facts: Vec<Subset>,
}

impl System {
    pub fn new() -> Self {
        System::default()
    }

    pub fn fresh_sym(&mut self, region: RegionId, name: impl Into<String>) -> PSym {
        let s = PSym(self.sym_regions.len() as u32);
        self.sym_regions.push(region);
        self.sym_names.push(name.into());
        self.arena.register_sym(region);
        s
    }

    pub fn add_external(&mut self, name: impl Into<String>, region: RegionId) -> ExtId {
        let e = ExtId(self.externals.len() as u32);
        self.externals.push(ExternalDecl { name: name.into(), region });
        self.arena.register_ext(region);
        e
    }

    /// Interns an expression into this system's arena.
    pub fn intern(&self, e: impl IntoExprId) -> ExprId {
        e.into_expr_id(&self.arena)
    }

    pub fn sym_region(&self, s: PSym) -> RegionId {
        self.sym_regions[s.0 as usize]
    }

    pub fn ext_region(&self, e: ExtId) -> RegionId {
        self.externals[e.0 as usize].region
    }

    pub fn num_syms(&self) -> usize {
        self.sym_regions.len()
    }

    /// Region an expression partitions, when derivable syntactically
    /// (cached in the arena's side table).
    pub fn expr_region(&self, e: ExprId) -> Option<RegionId> {
        self.arena.region(e)
    }

    pub fn require_disj(&mut self, e: impl IntoExprId) {
        let e = self.intern(e);
        self.pred_obligations.push(Pred::Disj(e));
    }

    pub fn require_comp(&mut self, e: impl IntoExprId, r: RegionId) {
        let e = self.intern(e);
        self.pred_obligations.push(Pred::Comp(e, r));
    }

    pub fn require_subset(&mut self, lhs: impl IntoExprId, rhs: impl IntoExprId) {
        let (lhs, rhs) = (self.intern(lhs), self.intern(rhs));
        self.subset_obligations.push(Subset { lhs, rhs });
    }

    pub fn assume_fact_subset(&mut self, lhs: impl IntoExprId, rhs: impl IntoExprId) {
        let (lhs, rhs) = (self.intern(lhs), self.intern(rhs));
        self.subset_facts.push(Subset { lhs, rhs });
    }

    pub fn assume_fact_pred(&mut self, p: Pred) {
        self.pred_facts.push(p);
    }

    /// Pretty-prints an interned expression with this system's names.
    pub fn display_expr(&self, e: ExprId, fns: &FnTable) -> String {
        self.arena.display(e, fns, &self.externals)
    }

    /// Human-readable rendering of the whole system.
    pub fn display(&self, fns: &FnTable) -> String {
        let mut out = String::new();
        use std::fmt::Write;
        for (i, r) in self.sym_regions.iter().enumerate() {
            let _ = writeln!(out, "PART(P{i}, r{})   // {}", r.0, self.sym_names[i]);
        }
        for p in &self.pred_obligations {
            let _ = writeln!(out, "{}", self.display_pred(p, fns));
        }
        for s in &self.subset_obligations {
            let _ = writeln!(
                out,
                "{} ⊆ {}",
                self.display_expr(s.lhs, fns),
                self.display_expr(s.rhs, fns)
            );
        }
        for p in &self.pred_facts {
            let _ = writeln!(out, "[fact] {}", self.display_pred(p, fns));
        }
        for s in &self.subset_facts {
            let _ = writeln!(
                out,
                "[fact] {} ⊆ {}",
                self.display_expr(s.lhs, fns),
                self.display_expr(s.rhs, fns)
            );
        }
        out
    }

    pub fn display_pred(&self, p: &Pred, fns: &FnTable) -> String {
        match p {
            Pred::Part(e, r) => format!("PART({}, r{})", self.display_expr(*e, fns), r.0),
            Pred::Disj(e) => format!("DISJ({})", self.display_expr(*e, fns)),
            Pred::Comp(e, r) => format!("COMP({}, r{})", self.display_expr(*e, fns), r.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RegionId {
        RegionId(i)
    }

    #[test]
    fn expr_region_derivation() {
        let mut sys = System::new();
        let p = sys.fresh_sym(r(0), "p");
        let ps = sys.intern(PExpr::sym(p));
        assert_eq!(sys.expr_region(ps), Some(r(0)));
        let img = sys.intern(PExpr::image(PExpr::sym(p), FnRef::Identity, r(5)));
        assert_eq!(sys.expr_region(img), Some(r(5)));
        let pre = sys.intern(PExpr::preimage(r(3), FnRef::Identity, PExpr::sym(p)));
        assert_eq!(sys.expr_region(pre), Some(r(3)));
        // Mixed-region union has no region.
        let bad = sys.intern(PExpr::union(PExpr::Equal(r(0)), PExpr::Equal(r(1))));
        assert_eq!(sys.expr_region(bad), None);
        let ok = sys.intern(PExpr::union(PExpr::Equal(r(1)), PExpr::Equal(r(1))));
        assert_eq!(sys.expr_region(ok), Some(r(1)));
    }

    #[test]
    fn display_is_readable() {
        let mut sys = System::new();
        let p = sys.fresh_sym(r(0), "iter");
        let fns = FnTable::new();
        sys.require_subset(PExpr::Equal(r(0)), PExpr::sym(p));
        sys.require_comp(PExpr::sym(p), r(0));
        let s = sys.display(&fns);
        assert!(s.contains("PART(P0, r0)"));
        assert!(s.contains("equal(r0) ⊆ P0"));
        assert!(s.contains("COMP(P0, r0)"));
    }
}
