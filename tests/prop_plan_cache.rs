//! Plan-cache soundness, empirically.
//!
//! Two families of guarantees:
//!
//! 1. **Key separation** — solves whose inputs differ in any one leaf (a
//!    statement field, a function parameter, a region or field, a hint, an
//!    option, a run of an external binding, the color count) never share a
//!    fingerprint, so a shared [`PlanCache`] can never serve a plan solved
//!    under different inputs (property-tested over the random program
//!    generator, with the inputs' `Debug` text as the oracle for "differ").
//! 2. **Hit transparency** — a cache-hit [`Plan`] executes bit-identically
//!    to a cold solve: on the random generator across both backends, and
//!    on all five paper applications at 1/2/4/8 ranks.

use partir::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

mod common;
use common::{arb_cfg, assert_f64_fields_eq, build, Built, Cfg};

/// An equal block split of `[0, n)` into `colors` pieces, as an external
/// binding.
fn block_partition(region: RegionId, n: u64, colors: usize, shift: u64) -> Partition {
    let per = n / colors as u64;
    let sets = (0..colors as u64)
        .map(|c| {
            let lo = (c * per + shift).min(n);
            let hi = if c == colors as u64 - 1 { n } else { ((c + 1) * per + shift).min(n) };
            IndexSet::from_range(lo, hi)
        })
        .collect();
    Partition::new(region, sets)
}

/// Hints declaring one disjoint+complete external over region B.
fn external_hints(b_r: RegionId) -> Hints {
    let mut hints = Hints::new();
    let e = hints.external("pb", b_r);
    hints.fact_disj(PExpr::ext(e));
    hints.fact_comp(PExpr::ext(e), b_r);
    hints
}

/// Everything [`solve_fingerprint`] keys on, owned, so one leaf at a time
/// can be changed.
#[derive(Clone, Debug)]
struct SolveInputs {
    program: Vec<Loop>,
    fns: FnTable,
    schema: Schema,
    hints: Hints,
    opts: Options,
    exts: ExtBindings,
    colors: usize,
}

impl SolveInputs {
    fn fp(&self) -> Fingerprint {
        let SolveInputs { program, fns, schema, hints, opts, exts, colors } = self;
        solve_fingerprint(program, fns, schema, hints, opts, exts, *colors)
    }
}

/// The generated program plus a loop that holds every statement form and
/// every `VExpr` variant, a function table with every `IndexFn` / `MultiFn`
/// variant, one entry in each hint list, one bound external, and a budget
/// with every limit set: something to change at every leaf.
fn base_inputs(built: &Built, colors: usize) -> SolveInputs {
    let schema = built.store.schema().clone();
    let b_r = RegionId(0); // the generator adds "B" first
    let mut program = built.program.clone();
    program.push(cover_loop());
    let mut fns = built.fns.clone();
    fns.add(
        "cover",
        b_r,
        b_r,
        FnDef::Multi(MultiFn::Lift(IndexFn::Compose(
            Box::new(IndexFn::Affine { mul: 2, add: -1 }),
            Box::new(IndexFn::Identity),
        ))),
    );
    let mut exts = ExtBindings::new();
    exts.push(block_partition(b_r, schema.region_size(b_r), colors, 0));
    let solve_budget = SolveBudget {
        max_nodes: Some(1_000),
        max_backtracks: Some(100),
        deadline: Some(Duration::from_secs(60)),
    };
    SolveInputs {
        program,
        fns,
        schema,
        hints: HintSpec::new(b_r).hints(),
        opts: Options { solve_budget, ..Options::default() },
        exts,
        colors,
    }
}

/// Every statement form and every `VExpr` variant, over the generator's
/// ids. It is fingerprinted, never solved, so it need not type-check.
fn cover_loop() -> Loop {
    let (b_r, a_r) = (RegionId(0), RegionId(1));
    let mut bld = LoopBuilder::new("cover", a_r);
    let i = bld.loop_var();
    let p = bld.idx_read(a_r, FieldId(0), i, FnId(0));
    let q = bld.idx_apply(FnId(1), p);
    let r = bld.idx_copy(q);
    let k = bld.begin_for_each(FnId(3), r);
    let v = bld.val_read(b_r, FieldId(3), k);
    let e = VExpr::Bin(
        BinOp::Min,
        Box::new(VExpr::var(v)),
        Box::new(VExpr::Un(UnOp::Abs, Box::new(VExpr::Const(0.0)))),
    );
    bld.val_reduce(b_r, FieldId(4), r, ReduceOp::Max, e);
    bld.end_for_each();
    bld.val_write(a_r, FieldId(2), i, VExpr::Const(0.0));
    bld.finish()
}

/// The hint lists, one entry each, as plain values a mutation can change
/// (`Hints` keeps its lists private).
#[derive(Clone)]
struct HintSpec {
    external: (String, RegionId),
    subset: (PExpr, PExpr),
    disj: PExpr,
    comp: (PExpr, RegionId),
    private: (RegionId, PExpr),
}

impl HintSpec {
    /// Between them the expressions use every `PExpr` variant.
    fn new(b_r: RegionId) -> HintSpec {
        let ext = PExpr::ext(ExtId(0));
        let rhs = PExpr::union(
            ext.clone(),
            PExpr::intersect(
                PExpr::Equal(b_r),
                PExpr::difference(
                    ext.clone(),
                    PExpr::preimage(b_r, FnRef::Identity, PExpr::sym(PSym(1))),
                ),
            ),
        );
        HintSpec {
            external: ("pb".into(), b_r),
            subset: (PExpr::image(PExpr::sym(PSym(0)), FnRef::Fn(FnId(0)), b_r), rhs),
            disj: ext.clone(),
            comp: (ext.clone(), b_r),
            private: (b_r, ext),
        }
    }

    fn hints(&self) -> Hints {
        let mut h = Hints::new();
        h.external(self.external.0.clone(), self.external.1);
        h.fact_subset(self.subset.0.clone(), self.subset.1.clone());
        h.fact_disj(self.disj.clone());
        h.fact_comp(self.comp.0.clone(), self.comp.1);
        h.private_sub(self.private.0, self.private.1.clone());
        h
    }

    fn mutants(&self) -> Vec<(String, Hints)> {
        let mut out = Vec::new();
        let mut push = |what: &str, f: &dyn Fn(&mut HintSpec)| {
            let mut s = self.clone();
            f(&mut s);
            out.push((format!("hints.{what}"), s.hints()));
        };
        push("externals name", &|s| s.external.0.push('x'));
        push("externals region", &|s| s.external.1 .0 += 1);
        push("comp region", &|s| s.comp.1 .0 += 1);
        push("private_subs region", &|s| s.private.0 .0 += 1);
        for m in pexpr_mutants(&self.subset.0) {
            push("subset_facts lhs", &|s| s.subset.0 = m.clone());
        }
        for m in pexpr_mutants(&self.subset.1) {
            push("subset_facts rhs", &|s| s.subset.1 = m.clone());
        }
        for m in pexpr_mutants(&self.disj) {
            push("pred_facts disj", &|s| s.disj = m.clone());
        }
        for m in pexpr_mutants(&self.comp.0) {
            push("pred_facts comp", &|s| s.comp.0 = m.clone());
        }
        for m in pexpr_mutants(&self.private.1) {
            push("private_subs expr", &|s| s.private.1 = m.clone());
        }
        out
    }
}

fn bump_region(r: RegionId) -> RegionId {
    RegionId(r.0 + 1)
}

fn other_fn_ref(f: FnRef) -> FnRef {
    match f {
        FnRef::Identity => FnRef::Fn(FnId(0)),
        FnRef::Fn(id) => FnRef::Fn(FnId(id.0 + 1)),
    }
}

/// `e` with one leaf changed, every way.
fn pexpr_mutants(e: &PExpr) -> Vec<PExpr> {
    let sub = |a: &PExpr, rebuild: &dyn Fn(PExpr) -> PExpr| {
        pexpr_mutants(a).into_iter().map(rebuild).collect::<Vec<_>>()
    };
    match e {
        PExpr::Sym(s) => vec![PExpr::Sym(PSym(s.0 + 1)), PExpr::Ext(ExtId(s.0))],
        PExpr::Ext(x) => vec![PExpr::Ext(ExtId(x.0 + 1)), PExpr::Sym(PSym(x.0))],
        PExpr::Equal(r) => vec![PExpr::Equal(bump_region(*r))],
        PExpr::Image { src, f, target } => {
            let mut out = sub(src, &|m| PExpr::image(m, *f, *target));
            out.push(PExpr::image((**src).clone(), other_fn_ref(*f), *target));
            out.push(PExpr::image((**src).clone(), *f, bump_region(*target)));
            out.push(PExpr::preimage(*target, *f, (**src).clone()));
            out
        }
        PExpr::Preimage { domain, f, src } => {
            let mut out = sub(src, &|m| PExpr::preimage(*domain, *f, m));
            out.push(PExpr::preimage(bump_region(*domain), *f, (**src).clone()));
            out.push(PExpr::preimage(*domain, other_fn_ref(*f), (**src).clone()));
            out
        }
        PExpr::Union(a, b) | PExpr::Intersect(a, b) | PExpr::Difference(a, b) => {
            let op = |x: PExpr, y: PExpr| match e {
                PExpr::Union(..) => PExpr::union(x, y),
                PExpr::Intersect(..) => PExpr::intersect(x, y),
                _ => PExpr::difference(x, y),
            };
            let next = |x: PExpr, y: PExpr| match e {
                PExpr::Union(..) => PExpr::intersect(x, y),
                PExpr::Intersect(..) => PExpr::difference(x, y),
                _ => PExpr::union(x, y),
            };
            let mut out = sub(a, &|m| op(m, (**b).clone()));
            out.extend(sub(b, &|m| op((**a).clone(), m)));
            out.push(next((**a).clone(), (**b).clone()));
            out.push(op((**b).clone(), (**a).clone()));
            out
        }
    }
}

fn other_un(op: UnOp) -> UnOp {
    match op {
        UnOp::Neg => UnOp::Abs,
        UnOp::Abs => UnOp::Sqrt,
        UnOp::Sqrt => UnOp::Neg,
    }
}

fn other_bin(op: BinOp) -> BinOp {
    match op {
        BinOp::Add => BinOp::Sub,
        BinOp::Sub => BinOp::Mul,
        BinOp::Mul => BinOp::Div,
        BinOp::Div => BinOp::Min,
        BinOp::Min => BinOp::Max,
        BinOp::Max => BinOp::Add,
    }
}

fn other_reduce(op: ReduceOp) -> ReduceOp {
    match op {
        ReduceOp::Add => ReduceOp::Mul,
        ReduceOp::Mul => ReduceOp::Min,
        ReduceOp::Min => ReduceOp::Max,
        ReduceOp::Max => ReduceOp::Add,
    }
}

/// `e` with one leaf changed, every way. `Const(c)` becomes `Const(-c)`,
/// which for `0.0` is `-0.0`: equal under `==`, a different constant to a
/// program that divides by it.
fn vexpr_mutants(e: &VExpr) -> Vec<VExpr> {
    match e {
        VExpr::Const(c) => vec![VExpr::Const(-c), VExpr::Const(c + 1.0), VExpr::Var(VVar(0))],
        VExpr::Var(v) => vec![VExpr::Var(VVar(v.0 + 1)), VExpr::Const(v.0 as f64)],
        VExpr::Un(op, a) => {
            let mut out: Vec<_> =
                vexpr_mutants(a).into_iter().map(|m| VExpr::Un(*op, Box::new(m))).collect();
            out.push(VExpr::Un(other_un(*op), a.clone()));
            out
        }
        VExpr::Bin(op, a, b) => {
            let mut out: Vec<_> = vexpr_mutants(a)
                .into_iter()
                .map(|m| VExpr::Bin(*op, Box::new(m), b.clone()))
                .chain(
                    vexpr_mutants(b).into_iter().map(|m| VExpr::Bin(*op, a.clone(), Box::new(m))),
                )
                .collect();
            out.push(VExpr::Bin(other_bin(*op), a.clone(), b.clone()));
            out
        }
    }
}

/// The id leaves of a statement; its value expression, operator and body
/// are mutated apart. The patterns name every field, so a field added to
/// `Stmt` does not compile here until it is mutated too.
fn id_leaves(s: &mut Stmt) -> Vec<(&'static str, &mut u32)> {
    match s {
        Stmt::IdxRead { access, dst, region, field, src, f } => vec![
            ("IdxRead.access", &mut access.0),
            ("IdxRead.dst", &mut dst.0),
            ("IdxRead.region", &mut region.0),
            ("IdxRead.field", &mut field.0),
            ("IdxRead.src", &mut src.0),
            ("IdxRead.f", &mut f.0),
        ],
        Stmt::IdxApply { dst, f, src } => {
            vec![
                ("IdxApply.dst", &mut dst.0),
                ("IdxApply.f", &mut f.0),
                ("IdxApply.src", &mut src.0),
            ]
        }
        Stmt::IdxCopy { dst, src } => {
            vec![("IdxCopy.dst", &mut dst.0), ("IdxCopy.src", &mut src.0)]
        }
        Stmt::ValRead { access, dst, region, field, idx } => vec![
            ("ValRead.access", &mut access.0),
            ("ValRead.dst", &mut dst.0),
            ("ValRead.region", &mut region.0),
            ("ValRead.field", &mut field.0),
            ("ValRead.idx", &mut idx.0),
        ],
        Stmt::ValWrite { access, region, field, idx, value: _ } => vec![
            ("ValWrite.access", &mut access.0),
            ("ValWrite.region", &mut region.0),
            ("ValWrite.field", &mut field.0),
            ("ValWrite.idx", &mut idx.0),
        ],
        Stmt::ValReduce { access, region, field, idx, op: _, value: _ } => vec![
            ("ValReduce.access", &mut access.0),
            ("ValReduce.region", &mut region.0),
            ("ValReduce.field", &mut field.0),
            ("ValReduce.idx", &mut idx.0),
        ],
        Stmt::ForEach { range_access, var, f, src, body: _ } => vec![
            ("ForEach.range_access", &mut range_access.0),
            ("ForEach.var", &mut var.0),
            ("ForEach.f", &mut f.0),
            ("ForEach.src", &mut src.0),
        ],
    }
}

/// `s` with one leaf changed, every way, at any depth.
fn stmt_mutants(s: &Stmt) -> Vec<(String, Stmt)> {
    let mut out = Vec::new();
    for k in 0..id_leaves(&mut s.clone()).len() {
        let mut t = s.clone();
        let (what, leaf) = id_leaves(&mut t).swap_remove(k);
        *leaf += 1;
        out.push((what.to_string(), t));
    }
    match s {
        Stmt::ValWrite { value, .. } | Stmt::ValReduce { value, .. } => {
            for m in vexpr_mutants(value) {
                let mut t = s.clone();
                if let Stmt::ValWrite { value, .. } | Stmt::ValReduce { value, .. } = &mut t {
                    *value = m;
                }
                out.push(("value".to_string(), t));
            }
        }
        Stmt::ForEach { body, .. } => {
            for (what, m) in body_mutants(body) {
                let mut t = s.clone();
                if let Stmt::ForEach { body, .. } = &mut t {
                    *body = m;
                }
                out.push((format!("ForEach.body: {what}"), t));
            }
        }
        _ => {}
    }
    if let Stmt::ValReduce { op, .. } = s {
        let mut t = s.clone();
        if let Stmt::ValReduce { op: o, .. } = &mut t {
            *o = other_reduce(*op);
        }
        out.push(("ValReduce.op".to_string(), t));
    }
    out
}

/// `body` with one statement changed, dropped, or one added.
fn body_mutants(body: &[Stmt]) -> Vec<(String, Vec<Stmt>)> {
    let mut out = Vec::new();
    for (k, s) in body.iter().enumerate() {
        for (what, m) in stmt_mutants(s) {
            let mut b = body.to_vec();
            b[k] = m;
            out.push((format!("stmt {k} {what}"), b));
        }
    }
    out.push(("pop".to_string(), body[..body.len() - 1].to_vec()));
    let mut pushed = body.to_vec();
    pushed.push(Stmt::IdxCopy { dst: IVar(0), src: IVar(0) });
    out.push(("push".to_string(), pushed));
    out
}

fn loop_mutants(l: &Loop) -> Vec<(String, Loop)> {
    let Loop { name: _, var, region, body, num_ivars, num_vvars, num_accesses } = l;
    let mut out = Vec::new();
    let mut push = |what: &str, f: &dyn Fn(&mut Loop)| {
        let mut t = l.clone();
        f(&mut t);
        out.push((what.to_string(), t));
    };
    push("name", &|t| t.name.push('x'));
    push("var", &|t| t.var = IVar(var.0 + 1));
    push("region", &|t| t.region = bump_region(*region));
    push("num_ivars", &|t| t.num_ivars = num_ivars + 1);
    push("num_vvars", &|t| t.num_vvars = num_vvars + 1);
    push("num_accesses", &|t| t.num_accesses = num_accesses + 1);
    for (what, m) in body_mutants(body) {
        push(&format!("body {what}"), &|t| t.body = m.clone());
    }
    out
}

fn index_fn_mutants(f: &IndexFn) -> Vec<IndexFn> {
    match f {
        IndexFn::Identity => vec![IndexFn::Affine { mul: 1, add: 0 }],
        &IndexFn::Affine { mul, add } => vec![
            IndexFn::Affine { mul: mul + 1, add },
            IndexFn::Affine { mul, add: add + 1 },
            IndexFn::AffineMod { mul, add, modulus: 1 << 40 },
        ],
        &IndexFn::AffineMod { mul, add, modulus } => vec![
            IndexFn::AffineMod { mul: mul + 1, add, modulus },
            IndexFn::AffineMod { mul, add: add + 1, modulus },
            IndexFn::AffineMod { mul, add, modulus: modulus + 1 },
            IndexFn::Affine { mul, add },
        ],
        IndexFn::Ptr { field } => vec![IndexFn::Ptr { field: FieldId(field.0 + 1) }],
        IndexFn::Compose(a, b) => {
            let mut out: Vec<_> = index_fn_mutants(a)
                .into_iter()
                .map(|m| IndexFn::Compose(Box::new(m), b.clone()))
                .chain(
                    index_fn_mutants(b)
                        .into_iter()
                        .map(|m| IndexFn::Compose(a.clone(), Box::new(m))),
                )
                .collect();
            out.push(IndexFn::Compose(b.clone(), a.clone()));
            out
        }
    }
}

fn fn_def_mutants(d: &FnDef) -> Vec<FnDef> {
    match d {
        FnDef::Index(f) => {
            let mut out: Vec<_> = index_fn_mutants(f).into_iter().map(FnDef::Index).collect();
            out.push(FnDef::Multi(MultiFn::Lift(f.clone())));
            out
        }
        FnDef::Multi(MultiFn::RangeField { field }) => vec![
            FnDef::Multi(MultiFn::RangeField { field: FieldId(field.0 + 1) }),
            FnDef::Multi(MultiFn::Lift(IndexFn::Ptr { field: *field })),
        ],
        FnDef::Multi(MultiFn::Lift(f)) => {
            let mut out: Vec<_> =
                index_fn_mutants(f).into_iter().map(|m| FnDef::Multi(MultiFn::Lift(m))).collect();
            out.push(FnDef::Index(f.clone()));
            out
        }
    }
}

/// `fns` rebuilt with `edit` applied to function `k` (`FnTable` keeps its
/// list private).
fn fns_with(fns: &FnTable, k: usize, edit: &dyn Fn(&mut NamedFn)) -> FnTable {
    let mut out = FnTable::new();
    for i in 0..fns.len() {
        let mut f = fns.get(FnId(i as u32)).clone();
        if i == k {
            edit(&mut f);
        }
        let NamedFn { name, domain, range, def } = f;
        out.add(name, domain, range, def);
    }
    out
}

/// A schema as the lists `Schema::add_region` / `add_field` take.
#[derive(Clone)]
struct SchemaSpec {
    regions: Vec<(String, u64)>,
    fields: Vec<(RegionId, String, FieldKind)>,
}

impl SchemaSpec {
    fn of(schema: &Schema) -> SchemaSpec {
        SchemaSpec {
            regions: schema.regions().map(|(_, d)| (d.name.clone(), d.size)).collect(),
            fields: (0..schema.num_fields())
                .map(|i| {
                    let f = schema.field(FieldId(i as u32));
                    (f.region, f.name.clone(), f.kind)
                })
                .collect(),
        }
    }

    fn schema(&self) -> Schema {
        let mut s = Schema::new();
        for (name, size) in &self.regions {
            s.add_region(name.clone(), *size);
        }
        for (region, name, kind) in &self.fields {
            s.add_field(*region, name.clone(), *kind);
        }
        s
    }

    fn mutants(&self) -> Vec<(String, Schema)> {
        let mut out = Vec::new();
        let mut push = |what: String, f: &dyn Fn(&mut SchemaSpec)| {
            let mut s = self.clone();
            f(&mut s);
            out.push((format!("schema {what}"), s.schema()));
        };
        let n_regions = self.regions.len() as u32;
        for k in 0..self.regions.len() {
            push(format!("region {k} name"), &|s| s.regions[k].0.push('x'));
            push(format!("region {k} size"), &|s| s.regions[k].1 += 1);
        }
        for (k, (region, _, kind)) in self.fields.iter().enumerate() {
            push(format!("field {k} name"), &|s| s.fields[k].1.push('x'));
            let moved = RegionId((region.0 + 1) % n_regions);
            push(format!("field {k} region"), &|s| s.fields[k].0 = moved);
            let kinds = match *kind {
                FieldKind::F64 => vec![FieldKind::Ptr(RegionId(0))],
                FieldKind::Ptr(r) => vec![FieldKind::Ptr(bump_region(r)), FieldKind::Range(r)],
                FieldKind::Range(r) => vec![FieldKind::Range(bump_region(r)), FieldKind::Ptr(r)],
            };
            for kind in kinds {
                push(format!("field {k} kind"), &|s| s.fields[k].2 = kind);
            }
        }
        push("region added".into(), &|s| s.regions.push(("Z".into(), 1)));
        push("field added".into(), &|s| s.fields.push((RegionId(0), "z".into(), FieldKind::F64)));
        out
    }
}

/// Every single-leaf mutation of `base`, labelled.
fn mutants(base: &SolveInputs) -> Vec<(String, SolveInputs)> {
    let mut out = Vec::new();
    let mut push = |what: String, f: &dyn Fn(&mut SolveInputs)| {
        let mut m = base.clone();
        f(&mut m);
        out.push((what, m));
    };
    for (li, l) in base.program.iter().enumerate() {
        for (what, m) in loop_mutants(l) {
            push(format!("program[{li}].{what}"), &|x| x.program[li] = m.clone());
        }
    }
    push("program pop".into(), &|x| {
        x.program.pop();
    });

    for k in 0..base.fns.len() {
        let named = base.fns.get(FnId(k as u32));
        push(format!("fns[{k}].name"), &|x| x.fns = fns_with(&base.fns, k, &|f| f.name.push('x')));
        push(format!("fns[{k}].domain"), &|x| {
            x.fns = fns_with(&base.fns, k, &|f| f.domain = bump_region(f.domain))
        });
        push(format!("fns[{k}].range"), &|x| {
            x.fns = fns_with(&base.fns, k, &|f| f.range = bump_region(f.range))
        });
        for d in fn_def_mutants(&named.def) {
            push(format!("fns[{k}].def {d:?}"), &|x| {
                x.fns = fns_with(&base.fns, k, &|f| f.def = d.clone())
            });
        }
    }

    for (what, s) in SchemaSpec::of(&base.schema).mutants() {
        push(what, &|x| x.schema = s.clone());
    }
    let b_r = RegionId(0);
    for (what, h) in HintSpec::new(b_r).mutants() {
        push(what, &|x| x.hints = h.clone());
    }

    let Options { relax, private_subs, solve_budget } = base.opts;
    let other_relax = match relax {
        RelaxPolicy::Off => RelaxPolicy::Auto,
        RelaxPolicy::Auto => RelaxPolicy::Off,
    };
    push("opts.relax".into(), &|x| x.opts.relax = other_relax);
    push("opts.private_subs".into(), &|x| x.opts.private_subs = !private_subs);
    let SolveBudget { max_nodes, max_backtracks, deadline } = solve_budget;
    let (nodes, backtracks, deadline) =
        (max_nodes.unwrap(), max_backtracks.unwrap(), deadline.unwrap());
    push("budget.max_nodes + 1".into(), &|x| x.opts.solve_budget.max_nodes = Some(nodes + 1));
    push("budget.max_nodes None".into(), &|x| x.opts.solve_budget.max_nodes = None);
    push("budget.max_backtracks + 1".into(), &|x| {
        x.opts.solve_budget.max_backtracks = Some(backtracks + 1)
    });
    push("budget.max_backtracks None".into(), &|x| x.opts.solve_budget.max_backtracks = None);
    let two_pow_64_ns = Duration::new(18_446_744_073, 709_551_616);
    for (what, d) in [
        ("+ 1 ns", Some(deadline + Duration::from_nanos(1))),
        ("+ 1 s", Some(deadline + Duration::from_secs(1))),
        ("+ 2^64 ns", Some(deadline + two_pow_64_ns)),
        ("None", None),
    ] {
        push(format!("budget.deadline {what}"), &|x| x.opts.solve_budget.deadline = d);
    }

    let ext = base.exts.get(ExtId(0));
    let mut subs = ext.subregions().to_vec();
    let (s, e) = subs[0].runs()[0]; // a block split: one run per color
    subs[0] = IndexSet::from_range(s, e + 1);
    let rebound = Partition::new(ext.region, subs);
    let moved = Partition::new(bump_region(ext.region), ext.subregions().to_vec());
    for (what, p) in [("one run", rebound), ("region", moved)] {
        push(format!("exts[0] {what}"), &|x| {
            x.exts = ExtBindings::new();
            x.exts.push(p.clone());
        });
    }
    push("exts cleared".into(), &|x| x.exts = ExtBindings::new());

    push("colors + 1".into(), &|x| x.colors += 1);
    out
}

/// Key separation's case count: the release corpus is what CI's "Build and
/// test" job runs.
const KEY_CASES: u32 = if cfg!(debug_assertions) { 24 } else { 480 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(KEY_CASES))]

    /// Changing any one leaf of the solve inputs changes the fingerprint;
    /// inputs built twice from one configuration agree.
    #[test]
    fn distinct_solve_inputs_never_collide(cfg in arb_cfg()) {
        let base = base_inputs(&build(&cfg), cfg.colors);
        prop_assert_eq!(base.fp(), base_inputs(&build(&cfg), cfg.colors).fp());
        let (base_fp, base_text) = (base.fp(), format!("{base:?}"));
        let mut missed = Vec::new();
        for (what, m) in mutants(&base) {
            prop_assert!(format!("{m:?}") != base_text, "{} left the inputs as they were", what);
            if m.fp() == base_fp {
                missed.push(what);
            }
        }
        prop_assert!(missed.is_empty(), "mutations the key does not see: {:?}", missed);

        let built = build(&cfg);
        let schema = built.store.schema().clone();
        let b_r = RegionId(0); // the generator adds "B" first
        let n_b = schema.region_size(b_r);
        let fp = |hints: &Hints, opts: &Options, exts: &ExtBindings, colors: usize| {
            solve_fingerprint(&built.program, &built.fns, &schema, hints, opts, exts, colors)
        };

        let base = fp(&Hints::new(), &Options::default(), &ExtBindings::new(), cfg.colors);
        let again = fp(&Hints::new(), &Options::default(), &ExtBindings::new(), cfg.colors);
        prop_assert_eq!(base, again);

        // Declaring an external (hints) perturbs the key.
        let hints = external_hints(b_r);
        let mut exts_a = ExtBindings::new();
        exts_a.push(block_partition(b_r, n_b, cfg.colors, 0));
        let hinted = fp(&hints, &Options::default(), &exts_a, cfg.colors);
        prop_assert_ne!(base, hinted);

        // Same hints, different *binding*: shift the block split by one.
        let mut exts_b = ExtBindings::new();
        exts_b.push(block_partition(b_r, n_b, cfg.colors, 1));
        let rebound = fp(&hints, &Options::default(), &exts_b, cfg.colors);
        prop_assert_ne!(hinted, rebound);

        // Options and color count perturb the key.
        let relaxed = Options { relax: RelaxPolicy::Off, ..Options::default() };
        let other_opts = fp(&hints, &relaxed, &exts_a, cfg.colors);
        prop_assert_ne!(hinted, other_opts);
        let more_colors = fp(&Hints::new(), &Options::default(), &ExtBindings::new(), cfg.colors + 1);
        prop_assert_ne!(base, more_colors);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A plan cached under one set of externals is never served for
    /// another, and warm plans execute bit-identically to cold ones on
    /// both backends.
    #[test]
    fn warm_plans_execute_bit_identically(cfg in arb_cfg(), n_ranks in 1usize..5) {
        let built = build(&cfg);
        let schema = built.store.schema().clone();
        let colors = cfg.colors.max(n_ranks);
        let cache = PlanCache::default();

        let solve = |use_cache: bool| {
            let mut b = Partir::new(built.program.clone(), built.fns.clone(), schema.clone())
                .colors(colors);
            if use_cache {
                b = b.cache(&cache);
            }
            b.solve().expect("generated programs are parallelizable")
        };
        let cold = solve(false);
        let primed = solve(true);
        prop_assert!(!primed.cache_hit(), "first cached solve is a miss");
        let warm = solve(true);
        prop_assert!(warm.cache_hit(), "identical re-solve hits");
        prop_assert_eq!(cold.fingerprint(), warm.fingerprint());

        // A request under different externals must not be served the
        // cached no-hints plan.
        let b_r = RegionId(0);
        let mut exts = ExtBindings::new();
        exts.push(block_partition(b_r, schema.region_size(b_r), colors, 0));
        let other = Partir::new(built.program.clone(), built.fns.clone(), schema.clone())
            .colors(colors)
            .hints(external_hints(b_r))
            .externals(exts)
            .cache(&cache)
            .solve()
            .expect("hinted generated programs are parallelizable");
        prop_assert!(!other.cache_hit(), "different externals must miss");

        let mut seq = built.store.clone();
        run_program_seq(&built.program, &mut seq, &built.fns);
        for backend in [Backend::Threads(3), Backend::Ranks(n_ranks)] {
            let run = Run::new().backend(backend);
            let mut from_cold = built.store.clone();
            let mut from_warm = built.store.clone();
            run.run(&cold, &mut from_cold)
                .map_err(|e| TestCaseError::fail(format!("cold {backend:?}: {e}")))?;
            run.run(&warm, &mut from_warm)
                .map_err(|e| TestCaseError::fail(format!("warm {backend:?}: {e}")))?;
            assert_f64_fields_eq(&seq, &from_cold, &format!("cold {backend:?}"))?;
            assert_f64_fields_eq(&from_cold, &from_warm, &format!("warm {backend:?}"))?;
        }
    }
}

/// Repeated runs of one shared warm plan keep hitting the interior memos
/// (partitions, exchange plans, placements) without drifting: ten runs on
/// a mutating store stay locked to the sequential reference.
#[test]
fn repeated_warm_runs_stay_bit_identical() {
    let cfg = Cfg {
        n_a: 96,
        n_b: 48,
        colors: 6,
        read_ptr_chain: true,
        read_affine: true,
        reduce_via_ptr: true,
        reduce_via_affine: true,
        second_loop: true,
        ptr_seed: 7,
    };
    let built = build(&cfg);
    let cache = PlanCache::default();
    let plan = Partir::new(built.program.clone(), built.fns.clone(), built.store.schema().clone())
        .colors(cfg.colors)
        .cache(&cache)
        .solve()
        .unwrap();
    let run = Run::new().backend(Backend::Ranks(3));

    let mut seq = built.store.clone();
    let mut par = built.store.clone();
    for step in 0..10 {
        run_program_seq(&built.program, &mut seq, &built.fns);
        run.run(&plan, &mut par).expect("warm run succeeds");
        let schema = seq.schema();
        for f in 0..schema.num_fields() {
            let fid = partir::dpl::region::FieldId(f as u32);
            if matches!(seq.field_data(fid), partir::dpl::region::FieldData::F64(_)) {
                assert_eq!(seq.field_data(fid), par.field_data(fid), "step {step} field {f}");
            }
        }
    }
}

/// All five paper applications, solved cold and through a warm cache,
/// execute bit-identically at 1/2/4/8 ranks and on the threads backend.
#[test]
fn five_apps_cache_hits_are_bit_identical() {
    use partir::apps::circuit::{Circuit, CircuitParams};
    use partir::apps::miniaero::{MiniAero, MiniAeroParams};
    use partir::apps::pennant::{Pennant, PennantConfig, PennantParams};
    use partir::apps::spmv::{Spmv, SpmvParams};
    use partir::apps::stencil::{Stencil, StencilParams};

    const COLORS: usize = 8;

    struct App {
        name: &'static str,
        program: Vec<Loop>,
        fns: FnTable,
        store: Store,
        hints: Hints,
        exts: ExtBindings,
    }

    let mut apps = Vec::new();
    {
        let a = Spmv::generate(&SpmvParams { rows: 192, halo: 2, band_shift: 0 });
        apps.push(App {
            name: "spmv",
            program: a.program,
            fns: a.fns,
            store: a.store,
            hints: Hints::new(),
            exts: ExtBindings::new(),
        });
    }
    {
        let a = Stencil::generate(&StencilParams { nx: 12, ny: 12 });
        apps.push(App {
            name: "stencil",
            program: a.program,
            fns: a.fns,
            store: a.store,
            hints: Hints::new(),
            exts: ExtBindings::new(),
        });
    }
    {
        let a = MiniAero::generate(&MiniAeroParams { nx: 4, ny: 4, nz: 4 });
        apps.push(App {
            name: "miniaero",
            program: a.program,
            fns: a.fns,
            store: a.store,
            hints: Hints::new(),
            exts: ExtBindings::new(),
        });
    }
    {
        let a = Circuit::generate(&CircuitParams {
            clusters: COLORS,
            nodes_per_cluster: 100,
            wires_per_cluster: 200,
            ..CircuitParams::default()
        });
        let (hints, exts) = a.hint_setup(COLORS);
        apps.push(App {
            name: "circuit",
            program: a.program,
            fns: a.fns,
            store: a.store,
            hints,
            exts,
        });
    }
    {
        let a = Pennant::generate(&PennantParams { pieces: COLORS, zw: 2, zy: 2 });
        let (hints, exts) = a.hint_setup(PennantConfig::Hint2);
        apps.push(App {
            name: "pennant",
            program: a.program,
            fns: a.fns,
            store: a.store,
            hints,
            exts,
        });
    }

    for app in apps {
        let cache = PlanCache::default();
        let builder = |cache: Option<&PlanCache>| {
            let mut b =
                Partir::new(app.program.clone(), app.fns.clone(), app.store.schema().clone())
                    .colors(COLORS)
                    .hints(app.hints.clone())
                    .externals(app.exts.clone());
            if let Some(c) = cache {
                b = b.cache(c);
            }
            b
        };
        let cold = builder(None).solve().unwrap_or_else(|e| panic!("{}: {e}", app.name));
        let primed = builder(Some(&cache)).solve().unwrap();
        assert!(!primed.cache_hit(), "{}: first cached solve misses", app.name);
        let warm = builder(Some(&cache)).solve().unwrap();
        assert!(warm.cache_hit(), "{}: re-solve hits", app.name);
        assert_eq!(cold.fingerprint(), warm.fingerprint(), "{}", app.name);

        let mut backends = vec![Backend::Threads(4)];
        backends.extend([1, 2, 4, 8].map(Backend::Ranks));
        for backend in backends {
            let run = Run::new().backend(backend);
            let mut from_cold = app.store.clone();
            let mut from_warm = app.store.clone();
            run.run(&cold, &mut from_cold)
                .unwrap_or_else(|e| panic!("{} cold {backend:?}: {e}", app.name));
            run.run(&warm, &mut from_warm)
                .unwrap_or_else(|e| panic!("{} warm {backend:?}: {e}", app.name));
            let schema = app.store.schema();
            for f in 0..schema.num_fields() {
                let fid = partir::dpl::region::FieldId(f as u32);
                assert_eq!(
                    from_cold.field_data(fid),
                    from_warm.field_data(fid),
                    "{} {backend:?} field {f}: warm result must be bit-identical to cold",
                    app.name
                );
            }
        }
    }
}
