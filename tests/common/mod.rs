//! Random-program generator shared by the property-test suites: programs
//! over two to six regions (pointer chains, affine neighbor maps, centered
//! writes, uncentered reductions, a CSR-style `ForEach`) over randomly
//! populated stores. Every generated program is parallelizable — the
//! properties assert what the pipeline does with it, not whether it bails.
//!
//! Two kinds of values. The `val` fields hold small integers: they feed
//! the reductions a plan may run in two steps (per-task buffers merged
//! afterwards), which re-associates the sum across tasks and so matches
//! the sequential interpreter bit-for-bit only when every partial sum is
//! exact. The `wt` fields hold values of mixed magnitude that are not
//! multiples of a power of two, so any reordering of their sums shows in
//! the last bits; they feed only reductions that apply in place, in
//! iteration order: the centered one inside the `ForEach`, and the two
//! sites of the twin loop, which reduces through two distinct functions
//! and is alone on its region, so the relaxation heuristic always guards
//! it.
#![allow(dead_code)]

use partir::prelude::*;
use proptest::prelude::*;

/// Configuration of a random two-region program.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub n_a: u64,
    pub n_b: u64,
    pub colors: usize,
    pub read_ptr_chain: bool,
    pub read_affine: bool,
    pub reduce_via_ptr: bool,
    pub reduce_via_affine: bool,
    pub second_loop: bool,
    /// Seeds the store contents. Bits 8 and 9 ([`OPTIONAL_LOOPS`]) also ask
    /// for the two optional loops ([`Cfg::rows_loop`], [`Cfg::twin_loop`]),
    /// so the small seeds of fixed-input tests keep their programs.
    pub ptr_seed: u64,
}

impl Cfg {
    /// With the second loop and the pointer chain both present, every
    /// further loop multiplies the solver's search (measured: 0.4 ms
    /// without them, 35 s to 6 min for one more loop), so those programs
    /// get no optional loop.
    fn room_for_more(&self) -> bool {
        !(self.second_loop && self.read_ptr_chain)
    }

    /// `for j in R: for k in rows[j]: R.sum[j] += 0.3·M.wt[k]`, then
    /// `R.half[j] = 0.5·R.sum[j]`. The rows cut M into consecutive ranges,
    /// some empty, some longer than a chunk when M is.
    pub fn rows_loop(&self) -> bool {
        self.asks_rows_loop() && self.room_for_more()
    }

    /// `for c in C`: two uncentered reductions into `T.acc`, through a
    /// pointer and through an affine map.
    pub fn twin_loop(&self) -> bool {
        self.asks_twin_loop() && self.room_for_more()
    }

    fn asks_rows_loop(&self) -> bool {
        self.ptr_seed >> 8 & 1 == 1
    }

    fn asks_twin_loop(&self) -> bool {
        self.ptr_seed >> 9 & 1 == 1
    }
}

/// Seed bits that ask for the optional loops.
pub const OPTIONAL_LOOPS: u64 = 0x300;

/// Programs of the two classic loops only.
pub fn arb_cfg() -> impl Strategy<Value = Cfg> {
    arb_cfg_with_optional_loops()
        .prop_map(|cfg| Cfg { ptr_seed: cfg.ptr_seed & !OPTIONAL_LOOPS, ..cfg })
}

/// Classic programs, with either, both or none of the optional loops. For
/// suites that solve without hints: with external partitions hinted on
/// top, the longer programs take the solver minutes.
pub fn arb_cfg_with_optional_loops() -> impl Strategy<Value = Cfg> {
    (
        20u64..120,
        10u64..60,
        1usize..7,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(
            |(
                n_a,
                n_b,
                colors,
                read_ptr_chain,
                read_affine,
                reduce_via_ptr,
                reduce_via_affine,
                second_loop,
                ptr_seed,
            )| Cfg {
                n_a,
                n_b,
                colors,
                read_ptr_chain,
                read_affine,
                reduce_via_ptr,
                reduce_via_affine,
                second_loop,
                ptr_seed,
            },
        )
}

pub struct Built {
    pub store: Store,
    pub fns: FnTable,
    pub program: Vec<Loop>,
}

pub fn build(cfg: &Cfg) -> Built {
    build_loops(cfg, cfg.rows_loop(), cfg.twin_loop())
}

/// [`build`], with the optional loops the seed asks for kept beside both
/// classic loops and the pointer chain, where `build` drops them. Such
/// programs take the solver seconds to minutes without a budget (see
/// `Cfg::room_for_more`); the generators never produce them.
pub fn build_crowded(cfg: &Cfg) -> Built {
    build_loops(cfg, cfg.asks_rows_loop(), cfg.asks_twin_loop())
}

/// Both classic loops with every access flag set, plus the rows loop
/// (`n_a = 60`, `n_b = 30`, 4 colors): its one candidate merge is refuted
/// by an exhaustive search that takes unbudgeted unification about
/// 0.3–0.45 s in release, seconds in debug.
pub fn classic_loops_and_rows() -> Built {
    let built = build_crowded(&Cfg {
        n_a: 60,
        n_b: 30,
        colors: 4,
        read_ptr_chain: true,
        read_affine: true,
        reduce_via_ptr: true,
        reduce_via_affine: true,
        second_loop: true,
        ptr_seed: 1 << 8,
    });
    assert_eq!(built.program.len(), 3, "both classic loops and the rows loop");
    built
}

fn build_loops(cfg: &Cfg, rows_loop: bool, twin_loop: bool) -> Built {
    use rand::{Rng, SeedableRng};
    let mut schema = Schema::new();
    let b_r = schema.add_region("B", cfg.n_b);
    let a_r = schema.add_region("A", cfg.n_a);
    let ptr = schema.add_field(a_r, "ptr", FieldKind::Ptr(b_r));
    let aval = schema.add_field(a_r, "val", FieldKind::F64);
    let aout = schema.add_field(a_r, "out", FieldKind::F64);
    let bval = schema.add_field(b_r, "val", FieldKind::F64);
    let bacc = schema.add_field(b_r, "acc", FieldKind::F64);
    // Everything the optional loops use comes after, so the ids above are
    // the same in every program.
    // The optional loops live on regions of their own (M and C sized like
    // A, R and T like B), so what the plan does with them does not depend
    // on the flags of the two loops above.
    let m_r = schema.add_region("M", cfg.n_a);
    let r_r = schema.add_region("R", cfg.n_b);
    let mwt = schema.add_field(m_r, "wt", FieldKind::F64);
    let rrows = schema.add_field(r_r, "rows", FieldKind::Range(m_r));
    let rsum = schema.add_field(r_r, "sum", FieldKind::F64);
    let rhalf = schema.add_field(r_r, "half", FieldKind::F64);
    let c_r = schema.add_region("C", cfg.n_a);
    let t_r = schema.add_region("T", cfg.n_b);
    let cptr = schema.add_field(c_r, "ptr", FieldKind::Ptr(t_r));
    let cwt = schema.add_field(c_r, "wt", FieldKind::F64);
    let tacc = schema.add_field(t_r, "acc", FieldKind::F64);

    let mut fns = FnTable::new();
    let fptr = fns.add_ptr_field("A[.].ptr", a_r, b_r, ptr);
    let faff = fns.add(
        "wrapB",
        b_r,
        b_r,
        FnDef::Index(IndexFn::AffineMod { mul: 1, add: 3, modulus: cfg.n_b }),
    );
    let faff_ab = fns.add(
        "wrapAB",
        a_r,
        b_r,
        FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: cfg.n_b }),
    );

    let frows = fns.add_range_field("R[.].rows", r_r, m_r, rrows);
    let fcptr = fns.add_ptr_field("C[.].ptr", c_r, t_r, cptr);
    let fwrap_ct = fns.add(
        "wrapCT",
        c_r,
        t_r,
        FnDef::Index(IndexFn::AffineMod { mul: 1, add: 2, modulus: cfg.n_b }),
    );

    let mut store = Store::new(schema);
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.ptr_seed);
    for v in store.ptrs_mut(ptr).iter_mut() {
        *v = rng.gen_range(0..cfg.n_b);
    }
    for v in store.f64s_mut(aval).iter_mut() {
        *v = rng.gen_range(0..32) as f64;
    }
    for v in store.f64s_mut(bval).iter_mut() {
        *v = rng.gen_range(0..32) as f64;
    }
    // Drawn after the fields above, so those keep their values.
    let inexact = |rng: &mut rand::rngs::StdRng| {
        let k = rng.gen_range(1..1000u64);
        k as f64 * 0.37 * [1e-3, 1.0, 1e3][(k % 3) as usize]
    };
    for v in store.f64s_mut(mwt).iter_mut() {
        *v = inexact(&mut rng);
    }
    for v in store.f64s_mut(cwt).iter_mut() {
        *v = inexact(&mut rng);
    }
    for v in store.ptrs_mut(cptr).iter_mut() {
        *v = rng.gen_range(0..cfg.n_b);
    }
    let mut cuts: Vec<u64> = (1..cfg.n_b).map(|_| rng.gen_range(0..=cfg.n_a)).collect();
    cuts.extend([0, cfg.n_a]);
    cuts.sort_unstable();
    for (row, cut) in store.ranges_mut(rrows).iter_mut().zip(cuts.windows(2)) {
        *row = (cut[0], cut[1]);
    }

    // Loop 1 over A: centered read, optional uncentered reads of B, a
    // centered write, and optional uncentered reductions into B.acc.
    let mut bld = LoopBuilder::new("loop_a", a_r);
    let i = bld.loop_var();
    let v0 = bld.val_read(a_r, aval, i);
    let mut expr = VExpr::var(v0);
    if cfg.read_ptr_chain {
        let bi = bld.idx_read(a_r, ptr, i, fptr);
        let bv = bld.val_read(b_r, bval, bi);
        // Chain one more hop through the affine neighbor.
        let bj = bld.idx_apply(faff, bi);
        let bv2 = bld.val_read(b_r, bval, bj);
        expr = VExpr::add(expr, VExpr::add(VExpr::var(bv), VExpr::var(bv2)));
    }
    if cfg.read_affine {
        let bj = bld.idx_apply(faff_ab, i);
        let bv = bld.val_read(b_r, bval, bj);
        expr = VExpr::add(expr, VExpr::var(bv));
    }
    bld.val_write(a_r, aout, i, expr.clone());
    if cfg.reduce_via_ptr {
        let bi = bld.idx_read(a_r, ptr, i, fptr);
        bld.val_reduce(b_r, bacc, bi, ReduceOp::Add, VExpr::var(v0));
    }
    if cfg.reduce_via_affine {
        let bj = bld.idx_apply(faff_ab, i);
        bld.val_reduce(b_r, bacc, bj, ReduceOp::Add, VExpr::var(v0));
    }
    let l1 = bld.finish();

    let mut program = vec![l1];
    if cfg.second_loop {
        // Loop 2 over B: centered update reading an affine neighbor.
        let mut bld = LoopBuilder::new("loop_b", b_r);
        let j = bld.loop_var();
        let nv = bld.idx_apply(faff, j);
        let x = bld.val_read(b_r, bval, nv);
        bld.val_reduce(b_r, bacc, j, ReduceOp::Add, VExpr::var(x));
        program.push(bld.finish());
    }
    if rows_loop {
        let mut bld = LoopBuilder::new("loop_rows", r_r);
        let j = bld.loop_var();
        let k = bld.begin_for_each(frows, j);
        let w = bld.val_read(m_r, mwt, k);
        bld.val_reduce(r_r, rsum, j, ReduceOp::Add, VExpr::mul(VExpr::Const(0.3), VExpr::var(w)));
        bld.end_for_each();
        let sum = bld.val_read(r_r, rsum, j);
        bld.val_write(r_r, rhalf, j, VExpr::mul(VExpr::Const(0.5), VExpr::var(sum)));
        program.push(bld.finish());
    }
    if twin_loop {
        let mut bld = LoopBuilder::new("loop_twin", c_r);
        let c = bld.loop_var();
        let w = bld.val_read(c_r, cwt, c);
        let p = bld.idx_read(c_r, cptr, c, fcptr);
        bld.val_reduce(t_r, tacc, p, ReduceOp::Add, VExpr::mul(VExpr::Const(0.3), VExpr::var(w)));
        let q = bld.idx_apply(fwrap_ct, c);
        bld.val_reduce(t_r, tacc, q, ReduceOp::Add, VExpr::mul(VExpr::Const(0.7), VExpr::var(w)));
        program.push(bld.finish());
    }
    Built { store, fns, program }
}

/// Asserts every F64 field of `got` equals `want` bit-for-bit.
pub fn assert_f64_fields_eq(want: &Store, got: &Store, label: &str) -> Result<(), TestCaseError> {
    let schema = want.schema();
    for f in 0..schema.num_fields() {
        let fid = partir::dpl::region::FieldId(f as u32);
        if let partir::dpl::region::FieldData::F64(sv) = want.field_data(fid) {
            let partir::dpl::region::FieldData::F64(pv) = got.field_data(fid) else {
                unreachable!()
            };
            prop_assert_eq!(sv, pv, "{}: field {:?} diverged", label, fid);
        }
    }
    Ok(())
}
