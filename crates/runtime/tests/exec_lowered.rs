//! Loop shapes the lowering treats specially, each run on both backends
//! with and without per-element checks and compared bit-for-bit with the
//! interpreter: every expression operator on inexact data, affine maps
//! that are not unit-stride or not modular, composed functions, nested
//! and single-valued `ForEach` headers, bodies whose conflicts force one
//! lane per chunk — and index functions that leave their target, which
//! must fail the way they always did, and bodies reading a `ForEach`'s
//! variables after it, which must be refused before anything runs.

use partir_core::eval::ExtBindings;
use partir_core::pipeline::{auto_parallelize, AutoError, Hints, Options};
use partir_core::placement::{place, PlacementConfig};
use partir_dpl::func::{FnDef, FnTable, IndexFn};
use partir_dpl::region::{FieldData, FieldId, FieldKind, RegionId, Schema, Store};
use partir_ir::ast::{BinOp, Loop, LoopBuilder, ReduceOp, UnOp, VExpr};
use partir_ir::interp::run_program_seq;
use partir_runtime::dist::{execute_ranks, DistError, DistOptions, Layout, LegalityMode};
use partir_runtime::task::{PlanError, CHUNK};

mod shapes;
use shapes::{fill, nested_for_each};

/// Several chunks and a ragged tail per color.
const N: u64 = 2 * CHUNK as u64 + 37;

type Failure = (Result<(), DistError>, Result<(), DistError>);

/// Runs `program` sequentially, on 2 threads and on 2 ranks (3 colors),
/// checked and unchecked. Returns the first failure of each backend, after
/// asserting that every run that succeeded matches the interpreter.
fn run_everywhere(program: &[Loop], fns: &FnTable, store: &Store) -> Failure {
    let schema = store.schema().clone();
    let plan = auto_parallelize(program, fns, &schema, &Hints::new(), Options::default())
        .expect("the loop auto-parallelizes");
    let parts = plan.evaluate(store, fns, 3, &ExtBindings::new());
    let mut seq = store.clone();
    let seq_ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_program_seq(program, &mut seq, fns)
    }))
    .is_ok();
    let same = |par: &Store, label: &str| {
        for f in 0..schema.num_fields() {
            let f = FieldId(f as u32);
            if let FieldData::F64(want) = seq.field_data(f) {
                assert_eq!(&FieldData::F64(want.clone()), par.field_data(f), "{label}: {f:?}");
            }
        }
    };
    let (mut exec_result, mut dist_result) = (Ok(()), Ok(()));
    let xplan = place(&plan, &parts, &schema, 2, &PlacementConfig::default()).unwrap().xplan;
    for legality in [LegalityMode::Element, LegalityMode::Off] {
        let opts = DistOptions { legality, ..DistOptions::default() };
        let backends = [
            (Layout::InPlace { workers: 2 }, "threads", &mut exec_result),
            (Layout::Sharded(&xplan), "ranks", &mut dist_result),
        ];
        for (layout, label, result) in backends {
            let mut par = store.clone();
            match execute_ranks(program, &plan, &parts, layout, &mut par, fns, &opts) {
                Ok(_) => same(&par, label),
                Err(e) => *result = Err(e),
            }
        }
    }
    assert_eq!(seq_ok, exec_result.is_ok(), "the interpreter and the threads disagree on failing");
    (exec_result, dist_result)
}

fn assert_runs(program: &[Loop], fns: &FnTable, store: &Store) {
    let (exec, dist) = run_everywhere(program, fns, store);
    exec.expect("threads run");
    dist.expect("ranks run");
}

/// One region with a few f64 fields, filled inexactly.
fn grid(n: u64, fields: usize) -> (Store, RegionId, Vec<FieldId>) {
    let mut schema = Schema::new();
    let r = schema.add_region("R", n);
    let fs: Vec<_> =
        (0..fields).map(|k| schema.add_field(r, format!("f{k}"), FieldKind::F64)).collect();
    let mut store = Store::new(schema);
    for &f in &fs[..fields - 1] {
        fill(&mut store, f);
    }
    (store, r, fs)
}

#[test]
fn every_operator_on_inexact_values() {
    let (store, r, f) = grid(N, 4);
    let fns = FnTable::new();
    let mut b = LoopBuilder::new("ops", r);
    let i = b.loop_var();
    let x = VExpr::var(b.val_read(r, f[0], i));
    let y = VExpr::var(b.val_read(r, f[1], i));
    let bin = |op, a: &VExpr, b: &VExpr| VExpr::Bin(op, Box::new(a.clone()), Box::new(b.clone()));
    let un = |op, a: VExpr| VExpr::Un(op, Box::new(a));
    // sqrt(|x − y|) / max(x, 3) + min(−y, x·0.1), then reused twice.
    let e = VExpr::add(
        VExpr::div(
            un(UnOp::Sqrt, un(UnOp::Abs, VExpr::sub(x.clone(), y.clone()))),
            bin(BinOp::Max, &x, &VExpr::Const(3.0)),
        ),
        bin(BinOp::Min, &un(UnOp::Neg, y.clone()), &VExpr::mul(x.clone(), VExpr::Const(0.1))),
    );
    b.val_write(r, f[3], i, VExpr::mul(e.clone(), e.clone()));
    for op in [ReduceOp::Add, ReduceOp::Mul, ReduceOp::Min, ReduceOp::Max] {
        b.val_reduce(r, f[2], i, op, VExpr::mul(e.clone(), VExpr::Const(1e-3)));
    }
    assert_runs(&[b.finish()], &fns, &store);
}

#[test]
fn affine_maps_beyond_the_unit_stride_modular_one() {
    let mut schema = Schema::new();
    let r = schema.add_region("R", N);
    let s = schema.add_region("S", 2 * N + 8);
    let rx = schema.add_field(r, "x", FieldKind::F64);
    let sx = schema.add_field(s, "x", FieldKind::F64);
    let mut fns = FnTable::new();
    let shift = fns.add_affine("shift", r, s, 1, 5);
    let double = fns.add_affine("double", r, s, 2, 3);
    let fold =
        fns.add("fold", r, s, FnDef::Index(IndexFn::AffineMod { mul: 3, add: -7, modulus: 101 }));
    // shift, then wrap at a modulus smaller than the region.
    let composed = fns.add(
        "composed",
        r,
        s,
        FnDef::Index(IndexFn::Compose(
            Box::new(IndexFn::Affine { mul: 1, add: 11 }),
            Box::new(IndexFn::AffineMod { mul: 1, add: 0, modulus: 64 }),
        )),
    );
    let id = fns.add("id", r, s, FnDef::Index(IndexFn::Identity));
    let mut store = Store::new(schema);
    fill(&mut store, sx);
    let mut b = LoopBuilder::new("gathers", r);
    let i = b.loop_var();
    let mut e = VExpr::Const(0.0);
    for f in [shift, double, fold, composed, id] {
        let j = b.idx_apply(f, i);
        e = VExpr::add(e, VExpr::var(b.val_read(s, sx, j)));
    }
    b.val_write(r, rx, i, e);
    assert_runs(&[b.finish()], &fns, &store);
}

/// CSR rows over `cols`, and per column a second range — and a
/// single-valued "diagonal" map and a lifted one, headers that read no
/// field: nested `ForEach` two deep, with the outer loop variable, an
/// outer value and the middle variable all read in the innermost body.
#[test]
fn nested_and_single_valued_for_each() {
    for single_valued_headers in [false, true] {
        let (lp, fns, store) = nested_for_each(single_valued_headers);
        assert_runs(&[lp], &fns, &store);
    }
}

/// Inside a `ForEach`, a read and a write of the loop-invariant element
/// `acc[i]` meet in every inner lane of one parent: op-major order would
/// read every lane before writing any. The lowering runs such a loop one
/// lane per chunk; the result must still be the interpreter's.
#[test]
fn a_recurrence_through_a_for_each_runs_in_iteration_order() {
    let (n_rows, n_cols) = (CHUNK as u64 + 3, 2 * CHUNK as u64);
    let mut schema = Schema::new();
    let rows = schema.add_region("Rows", n_rows);
    let cols = schema.add_region("Cols", n_cols);
    let range = schema.add_field(rows, "range", FieldKind::Range(cols));
    let acc = schema.add_field(rows, "acc", FieldKind::F64);
    let cw = schema.add_field(cols, "w", FieldKind::F64);
    let mut fns = FnTable::new();
    let f_rows = fns.add_range_field("rows", rows, cols, range);
    let mut store = Store::new(schema);
    fill(&mut store, cw);
    fill(&mut store, acc);
    for (r, range) in store.ranges_mut(range).iter_mut().enumerate() {
        let start = (r as u64 * 2).min(n_cols);
        *range = (start, (start + 2 + r as u64 % 3).min(n_cols));
    }
    let mut b = LoopBuilder::new("horner", rows);
    let i = b.loop_var();
    let k = b.begin_for_each(f_rows, i);
    let a = b.val_read(rows, acc, i);
    let w = b.val_read(cols, cw, k);
    // acc = acc · 0.5 + w: every step rounds, so the order is visible.
    b.val_write(
        rows,
        acc,
        i,
        VExpr::add(VExpr::mul(VExpr::var(a), VExpr::Const(0.5)), VExpr::var(w)),
    );
    b.end_for_each();
    assert_runs(&[b.finish()], &fns, &store);
}

fn codes((exec, dist): Failure) -> (String, String) {
    let exec = exec.expect_err("threads must fail");
    let dist = dist.expect_err("ranks must fail");
    assert!(matches!(exec, DistError::RankPanic { rank: 0, .. }), "got {exec}");
    assert!(matches!(dist, DistError::RankPanic { .. }), "got {dist}");
    (exec.to_string(), dist.to_string())
}

/// An `Affine` image outside its target region is a rank panic on either
/// backend (rank 0 on the threads), with the message it always had —
/// whether the run is evaluated as a whole (unit stride), lane by lane, or
/// through the checked arithmetic at the `i64` edge.
#[test]
fn an_index_function_leaving_its_target_fails_as_before() {
    for (mul, add) in [(1, 3), (1, -1), (2, 0), (i64::MAX, 0), (1, i64::MAX)] {
        let (store, r, f) = grid(N, 2);
        let mut fns = FnTable::new();
        let g = fns.add_affine("g", r, r, mul, add);
        let mut b = LoopBuilder::new("escape", r);
        let i = b.loop_var();
        let j = b.idx_apply(g, i);
        let v = b.val_read(r, f[0], j);
        b.val_write(r, f[1], i, VExpr::var(v));
        let (exec, dist) = codes(run_everywhere(&[b.finish()], &fns, &store));
        assert_eq!(exec, "rank 0 panicked: affine out of range", "({mul}, {add})");
        assert!(dist.contains("affine out of range"), "({mul}, {add}): {dist}");
    }
}

/// A value read inside a `ForEach` and used after it, and the `ForEach`
/// variable itself used after it: the interpreter reads whatever its frame
/// still holds (the last element's value, or the previous iteration's past
/// an empty range). The analysis refuses both, so no solve yields a plan
/// for them; a caller that brings its own plan (here: the plan of the twin
/// whose block ends after the uses, which has the same accesses) is
/// refused by both backends as a plan defect naming the loop, before loop 0
/// runs.
#[test]
fn a_for_each_variable_read_after_the_block_is_refused_up_front() {
    for index_variable in [false, true] {
        let mut schema = Schema::new();
        let rows = schema.add_region("Rows", N);
        let cols = schema.add_region("Cols", N);
        let range = schema.add_field(rows, "range", FieldKind::Range(cols));
        let out = schema.add_field(rows, "out", FieldKind::F64);
        let cw = schema.add_field(cols, "w", FieldKind::F64);
        let mut fns = FnTable::new();
        let f_rows = fns.add_range_field("rows", rows, cols, range);
        let mut store = Store::new(schema.clone());
        fill(&mut store, cw);
        for (r, range) in store.ranges_mut(range).iter_mut().enumerate() {
            *range = (r as u64, r as u64 + 1);
        }

        let mut first = LoopBuilder::new("scale", cols);
        let i = first.loop_var();
        let w = first.val_read(cols, cw, i);
        first.val_write(cols, cw, i, VExpr::mul(VExpr::var(w), VExpr::Const(2.0)));

        let leak = |scoped: bool| {
            let mut b = LoopBuilder::new("leak", rows);
            let i = b.loop_var();
            let k = b.begin_for_each(f_rows, i);
            let inside = b.val_read(cols, cw, k);
            if !scoped {
                b.end_for_each();
            }
            let v = if index_variable { b.val_read(cols, cw, k) } else { inside };
            b.val_write(rows, out, i, VExpr::var(v));
            if scoped {
                b.end_for_each();
            }
            b.finish()
        };
        let first = first.finish();
        let program = [first.clone(), leak(false)];

        assert!(matches!(
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()),
            Err(AutoError::NotParallelizable(_))
        ));
        let twin = [first, leak(true)];
        let plan = auto_parallelize(&twin, &fns, &schema, &Hints::new(), Options::default())
            .expect("the twin is well scoped");
        let parts = plan.evaluate(&store, &fns, 3, &ExtBindings::new());
        let want = PlanError::VariableOutOfScope { loop_index: 1 };

        let xplan = place(&plan, &parts, &schema, 2, &PlacementConfig::default()).unwrap().xplan;
        for layout in [Layout::InPlace { workers: 2 }, Layout::Sharded(&xplan)] {
            let mut par = store.clone();
            let opts = DistOptions::default();
            match execute_ranks(&program, &plan, &parts, layout, &mut par, &fns, &opts) {
                Err(DistError::Plan(e)) => assert_eq!(e, want),
                other => panic!("{layout:?}: {:?}", other.map(|_| ())),
            }
            assert_eq!(par.field_data(cw), store.field_data(cw), "{layout:?} ran loop 0");
        }
    }
}
