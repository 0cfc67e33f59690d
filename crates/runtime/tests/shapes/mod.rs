//! Loop shapes shared by the runtime's differential suite and the facade's
//! (`tests/prop_lowered.rs` includes this file by path).

use partir_dpl::func::{FnDef, FnTable, IndexFn, MultiFn};
use partir_dpl::region::{FieldId, FieldKind, Schema, Store};
use partir_ir::ast::{Loop, LoopBuilder, ReduceOp, VExpr};
use partir_runtime::task::CHUNK;

/// Values whose sums and products round: `k · 0.37` at three magnitudes.
fn inexact(i: usize) -> f64 {
    let k = (i * 7919 + 13) % 997 + 1;
    k as f64 * 0.37 * [1e-3, 1.0, 1e3][k % 3]
}

pub fn fill(store: &mut Store, f: FieldId) {
    for (i, v) in store.f64s_mut(f).iter_mut().enumerate() {
        *v = inexact(i);
    }
}

/// A `ForEach` over a range field with rows that are empty, short and
/// longer than a chunk, and inside it one inner `ForEach` over a range
/// field — or, with `single_valued_headers`, three: over the range field,
/// a single-valued function and a lifted one, headers no field backs.
pub fn nested_for_each(single_valued_headers: bool) -> (Loop, FnTable, Store) {
    let (n_rows, n_cols) = (CHUNK as u64 + 3, 3 * CHUNK as u64);
    let mut schema = Schema::new();
    let rows = schema.add_region("Rows", n_rows);
    let cols = schema.add_region("Cols", n_cols);
    let leaf = schema.add_region("Leaf", n_cols + 9);
    let row_range = schema.add_field(rows, "range", FieldKind::Range(cols));
    let scale = schema.add_field(rows, "scale", FieldKind::F64);
    // One output per inner header: three sites on one field inside the
    // outer `ForEach` would conflict and run serially.
    let outs = ["o0", "o1", "o2"].map(|name| schema.add_field(rows, name, FieldKind::F64));
    let col_range = schema.add_field(cols, "range", FieldKind::Range(leaf));
    let cw = schema.add_field(cols, "w", FieldKind::F64);
    let lw = schema.add_field(leaf, "w", FieldKind::F64);
    let mut fns = FnTable::new();
    let f_rows = fns.add_range_field("rows", rows, cols, row_range);
    let f_cols = fns.add_range_field("cols", cols, leaf, col_range);
    let diag = fns.add("diag", cols, leaf, FnDef::Index(IndexFn::Affine { mul: 1, add: 9 }));
    let lifted = fns.add(
        "lifted",
        cols,
        leaf,
        FnDef::Multi(MultiFn::Lift(IndexFn::AffineMod { mul: 1, add: 4, modulus: n_cols })),
    );
    let mut store = Store::new(schema);
    for f in [scale, cw, lw] {
        fill(&mut store, f);
    }
    // Rows of 0, 1, 2, … columns until they run out; the last takes the
    // rest (more than a chunk). Columns own 0–4 leaves each, overlapping.
    let mut next = 0;
    for (r, range) in store.ranges_mut(row_range).iter_mut().enumerate() {
        let end = if r as u64 == n_rows - 1 { n_cols } else { (next + r as u64 % 5).min(n_cols) };
        *range = (next, end);
        next = end;
    }
    for (c, range) in store.ranges_mut(col_range).iter_mut().enumerate() {
        *range = (c as u64, c as u64 + c as u64 % 5);
    }

    let mut b = LoopBuilder::new("nested", rows);
    let i = b.loop_var();
    let s = b.val_read(rows, scale, i);
    let c = b.begin_for_each(f_rows, i);
    let w = b.val_read(cols, cw, c);
    let inner = if single_valued_headers { vec![f_cols, diag, lifted] } else { vec![f_cols] };
    for (f, out) in inner.into_iter().zip(outs) {
        let l = b.begin_for_each(f, c);
        let v = b.val_read(leaf, lw, l);
        let term = VExpr::mul(VExpr::mul(VExpr::var(s), VExpr::var(w)), VExpr::var(v));
        b.val_reduce(rows, out, i, ReduceOp::Add, term);
        b.end_for_each();
    }
    b.end_for_each();
    (b.finish(), fns, store)
}
