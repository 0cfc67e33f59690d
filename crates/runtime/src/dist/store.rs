//! Rank-local sharded storage.
//!
//! Each rank holds only its shard of every f64 field — the elements of
//! `owned ∪ ghosts` from the [`ExchangePlan`] — laid out densely in
//! ascending global index order, with global→local translation through
//! the footprint's own [`Positions`] index ([`IndexSet::index`]): the
//! region's f64 fields share it, it lives as long as the exchange plan,
//! and every later run on that plan reuses it. An access is one bitmap
//! word and one popcount (one subtraction when the footprint is one
//! contiguous run, a search of its runs when it is too sparse for a
//! bitmap).
//! Ptr/Range topology fields are not sharded — they describe the
//! mesh/matrix structure and partitioning functions read them at arbitrary
//! indices — and not copied either: every rank holds an `Arc` clone of the
//! global store's column, which nothing writes during parallel phases
//! ([`Storage`] has no operation that could).
//!
//! Failing to translate an index *is* the distributed legality check: an
//! access that reaches an element outside `owned ∪ ghosts` has no local
//! slot, which the rank context reports as a violation instead of reading
//! garbage.
//!
//! All bulk movement (sharding, pack/unpack, gather) walks the *runs* of
//! the transfer sets with `copy_from_slice` instead of translating element
//! by element. That is sound because `IndexSet` runs are canonical
//! (sorted, disjoint, non-adjacent): any run of a subset lies entirely
//! inside a single run of its superset, so a run of a transfer set — a
//! subset of the field's local footprint — always maps to one contiguous
//! local slice.

use crate::task::Storage;
use partir_core::exchange::{ExchangePlan, FieldSets};
use partir_core::pipeline::ParallelPlan;
use partir_dpl::index_set::{Idx, IndexSet, Positions};
use partir_dpl::region::{FieldData, FieldId, FieldKind, Schema, Store};
use std::sync::Arc;

/// One field's rank-local storage.
enum RankField {
    /// Sharded f64 payload: `data[local.pos(i)]` holds global element `i`.
    F64 {
        local: Arc<Positions>,
        data: Vec<f64>,
    },
    /// Topology, whole and shared with the global store.
    Ptr(Arc<Vec<Idx>>),
    Range(Arc<Vec<(Idx, Idx)>>),
}

/// The shard of the global [`Store`] resident on one rank.
pub struct RankStore {
    fields: Vec<RankField>,
}

impl RankStore {
    /// Shards `store` for `rank` per the exchange plan's local footprints,
    /// copying each footprint run with one `extend_from_slice`. Every f64
    /// field translates through its footprint's own index.
    pub fn shard(store: &Store, xplan: &ExchangePlan, rank: usize) -> Self {
        let schema = store.schema();
        let fields = (0..schema.num_fields())
            .map(|fi| {
                let f = FieldId(fi as u32);
                match store.field_data(f) {
                    FieldData::F64(global) => {
                        let set = xplan.local(schema.field(f).region, rank);
                        let local = Arc::clone(set.index());
                        let mut data = Vec::with_capacity(local.len() as usize);
                        for &(s, e) in set.runs() {
                            data.extend_from_slice(&global[s as usize..e as usize]);
                        }
                        RankField::F64 { local, data }
                    }
                    FieldData::Ptr(column) => RankField::Ptr(Arc::clone(column)),
                    FieldData::Range(column) => RankField::Range(Arc::clone(column)),
                }
            })
            .collect();
        RankStore { fields }
    }

    /// Writes the rank's owned elements of every f64 field the program
    /// writes (`written[field]`, from `written_fields`) into the global
    /// store (main thread, after the SPMD scope ends) — one contiguous copy
    /// per owned run, straight from the shard. Any other field still holds
    /// the store's own values, so it is skipped.
    pub fn gather_into(
        &self,
        store: &mut Store,
        xplan: &ExchangePlan,
        rank: usize,
        written: &[bool],
    ) {
        for (fi, field) in self.fields.iter().enumerate() {
            let (RankField::F64 { local, data }, true) = (field, written[fi]) else { continue };
            let f = FieldId(fi as u32);
            let owned = xplan.owned(store.schema().field(f).region, rank);
            let fs = store.f64s_mut(f);
            for &(s, e) in owned.runs() {
                let p = local.pos(s).expect("owned ⊆ local") as usize;
                fs[s as usize..e as usize].copy_from_slice(&data[p..p + (e - s) as usize]);
            }
        }
    }

    /// Installs a checkpointed shard into the global store — one
    /// contiguous copy per owned run.
    pub fn install_owned(
        store: &mut Store,
        xplan: &ExchangePlan,
        rank: usize,
        shards: Vec<(FieldId, Vec<f64>)>,
    ) {
        for (f, vals) in shards {
            let region = store.schema().field(f).region;
            let owned = xplan.owned(region, rank);
            let fs = store.f64s_mut(f);
            let mut p = 0usize;
            for &(s, e) in owned.runs() {
                let n = (e - s) as usize;
                fs[s as usize..e as usize].copy_from_slice(&vals[p..p + n]);
                p += n;
            }
        }
    }
}

/// `written[field]`: whether some loop of `plan` writes or reduces into
/// the field.
pub(crate) fn written_fields(plan: &ParallelPlan, schema: &Schema) -> Vec<bool> {
    let mut written = vec![false; schema.num_fields()];
    let writes = plan.loops.iter().flat_map(|lp| &lp.accesses).filter(|ap| !ap.kind.is_read());
    writes.filter_map(|ap| ap.field).for_each(|f| written[f.0 as usize] = true);
    written
}

/// Packs the values of `sets` (plan order: ascending field, ascending
/// element) into `out`, returning how many elements were packed — one
/// contiguous copy per run. Every run must be resident: the exchange plan
/// only asks a rank to pack what it holds.
pub(crate) fn pack(store: &impl Storage, sets: &FieldSets, out: &mut Vec<f64>) -> usize {
    let before = out.len();
    for (f, set) in sets {
        pack_set(store, *f, set, out);
    }
    out.len() - before
}

/// Appends the values of `f` over `set` to `out`, one contiguous copy per
/// run.
pub(crate) fn pack_set(store: &impl Storage, f: FieldId, set: &IndexSet, out: &mut Vec<f64>) {
    for &(s, e) in set.runs() {
        let at = out.len();
        out.resize(at + (e - s) as usize, 0.0);
        assert!(store.load_run(f, s, &mut out[at..]), "packed run is resident");
    }
}

/// The inverse of [`pack_set`]: installs the prefix of `values` into `f`
/// over `set`, one contiguous copy per run, and returns the rest.
pub(crate) fn unpack_set<'v>(
    store: &mut impl Storage,
    f: FieldId,
    set: &IndexSet,
    mut values: &'v [f64],
) -> &'v [f64] {
    for &(s, e) in set.runs() {
        let (run, rest) = values.split_at((e - s) as usize);
        assert!(store.store_run(f, s, run), "unpacked run is resident");
        values = rest;
    }
    values
}

/// Installs packed `values` into the elements of `sets` — one contiguous
/// copy per run — consuming the prefix and returning the rest (messages
/// concatenate several set lists).
pub(crate) fn unpack<'v>(
    store: &mut impl Storage,
    sets: &FieldSets,
    mut values: &'v [f64],
) -> &'v [f64] {
    for (f, set) in sets {
        values = unpack_set(store, *f, set, values);
    }
    values
}

/// A copy of a rank's owned f64 shards, for a checkpoint: `(field, values
/// over xplan.owned(region, rank))`.
pub(crate) fn extract_owned(
    store: &impl Storage,
    xplan: &ExchangePlan,
    rank: usize,
    schema: &Schema,
) -> Vec<(FieldId, Vec<f64>)> {
    let f64_fields = (0..schema.num_fields() as u32).map(FieldId);
    let f64_fields = f64_fields.filter(|&f| matches!(schema.field(f).kind, FieldKind::F64));
    f64_fields
        .map(|f| {
            let mut vals = Vec::new();
            pack_set(store, f, xplan.owned(schema.field(f).region, rank), &mut vals);
            (f, vals)
        })
        .collect()
}

/// Global-index element access: an element outside `owned ∪ ghosts` is
/// "not held" (a distributed legality violation at the caller).
impl Storage for RankStore {
    #[inline]
    fn read_f64(&self, f: FieldId, i: Idx) -> Option<f64> {
        match &self.fields[f.0 as usize] {
            RankField::F64 { local, data } => local.pos(i).map(|p| data[p as usize]),
            _ => None,
        }
    }

    #[inline]
    fn write_f64(&mut self, f: FieldId, i: Idx, v: f64) -> bool {
        match &mut self.fields[f.0 as usize] {
            RankField::F64 { local, data } => match local.pos(i) {
                Some(p) => {
                    data[p as usize] = v;
                    true
                }
                None => false,
            },
            _ => false,
        }
    }

    #[inline]
    fn load_run(&self, f: FieldId, start: Idx, dst: &mut [f64]) -> bool {
        let RankField::F64 { local, data } = &self.fields[f.0 as usize] else { return false };
        match local.pos_run(start, dst.len() as u64) {
            Some(p) => {
                dst.copy_from_slice(&data[p as usize..p as usize + dst.len()]);
                true
            }
            None => false,
        }
    }

    #[inline]
    fn store_run(&mut self, f: FieldId, start: Idx, src: &[f64]) -> bool {
        let RankField::F64 { local, data } = &mut self.fields[f.0 as usize] else { return false };
        match local.pos_run(start, src.len() as u64) {
            Some(p) => {
                data[p as usize..p as usize + src.len()].copy_from_slice(src);
                true
            }
            None => false,
        }
    }

    #[inline]
    fn ptr_run(&self, f: FieldId, start: Idx, dst: &mut [Idx]) {
        match &self.fields[f.0 as usize] {
            RankField::Ptr(v) => {
                dst.copy_from_slice(&v[start as usize..start as usize + dst.len()])
            }
            _ => panic!("field {f:?} is not Ptr"),
        }
    }

    #[inline]
    fn read_ptr(&self, f: FieldId, i: Idx) -> Idx {
        match &self.fields[f.0 as usize] {
            RankField::Ptr(v) => v[i as usize],
            _ => panic!("field {f:?} is not Ptr"),
        }
    }

    #[inline]
    fn read_range(&self, f: FieldId, i: Idx) -> (Idx, Idx) {
        match &self.fields[f.0 as usize] {
            RankField::Range(v) => v[i as usize],
            _ => panic!("field {f:?} is not Range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_core::eval::ExtBindings;
    use partir_core::pipeline::{auto_parallelize, Hints, Options};
    use partir_core::placement::{place, PlacementConfig};
    use partir_dpl::func::FnTable;
    use partir_dpl::region::Schema;
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};

    /// CSR row sums on 8 rows of 4 entries, placed on `n_ranks` ranks:
    /// `for i in Y: for k in row(i): Y[i].y += X[col(k)].x`. Returns the
    /// store, its exchange plan and the fields `[x, y, col, row]`.
    fn csr_row_sums(n_ranks: usize) -> (Store, ExchangePlan, [FieldId; 4], Vec<bool>) {
        csr_rows(8, |k| (k * 5) % 8, n_ranks)
    }

    /// [`csr_row_sums`] on `rows` rows with entry `k` in column `col_of(k)`;
    /// `X` carries a second f64 field the loop never touches. Last: the
    /// plan's [`written_fields`].
    fn csr_rows(
        rows: u64,
        col_of: impl Fn(u64) -> u64,
        n_ranks: usize,
    ) -> (Store, ExchangePlan, [FieldId; 4], Vec<bool>) {
        let mut schema = Schema::new();
        let mat = schema.add_region("Mat", 4 * rows);
        let x = schema.add_region("X", rows);
        let y = schema.add_region("Y", rows);
        let fx = schema.add_field(x, "x", FieldKind::F64);
        schema.add_field(x, "x_prev", FieldKind::F64);
        let fy = schema.add_field(y, "y", FieldKind::F64);
        let col = schema.add_field(mat, "col", FieldKind::Ptr(x));
        let row = schema.add_field(y, "row", FieldKind::Range(mat));
        let mut fns = FnTable::new();
        let f_row = fns.add_range_field("row", y, mat, row);
        let f_col = fns.add_ptr_field("col", mat, x, col);
        let mut b = LoopBuilder::new("spmv", y);
        let i = b.loop_var();
        let k = b.begin_for_each(f_row, i);
        let c = b.idx_read(mat, col, k, f_col);
        let v = b.val_read(x, fx, c);
        b.val_reduce(y, fy, i, ReduceOp::Add, VExpr::var(v));
        b.end_for_each();
        let program = vec![b.finish()];
        let mut store = Store::new(schema.clone());
        for r in 0..rows {
            store.ranges_mut(row)[r as usize] = (4 * r, 4 * r + 4);
        }
        for k in 0..4 * rows {
            store.ptrs_mut(col)[k as usize] = col_of(k);
        }
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let parts = plan.evaluate(&store, &fns, n_ranks, &ExtBindings::new());
        let xplan =
            place(&plan, &parts, &schema, n_ranks, &PlacementConfig::default()).unwrap().xplan;
        let written = written_fields(&plan, &schema);
        (store, xplan, [fx, fy, col, row], written)
    }

    /// Every rank's shard holds the global store's own topology columns.
    #[test]
    fn ranks_share_topology_columns_with_the_global_store() {
        let n_ranks = 4;
        let (store, xplan, [_, _, col, row], _) = csr_row_sums(n_ranks);
        let (FieldData::Ptr(cols), FieldData::Range(rows)) =
            (store.field_data(col), store.field_data(row))
        else {
            panic!("col is Ptr and row is Range");
        };
        assert_eq!((Arc::strong_count(cols), Arc::strong_count(rows)), (1, 1));
        let shards: Vec<_> = (0..n_ranks).map(|r| RankStore::shard(&store, &xplan, r)).collect();
        assert_eq!((Arc::strong_count(cols), Arc::strong_count(rows)), (1 + n_ranks, 1 + n_ranks));
        for shard in &shards {
            let (RankField::Ptr(c), RankField::Range(r)) =
                (&shard.fields[col.0 as usize], &shard.fields[row.0 as usize])
            else {
                panic!("a shard keeps each field's kind");
            };
            assert!(Arc::ptr_eq(c, cols) && Arc::ptr_eq(r, rows), "no column is copied");
            assert_eq!(shard.read_ptr(col, 7), store.ptrs(col)[7]);
            assert_eq!(shard.read_range(row, 3), store.ranges(row)[3]);
        }
        drop(shards);
        assert_eq!((Arc::strong_count(cols), Arc::strong_count(rows)), (1, 1));
    }

    /// A shard translates through the exchange plan's own footprint
    /// indexes: every f64 field holds the `Arc` of its region's
    /// `xplan.local(region, rank).index()`, a second shard of the rank the
    /// same one, and the index holds at most a quarter byte per element of
    /// its span (rounded up to whole 64-element words).
    #[test]
    fn region_fields_share_one_position_index() {
        let (rows, n_ranks) = (1024, 4);
        let (store, xplan, ..) =
            csr_rows(rows, |k| (k / 4 + [0, 1, 97, 300][k as usize % 4]) % rows, n_ranks);
        let schema = store.schema();
        let mut bitmaps = 0;
        for r in 0..n_ranks {
            let (shard, again) =
                (RankStore::shard(&store, &xplan, r), RankStore::shard(&store, &xplan, r));
            for (fi, (field, other)) in shard.fields.iter().zip(&again.fields).enumerate() {
                let (RankField::F64 { local, .. }, RankField::F64 { local: other, .. }) =
                    (field, other)
                else {
                    continue;
                };
                let set = xplan.local(schema.field(FieldId(fi as u32)).region, r);
                assert!(Arc::ptr_eq(local, set.index()), "field {fi}: the plan's index");
                assert!(Arc::ptr_eq(local, other), "field {fi}: built once for both shards");
                let span = set.max().map_or(0, |max| max + 1 - set.min().unwrap());
                assert!(local.heap_bytes() as u64 <= span.next_multiple_of(64) / 4);
                bitmaps += usize::from(local.heap_bytes() > 0);
            }
        }
        assert!(bitmaps > 0, "some footprint is more than one run");
    }

    /// The gather writes what a rank owns and nothing it merely holds: a
    /// ghost copy never reaches the global store.
    #[test]
    fn gather_writes_owned_elements_only() {
        let n_ranks = 4;
        let (mut store, xplan, [fx, ..], _) = csr_row_sums(n_ranks);
        let every_field = vec![true; store.schema().num_fields()];
        let x = store.schema().field(fx).region;
        let mut ghosts = 0;
        for r in 0..n_ranks {
            let mut shard = RankStore::shard(&store, &xplan, r);
            // Mark every element the rank holds, owned or ghost.
            for i in xplan.local(x, r).iter() {
                assert!(shard.write_f64(fx, i, 1.0 + r as f64));
            }
            ghosts += xplan.local(x, r).len() - xplan.owned(x, r).len();
            shard.gather_into(&mut store, &xplan, r, &every_field);
        }
        assert!(ghosts > 0, "the fixture has ghost elements to get wrong");
        for r in 0..n_ranks {
            for i in xplan.owned(x, r).iter() {
                assert_eq!(store.f64s(fx)[i as usize], 1.0 + r as f64, "element {i}");
            }
        }
    }

    /// The gather copies back only the fields some loop writes: SpMV's `y`
    /// is gathered, a scribble on its `x` (read only) stays in the shard.
    #[test]
    fn gather_skips_fields_no_loop_writes() {
        let n_ranks = 4;
        let (mut store, xplan, [fx, fy, ..], written) = csr_row_sums(n_ranks);
        assert!(written[fy.0 as usize] && !written[fx.0 as usize], "{written:?}");
        let (x, y) = (store.schema().field(fx).region, store.schema().field(fy).region);
        let before = store.f64s(fx).to_vec();
        for r in 0..n_ranks {
            let mut shard = RankStore::shard(&store, &xplan, r);
            for i in xplan.local(x, r).iter() {
                assert!(shard.write_f64(fx, i, -1.0 - r as f64));
            }
            for i in xplan.local(y, r).iter() {
                assert!(shard.write_f64(fy, i, 1.0 + r as f64));
            }
            shard.gather_into(&mut store, &xplan, r, &written);
        }
        assert_eq!(store.f64s(fx), &before[..], "an unwritten field keeps its values");
        for r in 0..n_ranks {
            for i in xplan.owned(y, r).iter() {
                assert_eq!(store.f64s(fy)[i as usize], 1.0 + r as f64, "element {i}");
            }
        }
    }

    #[test]
    fn non_resident_access_is_detected() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 8);
        let f = schema.add_field(r, "x", FieldKind::F64);
        let mut store = Store::new(schema.clone());
        for i in 0..8 {
            store.f64s_mut(f)[i] = i as f64;
        }
        // A fake single-field plan: pretend rank 0 holds [0,4).
        // Build via RankField directly to keep the test self-contained.
        let mut rs = RankStore {
            fields: vec![RankField::F64 {
                local: Arc::clone(IndexSet::from_range(0, 4).index()),
                data: vec![0.0, 1.0, 2.0, 3.0],
            }],
        };
        assert_eq!(rs.read_f64(f, 2), Some(2.0));
        assert_eq!(rs.read_f64(f, 6), None);
        assert!(rs.write_f64(f, 3, 9.0));
        assert!(!rs.write_f64(f, 5, 9.0));
        assert_eq!(rs.read_f64(f, 3), Some(9.0));
        // Runs: resident as a whole or refused untouched.
        let mut run = [0.0; 3];
        assert!(rs.load_run(f, 1, &mut run));
        assert_eq!(run, [1.0, 2.0, 9.0]);
        assert!(!rs.load_run(f, 2, &mut run), "run leaves the footprint");
        assert!(!rs.store_run(f, 3, &[5.0, 5.0]));
        assert_eq!(rs.read_f64(f, 3), Some(9.0), "a refused store wrote nothing");
        assert!(rs.store_run(f, 0, &[4.0, 5.0]));
        assert_eq!(rs.read_f64(f, 1), Some(5.0));
    }

    #[test]
    fn pack_and_unpack_copy_whole_runs() {
        let local = IndexSet::from_indices([0, 1, 2, 3, 8, 9]);
        let mut rs = RankStore {
            fields: vec![RankField::F64 {
                local: Arc::clone(local.index()),
                data: vec![0.0, 1.0, 2.0, 3.0, 8.0, 9.0],
            }],
        };
        let f = FieldId(0);
        // A transfer set spanning parts of both runs of the footprint.
        let sets: FieldSets = vec![(f, IndexSet::from_indices([1, 2, 8, 9]))];
        let mut out = Vec::new();
        assert_eq!(pack(&rs, &sets, &mut out), 4);
        assert_eq!(out, vec![1.0, 2.0, 8.0, 9.0]);

        let rest = unpack(&mut rs, &sets, &[10.0, 20.0, 80.0, 90.0, 7.5]);
        assert_eq!(rest, &[7.5], "unpack consumes exactly the set elements");
        assert_eq!(rs.read_f64(f, 1), Some(10.0));
        assert_eq!(rs.read_f64(f, 2), Some(20.0));
        assert_eq!(rs.read_f64(f, 8), Some(80.0));
        assert_eq!(rs.read_f64(f, 9), Some(90.0));
        assert_eq!(rs.read_f64(f, 0), Some(0.0), "untouched elements survive");
    }
}
