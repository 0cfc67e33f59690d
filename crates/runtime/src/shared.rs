//! Shared field storage for parallel task execution.
//!
//! Parallel tasks execute loop bodies concurrently against one [`Store`].
//! Safety rests on the partitioning invariants the solver established and
//! the executor enforces dynamically:
//!
//! * pointer/range fields are never written during parallel phases — tasks
//!   only read them;
//! * f64 *writes* are centered, and the executor guarantees each element is
//!   written by exactly one task (disjoint iteration partition, or the
//!   first-owner write-ownership sets of relaxed loops);
//! * f64 *reductions* applied directly (modes `Direct`/`Guarded`/the
//!   private part of `BufferedPrivate`) target elements owned by exactly
//!   one task (disjoint reduction partition / guard / private
//!   sub-partition); all other reductions go to task-local buffers;
//! * a field that is written in a loop is never read uncentered in the same
//!   loop (checked by the parallelizability analysis), so cross-task
//!   read/write overlap on the same element cannot occur.
//!
//! Under those invariants no two tasks access the same `f64` element with a
//! write involved, which is exactly Rust's no-data-race requirement.

use crate::task::Storage;
use partir_dpl::index_set::Idx;
use partir_dpl::region::{FieldData, FieldId, Store};
use std::sync::Arc;

/// Views of every field of a store, shareable across worker threads: raw
/// views of the f64 columns, shared handles on the topology columns (as a
/// rank's shard holds them).
pub struct SharedStore {
    fields: Vec<RawField>,
}

enum RawField {
    F64 { ptr: *mut f64, len: usize },
    Ptr(Arc<Vec<Idx>>),
    Range(Arc<Vec<(Idx, Idx)>>),
}

// SAFETY: see the module docs — the executor guarantees conflicting
// accesses never target the same element concurrently.
unsafe impl Sync for SharedStore {}
unsafe impl Send for SharedStore {}

impl SharedStore {
    /// Captures views of every field. The borrow of `store` must outlive
    /// the parallel phase (the executor keeps `&mut Store` frozen while the
    /// crossbeam scope is alive). Only f64 columns are borrowed mutably:
    /// index columns are read-only here and are shared, not copied, and a
    /// `&mut` to one would un-share it from the store's clones and forget
    /// the store's digest.
    pub fn new(store: &mut Store) -> Self {
        let fields = (0..store.schema().num_fields())
            .map(|i| {
                let fid = FieldId(i as u32);
                match store.field_data(fid) {
                    FieldData::F64(_) => {
                        let v = store.f64s_mut(fid);
                        RawField::F64 { ptr: v.as_mut_ptr(), len: v.len() }
                    }
                    FieldData::Ptr(column) => RawField::Ptr(Arc::clone(column)),
                    FieldData::Range(column) => RawField::Range(Arc::clone(column)),
                }
            })
            .collect();
        SharedStore { fields }
    }
}

/// True when elements `[start, start + n)` lie inside a field of `len`.
#[inline]
fn in_field(start: Idx, n: usize, len: usize) -> bool {
    usize::try_from(start).ok().and_then(|s| s.checked_add(n)).is_some_and(|end| end <= len)
}

/// Every worker runs its tasks against the same `&SharedStore`. An index
/// beyond the field (or a field that is not f64) is "not held", never an
/// out-of-bounds pointer.
impl Storage for &SharedStore {
    #[inline]
    fn read_f64(&self, f: FieldId, i: Idx) -> Option<f64> {
        match &self.fields[f.0 as usize] {
            // SAFETY: in bounds (guard), and no task writes this element
            // while another reads it (the executor's centered-write and
            // reduction-ownership invariants, module docs).
            RawField::F64 { ptr, len } if (i as usize) < *len => unsafe {
                Some(*ptr.add(i as usize))
            },
            _ => None,
        }
    }

    #[inline]
    fn write_f64(&mut self, f: FieldId, i: Idx, v: f64) -> bool {
        match &self.fields[f.0 as usize] {
            // SAFETY: in bounds (guard), and the calling task is the only
            // one touching element `i` of `f` during this parallel phase
            // (same invariants).
            RawField::F64 { ptr, len } if (i as usize) < *len => unsafe {
                *ptr.add(i as usize) = v;
                true
            },
            _ => false,
        }
    }

    #[inline]
    fn load_run(&self, f: FieldId, start: Idx, dst: &mut [f64]) -> bool {
        match &self.fields[f.0 as usize] {
            // SAFETY: the whole run is in bounds (guard) and `dst` is a
            // register, never part of the store. The run is made of
            // elements this task reads, and no task writes an element
            // another reads (module docs), so nothing changes under the
            // copy.
            RawField::F64 { ptr, len } if in_field(start, dst.len(), *len) => unsafe {
                std::ptr::copy_nonoverlapping(ptr.add(start as usize), dst.as_mut_ptr(), dst.len());
                true
            },
            _ => false,
        }
    }

    #[inline]
    fn store_run(&mut self, f: FieldId, start: Idx, src: &[f64]) -> bool {
        match &self.fields[f.0 as usize] {
            // SAFETY: the whole run is in bounds (guard) and `src` is a
            // register, never part of the store. The calling task is the
            // only one touching the run's elements during this parallel
            // phase: they are targets of its centered writes or in-place
            // reductions (module docs).
            RawField::F64 { ptr, len } if in_field(start, src.len(), *len) => unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr(), ptr.add(start as usize), src.len());
                true
            },
            _ => false,
        }
    }

    // Topology is never written during parallel phases, so it is read
    // through its shared column. An index beyond it panics inside the task,
    // as on a rank's shard.

    #[inline]
    fn ptr_run(&self, f: FieldId, start: Idx, dst: &mut [Idx]) {
        match &self.fields[f.0 as usize] {
            RawField::Ptr(v) => dst.copy_from_slice(&v[start as usize..][..dst.len()]),
            _ => panic!("field {f:?} is not Ptr"),
        }
    }

    #[inline]
    fn read_ptr(&self, f: FieldId, i: Idx) -> Idx {
        match &self.fields[f.0 as usize] {
            RawField::Ptr(v) => v[i as usize],
            _ => panic!("field {f:?} is not Ptr"),
        }
    }

    #[inline]
    fn read_range(&self, f: FieldId, i: Idx) -> (Idx, Idx) {
        match &self.fields[f.0 as usize] {
            RawField::Range(v) => v[i as usize],
            _ => panic!("field {f:?} is not Range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_dpl::region::{FieldKind, Schema};

    #[test]
    fn roundtrip_reads_writes() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 4);
        let fv = schema.add_field(r, "v", FieldKind::F64);
        let fp = schema.add_field(r, "p", FieldKind::Ptr(r));
        let fr = schema.add_field(r, "rg", FieldKind::Range(r));
        let mut store = Store::new(schema);
        store.ptrs_mut(fp)[2] = 3;
        store.ranges_mut(fr)[1] = (1, 4);
        {
            let shared = SharedStore::new(&mut store);
            let mut view = &shared;
            assert!(view.write_f64(fv, 0, 7.5));
            assert_eq!(view.read_f64(fv, 0), Some(7.5));
            assert_eq!(view.read_ptr(fp, 2), 3);
            assert_eq!(view.read_range(fr, 1), (1, 4));
            // Beyond the field, or not an f64 field: not held.
            assert_eq!(view.read_f64(fv, 4), None);
            assert!(!view.write_f64(fv, 4, 1.0));
            assert_eq!(view.read_f64(fp, 0), None);
            // Runs move whole or not at all.
            assert!(view.store_run(fv, 1, &[1.0, 2.0, 3.0]));
            let mut run = [0.0; 4];
            assert!(view.load_run(fv, 0, &mut run));
            assert_eq!(run, [7.5, 1.0, 2.0, 3.0]);
            assert!(!view.load_run(fv, 1, &mut run), "run ends beyond the field");
            assert!(!view.store_run(fv, 2, &[0.0; 3]));
            assert!(!view.load_run(fv, u64::MAX, &mut run[..1]));
            assert!(!view.load_run(fp, 0, &mut run), "not an f64 field");
            assert!(view.load_run(fv, 4, &mut []), "the empty run at the end is held");
            assert_eq!(view.read_f64(fv, 3), Some(3.0), "a refused store wrote nothing");
            let mut ptrs = [0; 2];
            view.ptr_run(fp, 2, &mut ptrs);
            assert_eq!(ptrs, [3, 0]);
        }
        assert_eq!(store.f64s(fv)[0], 7.5);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 1000);
        let fv = schema.add_field(r, "v", FieldKind::F64);
        let mut store = Store::new(schema);
        {
            let shared = SharedStore::new(&mut store);
            crossbeam::scope(|s| {
                for t in 0..4u64 {
                    let mut view = &shared;
                    s.spawn(move |_| {
                        for i in (t * 250)..((t + 1) * 250) {
                            assert!(view.write_f64(fv, i, i as f64));
                        }
                    });
                }
            })
            .unwrap();
        }
        for (i, v) in store.f64s(fv).iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }
}
