//! Regions, fields, and runtime field storage.
//!
//! A *region* is an indexed collection of values; every element has a unique
//! index in `0..size` and the same set of typed fields (Section 1.1 of the
//! paper). The static shape (sizes, field names and kinds) lives in a
//! [`Schema`]; the runtime values live in a [`Store`].
//!
//! A store's *index structure* — its `Ptr` and `Range` columns — is written
//! when the store is built and read by everything afterwards, so those
//! columns are shared, copy-on-write values: cloning a store clones `Arc`s,
//! and the first write through a clone copies the one column it touches.

use crate::index_set::Idx;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifies a region within a [`Schema`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Identifies a field within a [`Schema`] (fields are numbered globally; each
/// field belongs to exactly one region).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u32);

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Debug for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// The runtime type of a field.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FieldKind {
    /// Double-precision values (positions, velocities, matrix entries, ...).
    F64,
    /// Pointer fields: each element stores the index of an element of
    /// another region (e.g. `Particles[p].cell`). The target region is
    /// recorded so partitioning functions know their range.
    Ptr(RegionId),
    /// Range fields: each element stores a half-open index range into
    /// another region (CSR row bounds, Figure 10's `Ranges`).
    Range(RegionId),
}

/// Static description of one region.
#[derive(Clone, Debug, Hash)]
pub struct RegionDecl {
    pub name: String,
    pub size: u64,
    /// Fields owned by this region, in declaration order.
    pub fields: Vec<FieldId>,
}

/// Static description of one field.
#[derive(Clone, Debug, Hash)]
pub struct FieldDecl {
    pub name: String,
    pub region: RegionId,
    pub kind: FieldKind,
}

/// The static shape of a program's data: regions and their fields.
#[derive(Clone, Debug, Default, Hash)]
pub struct Schema {
    regions: Vec<RegionDecl>,
    fields: Vec<FieldDecl>,
}

impl Schema {
    pub fn new() -> Self {
        Schema::default()
    }

    /// Declares a region with `size` elements; returns its id.
    pub fn add_region(&mut self, name: impl Into<String>, size: u64) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(RegionDecl { name: name.into(), size, fields: Vec::new() });
        id
    }

    /// Declares a field on `region`; returns its id.
    pub fn add_field(
        &mut self,
        region: RegionId,
        name: impl Into<String>,
        kind: FieldKind,
    ) -> FieldId {
        let id = FieldId(self.fields.len() as u32);
        self.fields.push(FieldDecl { name: name.into(), region, kind });
        self.regions[region.0 as usize].fields.push(id);
        id
    }

    pub fn region(&self, id: RegionId) -> &RegionDecl {
        &self.regions[id.0 as usize]
    }

    pub fn field(&self, id: FieldId) -> &FieldDecl {
        &self.fields[id.0 as usize]
    }

    pub fn region_size(&self, id: RegionId) -> u64 {
        self.region(id).size
    }

    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    pub fn regions(&self) -> impl Iterator<Item = (RegionId, &RegionDecl)> {
        self.regions.iter().enumerate().map(|(i, r)| (RegionId(i as u32), r))
    }

    /// True when `other` lays data out the way `self` does: the same region
    /// sizes, and each field in the same region with the same kind. Names
    /// are ignored. A plan solved over one schema is valid for exactly the
    /// stores whose schema has its shape.
    pub fn same_shape(&self, other: &Schema) -> bool {
        self.regions.len() == other.regions.len()
            && self.fields.len() == other.fields.len()
            && self.regions.iter().zip(&other.regions).all(|(a, b)| a.size == b.size)
            && self
                .fields
                .iter()
                .zip(&other.fields)
                .all(|(a, b)| (a.region, a.kind) == (b.region, b.kind))
    }

    /// Looks a region up by name (test/diagnostic convenience).
    pub fn region_by_name(&self, name: &str) -> Option<RegionId> {
        self.regions.iter().position(|r| r.name == name).map(|i| RegionId(i as u32))
    }

    /// Looks a field up by `region.field` name (test/diagnostic convenience).
    pub fn field_by_name(&self, region: RegionId, name: &str) -> Option<FieldId> {
        self.region(region).fields.iter().copied().find(|&f| self.field(f).name == name)
    }
}

/// Runtime data for one field. Index columns sit behind an `Arc`: clones of
/// a store, and the ranks of a distributed run, share them.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldData {
    F64(Vec<f64>),
    Ptr(Arc<Vec<Idx>>),
    Range(Arc<Vec<(Idx, Idx)>>),
}

impl FieldData {
    pub fn len(&self) -> usize {
        match self {
            FieldData::F64(v) => v.len(),
            FieldData::Ptr(v) => v.len(),
            FieldData::Range(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runtime field values for every region in a [`Schema`].
///
/// The store owns its schema; all partitioning operators and interpreters
/// take `&Store`.
///
/// `digest` is a write-once cell for a content hash of the index structure
/// (filled through [`Store::index_digest`]). Clones share the cell, so a
/// structure is hashed once however many clones exist; every `&mut` path to
/// a `Ptr`/`Range` column gives the written store an empty cell of its own,
/// and f64 accessors leave it alone.
#[derive(Clone, Debug)]
pub struct Store {
    schema: Schema,
    data: Vec<FieldData>,
    digest: Arc<OnceLock<[u64; 2]>>,
}

impl Store {
    /// Creates a store with zero/default-initialized fields.
    pub fn new(schema: Schema) -> Self {
        let data = schema
            .fields
            .iter()
            .map(|f| {
                let n = schema.region(f.region).size as usize;
                match f.kind {
                    FieldKind::F64 => FieldData::F64(vec![0.0; n]),
                    FieldKind::Ptr(_) => FieldData::Ptr(Arc::new(vec![0; n])),
                    FieldKind::Range(_) => FieldData::Range(Arc::new(vec![(0, 0); n])),
                }
            })
            .collect();
        Store { schema, data, digest: Arc::default() }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn field_data(&self, f: FieldId) -> &FieldData {
        &self.data[f.0 as usize]
    }

    /// The whole column, to write or replace. On a field that holds index
    /// data this forgets the digest; a caller writing in place then goes
    /// through `Arc::make_mut`. A column keeps the kind and the length its
    /// schema declares, whoever writes it.
    pub fn field_data_mut(&mut self, f: FieldId) -> &mut FieldData {
        if !matches!(self.data[f.0 as usize], FieldData::F64(_)) {
            self.forget_digest();
        }
        &mut self.data[f.0 as usize]
    }

    /// The digest of this store's index structure, computed by `hash` the
    /// first time any store sharing the cell is asked. `hash` must be a
    /// function of the `Ptr`/`Range` columns and the schema's shape alone.
    /// Concurrent first calls run `hash` once; the others wait for it.
    pub fn index_digest(&self, hash: impl FnOnce() -> [u64; 2]) -> [u64; 2] {
        *self.digest.get_or_init(hash)
    }

    /// Leaves this store with an empty digest cell; stores it was cloned
    /// from (or into) keep theirs.
    fn forget_digest(&mut self) {
        match Arc::get_mut(&mut self.digest) {
            Some(cell) => *cell = OnceLock::new(),
            None => self.digest = Arc::default(),
        }
    }

    /// f64 slice of a field; panics if the field kind differs.
    pub fn f64s(&self, f: FieldId) -> &[f64] {
        match &self.data[f.0 as usize] {
            FieldData::F64(v) => v,
            other => panic!("field {f:?} is not F64 (got {other:?})"),
        }
    }

    pub fn f64s_mut(&mut self, f: FieldId) -> &mut [f64] {
        match &mut self.data[f.0 as usize] {
            FieldData::F64(v) => v,
            _ => panic!("field {f:?} is not F64"),
        }
    }

    /// Pointer slice of a field; panics if the field kind differs.
    pub fn ptrs(&self, f: FieldId) -> &[Idx] {
        match &self.data[f.0 as usize] {
            FieldData::Ptr(v) => v,
            other => panic!("field {f:?} is not Ptr (got {other:?})"),
        }
    }

    pub fn ptrs_mut(&mut self, f: FieldId) -> &mut [Idx] {
        self.forget_digest();
        match &mut self.data[f.0 as usize] {
            FieldData::Ptr(v) => Arc::make_mut(v).as_mut_slice(),
            _ => panic!("field {f:?} is not Ptr"),
        }
    }

    /// Range slice of a field; panics if the field kind differs.
    pub fn ranges(&self, f: FieldId) -> &[(Idx, Idx)] {
        match &self.data[f.0 as usize] {
            FieldData::Range(v) => v,
            other => panic!("field {f:?} is not Range (got {other:?})"),
        }
    }

    pub fn ranges_mut(&mut self, f: FieldId) -> &mut [(Idx, Idx)] {
        self.forget_digest();
        match &mut self.data[f.0 as usize] {
            FieldData::Range(v) => Arc::make_mut(v).as_mut_slice(),
            _ => panic!("field {f:?} is not Range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn particles_cells() -> (Schema, RegionId, RegionId, FieldId, FieldId) {
        let mut s = Schema::new();
        let cells = s.add_region("Cells", 10);
        let particles = s.add_region("Particles", 25);
        let cell = s.add_field(particles, "cell", FieldKind::Ptr(cells));
        let vel = s.add_field(cells, "vel", FieldKind::F64);
        (s, particles, cells, cell, vel)
    }

    #[test]
    fn schema_declares_regions_and_fields() {
        let (s, particles, cells, cell, vel) = particles_cells();
        assert_eq!(s.region(particles).name, "Particles");
        assert_eq!(s.region_size(cells), 10);
        assert_eq!(s.field(cell).kind, FieldKind::Ptr(cells));
        assert_eq!(s.field(vel).region, cells);
        assert_eq!(s.region(particles).fields, vec![cell]);
        assert_eq!(s.num_regions(), 2);
        assert_eq!(s.num_fields(), 2);
    }

    #[test]
    fn lookup_by_name() {
        let (s, particles, cells, cell, vel) = particles_cells();
        assert_eq!(s.region_by_name("Particles"), Some(particles));
        assert_eq!(s.region_by_name("Nope"), None);
        assert_eq!(s.field_by_name(particles, "cell"), Some(cell));
        assert_eq!(s.field_by_name(cells, "vel"), Some(vel));
        assert_eq!(s.field_by_name(cells, "cell"), None);
    }

    #[test]
    fn store_zero_initializes_by_kind() {
        let (s, _, _, cell, vel) = particles_cells();
        let store = Store::new(s);
        assert_eq!(store.ptrs(cell).len(), 25);
        assert!(store.ptrs(cell).iter().all(|&p| p == 0));
        assert_eq!(store.f64s(vel).len(), 10);
        assert!(store.f64s(vel).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn store_mutation_roundtrip() {
        let (s, _, _, cell, vel) = particles_cells();
        let mut store = Store::new(s);
        store.ptrs_mut(cell)[3] = 7;
        store.f64s_mut(vel)[7] = 2.5;
        assert_eq!(store.ptrs(cell)[3], 7);
        assert_eq!(store.f64s(vel)[7], 2.5);
    }

    #[test]
    #[should_panic(expected = "is not F64")]
    fn kind_mismatch_panics() {
        let (s, _, _, cell, _) = particles_cells();
        let store = Store::new(s);
        let _ = store.f64s(cell);
    }

    #[test]
    fn range_fields() {
        let mut s = Schema::new();
        let mat = s.add_region("Mat", 100);
        let y = s.add_region("Y", 10);
        let ranges = s.add_field(y, "range", FieldKind::Range(mat));
        let mut store = Store::new(s);
        store.ranges_mut(ranges)[2] = (20, 30);
        assert_eq!(store.ranges(ranges)[2], (20, 30));
        assert_eq!(store.ranges(ranges)[0], (0, 0));
    }

    fn csr() -> (Store, FieldId, FieldId, FieldId) {
        let mut s = Schema::new();
        let mat = s.add_region("Mat", 6);
        let y = s.add_region("Y", 3);
        let val = s.add_field(mat, "val", FieldKind::F64);
        let col = s.add_field(mat, "col", FieldKind::Ptr(y));
        let row = s.add_field(y, "row", FieldKind::Range(mat));
        let mut store = Store::new(s);
        store.ptrs_mut(col).copy_from_slice(&[0, 1, 1, 2, 0, 2]);
        store.ranges_mut(row).copy_from_slice(&[(0, 2), (2, 4), (4, 6)]);
        (store, val, col, row)
    }

    /// Fills the cell with `value`, or reads what is there already.
    fn digest(store: &Store, value: u64) -> [u64; 2] {
        store.index_digest(|| [value, value])
    }

    #[test]
    fn schema_shape_ignores_names_and_sees_sizes_regions_and_kinds() {
        let build = |size: u64, on_cells: bool, kind: fn(RegionId) -> FieldKind, name: &str| {
            let mut s = Schema::new();
            let cells = s.add_region(name, size);
            let nodes = s.add_region("Nodes", 4);
            s.add_field(if on_cells { cells } else { nodes }, name, kind(nodes));
            s
        };
        let base = build(8, true, FieldKind::Ptr, "a");
        assert!(base.same_shape(&build(8, true, FieldKind::Ptr, "b")));
        assert!(!base.same_shape(&build(9, true, FieldKind::Ptr, "a")), "region size");
        assert!(!base.same_shape(&build(8, false, FieldKind::Ptr, "a")), "field's region");
        assert!(!base.same_shape(&build(8, true, FieldKind::Range, "a")), "field kind");
        assert!(!base.same_shape(&build(8, true, |_| FieldKind::F64, "a")), "field kind");
        assert!(!base.same_shape(&Schema::new()));
    }

    #[test]
    fn clones_share_index_columns_and_the_digest() {
        let (store, _, col, row) = csr();
        let clone = store.clone();
        assert!(std::ptr::eq(store.ptrs(col).as_ptr(), clone.ptrs(col).as_ptr()));
        assert!(std::ptr::eq(store.ranges(row).as_ptr(), clone.ranges(row).as_ptr()));
        assert_eq!(digest(&clone, 1), [1, 1]);
        assert_eq!(digest(&store, 2), [1, 1], "hashed through the clone, read by the original");
        assert_eq!(digest(&store.clone(), 3), [1, 1]);
    }

    #[test]
    fn an_index_write_through_a_clone_never_reaches_the_original() {
        type Write = fn(&mut Store, FieldId, FieldId);
        let writes: [Write; 4] = [
            |s, col, _| s.ptrs_mut(col)[0] = 2,
            |s, _, row| s.ranges_mut(row)[0] = (0, 1),
            |s, col, _| match s.field_data_mut(col) {
                FieldData::Ptr(v) => Arc::make_mut(v)[0] = 2,
                other => panic!("{other:?}"),
            },
            // Replacing the whole column.
            |s, _, row| *s.field_data_mut(row) = FieldData::Range(Arc::new(vec![(0, 6); 3])),
        ];
        for write in writes {
            let (store, _, col, row) = csr();
            assert_eq!(digest(&store, 1), [1, 1]);
            let before = (store.ptrs(col).to_vec(), store.ranges(row).to_vec());
            let mut clone = store.clone();
            write(&mut clone, col, row);
            assert_eq!((store.ptrs(col).to_vec(), store.ranges(row).to_vec()), before);
            assert_ne!((clone.ptrs(col).to_vec(), clone.ranges(row).to_vec()), before);
            assert_eq!(digest(&store, 2), [1, 1], "the original keeps its digest");
            assert_eq!(digest(&clone, 3), [3, 3], "the written clone lost it");
        }
    }

    #[test]
    fn an_index_write_to_the_only_holder_drops_the_digest_in_place() {
        let (mut store, _, col, _) = csr();
        assert_eq!(digest(&store, 1), [1, 1]);
        let column = store.ptrs(col).as_ptr();
        store.ptrs_mut(col)[5] = 0;
        assert!(std::ptr::eq(store.ptrs(col).as_ptr(), column), "an unshared column is not copied");
        assert_eq!(digest(&store, 2), [2, 2]);
    }

    #[test]
    fn f64_writes_keep_the_digest_and_stay_private_to_the_clone() {
        let (store, val, _, _) = csr();
        assert_eq!(digest(&store, 1), [1, 1]);
        let mut clone = store.clone();
        clone.f64s_mut(val)[0] = 1.5;
        *clone.field_data_mut(val) = FieldData::F64(vec![2.5; 6]);
        assert_eq!(digest(&clone, 2), [1, 1]);
        assert_eq!(digest(&store, 3), [1, 1]);
        assert_eq!(store.f64s(val)[0], 0.0);
        assert_eq!(clone.f64s(val)[0], 2.5);
    }

    #[test]
    fn an_unhashed_store_asked_from_two_threads_is_hashed_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Barrier;
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Store>();
        let (store, ..) = csr();
        let (clone, hashes, start) = (store.clone(), AtomicU32::new(0), Barrier::new(2));
        let ask = |s: &Store| {
            start.wait();
            s.index_digest(|| {
                hashes.fetch_add(1, Ordering::SeqCst);
                [7, 7]
            })
        };
        let (a, b) = std::thread::scope(|t| {
            let other = t.spawn(|| ask(&clone));
            (ask(&store), other.join().expect("the asking thread panicked"))
        });
        assert_eq!((a, b), ([7, 7], [7, 7]));
        assert_eq!(hashes.load(Ordering::SeqCst), 1);
    }
}
