//! Partitioning functions.
//!
//! The `image`/`preimage` operators derive partitions through *functions on
//! indices* (Section 2): affine neighbor maps (`h(c)` in Figure 1, stencil
//! offsets), pointer fields (`Particles[·].cell`), and — for the
//! generalized `IMAGE`/`PREIMAGE` of Section 4 — *set-valued* functions such
//! as CSR row ranges (`Ranges[·]` in Figure 10).
//!
//! Functions are declared once in a [`FnTable`] and referenced by [`FnId`]
//! from both the loop IR and the constraint language, so that constraint
//! unification can compare function symbols structurally.

use crate::index_set::Idx;
use crate::region::{FieldId, RegionId, Store};
use std::fmt;

/// Identifies a function in a [`FnTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnId(pub u32);

impl fmt::Debug for FnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// A single-valued function on indices.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum IndexFn {
    /// `f(i) = i`.
    Identity,
    /// `f(i) = i*mul + add`, evaluated in signed arithmetic; results outside
    /// the target region are "out of range" (the element simply has no
    /// image, matching region-bounds semantics in Regent).
    Affine { mul: i64, add: i64 },
    /// `f(i) = (i*mul + add) mod m` (Figure 3 uses `(i+1)%5`).
    AffineMod { mul: i64, add: i64, modulus: u64 },
    /// `f(i) = store[field][i]` — a pointer field lookup.
    Ptr { field: FieldId },
    /// `f = second ∘ first` (apply `first`, then `second`).
    Compose(Box<IndexFn>, Box<IndexFn>),
}

impl IndexFn {
    /// Evaluates the function at `i`. Returns `None` when the result falls
    /// outside `[0, target_size)` or an intermediate step has no image.
    pub fn eval(&self, store: &Store, i: Idx, target_size: u64) -> Option<Idx> {
        let raw = self.eval_raw(store, i)?;
        (raw < target_size).then_some(raw)
    }

    /// Evaluates without the final range check (used by [`IndexFn::Compose`],
    /// whose intermediate results are checked against the *final* target by
    /// the caller supplying intermediate sizes implicitly via field lengths).
    fn eval_raw(&self, store: &Store, i: Idx) -> Option<Idx> {
        match self {
            IndexFn::Identity => Some(i),
            IndexFn::Affine { mul, add } => {
                let v = (i as i64).checked_mul(*mul)?.checked_add(*add)?;
                (v >= 0).then_some(v as Idx)
            }
            IndexFn::AffineMod { mul, add, modulus } => {
                let v = (i as i64).checked_mul(*mul)?.checked_add(*add)?;
                Some(v.rem_euclid(*modulus as i64) as Idx)
            }
            IndexFn::Ptr { field } => {
                let ptrs = store.ptrs(*field);
                ptrs.get(i as usize).copied()
            }
            IndexFn::Compose(first, second) => {
                let mid = first.eval_raw(store, i)?;
                second.eval_raw(store, mid)
            }
        }
    }
}

/// A set-valued function on indices (Section 4).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MultiFn {
    /// `F(i) = { store[field][i].0 .. store[field][i].1 }` — a range field
    /// such as CSR row bounds.
    RangeField { field: FieldId },
    /// The lifting `f↑(x) = {f(x)}` of a single-valued function; with this,
    /// `image(E, f, R) = IMAGE(E, f↑, R)` as noted in Section 4.
    Lift(IndexFn),
}

impl MultiFn {
    /// Appends `F(i) ∩ [0, target_size)` to `out`.
    pub fn eval_into(&self, store: &Store, i: Idx, target_size: u64, out: &mut Vec<Idx>) {
        match self {
            MultiFn::RangeField { field } => {
                if let Some(&(s, e)) = store.ranges(*field).get(i as usize) {
                    let e = e.min(target_size);
                    out.extend(s..e);
                }
            }
            MultiFn::Lift(f) => {
                if let Some(v) = f.eval(store, i, target_size) {
                    out.push(v);
                }
            }
        }
    }
}

/// The definition behind a function symbol.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FnDef {
    Index(IndexFn),
    Multi(MultiFn),
}

/// A named, declared partitioning function.
#[derive(Clone, Debug, Hash)]
pub struct NamedFn {
    pub name: String,
    /// The region the function maps *from* (its domain).
    pub domain: RegionId,
    /// The region the function maps *into* (its range).
    pub range: RegionId,
    pub def: FnDef,
}

/// Registry of partitioning functions used by a program.
#[derive(Clone, Debug, Default, Hash)]
pub struct FnTable {
    fns: Vec<NamedFn>,
}

impl FnTable {
    pub fn new() -> Self {
        FnTable::default()
    }

    pub fn add(
        &mut self,
        name: impl Into<String>,
        domain: RegionId,
        range: RegionId,
        def: FnDef,
    ) -> FnId {
        let id = FnId(self.fns.len() as u32);
        self.fns.push(NamedFn { name: name.into(), domain, range, def });
        id
    }

    /// Declares a pointer-field function `R[·].field : R -> target`.
    pub fn add_ptr_field(
        &mut self,
        name: impl Into<String>,
        domain: RegionId,
        range: RegionId,
        field: FieldId,
    ) -> FnId {
        self.add(name, domain, range, FnDef::Index(IndexFn::Ptr { field }))
    }

    /// Declares an affine function `i ↦ i*mul + add : domain -> range`.
    pub fn add_affine(
        &mut self,
        name: impl Into<String>,
        domain: RegionId,
        range: RegionId,
        mul: i64,
        add: i64,
    ) -> FnId {
        self.add(name, domain, range, FnDef::Index(IndexFn::Affine { mul, add }))
    }

    /// Declares a range-field multi-function (CSR-style).
    pub fn add_range_field(
        &mut self,
        name: impl Into<String>,
        domain: RegionId,
        range: RegionId,
        field: FieldId,
    ) -> FnId {
        self.add(name, domain, range, FnDef::Multi(MultiFn::RangeField { field }))
    }

    pub fn get(&self, id: FnId) -> &NamedFn {
        &self.fns[id.0 as usize]
    }

    pub fn name(&self, id: FnId) -> &str {
        &self.fns[id.0 as usize].name
    }

    pub fn len(&self) -> usize {
        self.fns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// True when the function is single-valued (an `IndexFn`), i.e. lemmas
    /// that require functional maps (L12/L14) apply to it.
    pub fn is_single_valued(&self, id: FnId) -> bool {
        matches!(self.get(id).def, FnDef::Index(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{FieldKind, Schema};

    fn setup() -> (Store, FnTable, RegionId, RegionId, FnId, FnId, FnId) {
        let mut s = Schema::new();
        let cells = s.add_region("Cells", 5);
        let particles = s.add_region("Particles", 4);
        let cell_f = s.add_field(particles, "cell", FieldKind::Ptr(cells));
        let mut store = Store::new(s);
        store.ptrs_mut(cell_f).copy_from_slice(&[0, 0, 3, 4]);
        let mut t = FnTable::new();
        let h = t.add(
            "h",
            cells,
            cells,
            FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: 5 }),
        );
        let ptr = t.add_ptr_field("Particles[.].cell", particles, cells, cell_f);
        let shift = t.add_affine("shift", cells, cells, 1, -1);
        (store, t, particles, cells, h, ptr, shift)
    }

    #[test]
    fn identity_and_affine_eval() {
        let (store, ..) = setup();
        assert_eq!(IndexFn::Identity.eval(&store, 3, 10), Some(3));
        assert_eq!(IndexFn::Identity.eval(&store, 10, 10), None);
        let f = IndexFn::Affine { mul: 2, add: 1 };
        assert_eq!(f.eval(&store, 2, 10), Some(5));
        assert_eq!(f.eval(&store, 5, 10), None); // 11 out of range
        let g = IndexFn::Affine { mul: 1, add: -3 };
        assert_eq!(g.eval(&store, 1, 10), None); // negative
        assert_eq!(g.eval(&store, 3, 10), Some(0));
    }

    #[test]
    fn affine_mod_wraps_like_figure_3() {
        let (store, ..) = setup();
        // f(i) = (i + 1) % 5 from Figure 3.
        let f = IndexFn::AffineMod { mul: 1, add: 1, modulus: 5 };
        let images: Vec<_> = (0..5).map(|i| f.eval(&store, i, 5).unwrap()).collect();
        assert_eq!(images, vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn ptr_field_eval_reads_store() {
        let (store, t, _, _, _, ptr, _) = setup();
        let FnDef::Index(f) = &t.get(ptr).def else { panic!() };
        assert_eq!(f.eval(&store, 2, 5), Some(3));
        assert_eq!(f.eval(&store, 99, 5), None); // out of domain
    }

    #[test]
    fn compose_applies_left_then_right() {
        let (store, ..) = setup();
        let f = IndexFn::Compose(
            Box::new(IndexFn::Affine { mul: 1, add: 1 }),
            Box::new(IndexFn::Affine { mul: 2, add: 0 }),
        );
        assert_eq!(f.eval(&store, 1, 100), Some(4)); // (1+1)*2
    }

    #[test]
    fn lifted_multifn_matches_indexfn() {
        let (store, ..) = setup();
        let f = IndexFn::Affine { mul: 1, add: 2 };
        let lifted = MultiFn::Lift(f.clone());
        for i in 0..10 {
            let mut out = Vec::new();
            lifted.eval_into(&store, i, 8, &mut out);
            assert_eq!(out, f.eval(&store, i, 8).into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn range_field_multifn() {
        let mut s = Schema::new();
        let mat = s.add_region("Mat", 100);
        let y = s.add_region("Y", 3);
        let rf = s.add_field(y, "range", FieldKind::Range(mat));
        let mut store = Store::new(s);
        store.ranges_mut(rf).copy_from_slice(&[(0, 3), (3, 3), (3, 7)]);
        let f = MultiFn::RangeField { field: rf };
        let mut out = Vec::new();
        f.eval_into(&store, 0, 100, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        out.clear();
        f.eval_into(&store, 1, 100, &mut out);
        assert!(out.is_empty());
        out.clear();
        f.eval_into(&store, 2, 5, &mut out); // clipped by target size
        assert_eq!(out, vec![3, 4]);
    }

    #[test]
    fn fn_table_metadata() {
        let (_, t, particles, cells, h, ptr, _) = setup();
        assert_eq!(t.name(h), "h");
        assert_eq!(t.get(ptr).domain, particles);
        assert_eq!(t.get(ptr).range, cells);
        assert!(t.is_single_valued(h));
        assert_eq!(t.len(), 3);
    }
}
