//! Store identity under writes through clones.
//!
//! `store_index_fingerprint` is remembered by the store and shared by its
//! clones, so the one new way to be wrong is a remembered value outliving
//! the structure it names. A family of clones of one store goes through a
//! random interleaving of clone / f64 write / pointer write / range write /
//! `field_data_mut` / drop, and whenever a store is asked, its fingerprint
//! is the content hash of a store rebuilt element by element from what it
//! holds now (a rebuilt store has never been asked, so its hash really
//! runs), its contents are what was written through *it* and nothing else,
//! and two stores agree on the fingerprint exactly when they agree on the
//! index columns.

use partir::core::fingerprint::{store_index_fingerprint, Fingerprint};
use partir::dpl::region::FieldData;
use partir::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Elements per region: small, so a family keeps coming back to contents
/// another member holds or held.
const N: usize = 3;
const VAL: FieldId = FieldId(0);
const PTR: FieldId = FieldId(1);
const RANGE: FieldId = FieldId(2);

fn schema() -> Schema {
    let mut s = Schema::new();
    let r = s.add_region("R", N as u64);
    s.add_field(r, "val", FieldKind::F64);
    s.add_field(r, "ptr", FieldKind::Ptr(r));
    s.add_field(r, "range", FieldKind::Range(r));
    s
}

/// What a member should hold, kept beside it and written in step with it.
#[derive(Clone, Debug, PartialEq)]
struct Model {
    val: Vec<f64>,
    ptr: Vec<Idx>,
    range: Vec<(Idx, Idx)>,
}

#[derive(Clone, Debug)]
enum Op {
    Clone,
    Drop,
    WriteF64(f64),
    WritePtr(Idx),
    WriteRange(Idx),
    /// In place through `field_data_mut`, whatever the field's kind.
    WriteColumn(FieldId, Idx),
    /// A whole new column through `field_data_mut`.
    ReplaceColumn(FieldId, Idx),
}

/// One step: `op` on member `who` (modulo the family) at element `at`, then
/// the members picked by `ask` (bit per member) are asked who they are.
#[derive(Clone, Debug)]
struct Step {
    op: Op,
    who: usize,
    at: usize,
    ask: u8,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..7, 0u32..3, 0..N as Idx, 0usize..8, 0..N, any::<u8>()).prop_map(
        |(kind, field, v, who, at, ask)| {
            let op = match kind {
                0 => Op::Clone,
                1 => Op::Drop,
                2 => Op::WriteF64(v as f64),
                3 => Op::WritePtr(v),
                4 => Op::WriteRange(v),
                5 => Op::WriteColumn(FieldId(field), v),
                _ => Op::ReplaceColumn(FieldId(field), v),
            };
            Step { op, who, at, ask }
        },
    )
}

fn apply(op: &Op, at: usize, store: &mut Store, model: &mut Model) {
    match *op {
        Op::Clone | Op::Drop => unreachable!("handled by the family"),
        Op::WriteF64(v) => {
            store.f64s_mut(VAL)[at] = v;
            model.val[at] = v;
        }
        Op::WritePtr(v) => {
            store.ptrs_mut(PTR)[at] = v;
            model.ptr[at] = v;
        }
        Op::WriteRange(v) => {
            store.ranges_mut(RANGE)[at] = (v, N as Idx);
            model.range[at] = (v, N as Idx);
        }
        Op::WriteColumn(f, v) => match store.field_data_mut(f) {
            FieldData::F64(column) => {
                column[at] = v as f64;
                model.val[at] = v as f64;
            }
            FieldData::Ptr(column) => {
                Arc::make_mut(column)[at] = v;
                model.ptr[at] = v;
            }
            FieldData::Range(column) => {
                Arc::make_mut(column)[at] = (0, v);
                model.range[at] = (0, v);
            }
        },
        Op::ReplaceColumn(f, v) => {
            let column = store.field_data_mut(f);
            match column {
                FieldData::F64(_) => {
                    *column = FieldData::F64(vec![v as f64; N]);
                    model.val = vec![v as f64; N];
                }
                FieldData::Ptr(_) => {
                    *column = FieldData::Ptr(Arc::new(vec![v; N]));
                    model.ptr = vec![v; N];
                }
                FieldData::Range(_) => {
                    *column = FieldData::Range(Arc::new(vec![(v, v); N]));
                    model.range = vec![(v, v); N];
                }
            }
        }
    }
}

/// The content hash of what `store` holds now, by way of a store nobody
/// has asked before.
fn rebuilt_fingerprint(store: &Store) -> Fingerprint {
    let mut fresh = Store::new(schema());
    for i in 0..N {
        fresh.f64s_mut(VAL)[i] = store.f64s(VAL)[i];
        fresh.ptrs_mut(PTR)[i] = store.ptrs(PTR)[i];
        fresh.ranges_mut(RANGE)[i] = store.ranges(RANGE)[i];
    }
    store_index_fingerprint(&fresh)
}

/// Runs `steps` over a family that starts as one zeroed store. With
/// `ask_all` every member is asked after every step; without, only the
/// step's picks are, so members go through several writes and clones
/// between two questions.
fn replay(steps: &[Step], ask_all: bool) -> Result<(), TestCaseError> {
    let zero = Model { val: vec![0.0; N], ptr: vec![0; N], range: vec![(0, 0); N] };
    let mut family = vec![(Store::new(schema()), zero)];
    let last = steps.len() - 1;
    for (n, step) in steps.iter().enumerate() {
        let who = step.who % family.len();
        match step.op {
            Op::Clone => family.push(family[who].clone()),
            Op::Drop if family.len() > 1 => drop(family.swap_remove(who)),
            Op::Drop => {}
            ref write => {
                let (store, model) = &mut family[who];
                apply(write, step.at, store, model);
            }
        }
        let asked: Vec<_> = family
            .iter()
            .enumerate()
            .filter(|(i, _)| ask_all || n == last || step.ask >> (i % 8) & 1 == 1)
            .map(|(_, (store, model))| {
                let held = Model {
                    val: store.f64s(VAL).to_vec(),
                    ptr: store.ptrs(PTR).to_vec(),
                    range: store.ranges(RANGE).to_vec(),
                };
                prop_assert_eq!(&held, model, "step {}: a write reached another member", n);
                let fp = store_index_fingerprint(store);
                prop_assert_eq!(fp, rebuilt_fingerprint(store), "step {}: stale fingerprint", n);
                Ok((fp, model))
            })
            .collect::<Result<_, _>>()?;
        for (i, (fp_a, a)) in asked.iter().enumerate() {
            for (fp_b, b) in &asked[i + 1..] {
                let same_structure = (&a.ptr, &a.range) == (&b.ptr, &b.range);
                prop_assert_eq!(fp_a == fp_b, same_structure, "step {}: {:?} vs {:?}", n, a, b);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_fingerprint_never_outlives_the_structure_it_names(
        steps in collection::vec(arb_step(), 1..48),
    ) {
        replay(&steps, true)?;
        replay(&steps, false)?;
    }
}
