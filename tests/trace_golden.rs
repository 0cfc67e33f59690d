//! Golden-file test for the Chrome `trace_event` export: a fixed program
//! at a fixed rank count must serialize to a byte-stable JSON document
//! once wall-clock (`ts`/`dur`) values are normalized away. The golden
//! pins everything structural — event order, names, categories, pids,
//! tids, and the `args` payloads (bytes moved, epoch, seq, peer), which
//! are all deterministic functions of the exchange plan.
//!
//! Regenerate after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test --test trace_golden`

use partir::obs::json::Json;
use partir::prelude::*;

mod common;
use common::{build, Cfg};

/// Zeroes the wall-clock fields of every complete event; everything else
/// (including field order) passes through untouched.
fn normalize(doc: Json) -> Json {
    let Json::Obj(fields) = doc else { panic!("trace doc is an object") };
    let mut out = Json::object();
    for (k, v) in fields {
        if k != "traceEvents" {
            out = out.with(k, v);
            continue;
        }
        let Json::Arr(events) = v else { panic!("traceEvents is an array") };
        let mut arr = Json::array();
        for e in events {
            let Json::Obj(ef) = e else { panic!("event is an object") };
            let mut ne = Json::object();
            for (ek, ev) in ef {
                match ek.as_str() {
                    "ts" | "dur" => ne = ne.with(ek, 0u64),
                    _ => ne = ne.with(ek, ev),
                }
            }
            arr = arr.push(ne);
        }
        out = out.with(k, arr);
    }
    out
}

#[test]
fn chrome_trace_matches_golden() {
    let cfg = Cfg {
        n_a: 40,
        n_b: 20,
        colors: 4,
        read_ptr_chain: false,
        read_affine: true,
        reduce_via_ptr: false,
        reduce_via_affine: true,
        second_loop: true,
        ptr_seed: 7,
    };
    let built = build(&cfg);
    let plan = Partir::new(built.program.clone(), built.fns.clone(), built.store.schema().clone())
        .colors(4)
        .solve()
        .expect("fixed program is parallelizable");
    let mut store = built.store.clone();
    let outcome = Run::new()
        .backend(Backend::Ranks(2))
        .obs(ObsConfig { timeline: true, strict_volume: true, ..ObsConfig::disabled() })
        .run(&plan, &mut store)
        .expect("run succeeds");

    let trace = outcome.trace.expect("timeline collected");
    let text = format!("{}\n", normalize(trace.to_chrome_trace("trace_golden")));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/chrome_trace.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        text, want,
        "chrome trace shape drifted from tests/golden/chrome_trace.json; \
         regenerate with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
