//! `spine compare A.json B.json`: applies each end-to-end metric's bound
//! from `BENCHMARK.json` to two reports written by `spine --out`.

use crate::stats::Summary;
use partir::obs::json::Json;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound, and by more than the
    /// runs' own spread could account for.
    Regression,
    /// A side's own spread exceeds the bound and B is not worse by more
    /// than bound and spread together: the runs cannot tell a change of
    /// the bound's size from noise.
    Unresolved,
    /// One of the reports lacks the metric.
    Missing,
}

/// How much worse `b` is than `a`, as a ratio with base `a`: above 1 is
/// worse, whichever direction is better.
pub fn worse_ratio(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        b / a
    } else {
        a / b
    }
}

/// The spread is that of the compared statistic itself (`Summary::spread`
/// over the per-part values, see `measure::combine`). A wide spread hides
/// only what it could have caused: B worse by more than bound plus spread
/// is a regression however noisy the runs were.
pub fn verdict(a: Summary, b: Summary, lower_is_better: bool, bound: f64) -> Verdict {
    let worse_by = worse_ratio(a.value, b.value, lower_is_better) - 1.0;
    let spread = a.spread().max(b.spread());
    let resolved = spread <= bound;
    if worse_by > if resolved { bound } else { bound + spread } {
        Verdict::Regression
    } else if resolved {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

/// `failed / attempted` of one workload in a report; 0 when nothing ran.
fn failed_share(workload: &Json) -> f64 {
    let num = |key: &str| workload.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    if num("attempted") > 0.0 {
        num("failed") / num("attempted")
    } else {
        0.0
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Json::as_str) != Some("spine-v1") {
        return Err(format!("{}: not a spine-v1 report", path.display()));
    }
    Ok(doc)
}

/// Prints one row per (workload, end-to-end metric). `Ok(false)` on a
/// regression or a higher failed share.
pub fn run(a_path: &Path, b_path: &Path, def: &Json) -> Result<bool, String> {
    Ok(compare(&load(a_path)?, &load(b_path)?, def))
}

fn compare(a: &Json, b: &Json, def: &Json) -> bool {
    let list = |key: &str| def.get(key).and_then(Json::as_array).unwrap_or(&[]);
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    let (mut pass, mut unresolved) = (true, 0);
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B vs A", "bound"
    );
    for w in list("workloads") {
        let name = text(w, "name");
        let side = |doc: &Json| doc.get("workloads").and_then(|ws| ws.get(&name)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            println!("{name:<16} missing from a report");
            pass = false;
            continue;
        };
        for m in list("end_to_end") {
            let metric = text(m, "name");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = text(m, "better") != "higher";
            let get = |w: &Json| w.get("end_to_end")?.get(&metric).and_then(Summary::from_json);
            let (v, sa, sb) = match (get(&wa), get(&wb)) {
                (Some(sa), Some(sb)) => (verdict(sa, sb, lower, bound), sa, sb),
                _ => (Verdict::Missing, Summary::single(f64::NAN), Summary::single(f64::NAN)),
            };
            pass &= !matches!(v, Verdict::Regression | Verdict::Missing);
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{name:<16} {metric:<16} {:>12.4} {:>12.4} {:>8.3}x {:>5.0}%  {v:?}",
                sa.value,
                sb.value,
                worse_ratio(sa.value, sb.value, lower),
                bound * 100.0
            );
        }
        let (fa, fb) = (failed_share(&wa), failed_share(&wb));
        if fb > fa {
            println!("{name:<16} failed share rose from {fa:.6} to {fb:.6}: Regression");
            pass = false;
        }
    }
    if unresolved > 0 {
        println!("{unresolved} pair(s) unresolved: a spread above the bound; run both sides again");
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary { value: median, q1, q3, n: 11 }
    }

    #[test]
    fn verdicts() {
        let base = s(100.0, 99.0, 101.0);
        // Within the bound, either way.
        assert_eq!(verdict(base, s(109.0, 108.0, 110.0), true, 0.10), Verdict::Ok);
        assert_eq!(verdict(base, s(50.0, 49.9, 50.1), true, 0.10), Verdict::Ok);
        // Worse by more than the bound.
        assert_eq!(verdict(base, s(111.0, 110.0, 112.0), true, 0.10), Verdict::Regression);
        // A higher-is-better metric regresses when it falls.
        assert_eq!(verdict(base, s(80.0, 79.5, 80.5), false, 0.10), Verdict::Regression);
        assert_eq!(verdict(base, s(130.0, 129.0, 131.0), false, 0.10), Verdict::Ok);
        // Either side's spread above the bound hides a change of its size...
        assert_eq!(verdict(base, s(115.0, 105.0, 125.0), true, 0.10), Verdict::Unresolved);
        assert_eq!(
            verdict(s(100.0, 90.0, 105.0), s(100.0, 99.0, 101.0), true, 0.10),
            Verdict::Unresolved
        );
        // ...but not one beyond bound and spread together: B's spread is
        // 37 % here and B is twice as slow.
        assert_eq!(verdict(base, s(200.0, 170.0, 244.0), true, 0.10), Verdict::Regression);
        assert_eq!(verdict(base, s(140.0, 110.0, 162.0), true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn ratio_has_a_as_its_base() {
        assert_eq!(worse_ratio(100.0, 120.0, true), 1.2);
        assert_eq!(worse_ratio(100.0, 80.0, false), 1.25);
    }

    fn report(cold_ms: f64, failed: u64) -> Json {
        let metric = |v: f64| s(v, v * 0.99, v * 1.01).to_json("ms");
        let workload = Json::object()
            .with("attempted", 100u64)
            .with("failed", failed)
            .with("end_to_end", Json::object().with("plan_cold_ms", metric(cold_ms)));
        Json::object()
            .with("schema", "spine-v1")
            .with("workloads", Json::object().with("w", workload))
    }

    fn compare_docs(a: &Json, b: &Json) -> bool {
        let def = Json::parse(
            r#"{"workloads": [{"name": "w", "why": ""}],
                "end_to_end": [{"name": "plan_cold_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        compare(a, b, &def)
    }

    #[test]
    fn whole_reports_pass_or_fail() {
        assert!(compare_docs(&report(10.0, 0), &report(10.5, 0)));
        assert!(!compare_docs(&report(10.0, 0), &report(12.0, 0)), "20% slower");
        assert!(!compare_docs(&report(10.0, 0), &report(10.0, 1)), "failed share rose");
        assert!(compare_docs(&report(10.0, 1), &report(10.0, 1)), "failed share equal");
        assert!(load(Path::new("/nonexistent/spine.json")).is_err());
    }
}
