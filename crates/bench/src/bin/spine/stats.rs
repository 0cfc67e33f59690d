//! Order statistics for timing series: median, quartiles, and the tail
//! percentile a sample is large enough to support.

use partir::obs::json::Json;

/// The reported value, quartiles and count of one series. `Summary::of`
/// gives the median and the quartiles of the repetitions. An end-to-end
/// metric holds its own statistic (mostly the fastest repetition) with the
/// quartiles of that statistic over the parts of a run, see
/// `measure::combine`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Median, quartiles and count of a series; `None` when it is empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&v);
        Some(Summary { value: median, q1, q3, n: v.len() })
    }

    /// A value measured once: no spread.
    pub fn single(value: f64) -> Summary {
        Summary { value, q1: value, q3: value, n: 1 }
    }

    /// Interquartile distance as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        Json::object()
            .with("value", self.value)
            .with("unit", unit)
            .with("q1", self.q1)
            .with("q3", self.q3)
            .with("n", self.n)
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        let value = j.get("value")?.as_f64()?;
        let or_value = |key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(value);
        Some(Summary {
            value,
            q1: or_value("q1"),
            q3: or_value("q3"),
            n: j.get("n").and_then(Json::as_u64).unwrap_or(1) as usize,
        })
    }
}

/// `(q1, median, q3)` of sorted, non-empty data, by the rule of Python's
/// `statistics.quantiles(data, n=4)` (exclusive method), so the spread the
/// spine reports is the one the benchmark driver computes.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The `p`-quantile (nearest rank) of a latency sample, lowered to the
/// highest percentile that still has at least ten samples beyond it.
/// `None` for an empty sample.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let supported = if n > 10 { (n - 10) as f64 / n as f64 } else { 0.5 };
    let p = p.min(supported).max(0.5);
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.value, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.value, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.value, s.q3), (7.5, 15.0, 22.5));
        assert_eq!(Summary::of(&[4.0]).unwrap(), Summary::single(4.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn spread_is_iqr_over_value() {
        let s = Summary { value: 10.0, q1: 9.0, q3: 11.5, n: 12 };
        assert!((s.spread() - 0.25).abs() < 1e-12);
        assert_eq!(Summary::single(3.0).spread(), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        // 2000 samples support p99 (20 beyond it).
        assert_eq!(tail_percentile(&v, 0.99), Some(1980.0));
        // 100 samples support only p90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(90.0));
        // Too few for any tail: the median.
        assert_eq!(tail_percentile(&[5.0, 1.0, 3.0], 0.99), Some(3.0));
        assert_eq!(tail_percentile(&[], 0.99), None);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary { value: 1.5, q1: 1.25, q3: 2.0, n: 11 };
        let j = Json::parse(&s.to_json("ms").to_string()).unwrap();
        assert_eq!(Summary::from_json(&j), Some(s));
        // A driver-style metric object has only value and unit.
        let j = Json::parse(r#"{"value": 2.5, "unit": "ms"}"#).unwrap();
        assert_eq!(Summary::from_json(&j), Some(Summary::single(2.5)));
    }
}
