//! Artifact validation: the checks behind the `obs_check` CI gate.
//!
//! [`check_trace`] parses a JSONL trace with the same parser `bpart
//! report` uses and rejects an *empty* trace — an instrumented run that
//! recorded nothing means tracing was silently off, which is exactly the
//! failure a smoke test exists to catch. [`check_exposition`] validates
//! a Prometheus text exposition structurally: metric/sample names, label
//! termination, value syntax, and — the part a naive line check misses —
//! histogram series shape: `_bucket` counts must be cumulative
//! (non-decreasing in `le` order), the `le` bounds strictly ascending
//! and finishing with `+Inf`, and `_count` must equal the `+Inf` bucket.

use std::collections::BTreeMap;

use crate::report::parse_trace_jsonl;
use crate::snapshot::Span;

/// Parses a JSONL trace and rejects an empty one.
pub fn check_trace(text: &str) -> Result<Vec<Span>, String> {
    let spans = parse_trace_jsonl(text)?;
    if spans.is_empty() {
        return Err("trace holds no spans (was tracing enabled?)".to_string());
    }
    Ok(spans)
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// One `le` bound as ordered text ("+Inf" sorts above every number; the
/// exposition never emits NaN bounds because histogram bounds are
/// asserted finite at registration).
fn parse_le(raw: &str) -> Result<f64, String> {
    if raw == "+Inf" {
        return Ok(f64::INFINITY);
    }
    raw.parse::<f64>()
        .map_err(|e| format!("bad le bound {raw:?}: {e}"))
}

/// In-flight accumulation of one histogram's series while scanning.
#[derive(Default)]
struct HistogramSeries {
    /// `(le, cumulative_count)` in emission order.
    buckets: Vec<(f64, u64)>,
    count: Option<u64>,
}

/// Validates a Prometheus text exposition; returns the sample count.
pub fn check_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut histograms: BTreeMap<String, HistogramSeries> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE without a metric name"))?;
            let kind = it
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE without a kind"))?;
            if !valid_metric_name(name) {
                return Err(format!("line {lineno}: bad metric name {name:?}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {lineno}: unknown metric kind {kind:?}"));
            }
            if kind == "histogram" {
                histograms.entry(name.to_string()).or_default();
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments (HELP, warnings) are fine
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample without a value: {line:?}"))?;
        let name = series.split('{').next().unwrap_or(series);
        if !valid_metric_name(name) {
            return Err(format!("line {lineno}: bad sample name {name:?}"));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!("line {lineno}: unterminated label set: {series:?}"));
        }
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(format!("line {lineno}: bad sample value {value:?}"));
        }
        samples += 1;

        // Histogram series bookkeeping: the declared name plus a
        // `_bucket`/`_count` suffix.
        if let Some(base) = name.strip_suffix("_bucket") {
            if let Some(h) = histograms.get_mut(base) {
                let le_raw = series
                    .split_once("le=\"")
                    .and_then(|(_, rest)| rest.split('"').next())
                    .ok_or_else(|| format!("line {lineno}: histogram bucket without le label"))?;
                let le = parse_le(le_raw).map_err(|e| format!("line {lineno}: {e}"))?;
                let cumulative: u64 = value
                    .parse()
                    .map_err(|e| format!("line {lineno}: bucket count {value:?}: {e}"))?;
                h.buckets.push((le, cumulative));
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            if let Some(h) = histograms.get_mut(base) {
                h.count = Some(
                    value
                        .parse()
                        .map_err(|e| format!("line {lineno}: count {value:?}: {e}"))?,
                );
            }
        }
    }
    if samples == 0 {
        return Err("exposition holds no metric samples".into());
    }
    for (name, h) in &histograms {
        if h.buckets.is_empty() {
            return Err(format!("histogram {name}: no _bucket series"));
        }
        for pair in h.buckets.windows(2) {
            let ((le_a, c_a), (le_b, c_b)) = (pair[0], pair[1]);
            if le_b <= le_a {
                return Err(format!(
                    "histogram {name}: le bounds not ascending ({le_a} then {le_b})"
                ));
            }
            if c_b < c_a {
                return Err(format!(
                    "histogram {name}: bucket counts not cumulative ({c_a} then {c_b})"
                ));
            }
        }
        let (last_le, last_count) = *h.buckets.last().expect("non-empty");
        if last_le != f64::INFINITY {
            return Err(format!("histogram {name}: missing the +Inf bucket"));
        }
        match h.count {
            None => return Err(format!("histogram {name}: missing _count")),
            Some(count) if count != last_count => {
                return Err(format!(
                    "histogram {name}: _count {count} != +Inf bucket {last_count}"
                ));
            }
            Some(_) => {}
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_rejected() {
        let err = check_trace("").unwrap_err();
        assert!(err.contains("no spans"), "{err}");
        assert!(check_trace("\n\n").is_err());
        let one = "{\"id\":1,\"parent\":null,\"name\":\"x\",\"thread\":0,\"start_ns\":0,\"dur_ns\":1,\"attrs\":{}}\n";
        assert_eq!(check_trace(one).unwrap().len(), 1);
    }

    #[test]
    fn real_snapshot_output_passes() {
        crate::metrics::counter("t.validate.live").add(2);
        let h = crate::metrics::histogram("t.validate.live_hist", &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(5.0);
        // Other tests observe *their* histograms concurrently, which can
        // transiently skew `_count` vs the `+Inf` bucket in a global
        // snapshot; validate only this test's (quiescent) series.
        let text: String = crate::metrics::prometheus_snapshot()
            .lines()
            .filter(|l| l.contains("t_validate_live"))
            .map(|l| format!("{l}\n"))
            .collect();
        check_exposition(&text).expect("real snapshot output must validate");
    }

    #[test]
    fn well_formed_histogram_passes() {
        let text = "\
# TYPE lat histogram
lat_bucket{le=\"1\"} 2
lat_bucket{le=\"2\"} 2
lat_bucket{le=\"+Inf\"} 5
lat_sum 9.5
lat_count 5
";
        assert_eq!(check_exposition(text).unwrap(), 5);
    }

    #[test]
    fn non_cumulative_buckets_are_rejected() {
        let text = "\
# TYPE lat histogram
lat_bucket{le=\"1\"} 5
lat_bucket{le=\"2\"} 3
lat_bucket{le=\"+Inf\"} 6
lat_count 6
";
        let err = check_exposition(text).unwrap_err();
        assert!(err.contains("not cumulative"), "{err}");
    }

    #[test]
    fn out_of_order_le_bounds_are_rejected() {
        let text = "\
# TYPE lat histogram
lat_bucket{le=\"2\"} 1
lat_bucket{le=\"1\"} 2
lat_bucket{le=\"+Inf\"} 3
lat_count 3
";
        let err = check_exposition(text).unwrap_err();
        assert!(err.contains("not ascending"), "{err}");
    }

    #[test]
    fn missing_inf_bucket_or_count_is_rejected() {
        let no_inf = "\
# TYPE lat histogram
lat_bucket{le=\"1\"} 1
lat_bucket{le=\"2\"} 2
lat_count 2
";
        assert!(check_exposition(no_inf).unwrap_err().contains("+Inf"));
        let no_count = "\
# TYPE lat histogram
lat_bucket{le=\"+Inf\"} 2
lat_sum 1
";
        assert!(check_exposition(no_count)
            .unwrap_err()
            .contains("missing _count"));
        let bad_count = "\
# TYPE lat histogram
lat_bucket{le=\"+Inf\"} 2
lat_count 7
";
        assert!(check_exposition(bad_count)
            .unwrap_err()
            .contains("_count 7 != +Inf bucket 2"));
    }

    #[test]
    fn structural_sample_errors_are_line_numbered() {
        assert!(check_exposition("").is_err(), "no samples");
        let err = check_exposition("9bad 1\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(
            check_exposition("x{le=\"1\" 2\n").is_err(),
            "unterminated labels"
        );
        assert!(check_exposition("x zebra\n").is_err(), "bad value");
        assert!(
            check_exposition("# TYPE x sparkline\nx 1\n").is_err(),
            "bad kind"
        );
        // Comment-only warning lines are allowed.
        assert!(check_exposition("# warning: something\nok 1\n").is_ok());
    }
}
