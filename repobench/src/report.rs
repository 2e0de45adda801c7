//! Metric names, the result line, and the provenance stamp.

use std::fmt::Write;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 42] = [
    ("abtree.insert_ns.p50", "ns"),
    ("abtree.insert_ns.p99", "ns"),
    ("abtree.delete_ns.p50", "ns"),
    ("abtree.delete_ns.p99", "ns"),
    ("abtree.get_ns.p50", "ns"),
    ("abtree.get_ns.p99", "ns"),
    ("abtree.range_ns.p50", "ns"),
    ("abtree.elim_per_update", "ratio"),
    ("abtree.effective_update_ratio", "ratio"),
    ("abtree.height", "levels"),
    ("abtree.keys_per_leaf", "keys"),
    ("abebr.retired_per_update", "ratio"),
    ("abebr.unreclaimed_end", "count"),
    ("kvserve.get_ns.p50", "ns"),
    ("kvserve.get_ns.p99", "ns"),
    ("kvserve.put_ns.p50", "ns"),
    ("kvserve.delete_ns.p50", "ns"),
    ("kvserve.mget_ns.p50", "ns"),
    ("kvserve.scan_ns.p50", "ns"),
    ("kvserve.handoff_self_ns.p50", "ns"),
    ("kvserve.handoff_self_ns.p99", "ns"),
    ("kvserve.cache_hit_ratio", "ratio"),
    ("kvserve.run_length_mean", "jobs"),
    ("codec.encode_req_ns", "ns"),
    ("codec.decode_req_ns", "ns"),
    ("codec.encode_resp_ns", "ns"),
    ("codec.decode_resp_ns", "ns"),
    ("codec.bytes_per_request", "bytes"),
    ("netserve.send_ns.p50", "ns"),
    ("netserve.recv_wait_ns.p50", "ns"),
    ("netserve.recv_wait_ns.p99", "ns"),
    ("netserve.wire_self_us.p50", "us"),
    ("netserve.requests_per_frame", "ratio"),
    ("crashkv.submit_ns.p50", "ns"),
    ("crashkv.ack_wait_ns.p50", "ns"),
    ("crashkv.ack_wait_ns.p99", "ns"),
    ("crashkv.ops_per_boundary", "ratio"),
    ("abpmem.fences_per_write", "ratio"),
    ("abpmem.flushes_per_write", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.spans", "count"),
];

/// Named metric values; names must come from [`END_TO_END`] or
/// [`PER_LAYER`].
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    /// Sets metric `name`, taking its unit from the metric tables.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .copied()
            .unwrap_or_else(|| panic!("{name} is not a benchmark metric"));
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => slot.2 = value,
            None => self.0.push((name, unit, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|m| m.2)
    }

    pub fn names(&self) -> Vec<&'static str> {
        self.0.iter().map(|m| m.0).collect()
    }
}

/// One run's result.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Why the run is not correct (empty when it is).
    pub errors: Vec<String>,
    /// Latency samples behind `p50_us`/`p90_us`.
    pub latency_samples: usize,
    /// Per-window rates behind `ops_per_s`.
    pub window_rates: Vec<f64>,
}

impl Outcome {
    /// Folds the final content checks in: a run whose contents do not
    /// match its answers cannot vouch for any of its ops, so every
    /// attempted op counts as failed.
    pub fn conclude(&mut self, checks: Vec<Result<(), String>>) {
        self.errors
            .extend(checks.into_iter().filter_map(Result::err));
        if !self.errors.is_empty() {
            self.failed = self.attempted;
        }
        self.correct = self.errors.is_empty() && self.failed == 0 && self.attempted > 0;
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

/// Where and with what a result was measured.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"commit\": \"{}\", \"nproc\": {nproc}, \"date\": \"{}\", \"rustc\": \"{}\"}}",
        env!("REPOBENCH_COMMIT"),
        utc_date(),
        env!("REPOBENCH_RUSTC"),
    )
}

/// Today's date (UTC) as `YYYY-MM-DD`.
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days since 1970-01-01 to a proleptic Gregorian date (Hinnant's
/// `civil_from_days`).
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dates_convert() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.metrics.set("p50_us", 1.25);
        outcome.conclude(vec![Ok(())]);
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"p50_us\": {\"value\": 1.25, \"unit\": \"us\"}}}"
        );
        outcome.conclude(vec![Err("key sum".into())]);
        assert!(!outcome.correct);
        assert_eq!(outcome.failed, 10);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\"").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }
}
