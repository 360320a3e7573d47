//! Metric names and units, and the JSON the benchmark prints.

use std::fmt::Write as _;

/// End-to-end metrics (untraced runs), as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("fetch_p90_us", "us"),
    ("server_hit_rate", "ratio"),
    ("demand_fetches_per_kevent", "1/kevent"),
    ("files_fetched_per_kevent", "1/kevent"),
    ("cpu_us_per_event", "us"),
    ("answered_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), as `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.gen_s", "s"),
    ("trace.unique_files", "count"),
    ("trace.overhead_frac", "ratio"),
    ("cache.filter_hits", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.ns_per_offer", "ns"),
    ("client.requests", "count"),
    ("core.access_p50_ns", "ns"),
    ("core.access_p99_ns", "ns"),
    ("core.busy_frac", "ratio"),
    ("core.locks_per_access", "ratio"),
    ("core.fast_path_frac", "ratio"),
    ("core.shard_imbalance", "ratio"),
    ("core.spec_hit_ratio", "ratio"),
    ("core.mean_group_size", "files"),
    ("core.already_resident_frac", "ratio"),
    ("core.evictions_per_access", "ratio"),
    ("core.metadata_entries", "count"),
    ("net.client.round_trips", "count"),
    ("net.server.backend_p50_us", "us"),
    ("net.server.backend_p99_us", "us"),
    ("net.server.overhead_p50_us", "us"),
    ("net.server.overhead_p99_us", "us"),
    ("net.server.reply_cache_hits", "count"),
    ("net.wire.bytes_per_frame", "bytes"),
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.allocs_per_round_trip", "count"),
    ("cluster.proxied_frac", "ratio"),
    ("cluster.node0.local_serves", "count"),
    ("cluster.node0.proxied", "count"),
    ("cluster.node1.local_serves", "count"),
    ("cluster.node1.proxied", "count"),
    ("cluster.proxy_hop_p50_us", "us"),
    ("cluster.proxy_hop_p99_us", "us"),
    ("cluster.peer_wait_p50_us", "us"),
    ("cluster.collapsed", "count"),
    ("cluster.proxy_failures", "count"),
    ("cluster.load_imbalance", "ratio"),
    ("proc.ctx_switches_per_request", "ratio"),
    ("proc.threads", "count"),
];

/// Per-layer figures that repeat exactly for a seed: taken over the
/// deterministic set-up lap or the quality pass, or fixed by the wire
/// format.
pub const EXACT: &[&str] = &[
    "trace.unique_files",
    "cache.filter_hits",
    "cache.hit_rate",
    "client.requests",
    "core.spec_hit_ratio",
    "core.mean_group_size",
    "core.already_resident_frac",
    "core.evictions_per_access",
    "net.client.round_trips",
    "net.wire.bytes_per_frame",
    "cluster.proxied_frac",
    "cluster.node0.local_serves",
    "cluster.node0.proxied",
    "cluster.node1.local_serves",
    "cluster.node1.proxied",
];

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values by name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Records `name` (which must be listed in `table`) with `value`;
    /// `None` or a non-finite value leaves it absent.
    pub fn put(&mut self, table: &[(&'static str, &'static str)], name: &str, value: Option<f64>) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.entries.push((name, v, unit));
        }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// Names declared in `table` but absent here.
    pub fn missing(&self, table: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| self.get(n).is_none())
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(n),
                    num(*v),
                    quote(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON object from already-encoded values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array from already-encoded values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        for good in ["a", "9lives", "net.server.backend_p50_us", "x-y_z.1"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "sp ace",
            "slash/x",
            "µs",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn metrics_match_the_benchmark_manifest() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                manifest.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        let declared = manifest.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_output_is_escaped_and_keeps_digits() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(f64::NAN), "null");
        let mut m = Metrics::default();
        m.put(END_TO_END, "setup_s", Some(1.5));
        m.put(END_TO_END, "fetch_p90_us", None);
        assert_eq!(
            m.to_json(),
            "{\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
        assert!(m.missing(END_TO_END).contains(&"fetch_p90_us"));
    }
}
