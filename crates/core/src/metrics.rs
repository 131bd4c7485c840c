//! Point-in-time metrics snapshot rendered as Prometheus text exposition.
//!
//! [`MetricsSnapshot`] is built from the same [`TraceDocument`] counters
//! `validate()` already cross-checks, so the scrape surface can never
//! disagree with the trace. `recode metrics` prints the exposition to
//! stdout (or writes it with `-o`); nothing in the tree serves it over HTTP.
//!
//! Naming follows the Prometheus conventions: dotted trace counters map to
//! underscored metric names under the `recode_` prefix (`exec.jobs` →
//! `recode_exec_jobs`), each typed by the [`Kind`](crate::telemetry::Kind)
//! its counter-table row declares (`breaker.state`, a state code, is the one
//! gauge), and per-span wall times share one family with a `span` label —
//! one sample per span name, so the per-block `exec.retry` phases of a
//! faulted run add up under a single label.

use crate::telemetry::{counter_kind, TraceDocument};
use std::fmt::Write as _;

/// One metric family: name, type, help, and its samples (label-less or
/// labeled with a single key).
#[derive(Debug, Clone, PartialEq)]
struct Family {
    name: String,
    kind: &'static str,
    help: String,
    /// `(optional ("key", "value") label, sample value)`.
    samples: Vec<(Option<(String, String)>, f64)>,
}

/// A renderable set of metric families derived from one trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    families: Vec<Family>,
}

/// `exec.blocks_fell_back` → `recode_exec_blocks_fell_back`.
fn metric_name(dotted: &str) -> String {
    let mut out = String::with_capacity(dotted.len() + 7);
    out.push_str("recode_");
    for c in dotted.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

impl MetricsSnapshot {
    /// Derives the snapshot from a sealed trace document.
    pub fn from_document(doc: &TraceDocument) -> Self {
        let mut families = Vec::new();

        for (name, value) in &doc.counters {
            families.push(Family {
                name: metric_name(name),
                kind: counter_kind(name).as_str(),
                help: format!("Trace counter `{name}`."),
                samples: vec![(None, *value as f64)],
            });
        }

        let mut push_gauge = |name: &str, help: &str, value: f64| {
            families.push(Family {
                name: metric_name(name),
                kind: "gauge",
                help: help.to_string(),
                samples: vec![(None, value)],
            });
        };
        push_gauge(
            "trace.wall_ns_total",
            "Host wall-clock nanoseconds for the traced run.",
            doc.wall_ns_total as f64,
        );
        push_gauge("matrix.nnz", "Stored non-zeros of the traced matrix.", doc.matrix.nnz as f64);
        push_gauge(
            "matrix.bytes_per_nnz",
            "Compressed bytes per non-zero.",
            doc.matrix.bytes_per_nnz,
        );
        push_gauge(
            "accel.lane_utilization",
            "Busy fraction of the accelerator's lane-cycle envelope.",
            doc.exec.accel.lane_utilization,
        );
        push_gauge(
            "accel.makespan_cycles",
            "Accelerator makespan in lane cycles.",
            doc.exec.accel.makespan_cycles as f64,
        );
        if let Some(rec) = &doc.recorder {
            push_gauge(
                "recorder.recorded",
                "Flight-recorder events accepted.",
                rec.recorded as f64,
            );
            push_gauge(
                "recorder.dropped",
                "Flight-recorder events lost to ring overwrite.",
                rec.dropped as f64,
            );
            if !rec.by_kind.is_empty() {
                families.push(Family {
                    name: "recode_recorder_events_total".to_string(),
                    kind: "counter",
                    help: "Flight-recorder events drained, by kind (jit_compile = \
                           JIT compilations observed during the run)."
                        .to_string(),
                    samples: rec
                        .by_kind
                        .iter()
                        .map(|(k, n)| (Some(("kind".to_string(), k.clone())), *n as f64))
                        .collect(),
                });
            }
        }

        if !doc.spans.is_empty() {
            // A label set may appear once per family: same-named spans add up.
            let mut by_name = std::collections::BTreeMap::<&str, u64>::new();
            for s in &doc.spans {
                *by_name.entry(&s.name).or_default() += s.wall_ns;
            }
            families.push(Family {
                name: "recode_span_wall_ns".to_string(),
                kind: "gauge",
                help: "Host wall-clock nanoseconds per pipeline phase.".to_string(),
                samples: by_name
                    .into_iter()
                    .map(|(name, ns)| (Some(("span".to_string(), name.to_string())), ns as f64))
                    .collect(),
            });
        }

        MetricsSnapshot { families }
    }

    /// Renders the Prometheus text exposition (format version 0.0.4).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind);
            for (label, value) in &f.samples {
                let v = format_value(*value);
                match label {
                    Some((k, val)) => {
                        let _ = writeln!(out, "{}{{{}=\"{}\"}} {v}", f.name, k, escape_label(val));
                    }
                    None => {
                        let _ = writeln!(out, "{} {v}", f.name);
                    }
                }
            }
        }
        out
    }
}

/// Integral values print without an exponent or decimal; the rest use
/// Rust's shortest round-trip form (valid Prometheus floats either way).
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{
        Kind, MatrixMeta, RecorderSummary, SystemMeta, Telemetry, BREAKER_COUNTERS, EXEC_COUNTERS,
        POOL_COUNTERS, TILED_COUNTERS,
    };
    use recode_mem::MemorySystem;

    /// Every row of the four counter tables, as name and kind.
    fn rows() -> Vec<(&'static str, Kind)> {
        let mut rows: Vec<_> = EXEC_COUNTERS.iter().map(|r| (r.0, r.1)).collect();
        rows.extend(TILED_COUNTERS.iter().map(|r| (r.0, r.1)));
        rows.extend(POOL_COUNTERS.iter().map(|r| (r.0, r.1)));
        rows.extend(BREAKER_COUNTERS.iter().map(|r| (r.0, r.1)));
        rows
    }

    fn doc() -> TraceDocument {
        let mut tel = Telemetry::new();
        for (name, _) in rows() {
            tel.add(name, 0);
        }
        tel.add("exec.jobs", 8);
        tel.add("pool.checkouts", 3);
        tel.add("breaker.trips", 1);
        tel.add("breaker.state", 2);
        tel.add("mem.read.vectors", 64);
        tel.span("exec.decode_batch", 1_000, 0.0, 64);
        tel.span("exec.retry", 30, 0.0, 0);
        tel.span("exec.retry", 12, 0.0, 0);
        let mut doc = tel.into_document(
            MatrixMeta { name: "m".into(), nnz: 100, bytes_per_nnz: 4.5, ..MatrixMeta::default() },
            SystemMeta::default(),
            crate::exec::ExecStats::default(),
            &MemorySystem::ddr4(),
            5_000,
        );
        doc.recorder = Some(RecorderSummary {
            recorded: 10,
            dropped: 2,
            capacity: 256,
            by_kind: std::collections::BTreeMap::from([
                ("jit_compile".to_string(), 7u64),
                ("block_done".to_string(), 3u64),
            ]),
        });
        doc
    }

    #[test]
    fn exposition_names_types_and_values_line_up() {
        let text = MetricsSnapshot::from_document(&doc()).render_prometheus();
        assert!(text.contains("# TYPE recode_exec_jobs counter"), "{text}");
        assert!(text.contains("\nrecode_exec_jobs 8\n"), "{text}");
        assert!(text.contains("# TYPE recode_pool_checkouts counter"), "{text}");
        assert!(text.contains("# TYPE recode_breaker_trips counter"), "{text}");
        // A state code (0 closed, 1 open, 2 half-open) goes down as well as up.
        assert!(text.contains("# TYPE recode_breaker_state gauge"), "{text}");
        assert!(text.contains("\nrecode_breaker_state 2\n"), "{text}");
        // Every table row is typed as it declares; traffic is counted.
        for (name, kind) in rows() {
            let line = format!("# TYPE {} {}\n", metric_name(name), kind.as_str());
            assert!(text.contains(&line), "missing `{line}`:\n{text}");
        }
        let gauges = rows().iter().filter(|row| matches!(row.1, Kind::Gauge(_))).count();
        assert_eq!(gauges, 1, "one gauge");
        assert!(text.contains("# TYPE recode_mem_read_vectors counter"), "{text}");
        assert!(text.contains("# TYPE recode_matrix_bytes_per_nnz gauge"), "{text}");
        assert!(text.contains("\nrecode_matrix_bytes_per_nnz 4.5\n"), "{text}");
        assert!(text.contains("recode_span_wall_ns{span=\"exec.decode_batch\"} 1000"), "{text}");
        // One sample per label set: the two retry phases add up.
        assert_eq!(text.matches("span=\"exec.retry\"").count(), 1, "{text}");
        assert!(text.contains("recode_span_wall_ns{span=\"exec.retry\"} 42"), "{text}");
        assert!(text.contains("\nrecode_recorder_dropped 2\n"), "{text}");
        assert!(text.contains("recode_recorder_events_total{kind=\"jit_compile\"} 7"), "{text}");
        assert!(text.contains("recode_recorder_events_total{kind=\"block_done\"} 3"), "{text}");
        // Every sample line's family has HELP and TYPE preceding it.
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let family = line.split(['{', ' ']).next().expect("metric name");
            assert!(text.contains(&format!("# TYPE {family} ")), "untyped family {family}");
        }
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(metric_name("exec.blocks_fell_back"), "recode_exec_blocks_fell_back");
        assert_eq!(metric_name("mem.read.compressed-stream"), "recode_mem_read_compressed_stream");
    }
}
