//! From samples and spans to named metrics: the end-to-end set that every
//! run prints, and the per-layer set of the traced run.

use std::collections::HashMap;

use accordion_cluster::AdmissionStats;

use crate::seq::{Class, Kind};
use crate::stats::{median, tail};
use crate::trace::{self_times, Span};
use crate::workload::{Digest, Exchange, Outcome, Probe, Sample, QUERY_TIMEOUT};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How it was taken, for the human-readable report.
    pub note: String,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    value: f64,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        note: note.into(),
    }
}

/// One timed window of a run.
pub struct Window {
    pub samples: Vec<Sample>,
    /// From the first query sent until the last one ended.
    pub seconds: f64,
    /// Process CPU time spent over the window.
    pub cpu_ms: f64,
    /// `VmHWM` when the window ended.
    pub rss_mb: f64,
}

/// The end-to-end metrics of a window. The probe's queries count as
/// attempted in `ok_ratio`; the timed-window metrics ignore them.
pub fn end_to_end(w: &Window, probes: &[Probe], setup_s: f64, setup_note: &str) -> Vec<Metric> {
    let ok: Vec<&Sample> = w.samples.iter().filter(|s| s.ok()).collect();
    let timeout_ms = QUERY_TIMEOUT.as_secs_f64() * 1e3;
    let mut out = vec![
        metric("setup_s", "s", setup_s, setup_note),
        metric(
            "qps",
            "queries/s",
            ok.len() as f64 / w.seconds,
            format!("{} completed in {:.2} s", ok.len(), w.seconds),
        ),
    ];
    let latencies = |kind: Kind| -> Vec<f64> {
        ok.iter()
            .filter(|s| s.arrival.kind == kind)
            .map(|s| s.latency_ms)
            .collect()
    };
    for kind in Kind::ALL {
        let v = latencies(kind);
        let (value, note) = match median(&v) {
            Some(m) => (m, format!("n={}", v.len())),
            None => (
                timeout_ms,
                "no completed query; reads the timeout".to_string(),
            ),
        };
        out.push(metric(format!("{}_p50_ms", kind.name()), "ms", value, note));
    }
    for kind in Kind::ALL {
        let v = latencies(kind);
        let (value, note) = match tail(&v) {
            Some(t) => (
                t.value,
                format!("p{:.1}, n={}, {} beyond", t.percentile, t.samples, t.beyond),
            ),
            None if v.is_empty() => (
                timeout_ms,
                "no completed query; reads the timeout".to_string(),
            ),
            None => (
                v.iter().copied().fold(f64::MIN, f64::max),
                format!("only {} samples; reads the maximum", v.len()),
            ),
        };
        out.push(metric(
            format!("{}_tail_ms", kind.name()),
            "ms",
            value,
            note,
        ));
    }
    let attempted = w.samples.len() + probes.len();
    let succeeded = ok.len() + probes.iter().filter(|p| p.outcome == Outcome::Ok).count();
    out.push(metric(
        "ok_ratio",
        "ratio",
        succeeded as f64 / attempted.max(1) as f64,
        format!(
            "{succeeded} of {attempted} correct within the timeout ({} in the saturation probe)",
            probes.len()
        ),
    ));
    let met = w.samples.iter().filter(|s| s.met_deadline()).count();
    out.push(metric(
        "slo_attainment",
        "ratio",
        met as f64 / w.samples.len().max(1) as f64,
        format!("{met} of {} within their deadline", w.samples.len()),
    ));
    out.push(metric(
        "cpu_ms_per_query",
        "ms",
        w.cpu_ms / ok.len().max(1) as f64,
        format!("{:.0} ms user+system over the window", w.cpu_ms),
    ));
    out.push(metric("peak_rss_mb", "MB", w.rss_mb, "VmHWM"));
    out
}

/// Everything the per-layer metrics are made from.
pub struct LayerInput<'a> {
    pub window: &'a Window,
    pub spans: &'a [Span],
    pub generate_s: f64,
    /// Fleet arbitration rounds and cross-query rounds over the window.
    pub fleet_rounds: (u64, u64),
    pub admission: AdmissionStats,
    /// `Page::encode` and `Page::decode` ns per byte, where measured.
    pub wire: Option<(f64, f64)>,
    pub probes: &'a [Probe],
}

/// Median per query kind of `(kind, value)` pairs; 0 where a kind has none.
fn by_kind(values: impl IntoIterator<Item = (Kind, f64)>) -> [f64; 3] {
    let mut groups: [Vec<f64>; 3] = Default::default();
    for (kind, v) in values {
        groups[kind.index()].push(v);
    }
    groups.map(|g| median(&g).unwrap_or(0.0))
}

fn per_kind(out: &mut Vec<Metric>, name: &str, unit: &'static str, values: [f64; 3], note: &str) {
    for kind in Kind::ALL {
        out.push(metric(
            format!("{name}.{}", kind.name()),
            unit,
            values[kind.index()],
            note,
        ));
    }
}

pub fn per_layer(input: &LayerInput) -> Vec<Metric> {
    let samples = &input.window.samples;
    let kinds: HashMap<u64, Kind> = samples.iter().map(|s| (s.query, s.arrival.kind)).collect();
    let self_ns = self_times(input.spans);
    // (span name, query) -> (duration, self time), nanoseconds.
    let mut spans: HashMap<(&str, u64), (f64, f64)> = HashMap::new();
    for (s, own) in input.spans.iter().zip(&self_ns) {
        spans.insert(
            (s.name, s.query),
            ((s.end_ns - s.start_ns) as f64, *own as f64),
        );
    }
    let span_self = |name: &str, scale: f64| {
        by_kind(
            input
                .spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.name == name)
                .filter_map(|(s, own)| Some((*kinds.get(&s.query)?, *own as f64 * scale))),
        )
    };
    let digests: Vec<(Kind, &Sample, Digest)> = samples
        .iter()
        .filter_map(|s| Some((s.arrival.kind, s, s.digest?)))
        .collect();
    let digest_med =
        |f: &dyn Fn(&Digest) -> f64| by_kind(digests.iter().map(|(k, _, d)| (*k, f(d))));
    let exchange_med = |f: &dyn Fn(&Exchange) -> f64| {
        by_kind(
            samples
                .iter()
                .filter_map(|s| Some((s.arrival.kind, f(s.exchange.as_ref()?)))),
        )
    };

    let mut out = vec![metric(
        "tpch.generate_s",
        "s",
        input.generate_s,
        "median over the set-ups",
    )];
    for (name, span) in [
        ("sql.parse_us", "sql.parse"),
        ("sql.analyze_us", "sql.analyze"),
        ("plan.optimize_us", "plan.optimize"),
        ("plan.fragment_us", "plan.fragment"),
    ] {
        per_kind(
            &mut out,
            name,
            "us",
            span_self(span, 1e-3),
            "median span self time",
        );
    }
    per_kind(
        &mut out,
        "plan.stages",
        "count",
        digest_med(&|d| d.stages as f64),
        "stage tree size",
    );

    per_kind(
        &mut out,
        "exec.rows_examined_per_row",
        "ratio",
        digest_med(&|d| d.operator_rows as f64 / d.scan_rows.max(1) as f64),
        "rows out of all operators per table-scan row",
    );
    let probe_rows = digest_med(&|d| d.probe_rows as f64);
    out.push(metric(
        "exec.join_probe_rows.q3",
        "rows",
        probe_rows[Kind::Q3.index()],
        "rows out of HashJoinProbe",
    ));
    let scan_rows = digest_med(&|d| d.scan_rows as f64);
    per_kind(
        &mut out,
        "exec.scan_rows",
        "rows",
        scan_rows,
        "rows out of TableScan",
    );
    let execute_ms = by_kind(
        samples
            .iter()
            .filter_map(|s| Some((s.arrival.kind, s.execute_ms?))),
    );
    let scan_rate = std::array::from_fn(|i| {
        if execute_ms[i] > 0.0 {
            scan_rows[i] / (execute_ms[i] / 1e3)
        } else {
            0.0
        }
    });
    per_kind(
        &mut out,
        "exec.scan_rows_per_s",
        "rows/s",
        scan_rate,
        "scan rows over cluster.execute_ms",
    );
    per_kind(
        &mut out,
        "cluster.execute_ms",
        "ms",
        execute_ms,
        "median time in execute_tree_opts, or DistributedRun::elapsed_ms",
    );

    // Retunes are means: most queries retune 0, 1 or 2 times.
    let mut retunes: [Vec<f64>; 3] = Default::default();
    for (kind, _, d) in &digests {
        retunes[kind.index()].push(d.retunes as f64);
    }
    let means = retunes.map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64);
    per_kind(
        &mut out,
        "cluster.retunes_per_query",
        "count",
        means,
        "mean QueryStats::retunes",
    );
    let tight_grows: Vec<(usize, bool)> = digests
        .iter()
        .filter(|(_, s, _)| s.arrival.class == Class::Tight)
        .map(|(_, s, d)| (d.grows, s.met_deadline()))
        .collect();
    let grows: usize = tight_grows.iter().map(|(g, _)| g).sum();
    let useful: usize = tight_grows
        .iter()
        .filter(|(_, met)| *met)
        .map(|(g, _)| g)
        .sum();
    out.push(metric(
        "cluster.tight_grow_ratio",
        "ratio",
        useful as f64 / grows.max(1) as f64,
        format!("{useful} of {grows} grows on tight queries were followed by a met deadline"),
    ));
    let loose: Vec<usize> = digests
        .iter()
        .filter(|(_, s, _)| s.arrival.class == Class::Loose)
        .map(|(_, _, d)| d.retunes)
        .collect();
    out.push(metric(
        "cluster.loose_retunes_per_query",
        "count",
        loose.iter().sum::<usize>() as f64 / loose.len().max(1) as f64,
        format!("over {} loose queries", loose.len()),
    ));
    let idle = by_kind(kinds.iter().filter_map(|(&q, &kind)| {
        let (auto, _) = spans.get(&("idle.auto", q))?;
        let (off, _) = spans.get(&("idle.off", q))?;
        Some((kind, (auto - off) / 1e6))
    }));
    per_kind(
        &mut out,
        "cluster.idle_controller_ms",
        "ms",
        idle,
        "loose queries with 0 retunes, replayed alone: auto minus off",
    );
    out.push(metric(
        "cluster.fleet_rounds",
        "count",
        input.fleet_rounds.0 as f64,
        "FleetSnapshot::rounds",
    ));
    out.push(metric(
        "cluster.cross_query_rounds",
        "count",
        input.fleet_rounds.1 as f64,
        "FleetSnapshot::cross_query_rounds",
    ));
    out.push(metric(
        "cluster.admission_peak_running",
        "count",
        input.admission.peak_running as f64,
        "AdmissionStats::peak_running",
    ));
    out.push(metric(
        "cluster.admission_rejected",
        "count",
        input.admission.rejected as f64,
        "AdmissionStats::rejected",
    ));

    per_kind(
        &mut out,
        "net.exchange_pages",
        "pages",
        exchange_med(&|e| e.pages as f64),
        "QueryStats::exchange",
    );
    per_kind(
        &mut out,
        "net.exchange_bytes",
        "B",
        exchange_med(&|e| e.bytes as f64),
        "QueryStats::exchange",
    );
    per_kind(
        &mut out,
        "net.buffer_grow_events",
        "count",
        exchange_med(&|e| e.grow_events as f64),
        "QueryStats::exchange",
    );
    let slots: Vec<f64> = samples
        .iter()
        .filter_map(|s| Some(s.remote_slots? as f64))
        .collect();
    out.push(metric(
        "net.remote_slots",
        "count",
        median(&slots).unwrap_or(0.0),
        "DistributedRun::remote_slots",
    ));
    let (encode, decode) = input.wire.unwrap_or((0.0, 0.0));
    out.push(metric(
        "data.wire_encode_ns_per_byte",
        "ns/B",
        encode,
        "Page::encode over lineitem",
    ));
    out.push(metric(
        "data.wire_decode_ns_per_byte",
        "ns/B",
        decode,
        "Page::decode over lineitem",
    ));

    let protocol = by_kind(samples.iter().filter_map(|s| {
        let (round_trip, _) = spans.get(&("core.query", s.query))?;
        Some((s.arrival.kind, round_trip / 1e6 - s.server_ms?))
    }));
    per_kind(
        &mut out,
        "core.protocol_ms",
        "ms",
        protocol,
        "Client::query round trip minus ResultSet::elapsed_ms",
    );
    let dist = by_kind(samples.iter().filter_map(|s| {
        let (run_sql, _) = spans.get(&("core.run_sql", s.query))?;
        let (execute, _) = spans.get(&("cluster.execute", s.query))?;
        Some((s.arrival.kind, (run_sql - execute) / 1e6))
    }));
    per_kind(
        &mut out,
        "core.dist_overhead_ms",
        "ms",
        dist,
        "Fleet::run_sql minus in-process execute_tree_opts, same DOP and slots",
    );
    let timed_out = input.probes.iter().filter(|p| p.timed_out).count();
    out.push(metric(
        "probe.attempted",
        "count",
        input.probes.len() as f64,
        "saturation probe queries",
    ));
    out.push(metric(
        "probe.timed_out",
        "count",
        timed_out as f64,
        "saturation probe queries that hit the timeout",
    ));
    out
}

/// Traced minus untraced, for every end-to-end metric but `setup_s`, which
/// both share.
pub fn overhead(untraced: &[Metric], traced: &[Metric]) -> Vec<Metric> {
    untraced
        .iter()
        .zip(traced)
        .filter(|(u, _)| u.name != "setup_s")
        .map(|(u, t)| {
            metric(
                format!("trace.overhead.{}", u.name),
                u.unit,
                t.value - u.value,
                format!("traced {:.4} minus untraced {:.4}", t.value, u.value),
            )
        })
        .collect()
}
