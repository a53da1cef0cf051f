//! The per-layer metrics of a traced run, and the end-to-end metric each
//! should move.

use crate::stats::Report;
use crate::trace::Recorder;
use std::collections::BTreeMap;

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move. A traced run prints all of them; a layer the
/// workload does not cross reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "relation.load_ms",
        "ms",
        "op_p50_ms on oneshot_fold; setup_s on keys_serve and fd_ingest",
    ),
    ("relation.load_mib", "MiB", "peak_rss_mib on every workload"),
    ("constraints.check_ms", "ms", "op_p50_ms on oneshot_fold"),
    (
        "constraints.hypergraph_ms",
        "ms",
        "op_p50_ms on oneshot_fold",
    ),
    (
        "constraints.components_ms",
        "ms",
        "op_p50_ms on oneshot_fold",
    ),
    ("constraints.edges", "count", "op_p50_ms on oneshot_fold"),
    (
        "constraints.components",
        "count",
        "op_p50_ms on oneshot_fold",
    ),
    (
        "constraints.largest_component",
        "count",
        "op_p50_ms on oneshot_fold",
    ),
    (
        "core.maintain_ms",
        "ms",
        "op_p50_ms and the op tail on fd_ingest, then on keys_serve",
    ),
    (
        "core.maintain_recompute",
        "count",
        "the op tail on fd_ingest",
    ),
    (
        "core.plan_ms",
        "ms",
        "op_p50_ms on keys_serve and oneshot_fold",
    ),
    (
        "core.rewrite_ms",
        "ms",
        "op_p50_ms and ops_per_s on keys_serve",
    ),
    (
        "query.eval_fo_ms",
        "ms",
        "op_p50_ms and ops_per_s on keys_serve",
    ),
    ("core.fold_ms", "ms", "op_p50_ms on oneshot_fold"),
    ("core.fold_repairs", "count", "op_p50_ms on oneshot_fold"),
    (
        "query.plan_cache_hits",
        "count",
        "op_p50_ms on oneshot_fold",
    ),
    (
        "query.plan_cache_misses",
        "count",
        "op_p50_ms on oneshot_fold",
    ),
    ("exec.budget_steps", "count", "op_p50_ms on oneshot_fold"),
    (
        "server.handle_ms",
        "ms",
        "the op tail and ops_per_s on keys_serve",
    ),
    (
        "server.codec_ms",
        "ms",
        "the op tail and ops_per_s on keys_serve",
    ),
    (
        "server.wait_ms",
        "ms",
        "the op tail and ops_per_s on keys_serve",
    ),
    (
        "server.refused",
        "count",
        "the op tail and ops_per_s on keys_serve",
    ),
    (
        "trace.overhead_pct",
        "%",
        "none: how far tracing slows the traced requests",
    ),
];

/// The span whose mean time per request gives each timing metric, and
/// whether that is the span's self time (its duration minus its children's)
/// rather than its whole duration. `core.fold` is net of the hyper-graph
/// and components it builds; `request` is the round trip, whose self time
/// on the server workloads is what the in-process replays do not explain:
/// transport, lock and admission waits.
const SPAN_METRICS: &[(&str, &str, bool)] = &[
    ("relation.load", "relation.load_ms", false),
    ("constraints.check", "constraints.check_ms", false),
    ("constraints.hypergraph", "constraints.hypergraph_ms", false),
    ("constraints.components", "constraints.components_ms", false),
    ("core.maintain", "core.maintain_ms", false),
    ("core.plan", "core.plan_ms", false),
    ("core.rewrite", "core.rewrite_ms", false),
    ("query.eval_fo", "query.eval_fo_ms", false),
    ("core.fold", "core.fold_ms", true),
    ("server.handle", "server.handle_ms", false),
    ("server.codec", "server.codec_ms", false),
];

/// Per-layer values collected by a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Fill the timing metrics from the recorded spans. `server` maps the
    /// request span's self time to `server.wait_ms`.
    pub fn add_spans(&mut self, rec: &Recorder, server: bool) {
        let times = rec.layer_times();
        for (span, metric, own) in SPAN_METRICS {
            if let Some(t) = times.get(span) {
                self.set(metric, t.mean_ms(*own));
            }
        }
        if server {
            if let Some(t) = times.get("request") {
                self.set("server.wait_ms", t.mean_ms(true));
            }
        }
    }

    /// Add every per-layer metric to the report, 0 for layers not crossed.
    pub fn emit(&self, report: &mut Report) {
        for (name, unit, moves) in PER_LAYER {
            println!("layer {name} should move {moves}");
            report.metric(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}
