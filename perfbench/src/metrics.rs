//! The metric catalogue, and `BENCHMARK.json` rendered from it.
//!
//! Each per-layer metric names the end-to-end metric it should move and
//! on which workload; `--describe` prints that table. `BENCHMARK.json`
//! is `--manifest`'s output, and the self-test keeps the two in step.

use crate::workload::Workload;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit in the result line.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end: the share of the parent's median by which it may
    /// worsen. Per-layer: unused (0).
    pub bound: f64,
    /// What it measures, and for a per-layer metric which end-to-end
    /// metric it should move on which workload.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

use Better::{Higher, Lower};

/// Host-time and host-memory metrics of the untraced runs.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("run_s", "s", Lower, 0.25),
    e2e("events_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

const SEQ_LOOP: &str = "run_s and events_per_s on paper_sweep and shard1k";
const SHARDING: &str = "run_s on shard1k only; zero on the sequential workloads";
const SPILL: &str = "run_s and peak_rss_mb on scale100k; zero on the other workloads";

/// Metrics of single layers, from the traced run.
pub const PER_LAYER: [Metric; 38] = [
    layer("topology.build_s", "s", Lower, "setup_s: most on scale100k, some on shard1k, about zero on paper_sweep"),
    layer("core.rank_s", "s", Lower, "setup_s: most on scale100k (gossip ranking), some on shard1k"),
    layer("membership.views_s", "s", Lower, "setup_s on scale100k and shard1k"),
    layer("workload.prepare_s", "s", Lower, "setup_s on every workload (ranking plus view bootstrap)"),
    layer("workload.startup_s", "s", Lower, "run_s on every workload (engine construction; the first 500 ms chunk on sequential engines)"),
    layer("simnet.warmup_loop_s", "s", Lower, SEQ_LOOP),
    layer("simnet.traffic_loop_s", "s", Lower, SEQ_LOOP),
    layer("workload.teardown_s", "s", Lower, "run_s on scale100k and shard1k (seal, shard merge, collect)"),
    layer("simnet.window_ms_p50", "ms", Lower, SHARDING),
    layer("simnet.window_ms_p99", "ms", Lower, SHARDING),
    layer("simnet.threaded_run_s", "s", Lower, "one shard1k run on the threaded window driver (2 workers): what a parallel speed-up moves; not gated, too unsteady on a small shared host"),
    layer("workload.traced_run_s", "s", Lower, "the traced run's run_s, beside the untraced median"),
    layer("workload.untraced_run_s", "s", Lower, "the untraced median run_s of the same process"),
    layer("workload.trace_overhead_ratio", "ratio", Lower, "traced over untraced run_s: the cost of the sink path, including sequential chunking"),
    layer("simnet.events", "count", Lower, "run_s everywhere; events_per_s is per event"),
    layer("simnet.queue_pushes", "count", Lower, SEQ_LOOP),
    layer("simnet.queue_max_len", "count", Lower, "peak_rss_mb and run_s on shard1k and scale100k"),
    layer("simnet.queue_resizes", "count", Lower, SEQ_LOOP),
    layer("simnet.queue_year_scans", "count", Lower, SEQ_LOOP),
    layer("simnet.timers_cancelled", "count", Higher, SEQ_LOOP),
    layer("simnet.stale_timer_drops", "count", Lower, SEQ_LOOP),
    layer("core.eager_sends", "count", Lower, "run_s on every workload; a protocol count, identical under simulator-only changes"),
    layer("core.lazy_advertisements", "count", Lower, "run_s on every workload; a protocol count"),
    layer("core.requests_sent", "count", Lower, "run_s on every workload; a protocol count"),
    layer("core.request_misses", "count", Lower, "run_s on every workload; a protocol count"),
    layer("core.duplicate_payloads", "count", Lower, "run_s on every workload; wasted payload work"),
    layer("core.payloads_per_delivery", "ratio", Lower, "run_s on paper_sweep: payloads sent per useful delivery"),
    layer("core.arena_high_water", "count", Lower, "peak_rss_mb on shard1k and scale100k"),
    layer("core.retired_messages", "count", Higher, "peak_rss_mb on shard1k and scale100k"),
    layer("simnet.traffic_spill_bytes", "bytes", Lower, SPILL),
    layer("simnet.traffic_acc_peak", "count", Lower, "peak_rss_mb on shard1k: the shard merge's link accumulator; zero on sequential engines"),
    layer("metrics.used_links", "count", Lower, "run_s of collect on scale100k; a simulated output"),
    layer("simnet.shard_windows", "count", Lower, SHARDING),
    layer("simnet.lane_events", "count", Lower, SHARDING),
    layer("simnet.lane_flushes", "count", Lower, SHARDING),
    layer("simnet.exchanges_skipped", "count", Higher, SHARDING),
    layer("simnet.realized_lookahead_us", "us", Higher, SHARDING),
    layer("simnet.max_shard_share", "ratio", Lower, SHARDING),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 25;

/// `BENCHMARK.json`, as the repository root holds it.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--offline\", \"--release\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    out.push_str(&e2e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The human-readable catalogue: every metric with its unit, direction
/// and what it should move.
pub fn describe() -> String {
    let mut out = String::from("end-to-end (untraced runs):\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<30} {:<6} {:<6} bound {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("per-layer (traced run):\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<30} {:<6} {:<6} moves {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}
