//! Output checks: the simulated results a run must reproduce.
//!
//! A run is summarised as one [`Row`] per scenario (plus the
//! "ranked (low)" row of Fig. 5(a) for a ranked scenario). Rows are
//! compared against a pinned reference when one exists for the workload
//! and seed, against the first run of the same process otherwise, and
//! always against a few reference-free sanity bounds.

use egm_workload::runner::RunOutcome;
use std::borrow::Cow;

/// The simulated outputs pinned per scenario of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The report label (strategy and parameters).
    pub label: Cow<'static, str>,
    /// Simulator events.
    pub events: u64,
    /// Mean fraction of eligible nodes delivering each message.
    pub delivery: f64,
    /// 99th-percentile publish→delivery latency, ms.
    pub p99_ms: f64,
    /// Payload transmissions per delivery (Fig. 5(a)'s x axis).
    pub payloads_per_delivery: f64,
    /// Mean delivery latency, ms (Fig. 5(a)'s y axis).
    pub latency_ms: f64,
}

/// Lowest mean delivery fraction any benchmark run may report. Every
/// workload is fault-free and loss-free, but the preset runs stop after a
/// fixed 5 s drain with part of the last multicasts still in flight
/// (about 0.99 delivered on the 1k preset and 0.84 on the 100k preset
/// at the default seed); the paper-scale runs deliver everything. The
/// bound catches a broken run, the pinned references catch a changed one.
pub const MIN_DELIVERY: f64 = 0.5;

/// Relative tolerance of float comparisons: results are deterministic,
/// so this only forgives a reassociated sum in the report code.
const REL_TOL: f64 = 1e-9;

/// The rows of one run, in scenario order.
pub fn rows(outcomes: &[RunOutcome]) -> Vec<Row> {
    let mut rows = Vec::new();
    for o in outcomes {
        let row = Row {
            label: Cow::Owned(o.report.label.clone()),
            events: o.events,
            delivery: o.report.mean_delivery_fraction,
            p99_ms: o.latency.p99_ms(),
            payloads_per_delivery: o.report.payloads_per_delivery,
            latency_ms: o.report.mean_latency_ms(),
        };
        let low = o.report.payloads_per_delivery_low.map(|low| Row {
            label: Cow::Owned(format!("{} (low)", o.report.label)),
            payloads_per_delivery: low,
            ..row.clone()
        });
        rows.push(row);
        rows.extend(low);
    }
    rows
}

/// Describes the first difference between `observed` and `expected`, or
/// `None` when they agree.
pub fn diff(observed: &[Row], expected: &[Row]) -> Option<String> {
    if observed.len() != expected.len() {
        return Some(format!(
            "{} rows, expected {}",
            observed.len(),
            expected.len()
        ));
    }
    for (o, e) in observed.iter().zip(expected) {
        let floats = [
            ("delivery", o.delivery, e.delivery),
            ("p99_ms", o.p99_ms, e.p99_ms),
            (
                "payloads_per_delivery",
                o.payloads_per_delivery,
                e.payloads_per_delivery,
            ),
            ("latency_ms", o.latency_ms, e.latency_ms),
        ];
        if o.label != e.label {
            return Some(format!("label {:?}, expected {:?}", o.label, e.label));
        }
        if o.events != e.events {
            return Some(format!(
                "{}: events {}, expected {}",
                o.label, o.events, e.events
            ));
        }
        for (name, got, want) in floats {
            if !close(got, want) {
                return Some(format!("{}: {name} {got:?}, expected {want:?}", o.label));
            }
        }
    }
    None
}

/// Reference-free bounds every run must meet.
pub fn sanity(rows: &[Row]) -> Option<String> {
    for r in rows {
        if r.events == 0 {
            return Some(format!("{}: no events", r.label));
        }
        if !(r.delivery >= MIN_DELIVERY && r.delivery <= 1.0) {
            return Some(format!(
                "{}: delivery {} below {MIN_DELIVERY}",
                r.label, r.delivery
            ));
        }
        for (name, v) in [
            ("p99_ms", r.p99_ms),
            ("payloads_per_delivery", r.payloads_per_delivery),
            ("latency_ms", r.latency_ms),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Some(format!("{}: {name} is {v}", r.label));
            }
        }
    }
    None
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Renders rows as the Rust source of a pinned reference entry.
pub fn render_reference(workload: &str, seed: u64, rows: &[Row]) -> String {
    let mut out = format!("    (\n        {workload:?},\n        {seed},\n        &[\n");
    for r in rows {
        out.push_str(&format!(
            "            row({:?}, {}, {:?}, {:?}, {:?}, {:?}),\n",
            r.label, r.events, r.delivery, r.p99_ms, r.payloads_per_delivery, r.latency_ms
        ));
    }
    out.push_str("        ],\n    ),\n");
    out
}
