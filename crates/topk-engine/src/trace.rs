//! Engine-wide Chrome-trace export: render a [`DrainReport`] as a
//! Trace Event Format JSON string loadable in `chrome://tracing` or
//! Perfetto.
//!
//! The layout mirrors how the drain actually ran: per pool device, one
//! **kernel track** (every launch of the drain, named and tagged with
//! its batch's span id), one **query track** (per query, a
//! `queue-wait` span from drain start to batch start followed by a
//! `query` span covering service, with a `served` arg recording the
//! degradation-ladder rung), one **stage track** (per batch, a span
//! whose args carry the stage-level latency attribution — transfer /
//! kernel / merge / other µs from [`crate::StageBreakdown`]), and —
//! when fault injection is active or an attempt went overdue — a
//! **fault track** marking every injected fault at the simulated time
//! it fired and an `overdue` instant where the host abandoned an
//! attempt. Fused queries overlap exactly; retried batches appear once
//! per attempt.

use crate::DrainReport;
use gpu_sim::TraceBuilder;

/// Render a drain as Chrome Trace Event Format JSON.
///
/// Timestamps are drain-relative microseconds (devices persist across
/// drains; each device's clock is rebased to the drain's start).
pub fn chrome_trace(report: &DrainReport) -> String {
    let mut tb = TraceBuilder::new("topk-engine");
    for d in &report.devices {
        let kernels = tb.add_track(&format!("device {} kernels", d.device));
        for kr in &d.kernel_reports {
            tb.span_with_args(
                kernels,
                "kernel",
                &kr.name,
                kr.start_us - d.clock_start_us,
                kr.cost.total_us(),
                &[
                    ("span", kr.span.to_string()),
                    ("grid_dim", kr.cfg.grid_dim.to_string()),
                    ("block_dim", kr.cfg.block_dim.to_string()),
                ],
            );
        }

        let queries = tb.add_track(&format!("device {} queries", d.device));
        for r in report.results.iter().filter(|r| r.device == d.device) {
            if r.queue_wait_us > 0.0 {
                tb.span_with_args(
                    queries,
                    "queue",
                    &format!("wait q{}", r.id),
                    0.0,
                    r.queue_wait_us,
                    &[("span", r.span.to_string())],
                );
            }
            tb.span_with_args(
                queries,
                "query",
                &format!("q{}", r.id),
                r.queue_wait_us,
                r.latency_us - r.queue_wait_us,
                &[
                    ("span", r.span.to_string()),
                    ("batch_span", r.batch_span.to_string()),
                    ("batch_size", r.batch_size.to_string()),
                    ("ok", r.outcome.is_ok().to_string()),
                    ("served", r.served.label().to_string()),
                    ("retries", r.served.retries().to_string()),
                    ("est_recall", format!("{:.4}", r.est_recall)),
                ],
            );
        }

        if !d.batches.is_empty() {
            let stages = tb.add_track(&format!("device {} stages", d.device));
            for b in &d.batches {
                tb.span_with_args(
                    stages,
                    "stage",
                    &format!("batch n={} k={} x{}", b.n, b.k, b.size),
                    b.start_us,
                    (b.end_us - b.start_us).max(0.0),
                    &[
                        ("span", b.span.to_string()),
                        ("transfer_us", format!("{:.3}", b.stages.transfer_us)),
                        ("kernel_us", format!("{:.3}", b.stages.kernel_us)),
                        ("merge_us", format!("{:.3}", b.stages.merge_us)),
                        ("other_us", format!("{:.3}", b.stages.other_us)),
                    ],
                );
            }
        }

        let overdue: Vec<_> = d
            .batches
            .iter()
            .filter_map(|b| Some((b, b.overdue_us?)))
            .collect();
        if !d.fault_events.is_empty() || !overdue.is_empty() {
            let faults = tb.add_track(&format!("device {} faults", d.device));
            for fe in &d.fault_events {
                tb.span_with_args(
                    faults,
                    "fault",
                    fe.kind.label(),
                    (fe.clock_us - d.clock_start_us).max(0.0),
                    1.0,
                    &[("context", fe.context.clone()), ("seq", fe.seq.to_string())],
                );
            }
            for (b, at_us) in overdue {
                tb.instant_with_args(
                    faults,
                    "overdue",
                    "overdue",
                    at_us,
                    &[
                        ("span", b.span.to_string()),
                        ("start_us", format!("{:.3}", b.start_us)),
                        ("budget_us", format!("{:.3}", b.budget_us)),
                    ],
                );
            }
        }
    }
    tb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, TopKEngine};

    #[test]
    fn trace_covers_every_device_and_kernel() {
        let mut engine = TopKEngine::new(EngineConfig::a100_pool(2).with_window(2));
        let data: Vec<f32> = (0..4096).map(|i| ((i * 97) % 1013) as f32).collect();
        for _ in 0..6 {
            engine.submit(data.clone(), 16).unwrap();
        }
        let report = engine.drain();
        let json = chrome_trace(&report);

        for d in &report.devices {
            assert!(json.contains(&format!("device {} kernels", d.device)));
            assert!(json.contains(&format!("device {} queries", d.device)));
        }
        // One complete event per kernel report.
        let kernels: usize = report.devices.iter().map(|d| d.kernel_reports.len()).sum();
        assert_eq!(json.matches("\"cat\":\"kernel\"").count(), kernels);
        // One service span per query.
        assert_eq!(
            json.matches("\"cat\":\"query\"").count(),
            report.results.len()
        );
        // One stage-attribution span per executed batch, carrying the
        // kernel/transfer split in its args.
        let batches: usize = report.devices.iter().map(|d| d.batches.len()).sum();
        assert_eq!(json.matches("\"cat\":\"stage\"").count(), batches);
        assert!(json.contains("kernel_us"), "{json}");
    }
}
