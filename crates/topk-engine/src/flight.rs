//! The anomaly flight recorder: an always-on, bounded ring buffer of
//! engine events plus the structured JSON post-mortem it dumps when
//! something goes wrong.
//!
//! Airliners carry a flight recorder because the interesting failures
//! are the ones nobody was watching for; a serving engine is no
//! different. Every [`TopKEngine`](crate::TopKEngine) keeps the last
//! [`FlightRecorder::capacity`] scheduler events (submit, coalesce,
//! launch, fault, retry, failover, fallback, deadline, breaker state
//! changes) in memory at a fixed cost, and whenever a query terminally
//! fails, misses its deadline, or a circuit breaker trips, the engine
//! snapshots the buffer — together with per-device state, the injected
//! fault log, and the cost-model drift table — into a self-contained
//! JSON document ([`TopKEngine::post_mortems`](crate::TopKEngine::post_mortems)).
//!
//! Recording is pure host-side bookkeeping: it never touches a device
//! clock, so chaos digests are bit-identical with the recorder's
//! output consumed or ignored.

use std::collections::VecDeque;
use topk_core::tuner::{DriftEntry, PlanKey, TunedAlgo};

/// Event kinds that trigger a post-mortem dump: a terminal query
/// failure, a missed deadline, a breaker trip, a device retired from
/// the pool, or an attempt abandoned at its overdue instant.
pub const TRIGGER_KINDS: [&str; 5] = [
    "query_failed",
    "deadline_miss",
    "breaker_open",
    "device_failed",
    "overdue",
];

/// One recorded engine event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Monotonic sequence number over the engine's lifetime (keeps
    /// ordering intact even after the ring buffer wraps).
    pub seq: u64,
    /// Drain-relative simulated time the event was observed at, µs
    /// (0.0 for submissions, which precede the drain clock).
    pub t_us: f64,
    /// Stable snake_case event kind (`submit`, `coalesce`, `launch`,
    /// `degrade_rung`, `batch_ok`, `failover`, `device_fault`, `retry`,
    /// `deadline_miss`, `query_failed`, `fallback`, `breaker_open`,
    /// `device_failed`, `worker_panic`, `overdue`, `queue_reject`).
    /// `overdue` marks the instant the host abandoned an attempt that
    /// outran `OVERDUE_FACTOR` × its predicted budget; its detail
    /// carries the attempt number, the budget and that instant.
    /// `degrade_rung` records an accuracy-ladder transition — its
    /// detail carries the chosen rung, the triggering cause
    /// (`deadline_risk` or `capacity_loss`), the batch's recall target
    /// and the configuration's expected recall. It is deliberately
    /// *not* a trigger kind: degrading is the plan working, not an
    /// anomaly.
    pub kind: &'static str,
    /// Pool device involved, if any.
    pub device: Option<usize>,
    /// Tracing span of the query or batch involved, if any.
    pub span: Option<u64>,
    /// Free-form context (shape, error kind, attempt number, …).
    pub detail: String,
}

impl FlightEvent {
    /// Whether this event kind triggers a post-mortem dump.
    pub fn is_trigger(&self) -> bool {
        TRIGGER_KINDS.contains(&self.kind)
    }
}

/// Bounded ring buffer of [`FlightEvent`]s. Pushing beyond the
/// capacity evicts the oldest event; the sequence numbers keep the
/// global ordering reconstructible.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    events: VecDeque<FlightEvent>,
}

impl FlightRecorder {
    /// Recorder holding at most `capacity` events (min 16).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(16),
            next_seq: 0,
            events: VecDeque::new(),
        }
    }

    /// The bound on retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded (the next event's sequence number).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Append one event, evicting the oldest when full. Returns the
    /// event's sequence number.
    pub fn record(
        &mut self,
        kind: &'static str,
        device: Option<usize>,
        span: Option<u64>,
        t_us: f64,
        detail: String,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(FlightEvent {
            seq,
            t_us,
            kind,
            device,
            span,
            detail,
        });
        seq
    }

    /// The first trigger-kind event with `seq >= since_seq`, if any —
    /// how the drain loop decides whether a scheduling step warrants a
    /// post-mortem dump.
    pub fn trigger_since(&self, since_seq: u64) -> Option<&FlightEvent> {
        self.events
            .iter()
            .find(|e| e.seq >= since_seq && e.is_trigger())
    }
}

/// Per-device state row of a post-mortem document.
#[derive(Debug, Clone)]
pub struct PmDevice {
    /// Pool index.
    pub device: usize,
    /// `"ok"` / `"quarantined"` / `"failed"` at dump time.
    pub health: &'static str,
    /// Drain-relative device clock at dump time, µs.
    pub elapsed_us: f64,
    /// Batches executed this drain so far.
    pub batches: usize,
    /// Lifetime device faults.
    pub faults: u64,
    /// Injected faults this drain, as `kind@seq` labels.
    pub fault_events: Vec<String>,
    /// Sanitizer occurrences flagged this drain.
    pub sanitizer_occurrences: u64,
}

/// Minimal JSON string escaping (backslash, quote, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Render a post-mortem as a self-contained JSON document:
/// the trigger, the retained event window, per-device snapshots, the
/// tuner's cost-model drift table ([`topk_core::tuner::Tuner::drift_snapshot`])
/// and its calibration state.
pub fn render_post_mortem(
    trigger: &str,
    trigger_seq: u64,
    clock_us: f64,
    recorder: &FlightRecorder,
    devices: &[PmDevice],
    drift: &[(PlanKey, TunedAlgo, DriftEntry)],
    calibration: &[(&'static str, f64)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"trigger\": {},\n", json_str(trigger)));
    out.push_str(&format!("  \"trigger_seq\": {trigger_seq},\n"));
    out.push_str(&format!("  \"clock_us\": {},\n", json_f64(clock_us)));
    out.push_str(&format!(
        "  \"events_recorded\": {},\n",
        recorder.recorded()
    ));
    out.push_str("  \"events\": [\n");
    let n = recorder.len();
    for (i, e) in recorder.events().enumerate() {
        out.push_str(&format!(
            "    {{\"seq\": {}, \"t_us\": {}, \"kind\": {}, \"device\": {}, \"span\": {}, \"detail\": {}}}{}\n",
            e.seq,
            json_f64(e.t_us),
            json_str(e.kind),
            e.device.map_or("null".to_string(), |d| d.to_string()),
            e.span.map_or("null".to_string(), |s| s.to_string()),
            json_str(&e.detail),
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"devices\": [\n");
    for (i, d) in devices.iter().enumerate() {
        let faults: Vec<String> = d.fault_events.iter().map(|f| json_str(f)).collect();
        out.push_str(&format!(
            "    {{\"device\": {}, \"health\": {}, \"elapsed_us\": {}, \"batches\": {}, \"faults\": {}, \"fault_events\": [{}], \"sanitizer_occurrences\": {}}}{}\n",
            d.device,
            json_str(d.health),
            json_f64(d.elapsed_us),
            d.batches,
            d.faults,
            faults.join(", "),
            d.sanitizer_occurrences,
            if i + 1 < devices.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"drift\": [\n");
    for (i, (key, algo, e)) in drift.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"key\": {}, \"algo\": {}, \"samples\": {}, \"predicted_us\": {}, \"observed_us\": {}, \"mean_ratio\": {}}}{}\n",
            json_str(&key.to_string()),
            json_str(&algo.encode()),
            e.samples,
            json_f64(e.predicted_us),
            json_f64(e.observed_us),
            json_f64(e.mean_ratio()),
            if i + 1 < drift.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"calibration\": [\n");
    for (i, (family, factor)) in calibration.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": {}, \"factor\": {}}}{}\n",
            json_str(family),
            json_f64(*factor),
            if i + 1 < calibration.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_evicts_oldest_but_keeps_sequence() {
        let mut r = FlightRecorder::new(16);
        for i in 0..40 {
            r.record("launch", Some(0), None, i as f64, format!("op {i}"));
        }
        assert_eq!(r.len(), 16);
        assert_eq!(r.recorded(), 40);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs.first(), Some(&24));
        assert_eq!(seqs.last(), Some(&39));
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn trigger_detection_respects_since() {
        let mut r = FlightRecorder::new(16);
        r.record("launch", Some(0), None, 0.0, String::new());
        let fail_seq = r.record("query_failed", Some(0), Some(7), 1.0, "bad".into());
        r.record("launch", Some(1), None, 2.0, String::new());
        assert_eq!(r.trigger_since(0).map(|e| e.seq), Some(fail_seq));
        assert!(r.trigger_since(fail_seq + 1).is_none());
        assert!(FlightEvent {
            seq: 0,
            t_us: 0.0,
            kind: "breaker_open",
            device: None,
            span: None,
            detail: String::new(),
        }
        .is_trigger());
    }

    #[test]
    fn post_mortem_is_valid_shaped_json() {
        let mut r = FlightRecorder::new(16);
        r.record(
            "submit",
            None,
            Some(1),
            0.0,
            "id=0 n=4096 k=\"quoted\"".into(),
        );
        r.record("deadline_miss", Some(0), Some(1), 9.5, "dl=5".into());
        let devices = vec![PmDevice {
            device: 0,
            health: "ok",
            elapsed_us: 9.5,
            batches: 1,
            faults: 0,
            fault_events: vec!["launch_fail@0".into()],
            sanitizer_occurrences: 0,
        }];
        let key = PlanKey {
            n_log2: 12,
            k_log2: 5,
            batch_log2: 0,
            dist_class: 0,
        };
        let entry = DriftEntry {
            samples: 3,
            sum_ratio: 3.66,
            predicted_us: 50.0,
            observed_us: 61.0,
        };
        let drift = [(key, TunedAlgo::Air { bits_per_pass: 11 }, entry)];
        let json = render_post_mortem(
            "deadline_miss",
            1,
            9.5,
            &r,
            &devices,
            &drift,
            &[("air", 1.1)],
        );
        assert!(json.contains("\"trigger\": \"deadline_miss\""));
        assert!(json.contains("\\\"quoted\\\""), "details must be escaped");
        assert!(json.contains(
            "{\"key\": \"n2^12 k2^5 b2^0 d0\", \"algo\": \"air:11\", \"samples\": 3, \"predicted_us\": 50.000, \"observed_us\": 61.000, \"mean_ratio\": 1.220}"
        ));
        assert!(json.contains("\"calibration\""));
        // Balanced braces/brackets — cheap structural sanity.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
