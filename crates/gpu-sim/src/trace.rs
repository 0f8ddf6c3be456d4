//! Chrome-trace export: view simulated timelines in `chrome://tracing`
//! or [Perfetto](https://ui.perfetto.dev).
//!
//! The paper's Fig. 8 is a screenshot of Nsight Systems; this module
//! produces the equivalent interactive artefact from a simulated run —
//! the Trace Event Format's complete events (`"ph": "X"`). JSON is
//! emitted by hand (a few lines) to keep the dependency set at the
//! allow-listed crates.
//!
//! Two levels of API:
//!
//! * [`to_chrome_trace`] — one [`Timeline`] as a two-track (device +
//!   host) document, the Fig. 8 single-run view.
//! * [`TraceBuilder`] — an engine-wide document: any number of tracks
//!   (one per pool device, plus per-query tracks), each fed from a
//!   timeline or from free-form spans with key/value args. The serving
//!   layer uses this to emit one track per device and queue-wait spans
//!   per query.

use crate::profile::{EventKind, Timeline};

/// Trace Event Format process/track ids.
const PID: u32 = 1;
const TID_DEVICE: u32 = 1;
const TID_HOST: u32 = 2;

/// Render string-valued args as the members of a JSON object.
fn json_args(args: &[(&str, String)]) -> String {
    let members: Vec<String> = args
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
        .collect();
    members.join(",")
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Incrementally builds a Trace Event Format JSON document with any
/// number of named tracks.
///
/// ```
/// use gpu_sim::trace::TraceBuilder;
///
/// let mut tb = TraceBuilder::new("engine drain");
/// let dev0 = tb.add_track("device 0");
/// tb.span(dev0, "kernel", "iteration_fused_kernel", 3.0, 10.0);
/// tb.span_with_args(dev0, "query", "q17", 0.0, 13.0, &[("k", "32".into())]);
/// let json = tb.finish();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// assert!(json.contains("\"name\":\"device 0\""));
/// ```
pub struct TraceBuilder {
    out: String,
    next_tid: u32,
}

impl TraceBuilder {
    /// New document carrying `process_name` metadata.
    pub fn new(process_name: &str) -> Self {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(process_name)
        ));
        TraceBuilder { out, next_tid: 1 }
    }

    /// Add a named track (a Trace Event Format "thread"); returns its
    /// track id for use with [`TraceBuilder::span`]. Tracks render in
    /// the order they are added.
    pub fn add_track(&mut self, name: &str) -> u32 {
        let tid = self.next_tid;
        self.next_tid += 1;
        self.out.push_str(&format!(
            ",{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
        // Keep the UI's track order equal to insertion order.
        self.out.push_str(&format!(
            ",{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{tid}}}}}"
        ));
        tid
    }

    /// Append a complete event (`"ph":"X"`) on `tid`.
    pub fn span(&mut self, tid: u32, cat: &str, name: &str, start_us: f64, dur_us: f64) {
        self.out.push_str(&format!(
            ",{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\"cat\":\"{}\",\
             \"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3}}}",
            escape(cat),
            escape(name),
            start_us,
            dur_us
        ));
    }

    /// Append a complete event with string-valued args (shown in the
    /// viewer's detail pane when the span is selected).
    pub fn span_with_args(
        &mut self,
        tid: u32,
        cat: &str,
        name: &str,
        start_us: f64,
        dur_us: f64,
        args: &[(&str, String)],
    ) {
        self.out.push_str(&format!(
            ",{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\"cat\":\"{}\",\
             \"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
            escape(cat),
            escape(name),
            start_us,
            dur_us,
            json_args(args)
        ));
    }

    /// Append an instant event (`"ph":"i"`, thread scope) on `tid`
    /// with string-valued args — a point in time rather than a span.
    pub fn instant_with_args(
        &mut self,
        tid: u32,
        cat: &str,
        name: &str,
        at_us: f64,
        args: &[(&str, String)],
    ) {
        self.out.push_str(&format!(
            ",{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{PID},\"tid\":{tid},\"cat\":\"{}\",\
             \"name\":\"{}\",\"ts\":{:.3},\"args\":{{{}}}}}",
            escape(cat),
            escape(name),
            at_us,
            json_args(args)
        ));
    }

    /// Append every event of a [`Timeline`]: device activity (kernels,
    /// memcpys) on `device_tid`, host activity (syncs, host compute,
    /// launch overhead) on `host_tid`. Pass the same tid for both to
    /// collapse everything onto one track.
    pub fn add_timeline(&mut self, device_tid: u32, host_tid: u32, timeline: &Timeline) {
        for e in timeline.events() {
            let (name, tid, cat) = match &e.kind {
                EventKind::Kernel(n) => (n.clone(), device_tid, "kernel"),
                EventKind::MemcpyHtoD => ("MemcpyHtoD".to_string(), device_tid, "memcpy"),
                EventKind::MemcpyDtoH => ("MemcpyDtoH".to_string(), device_tid, "memcpy"),
                EventKind::HostSync => ("sync".to_string(), host_tid, "host"),
                EventKind::HostCompute(n) => (n.clone(), host_tid, "host"),
                EventKind::LaunchOverhead => ("launch".to_string(), host_tid, "driver"),
            };
            self.span(tid, cat, &name, e.start_us, e.dur_us);
        }
    }

    /// Close the document and return the JSON text.
    pub fn finish(mut self) -> String {
        self.out.push_str("],\"displayTimeUnit\":\"ns\"}");
        self.out
    }
}

/// Serialise a timeline as a Trace Event Format JSON document with a
/// device track and a host track (the Fig. 8 single-run view).
pub fn to_chrome_trace(timeline: &Timeline, process_name: &str) -> String {
    let mut tb = TraceBuilder::new(process_name);
    let dev = tb.add_track("GPU (simulated)");
    let host = tb.add_track("Host");
    debug_assert_eq!((dev, host), (TID_DEVICE, TID_HOST));
    tb.add_timeline(dev, host, timeline);
    tb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Timeline;

    fn sample() -> Timeline {
        let mut t = Timeline::new();
        t.push(EventKind::LaunchOverhead, 0.0, 3.0);
        t.push(
            EventKind::Kernel("iteration_fused_kernel".into()),
            3.0,
            10.0,
        );
        t.push(EventKind::MemcpyDtoH, 13.0, 8.0);
        t.push(EventKind::HostSync, 21.0, 10.0);
        t.push(EventKind::HostCompute("prefix \"sum\"".into()), 31.0, 2.0);
        t
    }

    #[test]
    fn emits_valid_structure() {
        let json = to_chrome_trace(&sample(), "RadixSelect run");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"name\":\"iteration_fused_kernel\""));
        assert!(json.contains("\"cat\":\"memcpy\""));
        assert!(json.contains("\"ts\":3.000"));
        assert!(json.contains("\"dur\":10.000"));
        // Quotes in names are escaped.
        assert!(json.contains("prefix \\\"sum\\\""));
        // Braces balance (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn host_and_device_tracks_are_separated() {
        let json = to_chrome_trace(&sample(), "x");
        // Kernel on device track, sync on host track.
        assert!(json.contains(&format!("\"tid\":{TID_DEVICE},\"cat\":\"kernel\"")));
        assert!(json.contains(&format!("\"tid\":{TID_HOST},\"cat\":\"host\"")));
    }

    #[test]
    fn empty_timeline_is_still_valid() {
        let json = to_chrome_trace(&Timeline::new(), "empty");
        assert!(json.contains("traceEvents"));
        assert!(json.matches('{').count() == json.matches('}').count());
    }

    #[test]
    fn builder_supports_many_tracks_and_args() {
        let mut tb = TraceBuilder::new("engine");
        let d0 = tb.add_track("device 0");
        let d1 = tb.add_track("device 1");
        let q = tb.add_track("queries");
        assert_eq!((d0, d1, q), (1, 2, 3));
        tb.add_timeline(d0, d0, &sample());
        tb.span(d1, "kernel", "k", 0.0, 5.0);
        tb.span_with_args(
            q,
            "queue",
            "wait q7",
            0.0,
            12.5,
            &[("query", "7".into()), ("k", "32".into())],
        );
        let json = tb.finish();
        assert!(json.contains("\"name\":\"device 1\""));
        assert!(json.contains("\"tid\":3,\"cat\":\"queue\""));
        assert!(json.contains("\"args\":{\"query\":\"7\",\"k\":\"32\"}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Collapsed timeline: host events landed on the device track.
        assert!(json.contains("\"tid\":1,\"cat\":\"host\""));
    }
}
