//! Exporters: Chrome trace-event JSON (for `about:tracing` / Perfetto)
//! and Prometheus text exposition.
//!
//! The Prometheus side uses a *collector registry*: higher layers (the
//! serve router, benchmarks) register closures that append their metric
//! families to the scrape output. Registration stores only a `Weak`
//! reference — dropping the returned [`CollectorHandle`] retires the
//! collector, so a shut-down router never contributes stale metrics.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::{
    dropped_spans, dropped_spans_total, flight, mode, recorded_spans, snapshot, SpanRecord,
    TraceMode,
};

// ---------------------------------------------------------------------------
// Chrome trace events

/// Append `s` to `out` with JSON string escaping (quotes, backslashes,
/// control characters). Every dynamic string the obs stack embeds in
/// JSON — interned span names, model names, event fields — goes through
/// here; interned names in particular carry kernel identifiers like
/// `main_b{bucket}` and arbitrary user strings.
pub(crate) fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render every recorded span as a Chrome trace-event JSON document
/// (`"X"` complete events, microsecond timestamps). Load the string
/// saved to a file in `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Spans are sorted by start time; ids, parents and trace ids ride in
/// each event's `args` so the request tree can be reconstructed.
pub fn chrome_trace() -> String {
    let mut spans = snapshot();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    chrome_trace_for(&spans, dropped_spans())
}

/// Render an explicit span list as a Chrome trace-event JSON document —
/// the shared builder behind [`chrome_trace`] and the flight recorder's
/// per-retained-trace export. All names go through JSON escaping, so
/// interned dynamic names with quotes/backslashes/control characters
/// stay valid JSON.
pub fn chrome_trace_for(spans: &[SpanRecord], dropped: u64) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(s.name, &mut out);
        out.push_str("\",\"cat\":\"");
        out.push_str(s.cat.label());
        // Chrome expects microsecond floats; keep nanosecond precision
        // with three decimal places.
        let _ = write!(
            out,
            "\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\
             \"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\"arg\":{}}}}}",
            s.start_ns / 1_000,
            s.start_ns % 1_000,
            s.dur_ns / 1_000,
            s.dur_ns % 1_000,
            s.tid,
            s.trace,
            s.id,
            s.parent,
            s.arg
        );
    }
    let _ = write!(out, "],\"otherData\":{{\"droppedSpans\":{dropped}}}}}");
    out
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

/// Builder for Prometheus text-format output, handed to registered
/// collectors. Guarantees well-formed `# HELP`/`# TYPE` headers and
/// label escaping.
pub struct PromBuf {
    out: String,
}

impl PromBuf {
    fn new() -> PromBuf {
        PromBuf {
            out: String::with_capacity(4096),
        }
    }

    /// Emit the `# HELP` / `# TYPE` header for a metric family.
    /// `kind` is `counter`, `gauge`, `summary`, or `untyped`.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn write_labels(&mut self, labels: &[(&str, &str)]) {
        if labels.is_empty() {
            return;
        }
        self.out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(k);
            self.out.push_str("=\"");
            for c in v.chars() {
                match c {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    '\n' => self.out.push_str("\\n"),
                    c => self.out.push(c),
                }
            }
            self.out.push('"');
        }
        self.out.push('}');
    }

    /// Emit one integer sample line.
    pub fn sample_u64(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out.push_str(name);
        self.write_labels(labels);
        let _ = writeln!(self.out, " {value}");
    }

    /// Emit one floating-point sample line.
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        self.write_labels(labels);
        if value.is_finite() {
            let _ = writeln!(self.out, " {value}");
        } else {
            let _ = writeln!(self.out, " NaN");
        }
    }

    /// Emit one integer sample line with an OpenMetrics exemplar suffix:
    /// `name{labels} value # {exemplar_labels} exemplar_value`. Used by
    /// histogram buckets to link a bucket to the trace id of its most
    /// recent retained flight-recorder sample.
    pub fn sample_with_exemplar(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        value: u64,
        exemplar_labels: &[(&str, &str)],
        exemplar_value: f64,
    ) {
        self.out.push_str(name);
        self.write_labels(labels);
        let _ = write!(self.out, " {value} # ");
        self.write_labels(exemplar_labels);
        if exemplar_value.is_finite() {
            let _ = writeln!(self.out, " {exemplar_value}");
        } else {
            let _ = writeln!(self.out, " NaN");
        }
    }

    /// Finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

type Collector = dyn Fn(&mut PromBuf) + Send + Sync;

fn collectors() -> &'static Mutex<Vec<Weak<Collector>>> {
    static COLLECTORS: OnceLock<Mutex<Vec<Weak<Collector>>>> = OnceLock::new();
    COLLECTORS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Keeps a registered collector alive; dropping it retires the collector
/// from future [`prometheus`] scrapes.
pub struct CollectorHandle {
    _strong: Arc<Collector>,
}

/// Register a metrics collector invoked on every [`prometheus`] call.
/// The registry holds only a weak reference — the collector lives as
/// long as the returned handle.
pub fn register_collector(f: impl Fn(&mut PromBuf) + Send + Sync + 'static) -> CollectorHandle {
    let strong: Arc<Collector> = Arc::new(f);
    let mut reg = collectors().lock().unwrap();
    reg.retain(|w| w.strong_count() > 0);
    reg.push(Arc::downgrade(&strong));
    CollectorHandle { _strong: strong }
}

/// Render the unified Prometheus text exposition: obs self-metrics plus
/// every live registered collector (serve latency/queue summaries, arena
/// hit-rate and bytes, VM profile buckets...).
pub fn prometheus() -> String {
    let mut buf = PromBuf::new();
    buf.header(
        "nimble_obs_spans_recorded",
        "Spans currently retained in thread buffers",
        "gauge",
    );
    buf.sample_u64("nimble_obs_spans_recorded", &[], recorded_spans());
    buf.header(
        "nimble_obs_spans_dropped_total",
        "Spans dropped on thread-buffer overflow since last reset",
        "counter",
    );
    buf.sample_u64("nimble_obs_spans_dropped_total", &[], dropped_spans());
    buf.header(
        "nimble_obs_dropped_spans_total",
        "Spans dropped anywhere (thread-ring overflow + flight request-buffer overflow) since last reset",
        "counter",
    );
    buf.sample_u64("nimble_obs_dropped_spans_total", &[], dropped_spans_total());
    buf.header(
        "nimble_obs_trace_mode",
        "Tracing mode (0=off, 1=all, 2=tail, N=sampled 1-in-N; see nimble_obs_tail_multiplier)",
        "gauge",
    );
    let mode_val = match mode() {
        TraceMode::Off => 0,
        TraceMode::All => 1,
        TraceMode::Tail => 2,
        TraceMode::Sampled(n) => n,
    };
    buf.sample_u64("nimble_obs_trace_mode", &[], mode_val);
    if mode() == TraceMode::Tail {
        buf.header(
            "nimble_obs_tail_multiplier",
            "Rolling-p99 multiplier of the tail retention threshold",
            "gauge",
        );
        buf.sample_f64("nimble_obs_tail_multiplier", &[], flight::tail_multiplier());
    }
    buf.header(
        "nimble_obs_flight_retained_total",
        "Traces retained by the flight recorder since last reset",
        "counter",
    );
    buf.sample_u64(
        "nimble_obs_flight_retained_total",
        &[],
        flight::retained_total(),
    );
    buf.header(
        "nimble_obs_flight_active_buffers",
        "In-flight per-request span buffers currently registered",
        "gauge",
    );
    buf.sample_u64(
        "nimble_obs_flight_active_buffers",
        &[],
        flight::active_buffers() as u64,
    );
    buf.header(
        "nimble_obs_events_total",
        "Structured lifecycle events emitted since last reset",
        "counter",
    );
    buf.sample_u64(
        "nimble_obs_events_total",
        &[],
        crate::events::events_total(),
    );

    let live: Vec<Arc<Collector>> = {
        let mut reg = collectors().lock().unwrap();
        reg.retain(|w| w.strong_count() > 0);
        reg.iter().filter_map(|w| w.upgrade()).collect()
    };
    for c in live {
        c(&mut buf);
    }
    buf.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enter, reset, set_mode, span_full, start_trace, Category};
    use std::sync::Mutex as StdMutex;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: StdMutex<()> = StdMutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn chrome_trace_emits_events() {
        let _l = lock();
        set_mode(TraceMode::All);
        reset();
        let ctx = start_trace();
        {
            let _g = enter(ctx);
            drop(span_full("gemm \"quoted\"\n", Category::Kernel, 42));
        }
        let json = chrome_trace();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("gemm \\\"quoted\\\"\\n"));
        assert!(json.contains("\"cat\":\"kernel\""));
        assert!(json.contains("\"arg\":42"));
        assert!(json.contains("droppedSpans"));
        set_mode(TraceMode::Off);
        reset();
    }

    #[test]
    fn chrome_trace_escapes_adversarial_interned_names() {
        let _l = lock();
        set_mode(TraceMode::All);
        crate::reset();
        // Kernel-style and hostile dynamic names: braces, quotes,
        // backslashes, raw control bytes, non-ASCII.
        let names = [
            "main_b{bucket}",
            "gemm \"8x8\" \\packed\\",
            "ctl\u{1}\u{1f} tab\t nl\n cr\r",
            "unicode é😀 end",
        ];
        let ctx = start_trace();
        {
            let _g = enter(ctx);
            for n in names {
                drop(span_full(crate::intern(n), Category::Kernel, 1));
            }
        }
        let json = chrome_trace();
        let v = crate::json::parse(&json).expect("chrome export must be valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        for n in names {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").unwrap().as_str() == Some(n)),
                "name {n:?} did not round-trip"
            );
        }
        set_mode(TraceMode::Off);
        crate::reset();
    }

    #[test]
    fn chrome_trace_empty_is_valid() {
        let _l = lock();
        set_mode(TraceMode::Off);
        reset();
        let json = chrome_trace();
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn collectors_live_and_die_with_handle() {
        let _l = lock();
        let handle = register_collector(|buf| {
            buf.header("test_metric_xyz", "A test metric", "gauge");
            buf.sample_f64("test_metric_xyz", &[("model", "bert@\"1\"")], 0.5);
        });
        let text = prometheus();
        assert!(text.contains("# TYPE test_metric_xyz gauge"));
        assert!(text.contains("test_metric_xyz{model=\"bert@\\\"1\\\"\"} 0.5"));
        assert!(text.contains("nimble_obs_trace_mode"));
        drop(handle);
        let text = prometheus();
        assert!(!text.contains("test_metric_xyz"));
    }
}
