//! Chrome-trace/Perfetto JSON export and span-invariant validation.
//!
//! The exporter writes the ubiquitous `traceEvents` array-of-complete-
//! events format (`ph: "X"`, microsecond timestamps) that both
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly. Span ids and parent links ride in `args` so the causal
//! tree survives the export.
//!
//! [`validate_spans`] checks the invariants every recorded trace must
//! satisfy, on the live spans the serving observability tests record:
//!
//! 1. ids are unique and non-zero;
//! 2. every non-zero parent link resolves to a recorded span;
//! 3. children nest temporally within their parent;
//! 4. each non-degraded `request` span is covered ≥ 99 % by the union of
//!    its direct children (the latency-reconstruction criterion).

use crate::trace::SpanRec;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Summary returned by a successful [`validate_spans`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCheck {
    /// Total spans validated.
    pub spans: usize,
    /// `request` spans found (degraded ones included).
    pub requests: usize,
    /// Worst child-union coverage over non-degraded request spans
    /// (1.0 when there are none).
    pub min_coverage: f64,
}

/// The longest uncovered interval of a request span, located by the
/// child span that precedes it, so a coverage shortfall names *where*
/// the missing time sits instead of only how much is missing.
struct CoverageGap {
    start_ns: u64,
    end_ns: u64,
    /// Name of the child span whose end the gap follows, or
    /// `"request start"` when the gap opens the request.
    after: &'static str,
    /// Id of that preceding child (0 at the request start).
    after_id: u64,
}

/// The time of `[start, end]` outside the union of `kids` (the request's
/// direct children): its total length and its longest gap, the earliest
/// of equals.
fn uncovered(start: u64, end: u64, kids: &mut [&SpanRec]) -> (u64, Option<CoverageGap>) {
    kids.sort_by_key(|k| (k.start_ns, k.end_ns));
    let mut total = 0;
    let mut worst: Option<CoverageGap> = None;
    let mut cur = start;
    let mut last: Option<&SpanRec> = None;
    // A zero-length sentinel at `end` closes the trailing gap.
    let sentinel = [(end, end, None)];
    for (a, b, kid) in kids
        .iter()
        .map(|k| (k.start_ns, k.end_ns, Some(*k)))
        .chain(sentinel)
    {
        let a = a.clamp(cur, end);
        if a > cur {
            total += a - cur;
            if a - cur > worst.as_ref().map_or(0, |g| g.end_ns - g.start_ns) {
                worst = Some(CoverageGap {
                    start_ns: cur,
                    end_ns: a,
                    after: last.map_or("request start", |k| k.name),
                    after_id: last.map_or(0, |k| k.id),
                });
            }
        }
        if b > cur {
            cur = b.min(end);
            last = kid;
        }
    }
    (total, worst)
}

/// Escapes a string for a JSON literal (names here are static Rust
/// identifiers, but stay correct for arbitrary input).
fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Nanoseconds rendered as a microsecond decimal (`123.456`), the unit
/// Chrome trace expects. Pure integer math keeps the output
/// deterministic across platforms.
fn us(ns: u64, out: &mut String) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Serialises spans to a Chrome-trace JSON document.
pub fn chrome_trace_json(spans: &[SpanRec]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        esc(s.name, &mut out);
        out.push_str("\",\"ph\":\"X\",\"ts\":");
        us(s.start_ns, &mut out);
        out.push_str(",\"dur\":");
        us(s.end_ns - s.start_ns, &mut out);
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", s.pid, s.tid);
        let _ = write!(out, ",\"args\":{{\"span\":{},\"parent\":{}", s.id, s.parent);
        if !s.arg_key.is_empty() {
            out.push_str(",\"");
            esc(s.arg_key, &mut out);
            let _ = write!(out, "\":{}", s.arg_val);
        }
        if !s.label.is_empty() {
            out.push_str(",\"label\":\"");
            esc(s.label, &mut out);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

/// `true` for request spans flagged degraded (deadline expiry / retry
/// budget exhaustion): their children may legitimately not cover them.
fn is_degraded(s: &SpanRec) -> bool {
    s.arg_key == "degraded" && s.arg_val != 0
}

/// Validates the span invariants (see the [module docs](self)).
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_spans(spans: &[SpanRec]) -> Result<TraceCheck, String> {
    let mut by_id: HashMap<u64, &SpanRec> = HashMap::with_capacity(spans.len());
    for s in spans {
        if s.id == 0 {
            return Err(format!("span '{}' has id 0", s.name));
        }
        if s.end_ns < s.start_ns {
            return Err(format!(
                "span '{}' (id {}) ends before it starts",
                s.name, s.id
            ));
        }
        if by_id.insert(s.id, s).is_some() {
            return Err(format!("duplicate span id {}", s.id));
        }
    }
    let mut children: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            let p = by_id.get(&s.parent).ok_or_else(|| {
                format!(
                    "span '{}' (id {}) links to unknown parent {}",
                    s.name, s.id, s.parent
                )
            })?;
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span '{}' (id {}, [{}, {}]) escapes parent '{}' (id {}, [{}, {}])",
                    s.name, s.id, s.start_ns, s.end_ns, p.name, p.id, p.start_ns, p.end_ns
                ));
            }
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut requests = 0usize;
    let mut min_coverage = 1.0f64;
    for s in spans.iter().filter(|s| s.name == "request") {
        requests += 1;
        if is_degraded(s) {
            continue;
        }
        let kids = children
            .get_mut(&s.id)
            .map_or(&mut [][..], Vec::as_mut_slice);
        let (gap_ns, worst) = uncovered(s.start_ns, s.end_ns, kids);
        let e2e = s.end_ns - s.start_ns;
        // An empty request counts as fully covered.
        let c = if e2e == 0 {
            1.0
        } else {
            (e2e - gap_ns) as f64 / e2e as f64
        };
        if c < 0.99 {
            // Locate the missing time instead of only reporting the
            // aggregate: name the worst gap and the child it follows.
            let loc = worst
                .map(|g| {
                    format!(
                        "; worst gap {} ns at [{}, {}] after {} (id {})",
                        g.end_ns - g.start_ns,
                        g.start_ns,
                        g.end_ns,
                        g.after,
                        g.after_id
                    )
                })
                .unwrap_or_default();
            return Err(format!(
                "request span id {} ('{}') covered only {:.1}% by its children{}",
                s.id,
                s.label,
                c * 100.0,
                loc
            ));
        }
        min_coverage = min_coverage.min(c);
    }
    Ok(TraceCheck {
        spans: spans.len(),
        requests,
        min_coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanId, TraceSink};
    use recssd_sim::{SimDuration, SimTime};

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    fn demo_spans() -> Vec<SpanRec> {
        let sink = TraceSink::new();
        let tr = sink.tracer(0, 0);
        let req = tr.alloc_id();
        let sub = tr.span("sub", t(0), t(100), req);
        tr.span("op", t(10), t(90), sub);
        tr.emit(
            req,
            "request",
            t(0),
            t(100),
            SpanId::NONE,
            "degraded",
            0,
            "ndp",
        );
        sink.take_spans()
    }

    #[test]
    fn valid_trace_passes_and_reports_coverage() {
        let check = validate_spans(&demo_spans()).expect("valid");
        assert_eq!(check.spans, 3);
        assert_eq!(check.requests, 1);
        assert!(check.min_coverage >= 0.99);
    }

    #[test]
    fn unresolved_parent_is_rejected() {
        let mut spans = demo_spans();
        spans[0].parent = 999;
        assert!(validate_spans(&spans)
            .unwrap_err()
            .contains("unknown parent"));
    }

    #[test]
    fn child_escaping_parent_is_rejected() {
        let mut spans = demo_spans();
        spans[1].end_ns = 500; // op escapes sub
        assert!(validate_spans(&spans)
            .unwrap_err()
            .contains("escapes parent"));
    }

    #[test]
    fn uncovered_request_is_rejected_unless_degraded() {
        let sink = TraceSink::new();
        let tr = sink.tracer(0, 0);
        let req = tr.alloc_id();
        tr.span("sub", t(0), t(10), req); // covers 10% of the request
        tr.emit(
            req,
            "request",
            t(0),
            t(100),
            SpanId::NONE,
            "degraded",
            0,
            "",
        );
        let spans = sink.take_spans();
        assert!(validate_spans(&spans).unwrap_err().contains("covered only"));

        let sink = TraceSink::new();
        let tr = sink.tracer(0, 0);
        let req = tr.alloc_id();
        tr.span("sub", t(0), t(10), req);
        tr.emit(
            req,
            "request",
            t(0),
            t(100),
            SpanId::NONE,
            "degraded",
            1,
            "",
        );
        validate_spans(&sink.take_spans()).expect("degraded requests skip coverage");
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut spans = demo_spans();
        spans[1].id = spans[0].id;
        assert!(validate_spans(&spans).unwrap_err().contains("duplicate"));
    }

    /// A request over `[0, 100]` with `sub` children over `kids`.
    fn request_over(kids: &[(u64, u64)]) -> Vec<SpanRec> {
        let sink = TraceSink::new();
        let tr = sink.tracer(0, 0);
        let req = tr.alloc_id();
        for &(a, b) in kids {
            tr.span("sub", t(a), t(b), req);
        }
        tr.emit(
            req,
            "request",
            t(0),
            t(100),
            SpanId::NONE,
            "degraded",
            0,
            "ndp",
        );
        sink.take_spans()
    }

    #[test]
    fn coverage_failure_names_the_gap_location() {
        // Gaps 0–10 and 40–70: the longer one, after the first sub, is named.
        let spans = request_over(&[(10, 40), (70, 100)]);
        let err = validate_spans(&spans).unwrap_err();
        assert_eq!(
            err,
            format!(
                "request span id {} ('ndp') covered only 60.0% by its children; \
                 worst gap 30 ns at [40, 70] after sub (id {})",
                spans[2].id, spans[0].id
            )
        );
        // A gap that opens the request is anchored at its start, and of
        // two equal gaps the earlier is named.
        let err = validate_spans(&request_over(&[(30, 70)])).unwrap_err();
        assert!(
            err.ends_with("worst gap 30 ns at [0, 30] after request start (id 0)"),
            "{err}"
        );
    }

    #[test]
    fn fully_covered_requests_report_no_gaps() {
        let check = validate_spans(&demo_spans()).expect("valid");
        assert_eq!(check.min_coverage, 1.0);
        let check = validate_spans(&request_over(&[(0, 50), (50, 100)])).expect("valid");
        assert_eq!(check.min_coverage, 1.0);
    }

    #[test]
    fn overlapping_children_do_not_double_count_coverage() {
        let spans = request_over(&[(0, 60), (40, 100), (10, 50)]);
        assert_eq!(validate_spans(&spans).expect("covered").min_coverage, 1.0);
        let err = validate_spans(&request_over(&[(0, 40), (60, 100)])).unwrap_err();
        assert!(err.contains("covered only 80.0%"), "{err}");
    }

    /// The whole document, byte for byte, over spans that take every
    /// branch of the writer: escaped characters, a sub-microsecond start,
    /// a zero-length span, and spans with neither and with both of the
    /// argument and the label.
    #[test]
    fn json_export_matches_the_golden_document() {
        let span = |id, parent, name, start_ns, end_ns, arg_key, arg_val, label| SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            pid: 2,
            tid: 3,
            arg_key,
            arg_val,
            label,
            cause: 0,
        };
        let spans = [
            span(1, 0, "q\"b\\s\u{1}", 1_234_567, 1_234_567, "", 0, ""),
            span(2, 1, "op", 1_234_567, 1_235_067, "ch", 7, "ndp"),
        ];
        assert_eq!(
            chrome_trace_json(&spans),
            concat!(
                r#"{"displayTimeUnit":"ns","traceEvents":["#,
                r#"{"name":"q\"b\\s\u0001","ph":"X","ts":1234.567,"dur":0.000,"#,
                r#""pid":2,"tid":3,"args":{"span":1,"parent":0}},"#,
                r#"{"name":"op","ph":"X","ts":1234.567,"dur":0.500,"#,
                r#""pid":2,"tid":3,"args":{"span":2,"parent":1,"ch":7,"label":"ndp"}}"#,
                "]}\n"
            )
        );
    }

    #[test]
    fn json_export_is_deterministic_and_tagged() {
        let a = chrome_trace_json(&demo_spans());
        let b = chrome_trace_json(&demo_spans());
        assert_eq!(a, b);
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"name\":\"request\""));
        assert!(a.contains("\"label\":\"ndp\""));
        // 100 ns request renders as 0.100 us.
        assert!(a.contains("\"dur\":0.100"));
    }
}
