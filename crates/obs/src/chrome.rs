//! Chrome-trace/Perfetto JSON export and span-invariant validation.
//!
//! The exporter writes the ubiquitous `traceEvents` array-of-complete-
//! events format (`ph: "X"`, microsecond timestamps) that both
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly. Span ids and parent links ride in `args` so the causal
//! tree survives the round trip.
//!
//! [`validate_spans`] checks the invariants every recorded trace must
//! satisfy — the same checks `recssd-analyze` runs on a trace file and
//! the serving observability tests run on live traces:
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

/// One uncovered interval inside a request span, located by the child
/// span that precedes it — so a coverage shortfall names *where* the
/// missing time sits instead of only how much is missing.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageGap {
    /// Gap start, ns of virtual time.
    pub start_ns: u64,
    /// Gap end, ns.
    pub end_ns: u64,
    /// Name of the child span whose end the gap follows, or
    /// `"request start"` when the gap opens the request.
    pub after: String,
    /// Id of that preceding child (0 at the request start).
    pub after_id: u64,
}

impl CoverageGap {
    /// Gap length, ns.
    pub fn len_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Child-coverage accounting of one request span.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestCoverage {
    /// The request span id.
    pub request: u64,
    /// Serving path (the request span's label).
    pub label: String,
    /// Request e2e latency, ns.
    pub e2e_ns: u64,
    /// Fraction of the request covered by the union of its direct
    /// children.
    pub coverage: f64,
    /// `true` for degraded requests (exempt from the coverage gate).
    pub degraded: bool,
    /// The uncovered intervals, longest first.
    pub gaps: Vec<CoverageGap>,
}

/// Uncovered intervals of `[start, end]` under the child union, each
/// located by the child whose end it follows. `kids` must be the
/// request's direct children.
fn gaps_of(start: u64, end: u64, kids: &[&SpanRec]) -> Vec<CoverageGap> {
    let mut ivs: Vec<(u64, u64, usize)> = kids
        .iter()
        .enumerate()
        .map(|(i, k)| (k.start_ns, k.end_ns, i))
        .collect();
    ivs.sort_unstable();
    let mut gaps = Vec::new();
    let mut cur = start;
    let mut last: Option<usize> = None;
    for &(a, b, i) in &ivs {
        let a = a.clamp(cur, end);
        if a > cur {
            let (after, after_id) = match last {
                Some(j) => (kids[j].name.to_string(), kids[j].id),
                None => ("request start".to_string(), 0),
            };
            gaps.push(CoverageGap {
                start_ns: cur,
                end_ns: a,
                after,
                after_id,
            });
        }
        if b > cur {
            cur = b.min(end);
            last = Some(i);
        }
    }
    if end > cur {
        let (after, after_id) = match last {
            Some(j) => (kids[j].name.to_string(), kids[j].id),
            None => ("request start".to_string(), 0),
        };
        gaps.push(CoverageGap {
            start_ns: cur,
            end_ns: end,
            after,
            after_id,
        });
    }
    gaps.sort_by(|a, b| {
        b.len_ns()
            .cmp(&a.len_ns())
            .then(a.start_ns.cmp(&b.start_ns))
    });
    gaps
}

/// Per-request child-coverage accounting: how much of every request
/// span its direct children cover, and exactly where the uncovered time
/// sits. Requests are returned in trace order.
pub fn coverage_report(spans: &[SpanRec]) -> Vec<RequestCoverage> {
    let mut children: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let gaps = gaps_of(s.start_ns, s.end_ns, kids);
            RequestCoverage {
                request: s.id,
                label: s.label.to_string(),
                e2e_ns: s.end_ns - s.start_ns,
                coverage: covered_share(s, &gaps),
                degraded: is_degraded(s),
                gaps,
            }
        })
        .collect()
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

/// The one definition of request coverage: the fraction of request span
/// `s` its direct children cover, `(e2e − Σ gaps) / e2e` over its
/// [`gaps_of`]. An empty request counts as fully covered.
fn covered_share(s: &SpanRec, gaps: &[CoverageGap]) -> f64 {
    let e2e = s.end_ns - s.start_ns;
    if e2e == 0 {
        return 1.0;
    }
    let uncovered: u64 = gaps.iter().map(CoverageGap::len_ns).sum();
    (e2e - uncovered) as f64 / e2e as f64
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
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let gaps = gaps_of(s.start_ns, s.end_ns, kids);
        let c = covered_share(s, &gaps);
        if c < 0.99 {
            // Locate the missing time instead of only reporting the
            // aggregate: name the worst gap and the child it follows.
            let loc = gaps
                .first()
                .map(|g| {
                    format!(
                        "; worst gap {} ns at [{}, {}] after {} (id {})",
                        g.len_ns(),
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

    #[test]
    fn coverage_failure_names_the_gap_location() {
        let sink = TraceSink::new();
        let tr = sink.tracer(0, 0);
        let req = tr.alloc_id();
        tr.span("sub", t(0), t(40), req);
        tr.span("sub", t(70), t(100), req);
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
        let err = validate_spans(&sink.take_spans()).unwrap_err();
        assert!(err.contains("worst gap 30 ns"), "{err}");
        assert!(err.contains("after sub"), "{err}");
        assert!(err.contains("'ndp'"), "{err}");
    }

    #[test]
    fn coverage_report_locates_uncovered_time() {
        let sink = TraceSink::new();
        let tr = sink.tracer(0, 0);
        let req = tr.alloc_id();
        let sub = tr.span("sub", t(10), t(40), req);
        tr.span("sub", t(70), t(100), req);
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
        let report = coverage_report(&sink.take_spans());
        assert_eq!(report.len(), 1);
        let rc = &report[0];
        assert_eq!(rc.e2e_ns, 100);
        assert!((rc.coverage - 0.6).abs() < 1e-12);
        assert_eq!(rc.gaps.len(), 2, "{:?}", rc.gaps);
        // Longest gap first: 40–70 after the first sub.
        assert_eq!(rc.gaps[0].start_ns, 40);
        assert_eq!(rc.gaps[0].end_ns, 70);
        assert_eq!(rc.gaps[0].after, "sub");
        assert_eq!(rc.gaps[0].after_id, sub.0);
        // The opening gap is anchored at the request start.
        assert_eq!(rc.gaps[1].start_ns, 0);
        assert_eq!(rc.gaps[1].after, "request start");
        assert_eq!(rc.gaps[1].after_id, 0);
    }

    #[test]
    fn fully_covered_requests_report_no_gaps() {
        let report = coverage_report(&demo_spans());
        assert_eq!(report.len(), 1);
        assert!(report[0].gaps.is_empty());
        assert_eq!(report[0].coverage, 1.0);
        let check = validate_spans(&demo_spans()).expect("valid");
        assert_eq!(check.min_coverage, 1.0);
    }

    #[test]
    fn overlapping_children_do_not_double_count_coverage() {
        let request_over = |kids: &[(u64, u64)]| {
            let sink = TraceSink::new();
            let tr = sink.tracer(0, 0);
            let req = tr.alloc_id();
            for &(a, b) in kids {
                tr.span("sub", t(a), t(b), req);
            }
            tr.emit(req, "request", t(0), t(100), SpanId::NONE, "", 0, "");
            sink.take_spans()
        };
        let spans = request_over(&[(0, 60), (40, 100), (10, 50)]);
        assert_eq!(coverage_report(&spans)[0].coverage, 1.0);
        assert_eq!(validate_spans(&spans).expect("covered").min_coverage, 1.0);
        let spans = request_over(&[(0, 40), (60, 100)]);
        assert!((coverage_report(&spans)[0].coverage - 0.8).abs() < 1e-12);
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
