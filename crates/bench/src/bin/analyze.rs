//! `recssd-analyze`: offline critical-path, queueing and bottleneck
//! analysis over a saved Chrome-trace JSON.
//!
//! Reads a whole trace exported by `chrome_trace_json` (e.g.
//! `trace_a_request.json` from the example), reconstructs the span
//! records exactly — timestamps round-trip through the exporter's
//! microsecond decimals without loss — and prints the same reports the
//! live [`ServingRuntime`] analysis APIs produce: span-invariant
//! validation, per-path critical-path profiles with the conservation
//! check, per-resource utilization timelines with Little's-law-consistent
//! queue stats, and the ranked bottleneck / headroom report. The last
//! line is always `top_bottleneck: <name>`; `tests/analyze_cli.rs` holds
//! it equal to the live verdict.
//!
//! The benchmark's `benchmark/results/<workload>.trace.json` is *not* a
//! whole trace: it keeps only the first 300 000 spans in (start, end)
//! order, so a span at the cut can lack its parent (a child that starts
//! with its parent and ends first sorts before it) and the invariant
//! check exits 1 ("links to unknown parent"). The benchmark computes its
//! own span metrics from the full in-memory trace.
//!
//! ```text
//! cargo run --release -p recssd-bench --bin recssd-analyze -- trace.json
//!     [--window-ns N] [--jsonl-out FILE]
//! ```
//!
//! The parser is hand-rolled for the exporter's format (the workspace
//! has no JSON dependency) but tolerates whitespace and key reordering;
//! unknown keys are skipped. Any other input is a parse error, never a
//! panic: integers that overflow `u64`, `ts + dur` past `u64`
//! nanoseconds, fractional or out-of-range ids and tracks, and values
//! nested deeper than the parser follows are all rejected.
//!
//! [`ServingRuntime`]: recssd_serving::ServingRuntime

#![forbid(unsafe_code)]

use recssd_serving::{
    bottleneck_report, coverage_report, critical_path_report, utilization_timelines,
    validate_spans, SpanRec,
};
use std::collections::HashMap;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path: Option<String> = None;
    let mut window_ns: u64 = 100_000;
    let mut jsonl_out: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--window-ns" => {
                let v = args.next().unwrap_or_default();
                window_ns = v
                    .parse()
                    .ok()
                    .filter(|&w| w > 0)
                    .unwrap_or_else(|| die(&format!("bad --window-ns {v:?}")));
            }
            "--jsonl-out" => {
                jsonl_out = Some(
                    args.next()
                        .unwrap_or_else(|| die("--jsonl-out needs a file")),
                )
            }
            "--help" | "-h" => {
                println!("usage: recssd-analyze <trace.json> [--window-ns N] [--jsonl-out FILE]");
                return;
            }
            _ if path.is_none() => path = Some(a),
            _ => die(&format!("unexpected argument {a:?}")),
        }
    }
    let path = path.unwrap_or_else(|| die("usage: recssd-analyze <trace.json> [--window-ns N]"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let spans = parse_trace(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")));

    println!("recssd-analyze: {path}");
    match validate_spans(&spans) {
        Ok(check) => println!(
            "spans: {} ({} requests), invariants OK, min e2e coverage {:.1}%",
            check.spans,
            check.requests,
            check.min_coverage * 100.0
        ),
        Err(e) => {
            // Still locate the shortfall before giving up: the coverage
            // report names the worst gap per request.
            eprintln!("span invariants FAILED: {e}");
            for rc in coverage_report(&spans).iter().filter(|r| r.coverage < 0.99) {
                if let Some(g) = rc.gaps.first() {
                    eprintln!(
                        "  request {}: {:.1}% covered, worst gap {} ns after {} (id {})",
                        rc.request,
                        rc.coverage * 100.0,
                        g.len_ns(),
                        g.after,
                        g.after_id
                    );
                }
            }
            std::process::exit(1);
        }
    }

    println!("\n{}", critical_path_report(&spans).render());

    let bottlenecks = bottleneck_report(&spans);
    let windows = bottlenecks.elapsed_ns.div_ceil(window_ns);
    if windows > MAX_WINDOWS {
        die(&format!(
            "{windows} windows of {window_ns} ns over {} ns of trace; \
             pass a --window-ns that gives at most {MAX_WINDOWS}",
            bottlenecks.elapsed_ns
        ));
    }
    let timelines = utilization_timelines(&spans, window_ns);
    println!(
        "resource utilization ({} resources, window {} ns):",
        timelines.len(),
        window_ns
    );
    for t in &timelines {
        println!(
            "  {:<20} {:<6} util {:>5.1}%  arrivals {:>6}  lambda {:>12.1}/s  \
             mean_wait {:>9.0} ns  L {:>8.3}  LL-residual {:.2e}",
            t.resource,
            t.kind.name(),
            t.utilization() * 100.0,
            t.total_arrivals,
            t.arrival_rate_per_s(),
            t.mean_wait_ns(),
            t.occupancy(),
            t.littles_law_residual()
        );
    }
    if let Some(out) = jsonl_out {
        let mut buf = String::new();
        for t in &timelines {
            buf.push_str(&t.snapshot_jsonl());
        }
        std::fs::write(&out, buf).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        println!("  windowed series -> {out}");
    }

    println!("\n{}", bottlenecks.render());
}

/// Most timeline windows per resource the analyzer builds — ten seconds
/// of trace at the default 100 µs window — so a trace whose timestamps
/// sit far apart asks for a wider window instead of exhausting memory.
const MAX_WINDOWS: u64 = 100_000;

fn die(msg: &str) -> ! {
    eprintln!("recssd-analyze: {msg}");
    std::process::exit(2)
}

// ---------------------------------------------------------------------
// Chrome-trace JSON parsing (no external deps).
// ---------------------------------------------------------------------

/// Interner handing out `&'static str` — [`SpanRec`] stores static
/// strings so live emission never allocates; offline we leak one copy
/// per distinct name, which for a trace is a handful of strings.
#[derive(Default)]
struct Interner(HashMap<String, &'static str>);

impl Interner {
    fn get(&mut self, s: String) -> &'static str {
        if let Some(&v) = self.0.get(&s) {
            return v;
        }
        let leaked: &'static str = Box::leak(s.clone().into_boxed_str());
        self.0.insert(s, leaked);
        leaked
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    names: Interner,
}

type PResult<T> = Result<T, String>;

/// Deepest array/object nesting the parser follows. The exporter nests
/// three deep; the bound keeps the recursive skip of unknown values off
/// the end of the stack on hostile input.
const MAX_DEPTH: usize = 64;

/// Parses the exporter's document shape: an object whose `traceEvents`
/// key holds the array of complete (`ph: "X"`) events.
fn parse_trace(text: &str) -> PResult<Vec<SpanRec>> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
        names: Interner::default(),
    };
    let mut spans = Vec::new();
    p.expect(b'{')?;
    loop {
        p.ws();
        if p.eat(b'}') {
            break;
        }
        let key = p.string()?;
        p.expect(b':')?;
        if key == "traceEvents" {
            p.expect(b'[')?;
            loop {
                p.ws();
                if p.eat(b']') {
                    break;
                }
                spans.push(p.event()?);
                p.ws();
                p.eat(b',');
            }
        } else {
            p.skip_value(1)?;
        }
        p.ws();
        p.eat(b',');
    }
    // Canonical order, same as the runtime's trace accessors.
    spans.sort_unstable_by_key(|s| (s.start_ns, s.end_ns, s.id));
    Ok(spans)
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.b.get(self.i).unwrap_or(&0)
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> PResult<()> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    /// A JSON string with the exporter's escapes (`\"`, `\\`, `\uXXXX`).
    fn string(&mut self) -> PResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self
                .b
                .get(self.i)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            out.push(
                                char::from_u32(code).ok_or_else(|| format!("bad \\u{code:04x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                c => {
                    // Multi-byte UTF-8 passes through verbatim.
                    let start = self.i - 1;
                    let mut end = self.i;
                    if c >= 0x80 {
                        while end < self.b.len() && self.b[end] & 0xc0 == 0x80 {
                            end += 1;
                        }
                        self.i = end;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..end]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    /// A non-negative decimal number: its integer part and, if it has a
    /// fractional part, that part's first three digits in thousandths.
    /// An integer part above `u64::MAX` is an error.
    fn number(&mut self) -> PResult<(u64, Option<u64>)> {
        self.ws();
        let start = self.i;
        let mut int: u64 = 0;
        while let Some(c) = self.b.get(self.i).filter(|c| c.is_ascii_digit()) {
            int = int
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(c - b'0')))
                .ok_or_else(|| format!("number at byte {start} overflows u64"))?;
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected a number at byte {}", self.i));
        }
        if self.b.get(self.i) != Some(&b'.') {
            return Ok((int, None));
        }
        self.i += 1;
        let mut frac: u64 = 0;
        let mut digits = 0;
        while let Some(c) = self.b.get(self.i).filter(|c| c.is_ascii_digit()) {
            if digits < 3 {
                frac = frac * 10 + u64::from(c - b'0');
                digits += 1;
            }
            self.i += 1;
        }
        Ok((int, Some(frac * 10u64.pow(3 - digits))))
    }

    /// A timestamp or duration in microseconds (the exporter writes
    /// exactly three decimals), as nanoseconds.
    fn micros(&mut self) -> PResult<u64> {
        let (us, frac) = self.number()?;
        us.checked_mul(1000)
            .and_then(|ns| ns.checked_add(frac.unwrap_or(0)))
            .ok_or_else(|| format!("{us} us overflows u64 nanoseconds"))
    }

    /// An id or argument value: a non-negative integer, no fraction.
    fn integer(&mut self, what: &str) -> PResult<u64> {
        match self.number()? {
            (v, None) => Ok(v),
            (_, Some(_)) => Err(format!("{what} must be an integer (byte {})", self.i)),
        }
    }

    /// A `pid` or `tid`: an integer that fits `u32`.
    fn track(&mut self, what: &str) -> PResult<u32> {
        let v = self.integer(what)?;
        u32::try_from(v).map_err(|_| format!("{what} {v} out of range"))
    }

    /// One `traceEvents` entry back into a [`SpanRec`].
    fn event(&mut self) -> PResult<SpanRec> {
        self.expect(b'{')?;
        let mut rec = SpanRec {
            id: 0,
            parent: 0,
            name: "",
            start_ns: 0,
            end_ns: 0,
            pid: 0,
            tid: 0,
            arg_key: "",
            arg_val: 0,
            label: "",
        };
        let mut dur_ns = 0u64;
        loop {
            self.ws();
            if self.eat(b'}') {
                break;
            }
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "name" => {
                    let s = self.string()?;
                    rec.name = self.names.get(s);
                }
                "ph" => {
                    let ph = self.string()?;
                    if ph != "X" {
                        return Err(format!("unsupported event phase {ph:?}"));
                    }
                }
                "ts" => rec.start_ns = self.micros()?,
                "dur" => dur_ns = self.micros()?,
                "pid" => rec.pid = self.track("pid")?,
                "tid" => rec.tid = self.track("tid")?,
                "args" => {
                    self.expect(b'{')?;
                    loop {
                        self.ws();
                        if self.eat(b'}') {
                            break;
                        }
                        let k = self.string()?;
                        self.expect(b':')?;
                        match k.as_str() {
                            "span" => rec.id = self.integer("span")?,
                            "parent" => rec.parent = self.integer("parent")?,
                            "label" => {
                                let s = self.string()?;
                                rec.label = self.names.get(s);
                            }
                            _ => {
                                rec.arg_val = self.integer(&k)?;
                                rec.arg_key = self.names.get(k);
                            }
                        }
                        self.ws();
                        self.eat(b',');
                    }
                }
                _ => self.skip_value(2)?,
            }
            self.ws();
            self.eat(b',');
        }
        rec.end_ns = rec
            .start_ns
            .checked_add(dur_ns)
            .ok_or_else(|| format!("span {} ends past u64 nanoseconds (ts + dur)", rec.id))?;
        if rec.id == 0 {
            return Err("event missing args.span id".to_string());
        }
        Ok(rec)
    }

    /// Skips any JSON value (used for keys the analyzer doesn't need),
    /// nested at most [`MAX_DEPTH`] deep: `depth` counts the arrays and
    /// objects already open around it.
    fn skip_value(&mut self, depth: usize) -> PResult<()> {
        if depth >= MAX_DEPTH {
            return Err(format!(
                "value nested over {MAX_DEPTH} deep at byte {}",
                self.i
            ));
        }
        match self.peek() {
            b'"' => {
                self.string()?;
            }
            b'{' => {
                self.expect(b'{')?;
                loop {
                    self.ws();
                    if self.eat(b'}') {
                        break;
                    }
                    self.string()?;
                    self.expect(b':')?;
                    self.skip_value(depth + 1)?;
                    self.ws();
                    self.eat(b',');
                }
            }
            b'[' => {
                self.expect(b'[')?;
                loop {
                    self.ws();
                    if self.eat(b']') {
                        break;
                    }
                    self.skip_value(depth + 1)?;
                    self.ws();
                    self.eat(b',');
                }
            }
            b't' | b'f' | b'n' => {
                while self.b.get(self.i).is_some_and(|c| c.is_ascii_alphabetic()) {
                    self.i += 1;
                }
            }
            b'-' => {
                self.i += 1;
                self.number()?;
            }
            _ => {
                self.number()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::parse_trace;
    use recssd_serving::chrome_trace_json;

    /// Exported spans round-trip through the parser exactly, including
    /// sub-microsecond timestamps, args and labels.
    #[test]
    fn export_then_parse_roundtrips_exactly() {
        use recssd_serving::SpanRec;
        let mut spans = vec![
            SpanRec {
                id: 1,
                parent: 0,
                name: "request",
                start_ns: 1_234_567,
                end_ns: 2_000_001,
                pid: 0,
                tid: 0,
                arg_key: "degraded",
                arg_val: 0,
                label: "ndp",
            },
            SpanRec {
                id: 2,
                parent: 1,
                name: "sub:wait",
                start_ns: 1_234_569,
                end_ns: 1_500_000,
                pid: 0,
                tid: 0,
                arg_key: "shard",
                arg_val: 1,
                label: "",
            },
        ];
        let json = chrome_trace_json(&spans);
        let parsed = parse_trace(&json).expect("parses");
        spans.sort_unstable_by_key(|s| (s.start_ns, s.end_ns, s.id));
        assert_eq!(parsed, spans);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_trace("not json").is_err());
        assert!(parse_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
    }

    /// One event with `fields` spliced in after its name.
    fn event_with(fields: &str) -> String {
        format!(
            "{{\"traceEvents\":[{{\"name\":\"op\",\"ph\":\"X\",{fields},\
             \"args\":{{\"span\":1,\"parent\":0}}}}]}}"
        )
    }

    fn error_of(text: &str) -> String {
        parse_trace(text).expect_err("must be rejected")
    }

    #[test]
    fn timestamps_past_u64_nanoseconds_are_errors() {
        let err = error_of(&event_with("\"ts\":100000000000000000.5,\"dur\":1.000"));
        assert!(err.contains("overflows"), "{err}");
        let err = error_of(&event_with("\"ts\":99999999999999999999999,\"dur\":1.000"));
        assert!(err.contains("overflows u64"), "{err}");
        // Each fits; their sum does not.
        let err = error_of(&event_with(
            "\"ts\":18000000000000000.000,\"dur\":1000000000000000.000",
        ));
        assert!(err.contains("ts + dur"), "{err}");
        let ok = parse_trace(&event_with("\"ts\":1.5,\"dur\":2")).expect("parses");
        assert_eq!((ok[0].start_ns, ok[0].end_ns), (1_500, 3_500));
    }

    #[test]
    fn fractional_or_out_of_range_ids_are_errors() {
        for (fields, what) in [
            ("\"ts\":1.000,\"pid\":1.5", "pid"),
            ("\"ts\":1.000,\"tid\":4294967296", "tid"),
            ("\"ts\":1.000,\"pid\":4294967296", "pid"),
        ] {
            let err = error_of(&event_with(fields));
            assert!(err.contains(what), "{fields}: {err}");
        }
        let frac_span = "{\"traceEvents\":[{\"name\":\"op\",\"ph\":\"X\",\"ts\":1.000,\
                         \"args\":{\"span\":2.5,\"parent\":0}}]}";
        assert!(error_of(frac_span).contains("span"));
        let frac_parent = "{\"traceEvents\":[{\"name\":\"op\",\"ph\":\"X\",\"ts\":1.000,\
                           \"args\":{\"span\":2,\"parent\":0.001}}]}";
        assert!(error_of(frac_parent).contains("parent"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let depth = 200_000;
        let deep = format!("{{\"other\":{}{}}}", "[".repeat(depth), "]".repeat(depth));
        assert!(error_of(&deep).contains("nested"));
        let deep_in_event = format!(
            "{{\"traceEvents\":[{{\"x\":{}}}]}}",
            "{\"a\":".repeat(depth)
        );
        assert!(error_of(&deep_in_event).contains("nested"));
        // The exporter's own nesting, and a little more, still parses.
        let shallow = format!(
            "{{\"other\":{}{},\"traceEvents\":[]}}",
            "[".repeat(60),
            "]".repeat(60)
        );
        assert_eq!(parse_trace(&shallow), Ok(Vec::new()));
    }

    /// A valid two-span export, the base the property splices into.
    fn export() -> String {
        use recssd_serving::SpanRec;
        let span = |id, parent, start_ns, end_ns| SpanRec {
            id,
            parent,
            name: "op",
            start_ns,
            end_ns,
            pid: 1,
            tid: 2,
            arg_key: "shard",
            arg_val: 3,
            label: "dram",
        };
        chrome_trace_json(&[span(1, 0, 1_000, 9_000), span(2, 1, 2_000, 3_500)])
    }

    /// JSON punctuation, digits and literal letters: drawn from here, a
    /// byte string nests, numbers and escapes far more often than raw.
    const JSONISH: &[u8] = b"{}[]\":,.0123456789-eEtfnu\\ ";

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes — alone, or spliced into a valid export — parse
        /// or come back as an error; the parser never panics.
        #[test]
        fn arbitrary_bytes_are_an_error_or_a_trace(
            draws in proptest::collection::vec((0u8..2, 0u16..256), 0..400),
            at in 0usize..4096,
        ) {
            let bytes: Vec<u8> = draws
                .iter()
                .map(|&(raw, b)| if raw == 1 { b as u8 } else { JSONISH[b as usize % JSONISH.len()] })
                .collect();
            let text = String::from_utf8_lossy(&bytes);
            let _ = parse_trace(&text);
            let mut spliced = export();
            spliced.insert_str(at % (spliced.len() + 1), &text);
            let _ = parse_trace(&spliced);
        }
    }
}
