//! `recssd-analyze`: offline critical-path, queueing and bottleneck
//! analysis over a saved Chrome-trace JSON.
//!
//! Reads a trace exported by `chrome_trace_json` (e.g. the benchmark's
//! `benchmark/results/<workload>.trace.json`, or `trace_a_request.json` from the
//! example), reconstructs the span records exactly — timestamps round-
//! trip through the exporter's microsecond decimals without loss — and
//! prints the same reports the live [`ServingRuntime`] analysis APIs
//! produce: span-invariant validation, per-path critical-path profiles
//! with the conservation check, per-resource utilization timelines with
//! Little's-law-consistent queue stats, and the ranked bottleneck /
//! headroom report. The last line is always `top_bottleneck: <name>`;
//! `tests/analyze_cli.rs` holds it equal to the live verdict.
//!
//! ```text
//! cargo run --release -p recssd-bench --bin recssd-analyze -- trace.json
//!     [--window-ns N] [--jsonl-out FILE]
//! ```
//!
//! The parser is hand-rolled for the exporter's format (the workspace
//! has no JSON dependency) but tolerates whitespace and key reordering;
//! unknown keys are skipped.
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
                    .unwrap_or_else(|_| die(&format!("bad --window-ns {v:?}")));
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

    println!("\n{}", bottleneck_report(&spans).render());
}

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
            p.skip_value()?;
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

    /// A non-negative decimal number, returned as nanoseconds when a
    /// fractional part is present (the exporter writes microseconds with
    /// exactly three decimals, so `ns = int * 1000 + frac`) and as the
    /// plain integer otherwise.
    fn number(&mut self) -> PResult<(u64, bool)> {
        self.ws();
        let start = self.i;
        let mut int: u64 = 0;
        while let Some(c) = self.b.get(self.i) {
            if c.is_ascii_digit() {
                int = int
                    .checked_mul(10)
                    .and_then(|v| v.checked_add((c - b'0') as u64))
                    .ok_or_else(|| "number overflow".to_string())?;
                self.i += 1;
            } else {
                break;
            }
        }
        if self.i == start {
            return Err(format!("expected a number at byte {}", self.i));
        }
        if self.b.get(self.i) != Some(&b'.') {
            return Ok((int, false));
        }
        self.i += 1;
        let mut frac: u64 = 0;
        let mut digits = 0u32;
        while let Some(c) = self.b.get(self.i) {
            if c.is_ascii_digit() {
                if digits < 3 {
                    frac = frac * 10 + (c - b'0') as u64;
                    digits += 1;
                }
                self.i += 1;
            } else {
                break;
            }
        }
        while digits < 3 {
            frac *= 10;
            digits += 1;
        }
        Ok((int * 1000 + frac, true))
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
                "ts" => rec.start_ns = self.number()?.0,
                "dur" => dur_ns = self.number()?.0,
                "pid" => rec.pid = self.number()?.0 as u32,
                "tid" => rec.tid = self.number()?.0 as u32,
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
                            "span" => rec.id = self.number()?.0,
                            "parent" => rec.parent = self.number()?.0,
                            "label" => {
                                let s = self.string()?;
                                rec.label = self.names.get(s);
                            }
                            _ => {
                                rec.arg_val = self.number()?.0;
                                rec.arg_key = self.names.get(k);
                            }
                        }
                        self.ws();
                        self.eat(b',');
                    }
                }
                _ => self.skip_value()?,
            }
            self.ws();
            self.eat(b',');
        }
        rec.end_ns = rec.start_ns + dur_ns;
        if rec.id == 0 {
            return Err("event missing args.span id".to_string());
        }
        Ok(rec)
    }

    /// Skips any JSON value (used for keys the analyzer doesn't need).
    fn skip_value(&mut self) -> PResult<()> {
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
                    self.skip_value()?;
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
                    self.skip_value()?;
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
}
