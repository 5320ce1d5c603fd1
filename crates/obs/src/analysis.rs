//! Critical-path extraction and automated bottleneck attribution.
//!
//! [`request_critical_paths`] walks every `request → sub → op → fw/flash`
//! span tree in a recorded trace and segments each request's end-to-end
//! latency into named [`Phase`]s (admission, shard queue wait, firmware
//! exec, flash read, PCIe transfer, DRAM-tier gather, retry backoff,
//! host merge). Each *instant* of the request's lifetime is attributed
//! to exactly one phase — the highest-priority resource active at that
//! instant — so per-request phase times always sum to at most the e2e
//! latency and a **conservation** ratio (attributed / e2e) measures how
//! much of the latency the decomposition explains. CI gates conservation
//! at ≥ 95 % on every serving path.
//!
//! [`CriticalPathReport`] aggregates the per-request profiles per
//! serving path (the `request` span label), including a p99 tail profile
//! ("p99 NDP requests spend 71 % in fw:exec"), and
//! [`bottleneck_report`] ranks the simulated servers — every device
//! shard's firmware core, each of its SLS engines and each of its flash
//! channels, plus the DRAM tier — by measured utilisation.
//!
//! One rule defines utilisation: a server's service integral ÷ (elapsed ×
//! its width). Every device server is a FIFO single server
//! (`recssd_sim::Server`, width 1) whose owner traces each service window
//! from the same start site that charges its busy counter, so the service
//! integral of a row here *is* that member's counter (`firmware_busy`,
//! `engine_busy(e)`, `channel_busy[c]`). The DRAM tier is a host worker
//! pool (`recssd_sim::Slots`) whose windows declare its width in a
//! `workers` argument. [`crate::timeline`] reads the same windows and
//! widths through the same span→server map.
//!
//! Everything here is a **pure observer**: the inputs are recorded
//! spans, the functions allocate only local state, and the same span
//! set always produces byte-identical reports.

use std::collections::HashMap;

use crate::trace::{track, SpanRec};

/// Number of named phases in the decomposition.
pub const PHASE_COUNT: usize = 10;

/// A named segment of a request's end-to-end latency. The discriminant
/// is the attribution priority: when several phases are active at the
/// same instant (e.g. the firmware core runs while the sub-batch also
/// sits in a queue), the instant is charged to the **highest** variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Time inside the request span covered by no sub-batch at all
    /// (admission bookkeeping before the split is enqueued).
    Admission = 0,
    /// Exponential-backoff time between a failed attempt and its
    /// re-dispatch (the part of the gap no resource accounts for).
    RetryBackoff = 1,
    /// Sub-batch queue wait: host-side shard queue (`sub:wait`) plus
    /// device-internal operator queueing (`op:queue`).
    ShardQueue = 2,
    /// Host software: operator planning / command-block construction
    /// (`base:plan`, `ndp:plan`).
    HostSw = 3,
    /// DRAM gather: host-DRAM SLS compute, on the placement tier or the
    /// DRAM serving path (`op:compute` labelled `dram`).
    TierGather = 4,
    /// Flash array read: sense, ECC retries and die/channel queueing
    /// (`flash:read` minus the transfer tail).
    FlashRead = 5,
    /// Data movement: flash channel transfer (`flash:xfer`) and NVMe
    /// command/result block movement (`ndp:write`, `ndp:read`).
    Transfer = 6,
    /// Per-channel SLS engine execution — translation (and optionally
    /// merge) service windows on the device's engine pool (`fw:engine`).
    EngineExec = 7,
    /// Firmware-core execution — the serial embedded core charged per
    /// NVMe command and per NDP translation (`fw:exec`, `ndp:gather`).
    FwExec = 8,
    /// Host-side result folding (`ndp:merge`, `base:io` residue,
    /// `op:compute` labelled `host`).
    Merge = 9,
}

impl Phase {
    /// All phases, lowest attribution priority first.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Admission,
        Phase::RetryBackoff,
        Phase::ShardQueue,
        Phase::HostSw,
        Phase::TierGather,
        Phase::FlashRead,
        Phase::Transfer,
        Phase::EngineExec,
        Phase::FwExec,
        Phase::Merge,
    ];

    /// Stable snake_case name (used in reports and the bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::RetryBackoff => "retry_backoff",
            Phase::ShardQueue => "shard_queue",
            Phase::HostSw => "host_sw",
            Phase::TierGather => "tier_gather",
            Phase::FlashRead => "flash_read",
            Phase::Transfer => "transfer",
            Phase::EngineExec => "engine_exec",
            Phase::FwExec => "fw_exec",
            Phase::Merge => "merge",
        }
    }

    /// Index into `phase_ns` arrays ([`Phase::ALL`] order).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One request's extracted critical path: its e2e latency split across
/// the [`Phase`]s, plus the residue the decomposition could not
/// attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestProfile {
    /// The `request` span id.
    pub request: u64,
    /// Serving path (the request span's label, e.g. `ndp`).
    pub path: String,
    /// Request arrival, ns of virtual time.
    pub start_ns: u64,
    /// End-to-end latency in ns.
    pub e2e_ns: u64,
    /// `true` when the request completed degraded (deadline expiry or
    /// retry-budget exhaustion); degraded requests are excluded from
    /// aggregate profiles and the conservation gate.
    pub degraded: bool,
    /// Nanoseconds attributed to each phase, indexed by
    /// [`Phase::ALL`] order.
    pub phase_ns: [u64; PHASE_COUNT],
    /// Nanoseconds of the e2e window no phase accounts for.
    pub unattributed_ns: u64,
}

impl RequestProfile {
    /// Fraction of the e2e latency the named phases account for
    /// (1.0 for a zero-length request).
    pub fn conservation(&self) -> f64 {
        if self.e2e_ns == 0 {
            return 1.0;
        }
        let attributed: u64 = self.phase_ns.iter().sum();
        attributed as f64 / self.e2e_ns as f64
    }

    /// Phases sorted by attributed time, largest first (ties broken by
    /// attribution priority so the order is total).
    pub fn segments(&self) -> Vec<(Phase, u64)> {
        let mut v: Vec<(Phase, u64)> = Phase::ALL
            .iter()
            .map(|&p| (p, self.phase_ns[p.index()]))
            .filter(|&(_, ns)| ns > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
        v
    }
}

/// Latency summary of a set of requests (computed exactly from the
/// sorted per-request e2e values, no histogram approximation).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatSummary {
    /// Number of requests.
    pub count: u64,
    /// Arithmetic mean e2e, ns.
    pub mean_ns: f64,
    /// Median e2e, ns.
    pub p50_ns: u64,
    /// 99th-percentile e2e, ns.
    pub p99_ns: u64,
    /// Largest e2e, ns.
    pub max_ns: u64,
}

fn lat_summary(sorted_e2e: &[u64]) -> LatSummary {
    if sorted_e2e.is_empty() {
        return LatSummary::default();
    }
    let n = sorted_e2e.len();
    let rank = |q: f64| sorted_e2e[(((n - 1) as f64) * q).round() as usize];
    LatSummary {
        count: n as u64,
        mean_ns: sorted_e2e.iter().sum::<u64>() as f64 / n as f64,
        p50_ns: rank(0.50),
        p99_ns: rank(0.99),
        max_ns: sorted_e2e[n - 1],
    }
}

/// Aggregate critical-path profile of one serving path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathProfile {
    /// Serving path name (`dram`, `baseline`, `ndp`, …).
    pub path: String,
    /// Non-degraded requests aggregated here.
    pub requests: u64,
    /// e2e latency summary over those requests.
    pub e2e: LatSummary,
    /// Total ns per phase, summed across requests ([`Phase::ALL`] order).
    pub phase_ns: [u64; PHASE_COUNT],
    /// Total unattributed ns across requests.
    pub unattributed_ns: u64,
    /// Sum of e2e latencies (the denominator of [`Self::conservation`]).
    pub total_e2e_ns: u64,
    /// Profile of the p99 tail: requests with e2e ≥ the path's p99.
    pub tail_requests: u64,
    /// Total ns per phase over the p99-tail requests.
    pub tail_phase_ns: [u64; PHASE_COUNT],
    /// Sum of e2e latencies over the p99-tail requests.
    pub tail_e2e_ns: u64,
}

impl PathProfile {
    /// Fraction of total e2e time the named phases account for.
    pub fn conservation(&self) -> f64 {
        if self.total_e2e_ns == 0 {
            return 1.0;
        }
        self.phase_ns.iter().sum::<u64>() as f64 / self.total_e2e_ns as f64
    }

    /// Share of total e2e time spent in `phase`.
    pub fn share(&self, phase: Phase) -> f64 {
        if self.total_e2e_ns == 0 {
            return 0.0;
        }
        self.phase_ns[phase.index()] as f64 / self.total_e2e_ns as f64
    }

    /// Share of p99-tail e2e time spent in `phase`.
    pub fn tail_share(&self, phase: Phase) -> f64 {
        if self.tail_e2e_ns == 0 {
            return 0.0;
        }
        self.tail_phase_ns[phase.index()] as f64 / self.tail_e2e_ns as f64
    }
}

/// Whole-trace critical-path report: per-path aggregate profiles plus
/// the conservation floor CI gates on.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathReport {
    /// One profile per serving path, sorted by path name.
    pub paths: Vec<PathProfile>,
    /// Total requests in the trace (degraded included).
    pub requests: u64,
    /// Degraded requests (excluded from the profiles).
    pub degraded: u64,
    /// Worst per-path conservation (1.0 when no paths).
    pub min_conservation: f64,
}

impl CriticalPathReport {
    /// Builds the report from per-request profiles.
    pub fn from_profiles(profiles: &[RequestProfile]) -> CriticalPathReport {
        let mut by_path: HashMap<&str, Vec<&RequestProfile>> = HashMap::new();
        let mut degraded = 0u64;
        for p in profiles {
            if p.degraded {
                degraded += 1;
                continue;
            }
            by_path.entry(p.path.as_str()).or_default().push(p);
        }
        let mut paths: Vec<PathProfile> = by_path
            .into_iter()
            .map(|(path, reqs)| {
                let mut e2e: Vec<u64> = reqs.iter().map(|r| r.e2e_ns).collect();
                e2e.sort_unstable();
                let lat = lat_summary(&e2e);
                let mut phase_ns = [0u64; PHASE_COUNT];
                let mut unattributed = 0u64;
                let mut total = 0u64;
                let mut tail_phase = [0u64; PHASE_COUNT];
                let mut tail_e2e = 0u64;
                let mut tail_n = 0u64;
                for r in &reqs {
                    for (acc, &ns) in phase_ns.iter_mut().zip(&r.phase_ns) {
                        *acc += ns;
                    }
                    unattributed += r.unattributed_ns;
                    total += r.e2e_ns;
                    if r.e2e_ns >= lat.p99_ns {
                        tail_n += 1;
                        tail_e2e += r.e2e_ns;
                        for (acc, &ns) in tail_phase.iter_mut().zip(&r.phase_ns) {
                            *acc += ns;
                        }
                    }
                }
                PathProfile {
                    path: path.to_string(),
                    requests: reqs.len() as u64,
                    e2e: lat,
                    phase_ns,
                    unattributed_ns: unattributed,
                    total_e2e_ns: total,
                    tail_requests: tail_n,
                    tail_phase_ns: tail_phase,
                    tail_e2e_ns: tail_e2e,
                }
            })
            .collect();
        paths.sort_by(|a, b| a.path.cmp(&b.path));
        let min_conservation = paths
            .iter()
            .map(|p| p.conservation())
            .fold(1.0f64, f64::min);
        CriticalPathReport {
            paths,
            requests: profiles.len() as u64,
            degraded,
            min_conservation,
        }
    }

    /// Deterministic plain-text rendering of the report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical-path report: {} requests ({} degraded), min conservation {:.1}%",
            self.requests,
            self.degraded,
            self.min_conservation * 100.0
        );
        for p in &self.paths {
            let _ = writeln!(
                out,
                "  path {:<9} {:>4} reqs  e2e mean {:>10.0} ns  p99 {:>8} ns  conservation {:.1}%",
                p.path,
                p.requests,
                p.e2e.mean_ns,
                p.e2e.p99_ns,
                p.conservation() * 100.0
            );
            for &ph in Phase::ALL.iter().rev() {
                let ns = p.phase_ns[ph.index()];
                if ns == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "    {:<14} {:>5.1}%  {:>12} ns  (p99 tail {:>5.1}%)",
                    ph.name(),
                    p.share(ph) * 100.0,
                    ns,
                    p.tail_share(ph) * 100.0
                );
            }
            if p.unattributed_ns > 0 {
                let _ = writeln!(
                    out,
                    "    {:<14} {:>5.1}%  {:>12} ns",
                    "unattributed",
                    (1.0 - p.conservation()) * 100.0,
                    p.unattributed_ns
                );
            }
        }
        out
    }
}

/// Total length of the union of half-open intervals (sorts in place).
pub(crate) fn union_len(ivs: &mut [(u64, u64)]) -> u64 {
    ivs.sort_unstable();
    let mut covered = 0u64;
    let mut cur = 0u64;
    for &(a, b) in ivs.iter() {
        let a = a.max(cur);
        if b > a {
            covered += b - a;
            cur = b;
        }
    }
    covered
}

/// A simulated server, as the trace names it: the span→server map that
/// [`bottleneck_report`] and [`crate::timeline::utilization_timelines`]
/// share. Device servers are members of device shard `pid − 1`; the
/// member index rides in the service span's `ch` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Server {
    /// The shard's serial firmware core (`fw:exec` windows).
    Core { shard: u32 },
    /// SLS engine `ch` of the shard's pool (`fw:engine` windows).
    Engine { shard: u32, ch: u64 },
    /// Flash channel `ch` of the shard (`flash:xfer` hold windows).
    Flash { shard: u32, ch: u64 },
    /// The host DRAM tier (the `op:compute` windows of operators on
    /// [`track::PID_TIER`], each `[started, finished]` on a host worker):
    /// a shared-queue worker pool as wide as its windows declare.
    Tier,
}

impl Server {
    /// The server `s` is a service window of, if any.
    pub(crate) fn of(s: &SpanRec) -> Option<Server> {
        let shard = s.pid.saturating_sub(1);
        Some(match s.name {
            "fw:exec" => Server::Core { shard },
            "fw:engine" => Server::Engine {
                shard,
                ch: s.arg_val,
            },
            "flash:xfer" => Server::Flash {
                shard,
                ch: s.arg_val,
            },
            // Not the tier's `op` span: that opens at submission, so it
            // would count the wait for a worker as service.
            "op:compute" if s.pid == track::PID_TIER => Server::Tier,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Server::Core { shard } => write!(f, "fw:core[shard={shard}]"),
            Server::Engine { shard, ch } => write!(f, "fw:engine[shard={shard},ch={ch}]"),
            Server::Flash { shard, ch } => write!(f, "flash[shard={shard},ch={ch}]"),
            Server::Tier => f.write_str("tier:dram"),
        }
    }
}

/// Every server's width and service windows. The width is what its
/// windows declare: the `workers` argument of a worker pool's
/// `op:compute` window, else one.
pub(crate) fn server_windows(spans: &[SpanRec]) -> HashMap<Server, (u32, Vec<(u64, u64)>)> {
    let mut servers: HashMap<Server, (u32, Vec<(u64, u64)>)> = HashMap::new();
    for s in spans {
        if let Some(server) = Server::of(s) {
            let declared = if s.arg_key == "workers" { s.arg_val } else { 1 };
            let (width, ivs) = servers.entry(server).or_default();
            *width = (*width).max(u32::try_from(declared).unwrap_or(u32::MAX));
            ivs.push((s.start_ns, s.end_ns));
        }
    }
    servers
}

/// Maps an op-phase span name (+ the label of its parent `op` span) to
/// its phase.
fn op_phase(name: &str, op_label: &str) -> Option<Phase> {
    Some(match name {
        "op:queue" => Phase::ShardQueue,
        "base:plan" | "ndp:plan" => Phase::HostSw,
        "ndp:write" | "ndp:read" => Phase::Transfer,
        "ndp:gather" => Phase::FwExec,
        "ndp:merge" => Phase::Merge,
        "base:io" => Phase::Merge,
        "op:compute" => {
            if op_label == "dram" {
                Phase::TierGather
            } else {
                Phase::Merge
            }
        }
        _ => return None,
    })
}

/// Extracts one [`RequestProfile`] per `request` span in the trace.
///
/// The walk uses only recorded spans, so it works identically on a
/// snapshot mid-run and on a [`crate::TraceSink`] drain, and it never
/// touches the simulation (pure observer).
pub fn request_critical_paths(spans: &[SpanRec]) -> Vec<RequestProfile> {
    // Indexes: children by parent id, device windows by (pid, phase),
    // ops by (pid, start) for matching a sub-batch's serving operator even
    // when micro-batching parented the op under a different request's sub.
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut windows: HashMap<(u32, Phase), Vec<(u64, u64)>> = HashMap::new();
    let mut ops_at: HashMap<(u32, u64), Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
        if s.name == "op" {
            ops_at.entry((s.pid, s.start_ns)).or_default().push(i);
        }
        let phase = match (Server::of(s), s.name) {
            (Some(Server::Core { .. }), _) => Phase::FwExec,
            (Some(Server::Engine { .. }), _) => Phase::EngineExec,
            (Some(Server::Flash { .. }), _) => Phase::Transfer,
            (_, "flash:read") => Phase::FlashRead,
            _ => continue,
        };
        let iv = (s.start_ns, s.end_ns);
        windows.entry((s.pid, phase)).or_default().push(iv);
    }
    for ivs in windows.values_mut() {
        ivs.sort_unstable();
    }

    let mut out = Vec::new();
    // Evidence intervals for the request currently being segmented.
    let mut evidence: Vec<(u64, u64, Phase)> = Vec::new();
    for req in spans.iter().filter(|s| s.name == "request") {
        let (rs, re) = (req.start_ns, req.end_ns);
        let degraded = req.arg_key == "degraded" && req.arg_val != 0;
        evidence.clear();

        let subs: Vec<&SpanRec> = children
            .get(&req.id)
            .map(|kids| {
                kids.iter()
                    .map(|&i| &spans[i])
                    .filter(|s| s.name == "sub")
                    .collect()
            })
            .unwrap_or_default();

        // Admission: request time before the first sub-batch exists.
        if let Some(first_sub) = subs.iter().map(|s| s.start_ns).min() {
            if first_sub > rs {
                evidence.push((rs, first_sub, Phase::Admission));
            }
        }

        for sub in &subs {
            // Queue-wait spans carry the shard's resource pid in their
            // `shard` argument; one wait per dispatch attempt.
            let mut waits: Vec<&SpanRec> = children
                .get(&sub.id)
                .map(|kids| {
                    kids.iter()
                        .map(|&i| &spans[i])
                        .filter(|s| s.name == "sub:wait")
                        .collect()
                })
                .unwrap_or_default();
            waits.sort_by_key(|w| (w.start_ns, w.end_ns, w.id));
            for w in &waits {
                evidence.push((w.start_ns, w.end_ns, Phase::ShardQueue));
            }
            for (j, w) in waits.iter().enumerate() {
                let pid = if w.arg_key == "shard" {
                    w.arg_val as u32
                } else {
                    continue;
                };
                // Attempt window: dispatch → next re-queue (or the sub's
                // completion, for the final attempt). Gaps the resources
                // below don't claim are retry backoff.
                let wend = waits
                    .get(j + 1)
                    .map(|n| n.start_ns)
                    .unwrap_or(sub.end_ns)
                    .max(w.end_ns);
                let (ws, we) = (w.end_ns, wend);
                if we <= ws {
                    continue;
                }
                if j + 1 < waits.len() {
                    evidence.push((ws, we, Phase::RetryBackoff));
                }
                // Device-resource overlap within the attempt window: the
                // firmware core and flash array are shared, so any busy
                // time there is what this sub-batch is blocked on,
                // whether it is being served or queued behind others.
                for ph in [
                    Phase::FwExec,
                    Phase::EngineExec,
                    Phase::Transfer,
                    Phase::FlashRead,
                ] {
                    if let Some(ivs) = windows.get(&(pid, ph)) {
                        clip_into(ivs, ws, we, ph, &mut evidence);
                    }
                }
                // The serving operator's own host-side phase spans
                // (matched by dispatch instant even across micro-batch
                // merges, where the op parents under a different sub).
                if let Some(opix) = ops_at.get(&(pid, ws)) {
                    for &oi in opix {
                        let op = &spans[oi];
                        if op.end_ns > we {
                            continue;
                        }
                        if let Some(kids) = children.get(&op.id) {
                            for &ki in kids {
                                let k = &spans[ki];
                                // Phase spans carry no label; the op's
                                // label says which path it served.
                                if let Some(ph) = op_phase(k.name, op.label) {
                                    let (a, b) = (k.start_ns.max(ws), k.end_ns.min(we));
                                    if b > a {
                                        evidence.push((a, b, ph));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        out.push(segment(req, rs, re, degraded, &evidence));
    }
    out
}

/// Clips sorted intervals to `[ws, we)` and appends them as evidence.
fn clip_into(
    ivs: &[(u64, u64)],
    ws: u64,
    we: u64,
    phase: Phase,
    evidence: &mut Vec<(u64, u64, Phase)>,
) {
    // First interval that can overlap: intervals are sorted by start,
    // so stop once starts pass the window end.
    let from = ivs.partition_point(|&(_, e)| e <= ws);
    for &(a, b) in &ivs[from..] {
        if a >= we {
            break;
        }
        let (a, b) = (a.max(ws), b.min(we));
        if b > a {
            evidence.push((a, b, phase));
        }
    }
}

/// Sweeps the evidence intervals over `[rs, re)`, charging each
/// elementary segment to the highest-priority active phase.
fn segment(
    req: &SpanRec,
    rs: u64,
    re: u64,
    degraded: bool,
    evidence: &[(u64, u64, Phase)],
) -> RequestProfile {
    // Boundary events: +1/-1 per phase, clipped to the request window.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(evidence.len() * 2);
    for &(a, b, ph) in evidence {
        let (a, b) = (a.max(rs), b.min(re));
        if b > a {
            events.push((a, false, ph.index()));
            events.push((b, true, ph.index()));
        }
    }
    events.sort_unstable();
    let mut active = [0i64; PHASE_COUNT];
    let mut phase_ns = [0u64; PHASE_COUNT];
    let mut unattributed = 0u64;
    let mut cur = rs;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        if t > cur {
            match (0..PHASE_COUNT).rev().find(|&p| active[p] > 0) {
                Some(p) => phase_ns[p] += t - cur,
                None => unattributed += t - cur,
            }
            cur = t;
        }
        while i < events.len() && events[i].0 == t {
            let (_, end, p) = events[i];
            active[p] += if end { -1 } else { 1 };
            i += 1;
        }
    }
    if re > cur {
        unattributed += re - cur;
    }
    RequestProfile {
        request: req.id,
        path: req.label.to_string(),
        start_ns: rs,
        e2e_ns: re - rs,
        degraded,
        phase_ns,
        unattributed_ns: unattributed,
    }
}

/// Builds the aggregate [`CriticalPathReport`] straight from a trace.
pub fn critical_path_report(spans: &[SpanRec]) -> CriticalPathReport {
    CriticalPathReport::from_profiles(&request_critical_paths(spans))
}

/// Utilisation of one simulated server over the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUse {
    /// Server name: `fw:core[shard=S]`, `fw:engine[shard=S,ch=E]`,
    /// `flash[shard=S,ch=C]` or `tier:dram`.
    pub resource: String,
    /// Service integral: Σ the server's service-window lengths, ns. For
    /// a device member this equals its busy counter at idle.
    pub service_ns: u64,
    /// Servers behind the name: 1 for every device member; for the DRAM
    /// tier, the width of the host worker pool its windows declare.
    pub capacity: u32,
    /// Trace wall span the utilisation is measured over, ns.
    pub elapsed_ns: u64,
}

impl ResourceUse {
    /// Utilisation: service integral ÷ (elapsed × capacity).
    pub fn utilization(&self) -> f64 {
        if self.elapsed_ns == 0 || self.capacity == 0 {
            return 0.0;
        }
        self.service_ns as f64 / (self.elapsed_ns as f64 * self.capacity as f64)
    }
}

/// Server utilisation ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    /// Trace wall span (first span start → last span end), ns.
    pub elapsed_ns: u64,
    /// One row per server, most utilised first.
    pub ranked: Vec<ResourceUse>,
}

impl BottleneckReport {
    /// Name of the most utilised server, if any.
    pub fn top(&self) -> Option<&str> {
        self.ranked.first().map(|r| r.resource.as_str())
    }

    /// Deterministic plain-text rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bottleneck ranking over {} ns of simulated time:",
            self.elapsed_ns
        );
        for r in &self.ranked {
            let _ = writeln!(
                out,
                "  {:<26} {:>6.1}% utilized  (capacity {}, service {} ns)",
                r.resource,
                r.utilization() * 100.0,
                r.capacity,
                r.service_ns
            );
        }
        if let Some(top) = self.top() {
            let _ = writeln!(out, "top_bottleneck: {top}");
        }
        out
    }
}

/// The elapsed window every utilisation is measured over: first span
/// start → last span end (`(0, 0)` for an empty trace). A trace enabled
/// mid-run starts late, so the window is not `[0, last end)`.
pub(crate) fn trace_window(spans: &[SpanRec]) -> (u64, u64) {
    let start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    (start, end.max(start))
}

/// Ranks the simulated servers by utilisation. Servers are discovered
/// from their service windows — `fw:exec`, `fw:engine` and `flash:xfer`
/// spans named by pid and `ch` — one row per device member (firmware
/// core, SLS engine, flash channel) and one for the DRAM tier's
/// `op:compute` windows. Utilisation is the service integral ÷ (elapsed
/// × the declared width, 1 for a device member); queueing never counts
/// (see [`utilization_timelines`] for the queueing view).
///
/// [`utilization_timelines`]: crate::timeline::utilization_timelines
pub fn bottleneck_report(spans: &[SpanRec]) -> BottleneckReport {
    let (start, end) = trace_window(spans);
    let elapsed = end - start;
    let mut ranked: Vec<ResourceUse> = server_windows(spans)
        .into_iter()
        .map(|(server, (capacity, ivs))| ResourceUse {
            resource: server.to_string(),
            service_ns: ivs.iter().map(|&(a, b)| b - a).sum(),
            capacity,
            elapsed_ns: elapsed,
        })
        .collect();
    // Most utilised first: cross-multiplied integer compare of
    // service/capacity so the order never depends on float rounding;
    // the name breaks exact ties.
    ranked.sort_by(|a, b| {
        let ua = a.service_ns as u128 * b.capacity as u128;
        let ub = b.service_ns as u128 * a.capacity as u128;
        ub.cmp(&ua).then_with(|| a.resource.cmp(&b.resource))
    });
    BottleneckReport {
        elapsed_ns: elapsed,
        ranked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{track, SpanId, TraceSink, Tracer};
    use recssd_sim::{SimDuration, SimTime};

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    /// A `path` request over `[0, end)` whose one sub-batch waited for
    /// shard pid 1 over `[0, wait)`; returns the sub-batch's id.
    fn request(host: &Tracer, path: &'static str, end: u64, wait: u64, degraded: u64) -> SpanId {
        let (req, sub) = (host.alloc_id(), host.alloc_id());
        host.span_arg("sub:wait", t(0), t(wait), sub, "shard", 1);
        host.emit(sub, "sub", t(0), t(end), req, "lookups", 4, path);
        host.emit(
            req,
            "request",
            t(0),
            t(end),
            SpanId::NONE,
            "degraded",
            degraded,
            path,
        );
        sub
    }

    /// The sink's spans in the runtime's canonical order.
    fn sorted(sink: &TraceSink) -> Vec<SpanRec> {
        let mut spans = sink.take_spans();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns, s.id));
        spans
    }

    /// One NDP request on shard pid 1: queue 0–20, fw 20–60, flash
    /// 30–50 (xfer 45–50), merge 60–70.
    fn synthetic() -> Vec<SpanRec> {
        let sink = TraceSink::new();
        let host = sink.tracer(0, track::TID_HOST);
        let dev = sink.tracer(1, track::TID_DEVICE);
        let fw = sink.tracer(1, track::TID_FW);
        let flash = sink.tracer(1, track::TID_FLASH);

        let sub = request(&host, "ndp", 70, 20, 0);
        let op = dev.alloc_id();
        dev.span("op:queue", t(20), t(22), op);
        fw.span("fw:exec", t(22), t(60), SpanId::NONE);
        let rd = flash.span("flash:read", t(30), t(50), SpanId::NONE);
        flash.span("flash:xfer", t(45), t(50), rd);
        dev.span("ndp:merge", t(60), t(70), op);
        dev.emit(op, "op", t(20), t(70), sub, "failed", 0, "ndp");
        sorted(&sink)
    }

    #[test]
    fn phases_partition_the_request_and_conserve_e2e() {
        let profiles = request_critical_paths(&synthetic());
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.e2e_ns, 70);
        assert_eq!(p.path, "ndp");
        assert!(!p.degraded);
        // queue 0–20, op:queue 20–22, fw 22–60 (flash overlap loses to
        // fw priority), merge 60–70.
        assert_eq!(p.phase_ns[Phase::ShardQueue.index()], 22);
        assert_eq!(p.phase_ns[Phase::FwExec.index()], 38);
        assert_eq!(p.phase_ns[Phase::Merge.index()], 10);
        assert_eq!(p.unattributed_ns, 0);
        assert!((p.conservation() - 1.0).abs() < 1e-12);
        let total: u64 = p.phase_ns.iter().sum();
        assert_eq!(total + p.unattributed_ns, p.e2e_ns);
    }

    /// A DRAM op's `op:compute` child carries no label, as `System` emits
    /// it; the parent op's `dram` label makes its time a tier gather.
    #[test]
    fn unlabelled_compute_under_a_dram_op_is_tier_gather() {
        let sink = TraceSink::new();
        let host = sink.tracer(0, track::TID_HOST);
        let dev = sink.tracer(1, track::TID_DEVICE);
        let sub = request(&host, "dram", 30, 10, 0);
        let op = dev.alloc_id();
        dev.span("op:compute", t(10), t(30), op);
        dev.emit(op, "op", t(10), t(30), sub, "failed", 0, "dram");
        let profiles = request_critical_paths(&sorted(&sink));
        let p = &profiles[0];
        assert_eq!(p.phase_ns[Phase::TierGather.index()], 20);
        assert_eq!(p.phase_ns[Phase::Merge.index()], 0);
    }

    #[test]
    fn aggregate_report_ranks_fw_as_top_phase() {
        let report = critical_path_report(&synthetic());
        assert_eq!(report.requests, 1);
        assert_eq!(report.degraded, 0);
        assert_eq!(report.paths.len(), 1);
        let p = &report.paths[0];
        let fw = p.phase_ns[Phase::FwExec.index()];
        assert!(p.phase_ns.iter().all(|&ns| ns <= fw));
        assert!(report.min_conservation >= 0.95);
        assert!(report.render().contains("fw_exec"));
    }

    #[test]
    fn bottleneck_ranking_puts_the_fw_core_first() {
        let report = bottleneck_report(&synthetic());
        assert_eq!(report.top(), Some("fw:core[shard=0]"));
        assert_eq!(report.ranked[0].service_ns, 38);
        // The channel hold ranks as its own member, named by `ch`.
        assert_eq!(report.ranked[1].resource, "flash[shard=0,ch=0]");
        assert_eq!(report.ranked[1].service_ns, 5);
        assert!(report.render().contains("top_bottleneck: fw:core[shard=0]"));
    }

    #[test]
    fn reports_are_deterministic() {
        let a = critical_path_report(&synthetic()).render();
        let b = critical_path_report(&synthetic()).render();
        assert_eq!(a, b);
        assert_eq!(
            bottleneck_report(&synthetic()).render(),
            bottleneck_report(&synthetic()).render()
        );
    }

    #[test]
    fn retry_gaps_become_backoff_and_degrade_flag_propagates() {
        let sink = TraceSink::new();
        let host = sink.tracer(0, track::TID_HOST);
        // Two dispatch attempts with an uncovered gap between them.
        let sub = request(&host, "baseline", 80, 10, 1);
        host.span_arg("sub:wait", t(40), t(45), sub, "shard", 1);
        let profiles = request_critical_paths(&sorted(&sink));
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert!(p.degraded);
        // Gap 10–40 between attempts is retry backoff (no resource
        // evidence to claim it).
        assert_eq!(p.phase_ns[Phase::RetryBackoff.index()], 30);
        assert_eq!(p.phase_ns[Phase::ShardQueue.index()], 15);
        // Degraded requests are excluded from path aggregates.
        let report = CriticalPathReport::from_profiles(&profiles);
        assert_eq!(report.degraded, 1);
        assert!(report.paths.is_empty());
    }

    /// Two overlapping engine spans are two servers, one row each, named
    /// by the member index their `ch` argument carries; a tie in service
    /// is broken by name.
    #[test]
    fn engine_members_rank_as_separate_servers() {
        let sink = TraceSink::new();
        let host = sink.tracer(0, track::TID_HOST);
        let e0 = sink.tracer(1, track::TID_ENGINE_BASE);
        let e1 = sink.tracer(1, track::TID_ENGINE_BASE + 1);
        request(&host, "ndp", 60, 10, 0);
        e0.span_arg("fw:engine", t(10), t(50), SpanId::NONE, "ch", 0);
        e1.span_arg("fw:engine", t(10), t(50), SpanId::NONE, "ch", 1);
        let spans = sorted(&sink);

        let profiles = request_critical_paths(&spans);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].phase_ns[Phase::EngineExec.index()], 40);

        let report = bottleneck_report(&spans);
        let names: Vec<_> = report.ranked.iter().map(|r| r.resource.as_str()).collect();
        assert_eq!(
            names,
            ["fw:engine[shard=0,ch=0]", "fw:engine[shard=0,ch=1]"]
        );
        for r in &report.ranked {
            assert_eq!((r.service_ns, r.capacity), (40, 1));
        }
    }

    /// The DRAM tier's width is the worker count its `op:compute`
    /// windows declare, not how many of them overlap: three windows, at
    /// most two at once, on a four-worker pool are a four-wide server at
    /// 3/8 utilisation. Service is the operators' `op:compute` windows:
    /// an `op`'s wait for a worker is not service.
    #[test]
    fn tier_width_is_its_declared_workers() {
        let sink = TraceSink::new();
        let tier = sink.tracer(track::PID_TIER, track::TID_DEVICE);
        for (a, b) in [(0, 10), (0, 10), (10, 20)] {
            tier.span_arg("op:compute", t(a), t(b), SpanId::NONE, "workers", 4);
        }
        tier.span("op", t(0), t(20), SpanId::NONE);
        let report = bottleneck_report(&sink.take_spans());
        let r = &report.ranked[0];
        assert_eq!(r.resource, "tier:dram");
        assert_eq!((r.service_ns, r.capacity), (30, 4));
        assert!((r.utilization() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn union_len_merges_overlaps() {
        let mut ivs = vec![(0u64, 60u64), (40, 100), (10, 50)];
        assert_eq!(union_len(&mut ivs), 100);
        let mut gap = vec![(0u64, 40u64), (60, 100)];
        assert_eq!(union_len(&mut gap), 80);
    }
}
