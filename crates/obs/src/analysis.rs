//! Critical-path extraction and automated bottleneck attribution.
//!
//! [`request_critical_paths`] splits each request's end-to-end latency
//! into named [`Phase`]s from the request's **own** windows only. Those
//! are the host service spans of the operators that served its
//! sub-batches (matched through each `sub:wait`'s `cause`, the operator
//! that ended the wait) plus the device windows those operators caused
//! (`fw:exec`, `fw:engine`, `flash:read`, `flash:xfer`, each carrying its
//! operator's span id in `cause`). A window another request's operator
//! caused is never read, however busy it keeps the shard.
//!
//! The partition rule: an instant at which k ≥ 1 own windows are open
//! gives 1/k of the instant to each window's phase; a host read's
//! `flash:read` yields to its own open `flash:xfer`. An instant at which
//! none is open is wait: `admission` before the first sub-batch,
//! `retry_backoff` between a failed attempt's operator end and its
//! re-queue, `shard_queue` otherwise. No phase outranks another, and a
//! request's phase times sum exactly to its e2e latency, so the
//! **conservation** ratio (attributed / e2e) is 1 by construction.
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

/// A named segment of a request's end-to-end latency. The first three
/// are wait (no own window open); the others are the phases of service
/// windows, which share an instant equally (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Wait before the request's first sub-batch exists (admission
    /// bookkeeping before the split is enqueued).
    Admission = 0,
    /// Wait between a failed attempt's operator end and the sub-batch's
    /// re-queue (the retry's exponential backoff).
    RetryBackoff = 1,
    /// Every other wait: the host-side shard queue (`sub:wait`), the
    /// operator's wait for a host worker (`op:queue`) and device-side
    /// queueing behind other requests' work.
    ShardQueue = 2,
    /// Host software: operator planning / command-block construction
    /// (`base:plan`, `ndp:plan`).
    HostSw = 3,
    /// Host-DRAM gather: DRAM SLS compute on the placement tier or the
    /// DRAM serving path (`op:compute` labelled `dram`) and an NDP
    /// operator's gather of static-partition hot rows (`ndp:gather`).
    TierGather = 4,
    /// Flash array read: sense, ECC retries and die/channel queueing
    /// (`flash:read` minus its own channel transfer).
    FlashRead = 5,
    /// Flash channel transfer (`flash:xfer`).
    Transfer = 6,
    /// Per-channel SLS engine execution — translation (and optionally
    /// merge) service windows on the device's engine pool (`fw:engine`).
    EngineExec = 7,
    /// Firmware-core execution — the serial embedded core charged per
    /// NVMe command and per NDP translation (`fw:exec`).
    FwExec = 8,
    /// Host-side result folding (`ndp:merge`, `base:accum`, `op:compute`
    /// labelled `host`).
    Merge = 9,
}

impl Phase {
    /// All phases, in discriminant order.
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
/// the [`Phase`]s.
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
    /// [`Phase::ALL`] order; they sum to `e2e_ns`.
    pub phase_ns: [u64; PHASE_COUNT],
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

    /// Phases sorted by attributed time, largest first (equal times in
    /// reverse [`Phase::ALL`] order, so the order is total).
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
/// the conservation floor (1 by construction; CI checks it stays so).
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
                let mut total = 0u64;
                let mut tail_phase = [0u64; PHASE_COUNT];
                let mut tail_e2e = 0u64;
                let mut tail_n = 0u64;
                for r in &reqs {
                    for (acc, &ns) in phase_ns.iter_mut().zip(&r.phase_ns) {
                        *acc += ns;
                    }
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

/// The phase of an operator's service window: one of its host service
/// spans (for `op:compute`, the path its `op` span is labelled with) or a
/// device window it caused. Containers (`sub:wait`, `op:queue`,
/// `base:io`, `ndp:write`, `ndp:read`) have none: they only hold wait.
fn phase_of(name: &str, op_label: &str) -> Option<Phase> {
    Some(match name {
        "base:plan" | "ndp:plan" => Phase::HostSw,
        "ndp:gather" => Phase::TierGather,
        "op:compute" if op_label == "dram" => Phase::TierGather,
        "ndp:merge" | "base:accum" | "op:compute" => Phase::Merge,
        "flash:read" => Phase::FlashRead,
        "flash:xfer" => Phase::Transfer,
        "fw:engine" => Phase::EngineExec,
        "fw:exec" => Phase::FwExec,
        _ => return None,
    })
}

/// Extracts one [`RequestProfile`] per `request` span in the trace, by
/// the partition rule of the module docs.
///
/// The walk uses only recorded spans, so it works identically on a
/// snapshot mid-run and on a [`crate::TraceSink`] drain, and it never
/// touches the simulation (pure observer).
pub fn request_critical_paths(spans: &[SpanRec]) -> Vec<RequestProfile> {
    // Spans by parent and by cause, and `op` spans by id.
    let mut children: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
    let mut caused: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
    let mut ops: HashMap<u64, &SpanRec> = HashMap::new();
    for s in spans {
        for (key, index) in [(s.parent, &mut children), (s.cause, &mut caused)] {
            if key != 0 {
                index.entry(key).or_default().push(s);
            }
        }
        if s.name == "op" {
            ops.insert(s.id, s);
        }
    }
    let named = |id: u64, name: &'static str| {
        let kids = children.get(&id).map_or(&[][..], Vec::as_slice);
        kids.iter().copied().filter(move |s| s.name == name)
    };

    let mut out = Vec::new();
    // The request's own windows (and wait marks), and its operators.
    let mut windows: Vec<(u64, u64, Phase)> = Vec::new();
    let mut served_by: Vec<u64> = Vec::new();
    for req in spans.iter().filter(|s| s.name == "request") {
        windows.clear();
        served_by.clear();
        let first_sub = named(req.id, "sub").map(|s| s.start_ns).min();
        windows.push((
            req.start_ns,
            first_sub.unwrap_or(req.end_ns),
            Phase::Admission,
        ));
        for sub in named(req.id, "sub") {
            let mut waits: Vec<&SpanRec> = named(sub.id, "sub:wait").collect();
            waits.sort_by_key(|w| (w.start_ns, w.end_ns, w.id));
            for (w, next) in waits.iter().zip(waits.iter().skip(1)) {
                // This attempt failed: its operator's end → the re-queue.
                let end = ops.get(&w.cause).map_or(w.end_ns, |op| op.end_ns);
                windows.push((end, next.start_ns, Phase::RetryBackoff));
            }
            served_by.extend(waits.iter().map(|w| w.cause).filter(|&c| c != 0));
        }
        served_by.sort_unstable();
        served_by.dedup();
        for op in served_by.iter().filter_map(|c| ops.get(c)) {
            let own = children.get(&op.id).into_iter().chain(caused.get(&op.id));
            for w in own.flatten() {
                let Some(phase) = phase_of(w.name, op.label) else {
                    continue;
                };
                let (a, b) = (w.start_ns, w.end_ns);
                match named(w.id, "flash:xfer").next() {
                    // A host read's own channel transfer is transfer time.
                    Some(x) if phase == Phase::FlashRead => {
                        windows.push((a, x.start_ns, phase));
                        windows.push((x.end_ns, b, phase));
                    }
                    _ => windows.push((a, b, phase)),
                }
            }
        }
        out.push(segment(req, &windows));
    }
    out
}

/// Sweeps `windows` over the request span: each elementary segment goes
/// to the open service windows' phases in equal shares, or, with none
/// open, to the wait it lies in.
fn segment(req: &SpanRec, windows: &[(u64, u64, Phase)]) -> RequestProfile {
    let (rs, re) = (req.start_ns, req.end_ns);
    // Boundary events, clipped to the request span: (instant, closes, phase).
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(windows.len() * 2);
    for &(a, b, ph) in windows {
        let (a, b) = (a.max(rs), b.min(re));
        if b > a {
            events.push((a, false, ph.index()));
            events.push((b, true, ph.index()));
        }
    }
    events.sort_unstable();
    let mut open = [0u64; PHASE_COUNT];
    let mut phase_ns = [0u64; PHASE_COUNT];
    let mut cur = rs;
    for i in 0..=events.len() {
        let t = events.get(i).map_or(re, |e| e.0);
        if t > cur {
            share(&open, t - cur, &mut phase_ns);
            cur = t;
        }
        if let Some(&(_, closes, p)) = events.get(i) {
            open[p] = if closes { open[p] - 1 } else { open[p] + 1 };
        }
    }
    RequestProfile {
        request: req.id,
        path: req.label.to_string(),
        start_ns: rs,
        e2e_ns: re - rs,
        degraded: req.arg_key == "degraded" && req.arg_val != 0,
        phase_ns,
    }
}

/// Charges `len` ns to the open service windows in equal shares (exactly:
/// each phase gets its windows' cumulative floor share, so the shares sum
/// to `len`), or, with none open, to the wait whose mark is open.
fn share(open: &[u64; PHASE_COUNT], len: u64, phase_ns: &mut [u64; PHASE_COUNT]) {
    const SERVICE: usize = Phase::HostSw as usize;
    let k: u64 = open[SERVICE..].iter().sum();
    if k == 0 {
        let wait = [Phase::Admission, Phase::RetryBackoff]
            .into_iter()
            .find(|p| open[p.index()] > 0)
            .unwrap_or(Phase::ShardQueue);
        phase_ns[wait.index()] += len;
        return;
    }
    let (mut seen, mut given) = (0u64, 0u64);
    for p in SERVICE..PHASE_COUNT {
        seen += open[p];
        let upto = (u128::from(len) * u128::from(seen) / u128::from(k)) as u64;
        phase_ns[p] += upto - given;
        given = upto;
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
    /// shard pid 1 over `[0, wait)`, the wait ended by the operator whose
    /// id this returns (after the sub-batch's).
    fn request(
        host: &Tracer,
        path: &'static str,
        end: u64,
        wait: u64,
        degraded: u64,
    ) -> (SpanId, SpanId) {
        let (req, sub, op) = (host.alloc_id(), host.alloc_id(), host.alloc_id());
        host.window("sub:wait", t(0), t(wait), sub, op.0, "shard", 1);
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
        (sub, op)
    }

    /// The sink's spans in the runtime's canonical order.
    fn sorted(sink: &TraceSink) -> Vec<SpanRec> {
        let mut spans = sink.take_spans();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns, s.id));
        spans
    }

    /// One NDP request on shard pid 1: queue 0–20, op:queue 20–22, its
    /// fw 22–60, its flash read 30–50 (xfer 45–50), merge 60–70.
    fn synthetic() -> Vec<SpanRec> {
        let sink = TraceSink::new();
        let host = sink.tracer(0, track::TID_HOST);
        let dev = sink.tracer(1, track::TID_DEVICE);
        let fw = sink.tracer(1, track::TID_FW);
        let flash = sink.tracer(1, track::TID_FLASH);

        let (sub, op) = request(&host, "ndp", 70, 20, 0);
        dev.span("op:queue", t(20), t(22), op);
        fw.window("fw:exec", t(22), t(60), SpanId::NONE, op.0, "tag", 0);
        let rd = flash.window("flash:read", t(30), t(50), SpanId::NONE, op.0, "", 0);
        flash.window("flash:xfer", t(45), t(50), rd, op.0, "ch", 0);
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
        // Wait 0–22 (both containers); fw alone 22–30 and 50–60; fw and
        // the read share 30–45 (7 + 8: each phase takes its cumulative
        // floor share), fw and the xfer share 45–50 (3 + 2); merge 60–70.
        let mut want = [0; PHASE_COUNT];
        want[Phase::ShardQueue.index()] = 22;
        want[Phase::FwExec.index()] = 8 + 8 + 3 + 10;
        want[Phase::FlashRead.index()] = 7;
        want[Phase::Transfer.index()] = 2;
        want[Phase::Merge.index()] = 10;
        assert_eq!(p.phase_ns, want);
        assert_eq!(p.conservation(), 1.0);
    }

    /// A DRAM op's `op:compute` child carries no label, as `System` emits
    /// it; the parent op's `dram` label makes its time a tier gather.
    #[test]
    fn unlabelled_compute_under_a_dram_op_is_tier_gather() {
        let sink = TraceSink::new();
        let host = sink.tracer(0, track::TID_HOST);
        let dev = sink.tracer(1, track::TID_DEVICE);
        let (sub, op) = request(&host, "dram", 30, 10, 0);
        dev.span("op:compute", t(10), t(30), op);
        dev.emit(op, "op", t(10), t(30), sub, "failed", 0, "dram");
        let profiles = request_critical_paths(&sorted(&sink));
        let p = &profiles[0];
        assert_eq!(p.phase_ns[Phase::TierGather.index()], 20);
        assert_eq!(p.phase_ns[Phase::Merge.index()], 0);
    }

    /// An NDP operator's gather of static-partition hot rows is the host
    /// worker's DRAM work, not the device firmware's.
    #[test]
    fn ndp_hot_row_gather_is_tier_gather() {
        let sink = TraceSink::new();
        let host = sink.tracer(0, track::TID_HOST);
        let dev = sink.tracer(1, track::TID_DEVICE);
        let (sub, op) = request(&host, "ndp", 40, 10, 0);
        dev.span("ndp:plan", t(10), t(15), op);
        dev.span("ndp:gather", t(15), t(40), op);
        dev.emit(op, "op", t(10), t(40), sub, "failed", 0, "ndp");
        let p = &request_critical_paths(&sorted(&sink))[0];
        assert_eq!(p.phase_ns[Phase::TierGather.index()], 25);
        assert_eq!(p.phase_ns[Phase::FwExec.index()], 0);
    }

    /// Rule: two of the request's own windows open at once split the
    /// instant equally, whichever their phases.
    #[test]
    fn overlapping_own_windows_split_equally() {
        let sink = TraceSink::new();
        let host = sink.tracer(0, track::TID_HOST);
        let dev = sink.tracer(1, track::TID_DEVICE);
        let fw = sink.tracer(1, track::TID_FW);
        let engine = sink.tracer(1, track::TID_ENGINE_BASE);
        let (sub, op) = request(&host, "ndp", 50, 10, 0);
        fw.window("fw:exec", t(10), t(50), SpanId::NONE, op.0, "tag", 0);
        engine.window("fw:engine", t(30), t(50), SpanId::NONE, op.0, "ch", 0);
        dev.emit(op, "op", t(10), t(50), sub, "failed", 0, "ndp");
        let p = &request_critical_paths(&sorted(&sink))[0];
        assert_eq!(p.phase_ns[Phase::FwExec.index()], 20 + 10);
        assert_eq!(p.phase_ns[Phase::EngineExec.index()], 10);
        assert_eq!(p.phase_ns[Phase::ShardQueue.index()], 10);
    }

    /// Rule: a window another request's operator caused charges nothing,
    /// though it keeps the same shard's firmware core busy; the instant
    /// is this request's wait.
    #[test]
    fn another_requests_window_on_the_shard_charges_nothing() {
        let sink = TraceSink::new();
        let host = sink.tracer(0, track::TID_HOST);
        let dev = sink.tracer(1, track::TID_DEVICE);
        let fw = sink.tracer(1, track::TID_FW);
        let (sub, op) = request(&host, "baseline", 40, 10, 0);
        let other = host.alloc_id();
        fw.window("fw:exec", t(10), t(30), SpanId::NONE, other.0, "tag", 0);
        fw.window("fw:exec", t(30), t(40), SpanId::NONE, op.0, "tag", 1);
        dev.emit(op, "op", t(10), t(40), sub, "failed", 0, "baseline");
        let p = &request_critical_paths(&sorted(&sink))[0];
        assert_eq!(p.phase_ns[Phase::FwExec.index()], 10);
        assert_eq!(p.phase_ns[Phase::ShardQueue.index()], 30);
    }

    /// Rule: a host read's `flash:read` yields to its own open
    /// `flash:xfer`, which is transfer time.
    #[test]
    fn flash_read_yields_to_its_own_transfer() {
        let sink = TraceSink::new();
        let host = sink.tracer(0, track::TID_HOST);
        let dev = sink.tracer(1, track::TID_DEVICE);
        let flash = sink.tracer(1, track::TID_FLASH);
        let (sub, op) = request(&host, "baseline", 50, 10, 0);
        let rd = flash.window("flash:read", t(10), t(50), SpanId::NONE, op.0, "", 0);
        flash.window("flash:xfer", t(40), t(50), rd, op.0, "ch", 2);
        dev.emit(op, "op", t(10), t(50), sub, "failed", 0, "baseline");
        let p = &request_critical_paths(&sorted(&sink))[0];
        assert_eq!(p.phase_ns[Phase::FlashRead.index()], 30);
        assert_eq!(p.phase_ns[Phase::Transfer.index()], 10);
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
        assert_eq!(report.min_conservation, 1.0);
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
        let dev = sink.tracer(1, track::TID_DEVICE);
        // Two dispatch attempts: the first operator fails at 15, the
        // sub-batch is re-queued at 40 and its second wait ends at 45.
        let (sub, op) = request(&host, "baseline", 80, 10, 1);
        dev.emit(op, "op", t(10), t(15), sub, "failed", 1, "baseline");
        host.span_arg("sub:wait", t(40), t(45), sub, "shard", 1);
        let profiles = request_critical_paths(&sorted(&sink));
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert!(p.degraded);
        // The failed operator's end → the re-queue is retry backoff.
        assert_eq!(p.phase_ns[Phase::RetryBackoff.index()], 25);
        assert_eq!(p.phase_ns[Phase::ShardQueue.index()], 10 + 5 + 5 + 35);
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
        let dev = sink.tracer(1, track::TID_DEVICE);
        let e0 = sink.tracer(1, track::TID_ENGINE_BASE);
        let e1 = sink.tracer(1, track::TID_ENGINE_BASE + 1);
        let (sub, op) = request(&host, "ndp", 60, 10, 0);
        e0.window("fw:engine", t(10), t(50), SpanId::NONE, op.0, "ch", 0);
        e1.window("fw:engine", t(10), t(50), SpanId::NONE, op.0, "ch", 1);
        dev.emit(op, "op", t(10), t(60), sub, "failed", 0, "ndp");
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
