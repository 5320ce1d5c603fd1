//! Sim-time span tracing.
//!
//! A [`TraceSink`] owns the recorded spans; [`Tracer`] handles (cheap
//! `Arc` clones, one per component/track) write into it. A disabled
//! tracer holds no sink: every method is an inline `None` check that
//! performs no work and no allocation, so leaving tracing off cannot
//! perturb the simulation (bit-identity is CI-tested in
//! `crates/serving`).
//!
//! Spans are **complete** at emission: the emitter supplies both
//! endpoints on the virtual timeline. Parents may be emitted *after*
//! their children — allocate the parent's [`SpanId`] up front with
//! [`Tracer::alloc_id`] and emit the span once its end time is known
//! (e.g. a request span is allocated at admission and emitted at
//! completion, after every sub-batch span already referenced it).
//!
//! Span ids are `1, 2, 3, …` in allocation order within a sink; one sink
//! per traced run keeps them unique.

use std::sync::{Arc, Mutex};

use recssd_sim::SimTime;

/// Conventional track ids, so every layer of the stack lands on a stable
/// row in the trace viewer. `pid` groups by shard (0 = serving-global,
/// `i + 1` = device shard `i`, [`track::PID_TIER`] = the host DRAM
/// tier); `tid` is the component within the pid.
pub mod track {
    /// pid of the host DRAM tier track.
    pub const PID_TIER: u32 = 10_000;
    /// tid of serving/host-level spans (requests, subs, queueing).
    pub const TID_HOST: u32 = 0;
    /// tid of device-op spans (NVMe op lifetime, host-side phases).
    pub const TID_DEVICE: u32 = 1;
    /// tid of firmware-core service windows (`fw:exec`).
    pub const TID_FW: u32 = 2;
    /// tid of flash-array spans: host-read residence (`flash:read`) and
    /// every channel hold (`flash:xfer`, its channel in `ch`).
    pub const TID_FLASH: u32 = 3;
    /// First tid of the per-channel SLS engine rows: engine `i` of a
    /// device's pool lands on `TID_ENGINE_BASE + i`, so every engine gets
    /// its own track in the viewer. Analysis names a server by span name,
    /// pid and `ch` argument, never by tid — one row per engine and per
    /// flash channel.
    pub const TID_ENGINE_BASE: u32 = 8;
}

/// Identifier of a span. `SpanId::NONE` (zero) means "no span": it is the
/// parent of root spans and the id carried by untraced work, and tracers
/// return it whenever they are disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (parent of roots, id of untraced work).
    pub const NONE: SpanId = SpanId(0);

    /// `true` if this is a real (allocated) span id.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// One recorded span: a named interval on the virtual timeline, on a
/// (pid, tid) track, optionally linked to a parent span and carrying one
/// numeric argument plus one static string label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// This span's id (unique within a sink, never zero).
    pub id: u64,
    /// Parent span id (zero = root).
    pub parent: u64,
    /// Span name (static so emission never allocates).
    pub name: &'static str,
    /// Start, nanoseconds of virtual time.
    pub start_ns: u64,
    /// End, nanoseconds of virtual time (`>= start_ns`).
    pub end_ns: u64,
    /// Process-track id (shard / tier grouping in the viewer).
    pub pid: u32,
    /// Thread-track id (component within the pid).
    pub tid: u32,
    /// Key of the numeric argument (empty = no argument).
    pub arg_key: &'static str,
    /// Value of the numeric argument.
    pub arg_val: u64,
    /// Free-form static label (e.g. the serving path); empty = none.
    pub label: &'static str,
    /// Id of the `op` span whose work this window is (a device service
    /// window, or the queue wait its operator ended); zero when untraced
    /// work or background work (GC) caused it.
    pub cause: u64,
}

#[derive(Debug, Default)]
struct Buf {
    spans: Vec<SpanRec>,
    next_id: u64,
}

/// Owner of recorded spans. Create one per traced run, derive per-track
/// [`Tracer`]s from it, and drain it with [`TraceSink::take_spans`].
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    buf: Arc<Mutex<Buf>>,
}

impl TraceSink {
    /// Creates an empty sink (ids `1, 2, 3, …`).
    pub fn new() -> Self {
        TraceSink {
            buf: Arc::new(Mutex::new(Buf {
                spans: Vec::new(),
                next_id: 1,
            })),
        }
    }

    /// A tracer writing into this sink on track `(pid, tid)`.
    pub fn tracer(&self, pid: u32, tid: u32) -> Tracer {
        Tracer {
            sink: Some(self.buf.clone()),
            pid,
            tid,
        }
    }

    /// Drains and returns every recorded span, in emission order.
    pub fn take_spans(&self) -> Vec<SpanRec> {
        std::mem::take(&mut self.buf.lock().expect("trace sink poisoned").spans)
    }

    /// Clones every recorded span *without* draining the sink, in
    /// emission order — the read path for live analysis that must not
    /// disturb a later export.
    pub fn snapshot_spans(&self) -> Vec<SpanRec> {
        self.buf.lock().expect("trace sink poisoned").spans.clone()
    }
}

/// A handle that emits spans into a [`TraceSink`] — or, when disabled
/// (the default), does nothing at all.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Mutex<Buf>>>,
    pid: u32,
    tid: u32,
}

impl Tracer {
    /// A tracer that drops everything (the zero-cost default).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// `true` when spans are actually recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// A clone of this tracer on a different thread track.
    pub fn with_tid(&self, tid: u32) -> Tracer {
        Tracer {
            sink: self.sink.clone(),
            pid: self.pid,
            tid,
        }
    }

    /// A clone of this tracer on a different process track.
    pub fn with_pid(&self, pid: u32) -> Tracer {
        Tracer {
            sink: self.sink.clone(),
            pid,
            tid: self.tid,
        }
    }

    /// Pre-allocates a span id so children can reference a parent whose
    /// span is emitted later. Returns [`SpanId::NONE`] when disabled.
    #[inline]
    pub fn alloc_id(&self) -> SpanId {
        match &self.sink {
            Some(buf) => {
                let mut b = buf.lock().expect("trace sink poisoned");
                let id = b.next_id;
                b.next_id += 1;
                SpanId(id)
            }
            None => SpanId::NONE,
        }
    }

    /// Emits a complete span under a fresh id and returns that id.
    #[inline]
    pub fn span(&self, name: &'static str, start: SimTime, end: SimTime, parent: SpanId) -> SpanId {
        self.span_arg(name, start, end, parent, "", 0)
    }

    /// Emits a complete span under a pre-allocated id (see
    /// [`Tracer::alloc_id`]), with an optional numeric argument
    /// (`arg_key` empty = none) and static label (empty = none).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        id: SpanId,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        parent: SpanId,
        arg_key: &'static str,
        arg_val: u64,
        label: &'static str,
    ) {
        self.push(id, name, start, end, parent, 0, (arg_key, arg_val), label);
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        id: SpanId,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        parent: SpanId,
        cause: u64,
        (arg_key, arg_val): (&'static str, u64),
        label: &'static str,
    ) {
        if let Some(buf) = &self.sink {
            debug_assert!(id.is_some(), "emit with unallocated span id");
            debug_assert!(end >= start, "span {name} ends before it starts");
            buf.lock()
                .expect("trace sink poisoned")
                .spans
                .push(SpanRec {
                    id: id.0,
                    parent: parent.0,
                    name,
                    start_ns: start.as_ns(),
                    end_ns: end.as_ns(),
                    pid: self.pid,
                    tid: self.tid,
                    arg_key,
                    arg_val,
                    label,
                    cause,
                });
        }
    }

    /// Emits a complete span with a numeric argument, fresh id.
    #[inline]
    pub fn span_arg(
        &self,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        parent: SpanId,
        arg_key: &'static str,
        arg_val: u64,
    ) -> SpanId {
        self.window(name, start, end, parent, 0, arg_key, arg_val)
    }

    /// Emits a window of the operator whose `op` span is `cause` (zero =
    /// none) with a numeric argument, fresh id: what
    /// [`crate::analysis::request_critical_paths`] charges to the
    /// requests that operator served.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn window(
        &self,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        parent: SpanId,
        cause: u64,
        arg_key: &'static str,
        arg_val: u64,
    ) -> SpanId {
        let id = self.alloc_id();
        if id.is_some() {
            self.push(id, name, start, end, parent, cause, (arg_key, arg_val), "");
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recssd_sim::SimDuration;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    fn disabled_tracer_records_nothing_and_returns_none_ids() {
        let tr = Tracer::disabled();
        assert!(!tr.enabled());
        assert_eq!(tr.alloc_id(), SpanId::NONE);
        assert_eq!(tr.span("x", t(0), t(1), SpanId::NONE), SpanId::NONE);
    }

    #[test]
    fn spans_record_with_unique_ids_and_parent_links() {
        let sink = TraceSink::new();
        let tr = sink.tracer(3, 7);
        let parent = tr.alloc_id();
        let child = tr.span("child", t(10), t(20), parent);
        tr.emit(parent, "parent", t(0), t(30), SpanId::NONE, "n", 2, "ndp");
        let spans = sink.take_spans();
        assert_eq!(spans.len(), 2);
        assert_ne!(parent, child);
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].parent, parent.0);
        assert_eq!(spans[1].pid, 3);
        assert_eq!(spans[1].tid, 7);
        assert_eq!(spans[1].arg_key, "n");
        assert_eq!(spans[1].label, "ndp");
        assert!(sink.take_spans().is_empty(), "take_spans drains the sink");
    }

    #[test]
    fn with_tid_shares_the_sink() {
        let sink = TraceSink::new();
        let a = sink.tracer(0, 0);
        let b = a.with_tid(5);
        a.span("a", t(0), t(1), SpanId::NONE);
        b.span("b", t(1), t(2), SpanId::NONE);
        let spans = sink.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].tid, 5);
    }

    #[test]
    fn sinks_and_tracers_are_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<TraceSink>();
        check::<Tracer>();
    }
}
