//! `dba-obs` — the deterministic observability substrate for the tuning
//! stack: structured spans, monotonic counters and structured events,
//! recorded against **simulated** time.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Recording must never perturb a tuning trajectory.
//!    Every record is keyed on [`SimSeconds`] fed in by the session via
//!    [`Obs::set_sim_now`]; wall-clock is *advisory only* and flows
//!    through the injectable [`BudgetTimer`] (so lint rule D02 — no
//!    wall-clock reads outside `dba-bench` — holds: only harness code
//!    ever hands an `Obs` a live clock source). The bench suite asserts
//!    bit-identical trajectories with recording on vs off.
//! 2. **Zero cost off.** The default handle is a no-op: one `Option`
//!    check per call, no allocation, no lock. Instrumentation stays
//!    compiled-in and always correct, never `#[cfg]`-gated.
//! 3. **Side-effect-free on results.** Every recording method returns
//!    `()`; the only value-returning query is [`Obs::enabled`], for
//!    gating expensive event construction. Lint rule O01 enforces that
//!    no recording call sits on a path that feeds a returned value.
//! 4. **Dependency-free.** No `tracing`/`metrics` crates — the build is
//!    offline; the JSONL exporter writes with `std::io` and is parsed
//!    back by `dba-bench`'s own JSON reader (`dba-trace`, tests).
//!
//! Three backends implement [`Recorder`]: [`NoopRecorder`] (what
//! [`Obs::noop`] models without even boxing one), the bounded in-memory
//! [`RingRecorder`] (tests, future tuning-server introspection), and
//! [`JsonlRecorder`] (the `DBA_TRACE=<path>` export `dba-trace` reads).

use dba_common::{BudgetTimer, SimSeconds};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// A structured field value carried by an [`TraceKind::Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<SimSeconds> for Value {
    fn from(v: SimSeconds) -> Self {
        Value::F64(v.secs())
    }
}

/// What one trace record says. Span, counter and event names are
/// `&'static str` by design: the catalog is closed at compile time (see
/// README "Observability"), and records never allocate for names.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    SpanEnter {
        name: &'static str,
    },
    SpanExit {
        name: &'static str,
    },
    Counter {
        name: &'static str,
        delta: u64,
        /// Monotonic running total after applying `delta`.
        total: u64,
    },
    Event {
        name: &'static str,
        fields: Vec<(&'static str, Value)>,
    },
}

impl TraceKind {
    /// The span/counter/event name this record carries.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::SpanEnter { name }
            | TraceKind::SpanExit { name }
            | TraceKind::Counter { name, .. }
            | TraceKind::Event { name, .. } => name,
        }
    }
}

/// One trace record: a sequence number (total order within a session), the
/// simulated-time stamp the session last fed in, an advisory wall-clock
/// stamp (seconds since the recorder's timer was attached; `None` when no
/// live timer was injected), and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    pub seq: u64,
    pub sim_s: f64,
    pub wall_s: Option<f64>,
    pub kind: TraceKind,
}

fn esc_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Shortest-roundtrip float; non-finite values become `null` so the line
/// stays valid JSON (no trace consumer wants to crash on an inf).
fn fmt_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn fmt_value(v: &Value, out: &mut String) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(n) => fmt_f64(*n, out),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Str(s) => {
            out.push('"');
            esc_json(s, out);
            out.push('"');
        }
    }
}

impl TraceRecord {
    /// One JSONL line (no trailing newline). The schema is stable and
    /// parsed back by `dba-bench` (`dba-trace`, the round-trip test):
    /// `{"seq":N,"sim_s":S[,"wall_s":W],"type":"...","name":"...",...}`.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"seq\":{},\"sim_s\":", self.seq);
        fmt_f64(self.sim_s, &mut s);
        if let Some(w) = self.wall_s {
            s.push_str(",\"wall_s\":");
            fmt_f64(w, &mut s);
        }
        match &self.kind {
            TraceKind::SpanEnter { name } => {
                let _ = write!(s, ",\"type\":\"span_enter\",\"name\":\"{name}\"");
            }
            TraceKind::SpanExit { name } => {
                let _ = write!(s, ",\"type\":\"span_exit\",\"name\":\"{name}\"");
            }
            TraceKind::Counter { name, delta, total } => {
                let _ = write!(
                    s,
                    ",\"type\":\"counter\",\"name\":\"{name}\",\"delta\":{delta},\"total\":{total}"
                );
            }
            TraceKind::Event { name, fields } => {
                let _ = write!(s, ",\"type\":\"event\",\"name\":\"{name}\",\"fields\":{{");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{k}\":");
                    fmt_value(v, &mut s);
                }
                s.push('}');
            }
        }
        s.push('}');
        s
    }
}

// ---------------------------------------------------------------------------
// Recorder backends
// ---------------------------------------------------------------------------

/// A trace sink. Implementations must be cheap and infallible from the
/// caller's point of view: recording is advisory and must never change
/// control flow in the instrumented code.
pub trait Recorder: Send {
    fn record(&mut self, rec: &TraceRecord);
    /// Flush buffered output (JSONL); default no-op.
    fn flush(&mut self) {}
    /// In-memory backends return their buffered records; stream backends
    /// return `None`. This is how tests read a ring back without
    /// downcasting.
    fn snapshot(&self) -> Option<Vec<TraceRecord>> {
        None
    }
}

/// Drops every record. [`Obs::noop`] short-circuits before ever building
/// a record, so this type exists for explicit backend plumbing and as
/// the semantic definition of "recording off".
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&mut self, _rec: &TraceRecord) {}
}

/// Keeps the most recent `capacity` records in memory.
#[derive(Debug)]
pub struct RingRecorder {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
}

impl RingRecorder {
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
        }
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, rec: &TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(rec.clone());
    }

    fn snapshot(&self) -> Option<Vec<TraceRecord>> {
        Some(self.buf.iter().cloned().collect())
    }
}

/// Streams records as JSONL to a file. Export is advisory: IO errors are
/// swallowed after the open succeeds (a full disk must not kill a tuning
/// run), and the writer flushes on drop.
pub struct JsonlRecorder {
    out: BufWriter<File>,
}

impl JsonlRecorder {
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        if let Some(dir) = path.as_ref().parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        Ok(JsonlRecorder {
            out: BufWriter::new(File::create(path)?),
        })
    }
}

impl Recorder for JsonlRecorder {
    fn record(&mut self, rec: &TraceRecord) {
        let _ = writeln!(self.out, "{}", rec.to_jsonl());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

// ---------------------------------------------------------------------------
// The Obs handle
// ---------------------------------------------------------------------------

struct ObsState {
    backend: Box<dyn Recorder>,
    seq: u64,
    sim_now: f64,
    /// Advisory wall clock, marked once when attached; every record's
    /// `wall_s` is elapsed-since-mark. Disabled (the default) → `None`.
    timer: BudgetTimer,
    /// Running counter totals; `BTreeMap` so snapshots iterate in a
    /// deterministic order.
    counters: BTreeMap<&'static str, u64>,
}

impl ObsState {
    fn push(&mut self, kind: TraceKind) {
        let rec = TraceRecord {
            seq: self.seq,
            sim_s: self.sim_now,
            wall_s: self.timer.elapsed_secs(),
            kind,
        };
        self.seq += 1;
        self.backend.record(&rec);
    }
}

/// The cheap, clonable handle instrumented code holds. Clones share one
/// recorder (one `seq` order per session). [`Obs::default`] and
/// [`Obs::noop`] are recording-off: every call is a single `Option`
/// check. All recording methods return `()` — see lint rule O01; the only
/// value-returning query is [`Obs::enabled`].
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<ObsState>>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// Recording off: the zero-cost default.
    pub fn noop() -> Obs {
        Obs { inner: None }
    }

    /// Record into an explicit backend.
    pub fn with_recorder(backend: Box<dyn Recorder>) -> Obs {
        Obs {
            inner: Some(Arc::new(Mutex::new(ObsState {
                backend,
                seq: 0,
                sim_now: 0.0,
                timer: BudgetTimer::disabled(),
                counters: BTreeMap::new(),
            }))),
        }
    }

    /// Record into an in-memory ring of the most recent `capacity`
    /// records; read back with [`Obs::records`].
    pub fn ring(capacity: usize) -> Obs {
        Obs::with_recorder(Box::new(RingRecorder::new(capacity)))
    }

    /// Stream JSONL records to `path` (the `DBA_TRACE` backend).
    pub fn jsonl<P: AsRef<Path>>(path: P) -> io::Result<Obs> {
        Ok(Obs::with_recorder(Box::new(JsonlRecorder::create(path)?)))
    }

    /// Attach an advisory wall clock. The timer is marked here, once;
    /// every subsequent record carries seconds-elapsed-since-now. Only
    /// harness code should hand in a live source (lint rule D02). No-op
    /// on a recording-off handle.
    pub fn with_timer(self, timer: BudgetTimer) -> Obs {
        let mut timer = timer;
        timer.mark();
        self.with_state(|st| st.timer = timer);
        self
    }

    /// Is recording on? The one value-returning query (exempt from O01):
    /// use it to gate *construction* of expensive events, never to branch
    /// tuning logic.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut ObsState) -> R) -> Option<R> {
        // The explicit `Mutex` annotation keeps dba-lint's call resolver
        // precise: a bare `m.lock()` on an untyped local would be
        // conflated by name with `SafetyLedger::lock`.
        let m: &Mutex<ObsState> = self.inner.as_ref()?;
        // The Obs handle is this subsystem's one blessed lock point (the
        // SafetyLedger pattern); poisoning self-heals because telemetry
        // must never compound another thread's panic.
        let mut st = m.lock().unwrap_or_else(PoisonError::into_inner);
        Some(f(&mut st))
    }

    /// Advance the simulated-time stamp subsequent records carry.
    pub fn set_sim_now(&self, now: SimSeconds) {
        self.with_state(|st| st.sim_now = now.secs());
    }

    pub fn span_enter(&self, name: &'static str) {
        self.with_state(|st| st.push(TraceKind::SpanEnter { name }));
    }

    pub fn span_exit(&self, name: &'static str) {
        self.with_state(|st| st.push(TraceKind::SpanExit { name }));
    }

    /// Bump a monotonic counter and record the delta + new total.
    pub fn counter(&self, name: &'static str, delta: u64) {
        self.with_state(|st| {
            let total = {
                let t = st.counters.entry(name).or_insert(0);
                *t += delta;
                *t
            };
            st.push(TraceKind::Counter { name, delta, total });
        });
    }

    /// Record a structured event. Build `fields` only under an
    /// `if obs.enabled()` gate when construction is expensive.
    pub fn event(&self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        self.with_state(|st| st.push(TraceKind::Event { name, fields }));
    }

    /// Flush the backend (JSONL buffer).
    pub fn flush(&self) {
        self.with_state(|st| st.backend.flush());
    }

    /// Snapshot of an in-memory backend's records (`None` for noop and
    /// stream backends).
    pub fn records(&self) -> Option<Vec<TraceRecord>> {
        self.with_state(|st| st.backend.snapshot()).flatten()
    }

    /// Running total of one counter (0 if never bumped or recording off).
    pub fn counter_total(&self, name: &'static str) -> u64 {
        self.with_state(|st| st.counters.get(name).copied().unwrap_or(0))
            .unwrap_or(0)
    }

    /// Deterministically-ordered snapshot of all counter totals.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.with_state(|st| st.counters.iter().map(|(k, v)| (*k, *v)).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_off_and_inert() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        obs.span_enter("s");
        obs.counter("c", 3);
        obs.event("e", vec![("k", 1u64.into())]);
        obs.span_exit("s");
        obs.flush();
        assert_eq!(obs.records(), None);
        assert_eq!(obs.counter_total("c"), 0);
        assert!(Obs::default().inner.is_none(), "default is noop");
    }

    #[test]
    fn ring_records_in_order_with_seq_and_totals() {
        let obs = Obs::ring(16);
        assert!(obs.enabled());
        obs.set_sim_now(SimSeconds::new(1.5));
        obs.span_enter("round");
        obs.counter("hits", 2);
        obs.counter("hits", 3);
        obs.span_exit("round");
        let recs = obs.records().expect("ring snapshots");
        assert_eq!(recs.len(), 4);
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(recs.iter().all(|r| r.sim_s == 1.5 && r.wall_s.is_none()));
        assert_eq!(
            recs[2].kind,
            TraceKind::Counter {
                name: "hits",
                delta: 3,
                total: 5
            }
        );
        assert_eq!(obs.counter_total("hits"), 5);
        assert_eq!(obs.counters(), vec![("hits", 5)]);
    }

    #[test]
    fn ring_is_bounded() {
        let obs = Obs::ring(2);
        obs.counter("c", 1);
        obs.counter("c", 1);
        obs.counter("c", 1);
        let recs = obs.records().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 1, "oldest record evicted");
    }

    #[test]
    fn clones_share_one_sequence() {
        let obs = Obs::ring(8);
        let clone = obs.clone();
        obs.span_enter("a");
        clone.span_enter("b");
        let recs = obs.records().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].seq, 1);
    }

    #[test]
    fn timer_stamps_advisory_wall_clock() {
        // A fake monotonic source: deterministic, no OS clock.
        let ticks = Arc::new(Mutex::new(10.0_f64));
        let t2 = Arc::clone(&ticks);
        let timer =
            BudgetTimer::with_source(move || *t2.lock().unwrap_or_else(PoisonError::into_inner));
        let obs = Obs::ring(4).with_timer(timer);
        *ticks.lock().unwrap_or_else(PoisonError::into_inner) = 12.5;
        obs.span_enter("s");
        let recs = obs.records().unwrap();
        assert_eq!(recs[0].wall_s, Some(2.5), "elapsed since attach-mark");
    }

    #[test]
    fn jsonl_lines_have_the_stable_schema() {
        let rec = TraceRecord {
            seq: 7,
            sim_s: 1.25,
            wall_s: Some(0.5),
            kind: TraceKind::Event {
                name: "safety.veto",
                fields: vec![
                    ("round", 3u64.into()),
                    ("regret_s", 1.5f64.into()),
                    ("index", "ix_a\"b".into()),
                    ("throttled", false.into()),
                ],
            },
        };
        let line = rec.to_jsonl();
        assert_eq!(
            line,
            "{\"seq\":7,\"sim_s\":1.25,\"wall_s\":0.5,\"type\":\"event\",\
             \"name\":\"safety.veto\",\"fields\":{\"round\":3,\"regret_s\":1.5,\
             \"index\":\"ix_a\\\"b\",\"throttled\":false}}"
        );
        let counter = TraceRecord {
            seq: 0,
            sim_s: 0.0,
            wall_s: None,
            kind: TraceKind::Counter {
                name: "plan_cache.hit",
                delta: 1,
                total: 4,
            },
        };
        assert_eq!(
            counter.to_jsonl(),
            "{\"seq\":0,\"sim_s\":0,\"type\":\"counter\",\
             \"name\":\"plan_cache.hit\",\"delta\":1,\"total\":4}"
        );
    }

    #[test]
    fn jsonl_recorder_writes_readable_lines() {
        let path = std::env::temp_dir().join("dba_obs_test_trace.jsonl");
        let obs = Obs::jsonl(&path).expect("create trace file");
        obs.set_sim_now(SimSeconds::new(2.0));
        obs.span_enter("w");
        obs.counter("hits", 2);
        obs.span_exit("w");
        obs.flush();
        let text = std::fs::read_to_string(&path).expect("trace readable");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"span_enter\""));
        assert!(lines[1].contains("\"total\":2"));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        let rec = TraceRecord {
            seq: 0,
            sim_s: f64::INFINITY,
            wall_s: None,
            kind: TraceKind::Event {
                name: "e",
                fields: vec![("value", f64::NAN.into())],
            },
        };
        let line = rec.to_jsonl();
        assert!(line.contains("\"sim_s\":null"));
        assert!(line.contains("\"value\":null"));
    }
}
