//! A `dba-obs` recorder that keeps no records: it folds each span into
//! per-name wall-clock totals in memory, with self time (the span's
//! duration minus the part its child spans cover).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dba_obs::{Recorder, TraceKind, TraceRecord};

/// Accumulated wall time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Per-name span totals, shared between the recorder and its reader.
#[derive(Debug, Clone, Default)]
pub struct SpanProfile {
    spans: BTreeMap<&'static str, SpanTotals>,
}

impl SpanProfile {
    pub fn get(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.get(name).total_s
    }
}

struct OpenSpan {
    name: &'static str,
    start_s: f64,
    children_s: f64,
}

/// The recorder half; read the totals through the handle [`new`](Self::new)
/// returns. Records without a wall stamp (no timer attached) count as
/// instantaneous.
pub struct SpanRecorder {
    open: Vec<OpenSpan>,
    profile: Arc<Mutex<SpanProfile>>,
}

impl SpanRecorder {
    pub fn new() -> (SpanRecorder, Arc<Mutex<SpanProfile>>) {
        let profile = Arc::new(Mutex::new(SpanProfile::default()));
        let recorder = SpanRecorder {
            open: Vec::new(),
            profile: Arc::clone(&profile),
        };
        (recorder, profile)
    }
}

impl Recorder for SpanRecorder {
    fn record(&mut self, rec: &TraceRecord) {
        let now = rec.wall_s.unwrap_or(0.0);
        match rec.kind {
            TraceKind::SpanEnter { name } => self.open.push(OpenSpan {
                name,
                start_s: now,
                children_s: 0.0,
            }),
            TraceKind::SpanExit { name } => {
                // An exit that does not close the innermost open span is
                // malformed nesting; ignore it rather than misattribute.
                if self.open.last().map(|s| s.name) != Some(name) {
                    return;
                }
                let span = self.open.pop().expect("checked non-empty above");
                let dur = now - span.start_s;
                if let Some(parent) = self.open.last_mut() {
                    parent.children_s += dur;
                }
                let mut profile = crate::lock(&self.profile);
                let t = profile.spans.entry(name).or_default();
                t.count += 1;
                t.total_s += dur;
                t.self_s += dur - span.children_s;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(wall_s: f64, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            seq: 0,
            sim_s: 0.0,
            wall_s: Some(wall_s),
            kind,
        }
    }

    fn enter(name: &'static str, t: f64) -> TraceRecord {
        rec(t, TraceKind::SpanEnter { name })
    }

    fn exit(name: &'static str, t: f64) -> TraceRecord {
        rec(t, TraceKind::SpanExit { name })
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let (mut r, profile) = SpanRecorder::new();
        // round [0, 10] ⊃ advise [1, 5] ⊃ mab [2, 4]; execute [6, 9].
        for record in [
            enter("round", 0.0),
            enter("advise", 1.0),
            enter("mab", 2.0),
            exit("mab", 4.0),
            exit("advise", 5.0),
            enter("execute", 6.0),
            exit("execute", 9.0),
            exit("round", 10.0),
        ] {
            r.record(&record);
        }
        let p = profile.lock().unwrap();
        assert_eq!(p.get("round").total_s, 10.0);
        assert_eq!(p.get("round").self_s, 3.0, "10 - advise 4 - execute 3");
        assert_eq!(p.get("advise").self_s, 2.0, "4 - mab 2");
        assert_eq!(p.get("mab").self_s, 2.0);
        assert_eq!(p.get("execute").self_s, 3.0);
        assert_eq!(p.get("missing"), SpanTotals::default());
    }

    #[test]
    fn repeated_spans_accumulate() {
        let (mut r, profile) = SpanRecorder::new();
        for i in 0..3 {
            let t = f64::from(i) * 10.0;
            r.record(&enter("outer", t));
            r.record(&enter("inner", t + 1.0));
            r.record(&exit("inner", t + 2.0));
            r.record(&exit("outer", t + 4.0));
        }
        let p = profile.lock().unwrap();
        assert_eq!(p.get("outer").count, 3);
        assert_eq!(p.get("outer").total_s, 12.0);
        assert_eq!(p.get("outer").self_s, 9.0);
        assert_eq!(p.get("inner").total_s, 3.0);
    }

    #[test]
    fn mismatched_exits_and_other_records_are_ignored() {
        let (mut r, profile) = SpanRecorder::new();
        r.record(&enter("a", 0.0));
        r.record(&exit("b", 1.0));
        r.record(&rec(
            1.5,
            TraceKind::Counter {
                name: "c",
                delta: 1,
                total: 1,
            },
        ));
        r.record(&exit("a", 2.0));
        let p = profile.lock().unwrap();
        assert_eq!(p.get("a").total_s, 2.0);
        assert_eq!(p.get("b").count, 0);
    }
}
