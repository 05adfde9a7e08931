//! The benchmark's own span recorder: one span per call into a library
//! layer, recorded from outside the libraries (spans inside them are a
//! later change), kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Iteration id of spans recorded outside the timed loop (set-up, probes).
pub const NO_ITER: i64 = -1;

/// One recorded call: name, start, end, the span that caused it, the
/// iteration it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: i64,
    /// Work the untraced run does not do (kernel replays, reductions run
    /// only to be timed). Excluded from iteration time and from the tracing
    /// overhead ratio; sibling of the real spans, never their substitute.
    pub replay: bool,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store. A disabled recorder runs the closure and records
/// nothing, so set-up code is written once for both kinds of run.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    replay_depth: usize,
    pub iter: i64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            replay_depth: 0,
            iter: NO_ITER,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `f` as a child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            iter: self.iter,
            replay: self.replay_depth > 0,
        });
        self.stack.push(id);
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.stack.pop();
        out
    }

    /// Like [`Recorder::span`], for work only the traced run does.
    pub fn replay<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.replay_depth += 1;
        let out = self.span(name, f);
        self.replay_depth -= 1;
        out
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children of one span never overlap: the driver is one thread).
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        own
    }

    /// Total and self seconds by span name, split into the real spans and
    /// the replay spans.
    pub fn totals(&self) -> Totals {
        let own = self.self_seconds();
        let mut t = Totals::default();
        for (s, own_s) in self.spans.iter().zip(own) {
            let side = if s.replay { &mut t.replay } else { &mut t.real };
            let e = side.entry(s.name).or_default();
            e.in_loop |= s.iter != NO_ITER;
            e.calls += 1;
            e.total_s += s.seconds();
            e.self_s += own_s;
        }
        t
    }

    /// Seconds of each iteration's top-level span with the replay spans
    /// below it taken out: the traced iteration time that compares with the
    /// untraced one.
    pub fn iteration_seconds(&self) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::new();
        for s in self.spans.iter().filter(|s| s.iter != NO_ITER) {
            let slot = s.iter as usize;
            if out.len() <= slot {
                out.resize(slot + 1, 0.0);
            }
            match s.parent {
                None => out[slot] += s.seconds(),
                // Only the outermost replay span of a nest is subtracted.
                Some(p) if s.replay && !self.spans[p].replay => out[slot] -= s.seconds(),
                Some(_) => {}
            }
        }
        out
    }

    /// The span list as JSON, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iter\":{},\"replay\":{}}}",
                s.name, s.start_ns, s.end_ns, s.iter, s.replay
            );
            out.push_str(if id + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// Aggregate of one span name.
#[derive(Default, Clone, Copy)]
pub struct NameTotal {
    /// Recorded inside an iteration (set-up spans are not).
    pub in_loop: bool,
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Per-name aggregates of a recorder.
#[derive(Default)]
pub struct Totals {
    pub real: BTreeMap<&'static str, NameTotal>,
    pub replay: BTreeMap<&'static str, NameTotal>,
}

impl Totals {
    pub fn real_s(&self, name: &str) -> f64 {
        self.real.get(name).map_or(0.0, |t| t.total_s)
    }

    pub fn real_self_s(&self, name: &str) -> f64 {
        self.real.get(name).map_or(0.0, |t| t.self_s)
    }

    pub fn replay_s(&self, name: &str) -> f64 {
        self.replay.get(name).map_or(0.0, |t| t.total_s)
    }
}
