//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around each call into
//! a layer; the product carries no timer. A span's name is
//! `<layer>.<what>` with the layer the crate's short name (`frontend`,
//! `compile`, `ir`, `core`, `exec`, `machine`, `proto`, `dsmd`) or
//! `bench` for the harness itself. Spans of one job or request share an
//! `op_id`. A span's self time is its duration minus its children's.
//!
//! A recorder that is off records nothing and calls straight through,
//! so the untraced run executes the same benchmark code.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The job or request this span belongs to.
    pub op_id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A single-threaded span recorder; concurrent clients own one each and
/// [`Tracer::absorb`] merges them.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    /// A recorder, recording only when `on`. `epoch` is shared so spans
    /// of several recorders land on one time axis.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The operation whose spans are being recorded.
    pub fn op_id(&self) -> u64 {
        self.op_id
    }

    /// A fresh recorder on the same time axis, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as one operation: a root span `name` under a fresh `op_id`.
    pub fn op<T>(&mut self, op_id: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op_id = op_id;
        self.span(name, f)
    }

    /// Run `f` inside a span named `name`, nested in the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record accumulated busy times as child spans of the open span,
    /// laid back to back from `start_ns`. For work that interleaves too
    /// finely to span call by call (five passes over each of ~270
    /// subroutines): the durations are measured, the positions are not.
    pub fn lay_out(&mut self, start_ns: u64, parts: &[(&'static str, u64)]) {
        if !self.on {
            return;
        }
        let mut at = start_ns;
        for &(name, dur_ns) in parts {
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + dur_ns,
                parent: self.open.last().copied(),
                op_id: self.op_id,
            });
            at += dur_ns;
        }
    }

    /// Append another recorder's spans (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// A stopwatch for stages that follow one another without a gap.
pub struct Lap(Instant);

impl Lap {
    /// Start the first stage now.
    pub fn start() -> Lap {
        Lap(Instant::now())
    }

    /// Nanoseconds since the previous call (or the start); the next
    /// stage begins now.
    pub fn ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = (now - self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }
}

/// Self time of every span: duration minus the children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// What a traced run reduces to.
pub struct Summary {
    /// Σ root-span durations, seconds.
    pub wall_s: f64,
    /// Self-time share of the wall per layer.
    pub layer_share: BTreeMap<&'static str, f64>,
    /// Per span name, the time each operation spent in spans of that
    /// name, nanoseconds (an operation may open a name more than once:
    /// one `frontend.lex` per source file).
    pub op_ns: BTreeMap<&'static str, BTreeMap<u64, f64>>,
}

impl Summary {
    /// Reduce recorded spans.
    pub fn of(spans: &[Span]) -> Summary {
        let own = self_times_ns(spans);
        let wall_ns: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        let mut layer_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut op_ns: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (s, own_ns) in spans.iter().zip(own) {
            *layer_ns.entry(s.layer()).or_default() += own_ns;
            *op_ns.entry(s.name).or_default().entry(s.op_id).or_default() += s.dur_ns() as f64;
        }
        Summary {
            wall_s: wall_ns as f64 / 1e9,
            layer_share: layer_ns
                .into_iter()
                .map(|(l, ns)| (l, ns as f64 / wall_ns.max(1) as f64))
                .collect(),
            op_ns,
        }
    }

    /// Median over operations of the time spent in spans named `name`,
    /// in `unit_ns` nanoseconds (1e3 → µs, 1e6 → ms); zero when none
    /// occurred.
    pub fn median(&self, name: &str, unit_ns: f64) -> f64 {
        self.op_ns.get(name).map_or(0.0, |ops| {
            crate::stats::median(&ops.values().copied().collect::<Vec<_>>()) / unit_ns
        })
    }

    /// Σ durations of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.op_ns
            .get(name)
            .map_or(0.0, |ops| ops.values().sum::<f64>() / 1e9)
    }

    /// Self-time share of `layer`; zero when it never ran.
    pub fn share(&self, layer: &str) -> f64 {
        self.layer_share.get(layer).copied().unwrap_or(0.0)
    }
}

/// The spans as one JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::with_capacity(spans.len() * 96 + 2);
    s.push('[');
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
            sp.name, sp.start_ns, sp.end_ns, parent, sp.op_id
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root 0..100 holds a 10..40 (which holds c 20..30) and b 40..90.
        let spans = vec![
            span("bench.job", 0, 100, None),
            span("exec.a", 10, 40, Some(0)),
            span("machine.c", 20, 30, Some(1)),
            span("exec.b", 40, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 10, 50]);
        let sum = Summary::of(&spans);
        assert_eq!(sum.wall_s, 100e-9);
        assert_eq!(sum.share("bench"), 0.20);
        assert_eq!(sum.share("exec"), 0.70);
        assert_eq!(sum.share("machine"), 0.10);
        assert_eq!(sum.share("proto"), 0.0);
        let total: f64 = sum.layer_share.values().sum();
        assert!((total - 1.0).abs() < 1e-12, "self times partition the wall");
        // exec.a and exec.b are different names; one op each.
        assert_eq!(sum.median("exec.a", 1.0), 30.0);
        assert_eq!(sum.total_s("exec.b"), 50e-9);
        assert_eq!(sum.median("exec.none", 1.0), 0.0);
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut tr = Tracer::new(true, Instant::now());
        let out = tr.op(7, "bench.job", |tr| {
            tr.span("core.compile_source", |tr| tr.span("frontend.lex", |_| 41)) + 1
        });
        assert_eq!(out, 42);
        let names: Vec<_> = tr
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.op_id))
            .collect();
        assert_eq!(
            names,
            vec![
                ("bench.job", None, 7),
                ("core.compile_source", Some(0), 7),
                ("frontend.lex", Some(1), 7)
            ]
        );
        for s in tr.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        assert_eq!(tr.spans()[2].layer(), "frontend");
    }

    #[test]
    fn off_recorder_records_nothing_and_calls_through() {
        let mut tr = Tracer::new(false, Instant::now());
        assert_eq!(tr.op(1, "bench.job", |tr| tr.span("exec.x", |_| 5)), 5);
        tr.lay_out(0, &[("compile.skew", 10)]);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn laid_out_parts_are_adjacent_children() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.op(1, "core.compile_source", |tr| {
            tr.lay_out(5, &[("compile.skew", 10), ("compile.tile", 20)]);
        });
        let s = tr.spans();
        assert_eq!((s[1].start_ns, s[1].end_ns, s[1].parent), (5, 15, Some(0)));
        assert_eq!((s[2].start_ns, s[2].end_ns, s[2].parent), (15, 35, Some(0)));
    }

    #[test]
    fn absorb_reindexes_parents_and_json_parses() {
        let mut a = Tracer::new(true, Instant::now());
        a.op(1, "bench.request", |tr| tr.span("proto.encode", |_| ()));
        let mut b = Tracer::new(true, Instant::now());
        b.op(2, "bench.request", |tr| tr.span("dsmd.socket", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        let v = dsm_proto::parse(&to_json(a.spans())).expect("trace is valid JSON");
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(
            arr[3].get("name").and_then(dsm_proto::Value::as_str),
            Some("dsmd.socket")
        );
        assert!(arr[0].get("parent").unwrap().is_null());
        assert_eq!(
            arr[3].get("op_id").and_then(dsm_proto::Value::as_u64),
            Some(2)
        );
    }
}
