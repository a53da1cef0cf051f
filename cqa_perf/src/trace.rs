//! The span recorder used by traced runs.
//!
//! Spans are recorded from the benchmark's side of each layer boundary: a
//! span wraps one call into a layer's public function. Each span carries a
//! name, a start and an end (nanoseconds since the recorder's origin), its
//! parent span and the request it belongs to. Spans stay in memory until
//! the run ends; [`Recorder::write_jsonl`] then writes them out.
//!
//! A parent's children either run inside its interval (the request span
//! around a call) or are *replays*: the same inputs passed, right after the
//! parent returned, to the narrower public function that the parent calls
//! internally. Either way a child's duration is subtracted from its parent,
//! so a span's self time is its duration minus its children's durations.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Total and self time of one layer summed over its spans, and the number
/// of distinct requests that crossed it.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub requests: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean time per request that crossed the layer, in milliseconds: self
    /// time when `own` is set, total time otherwise (0 when none did).
    pub fn mean_ms(&self, own: bool) -> f64 {
        let ns = if own { self.self_ns } else { self.total_ns };
        if self.requests == 0 {
            0.0
        } else {
            ns as f64 / self.requests as f64 / 1e6
        }
    }
}

/// In-memory span store for one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span and return its result with the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Duration of span `id` in milliseconds.
    pub fn duration_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Move every span of `other` (same origin) into this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut seen = BTreeSet::new();
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(s.name).or_default();
            if seen.insert((s.name, s.request)) {
                entry.requests += 1;
            }
            entry.total_ns += s.end_ns - s.start_ns;
            entry.self_ns += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        out
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_absorb_remaps_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        let root = a.open("request", None, 1);
        a.spans[root].end_ns = a.spans[root].start_ns + 10_000_000;
        let child = a.open("server.handle", Some(root), 1);
        a.spans[child].end_ns = a.spans[child].start_ns + 4_000_000;
        let mut b = Recorder::new(origin);
        let other = b.open("request", None, 2);
        b.spans[other].end_ns = b.spans[other].start_ns + 2_000_000;
        let inner = b.open("server.handle", Some(other), 2);
        b.spans[inner].end_ns = b.spans[inner].start_ns + 1_000_000;
        a.absorb(b);
        let times = a.layer_times();
        assert_eq!(times["request"].requests, 2);
        assert_eq!(times["request"].self_ns, 6_000_000 + 1_000_000);
        assert_eq!(times["server.handle"].self_ns, 5_000_000);
        assert!((times["server.handle"].mean_ms(true) - 2.5).abs() < 1e-9);
        assert!((times["request"].mean_ms(false) - 6.0).abs() < 1e-9);
    }
}
