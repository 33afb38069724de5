//! Outside-in spans. The benchmark times calls into each layer's public
//! functions from its own files and keeps the spans in memory; nothing is
//! added inside any crate.
//!
//! One traced request is replayed at successively shallower depths, so a
//! child span is *not* nested in its parent's wall-clock interval: it is
//! the same request run again one layer further in, right after its
//! parent. Self time is therefore taken over durations — a span's duration
//! minus the durations of its children, floored at zero.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::nanos;

/// The repo modules a span can be charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// `client` + `server`: sockets, reader/writer threads, demux.
    Wire,
    Proto,
    Serve,
    Core,
    Distance,
    Storage,
    /// What the direct calls fail to reproduce of the executor's time.
    Unattributed,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Wire,
        Layer::Proto,
        Layer::Serve,
        Layer::Core,
        Layer::Distance,
        Layer::Storage,
        Layer::Unattributed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Wire => "client+server",
            Layer::Proto => "proto",
            Layer::Serve => "serve",
            Layer::Core => "core",
            Layer::Distance => "distance",
            Layer::Storage => "storage",
            Layer::Unattributed => "unattributed",
        }
    }
}

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub request: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store for one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        request: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, layer, request, parent, start, nanos(end - start)))
    }

    /// Records a span that started at `start` and lasted `duration_ns` —
    /// also the entry point for phases the program timed itself
    /// (`BatchStats::probe_nanos`, `MatchStats::phase1_nanos`).
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        request: u32,
        parent: Option<SpanId>,
        start: Instant,
        duration_ns: u64,
    ) -> SpanId {
        let start_ns = nanos(start.saturating_duration_since(self.origin));
        self.spans.push(Span {
            name,
            layer,
            request,
            parent,
            start_ns,
            end_ns: start_ns + duration_ns,
        });
        self.spans.len() - 1
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Summed self time per layer, in [`Layer::ALL`] order.
    pub fn layer_self_ns(&self) -> [u64; 7] {
        let selfs = self.self_times();
        let mut out = [0u64; 7];
        for (span, own) in self.spans.iter().zip(selfs) {
            let slot = Layer::ALL.iter().position(|l| *l == span.layer).expect("layer listed");
            out[slot] += own;
        }
        out
    }

    /// Summed duration of the root spans (one per traced request).
    pub fn root_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum()
    }

    /// One JSON object per line: name, layer, request, id, parent, start, end.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_times();
        for (id, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.request,
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span's duration minus its children's durations, floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += span.duration_ns();
        }
    }
    spans.iter().zip(children).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "t", layer, request: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(None, Layer::Wire, 0, 1000),           // 0: root
            span(Some(0), Layer::Serve, 1000, 1700),    // 1: replayed after its parent
            span(Some(1), Layer::Core, 1700, 2100),     // 2
            span(Some(2), Layer::Distance, 2100, 2350), // 3
            span(Some(2), Layer::Storage, 2350, 2400),  // 4
            span(Some(0), Layer::Proto, 2400, 2420),    // 5: second child of the root
        ];
        assert_eq!(self_times(&spans), vec![280, 300, 100, 250, 50, 20]);
        // Every nanosecond of the root is charged exactly once.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn children_longer_than_their_parent_floor_at_zero() {
        let spans = vec![span(None, Layer::Serve, 0, 100), span(Some(0), Layer::Core, 100, 260)];
        assert_eq!(self_times(&spans), vec![0, 160]);
    }

    #[test]
    fn tracer_sums_self_time_per_layer() {
        let mut t = Tracer::new();
        let now = Instant::now();
        let root = t.record("root", Layer::Wire, 7, None, now, 1_000);
        let mid = t.record("mid", Layer::Serve, 7, Some(root), now, 600);
        t.record("leaf", Layer::Distance, 7, Some(mid), now, 450);
        let by_layer = t.layer_self_ns();
        assert_eq!(by_layer[0], 400, "wire keeps what serve did not cover");
        assert_eq!(by_layer[2], 150);
        assert_eq!(by_layer[4], 450);
        assert_eq!(t.root_ns(), 1_000);
        assert_eq!(t.span(mid).request, 7);
    }
}
