//! In-memory span tracer for the `--trace 1` run.
//!
//! Spans are recorded by the benchmark's own code around its calls into each
//! layer (choosing-metrics §4): name, start, end, the span that caused it, and
//! the request they belong to. Work that happens millions of times per request
//! (one protocol activation per delivery) is not given a span each — that
//! would measure the tracer — but accumulated as `(calls, busy)` and attached
//! to the enclosing span as one *aggregate* child. Spans stay in memory and
//! are written out when the run ends.

use crate::json::Json;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary, `crate.module` style (`covers.build`, `netsim.run`, …).
    pub name: &'static str,
    /// Request the span belongs to (set-up spans use the set-up's number).
    pub request: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Activations summed into an aggregate span; 1 for an ordinary span.
    pub calls: u64,
    /// Whether the span is an accumulated `(calls, busy)` total: it starts
    /// where its parent starts and lasts as long as the calls were busy.
    pub aggregate: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of every span sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Activations (aggregate spans count theirs, ordinary spans one each).
    pub calls: u64,
    /// Summed durations: the time the layer was busy, callees included.
    pub busy_ns: u64,
    /// Summed self times: busy minus the part child spans cover.
    pub self_ns: u64,
}

/// Records spans on the calling thread. Not shared across threads: the traced
/// run executes requests inline on the client thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
            calls: 1,
            aggregate: false,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attaches an accumulated `(calls, busy_ns)` total as a child of span
    /// `parent`, or of the innermost open span when `parent` is `None`.
    /// Returns the new span's index so a nested total can hang off it.
    pub fn aggregate(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        calls: u64,
        busy_ns: u64,
    ) -> usize {
        let parent = parent.or(self.stack.last().copied());
        let start_ns = parent.map_or_else(|| self.now_ns(), |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            request: self.request,
            parent,
            start_ns,
            end_ns: start_ns + busy_ns,
            calls,
            aggregate: true,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over spans at index `from` and later.
    pub fn layer_totals(&self, from: usize) -> Vec<(&'static str, LayerTotal)> {
        let self_ns = self_times_ns(&self.spans);
        let mut totals: Vec<(&'static str, LayerTotal)> = Vec::new();
        for (i, span) in self.spans.iter().enumerate().skip(from) {
            let slot = match totals.iter().position(|(name, _)| *name == span.name) {
                Some(at) => at,
                None => {
                    totals.push((span.name, LayerTotal::default()));
                    totals.len() - 1
                }
            };
            let total = &mut totals[slot].1;
            total.spans += 1;
            total.calls += span.calls;
            total.busy_ns += span.duration_ns();
            total.self_ns += self_ns[i];
        }
        totals
    }

    /// The trace file: every span with its self time.
    pub fn to_json(&self) -> Json {
        let self_ns = self_times_ns(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("id", Json::Int(i as u64)),
                        ("name", Json::str(s.name)),
                        ("request", Json::Int(s.request)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Int(p as u64))),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        ("self_ns", Json::Int(self_ns[i])),
                        ("calls", Json::Int(s.calls)),
                        ("aggregate", Json::Bool(s.aggregate)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the summed durations of its
/// direct children. Saturates at zero, which only an aggregate summed over
/// parallel worker threads can reach (the sharded engine's phase 1).
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            covered[p] += span.duration_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// Looks a layer's total up by name (all zeros when the layer recorded nothing).
pub fn total_of(totals: &[(&'static str, LayerTotal)], name: &str) -> LayerTotal {
    totals.iter().find(|(n, _)| *n == name).map(|(_, t)| *t).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) -> Span {
        Span { name, request: 7, parent, start_ns, end_ns, calls, aggregate: calls != 1 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // session.run [0,100] ⊃ netsim.run [10,90] ⊃ protocol (busy 50) ⊃ on_pulse (busy 20)
        let spans = vec![
            span("sync.session.run", None, 0, 100, 1),
            span("netsim.run", Some(0), 10, 90, 1),
            span("sync.protocol", Some(1), 10, 60, 1000),
            span("algos.on_pulse", Some(2), 10, 30, 40),
            span("verify", None, 100, 104, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 30, 20, 4]);
        // The self times of a tree sum to its root's duration.
        assert_eq!(self_times_ns(&spans)[..4].iter().sum::<u64>(), 100);
    }

    #[test]
    fn parallel_aggregates_saturate_instead_of_underflowing() {
        let spans =
            vec![span("netsim.run", None, 0, 100, 1), span("sync.protocol", Some(0), 0, 150, 9)];
        assert_eq!(self_times_ns(&spans), vec![0, 150]);
    }

    #[test]
    fn scopes_nest_and_totals_group_by_name() {
        let mut tr = Tracer::new();
        tr.set_request(3);
        tr.scope("sync.session.run", |tr| {
            tr.scope("netsim.run", |tr| {
                let protocol = tr.aggregate(None, "sync.protocol", 10, 5);
                tr.aggregate(Some(protocol), "algos.on_pulse", 2, 1);
            });
        });
        tr.scope("netsim.run", |_| ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].start_ns, spans[1].start_ns);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, None);
        assert!(spans.iter().all(|s| s.request == 3 && s.end_ns >= s.start_ns));
        let totals = tr.layer_totals(0);
        assert_eq!(total_of(&totals, "netsim.run").spans, 2);
        assert_eq!(total_of(&totals, "sync.protocol").calls, 10);
        assert_eq!(total_of(&totals, "sync.protocol").self_ns, 4);
        assert_eq!(total_of(&totals, "missing"), LayerTotal::default());
        // Only spans from index 4 on: the second netsim.run alone.
        assert_eq!(total_of(&tr.layer_totals(4), "netsim.run").spans, 1);
        assert!(matches!(tr.to_json(), Json::Arr(ref a) if a.len() == 5));
    }
}
