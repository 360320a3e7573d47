//! Spans recorded by benchmark-side decorators, and the self-time join.
//!
//! Decorators wrap the program's public seams — a client [`Transport`],
//! a server [`ServeBackend`], a cluster peer transport — and record one
//! span per call for a sampled subset of request ids. Every span of a
//! request carries that request's id; the cluster reuses the caller's id
//! for its proxy hop, so one id joins spans from the client thread, the
//! entry node's worker and the owner node's worker. A span's parent is
//! the innermost span of the same request whose interval encloses it.
//!
//! Spans stay in memory (striped by thread, so recording threads rarely
//! share a lock) and are analysed and written out after the run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fgcache_net::{GroupReply, GroupRequest, ServeBackend, Transport, TransportStats, WireStats};
use fgcache_types::hash::mix64;
use fgcache_types::{FileId, TransportError};

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// A client's whole fetch, as the caller sees it (the root).
    ClientFetch,
    /// A server backend executing a fetch (`serve_group`/`serve_owned`).
    ServerServe,
    /// The aggregating cache answering a fetch.
    CoreAccess,
    /// A cluster node's `fetch_owned` to the owning peer.
    ProxyHop,
}

impl Layer {
    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ClientFetch => "client.fetch",
            Layer::ServerServe => "net.server.serve",
            Layer::CoreAccess => "core.access",
            Layer::ProxyHop => "cluster.proxy_hop",
        }
    }
}

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request id shared by every span of one request.
    pub request: u64,
    /// Where it was recorded.
    pub layer: Layer,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

const STRIPES: usize = 16;

/// Upper bound on spans held, so a mis-sized sampling rate degrades to
/// dropped spans instead of unbounded memory.
const MAX_SPANS: usize = 4 << 20;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// Collects spans for requests whose id falls in the sample.
pub struct Recorder {
    epoch: Instant,
    sample_mask: u64,
    on: AtomicBool,
    held: AtomicUsize,
    dropped: AtomicU64,
    stripes: Vec<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// A recorder, initially off, that samples one request in
    /// `2^sample_shift` by a hash of its id.
    pub fn new(sample_shift: u32) -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            sample_mask: (1u64 << sample_shift) - 1,
            on: AtomicBool::new(false),
            held: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            stripes: (0..STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    /// The sampled fraction of requests.
    pub fn sample_rate(&self) -> f64 {
        1.0 / (self.sample_mask + 1) as f64
    }

    /// Starts or stops recording.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Release);
    }

    /// Whether `request`'s spans are being recorded.
    pub fn sampled(&self, request: u64) -> bool {
        self.on.load(Ordering::Acquire) && mix64(request) & self.sample_mask == 0
    }

    /// Nanoseconds since the epoch.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Stores a span (or counts it dropped past the memory bound).
    fn push(&self, span: Span) {
        if self.held.fetch_add(1, Ordering::Relaxed) >= MAX_SPANS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let stripe = STRIPE.with(|s| *s);
        self.stripes[stripe]
            .lock()
            .expect("a span push panicked while holding its stripe")
            .push(span);
    }

    /// Spans dropped at the memory bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Every span held, in no particular order.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for stripe in &self.stripes {
            all.append(&mut stripe.lock().expect("a span push panicked"));
        }
        all
    }

    fn time<R>(&self, request: u64, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.sampled(request) {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(Span {
            request,
            layer,
            start,
            end,
        });
        out
    }
}

/// A [`Transport`] decorator recording one span per fetch.
pub struct TracedTransport<T> {
    inner: T,
    layer: Layer,
    recorder: Arc<Recorder>,
}

impl<T: Transport> TracedTransport<T> {
    /// Wraps `inner`, recording its fetches as `layer` spans.
    pub fn new(inner: T, layer: Layer, recorder: Arc<Recorder>) -> Self {
        TracedTransport {
            inner,
            layer,
            recorder,
        }
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn fetch_group(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        let inner = &mut self.inner;
        self.recorder.time(request.request_id, self.layer, || {
            inner.fetch_group(request)
        })
    }

    fn fetch_batch(&mut self, batch: &[GroupRequest]) -> Vec<Result<GroupReply, TransportError>> {
        self.inner.fetch_batch(batch)
    }

    fn fetch_owned(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        let inner = &mut self.inner;
        self.recorder.time(request.request_id, self.layer, || {
            inner.fetch_owned(request)
        })
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// A [`ServeBackend`] decorator recording one span per executed fetch and
/// forwarding every trait method unchanged.
pub struct TracedBackend<B: ?Sized> {
    inner: Arc<B>,
    layer: Layer,
    recorder: Arc<Recorder>,
}

impl<B: ServeBackend + ?Sized> TracedBackend<B> {
    /// Wraps `inner`, recording its fetches as `layer` spans.
    pub fn new(inner: Arc<B>, layer: Layer, recorder: Arc<Recorder>) -> Self {
        TracedBackend {
            inner,
            layer,
            recorder,
        }
    }
}

impl<B: ServeBackend + ?Sized> ServeBackend for TracedBackend<B> {
    fn serve_group(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        self.recorder.time(request_id, self.layer, || {
            self.inner.serve_group(request_id, files)
        })
    }

    fn serve_owned(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        self.recorder.time(request_id, self.layer, || {
            self.inner.serve_owned(request_id, files)
        })
    }

    fn wire_stats(&self) -> WireStats {
        self.inner.wire_stats()
    }

    fn apply_cluster_update(&self, epoch: u64, members: &[(u64, String)]) -> Result<u64, String> {
        self.inner.apply_cluster_update(epoch, members)
    }

    fn serializes_execution(&self) -> bool {
        self.inner.serializes_execution()
    }
}

/// A span placed in its request's tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placed {
    /// The span.
    pub span: Span,
    /// Nesting depth: 0 for a root.
    pub depth: usize,
    /// The parent's layer, if any.
    pub parent: Option<Layer>,
    /// Duration minus the part of it covered by child spans, ns.
    pub self_ns: u64,
}

impl Placed {
    /// Duration, ns.
    pub fn duration(&self) -> u64 {
        self.span.end - self.span.start
    }
}

/// Builds each request's span tree by interval containment and computes
/// self times. Requests are returned sorted by id; each request's spans
/// in start order (outermost first on ties).
pub fn place(spans: Vec<Span>) -> Vec<(u64, Vec<Placed>)> {
    let mut by_request: HashMap<u64, Vec<Span>> = HashMap::new();
    for span in spans {
        by_request.entry(span.request).or_default().push(span);
    }
    let mut out: Vec<(u64, Vec<Placed>)> = by_request
        .into_iter()
        .map(|(request, spans)| (request, place_one(spans)))
        .collect();
    out.sort_unstable_by_key(|(request, _)| *request);
    out
}

fn place_one(mut spans: Vec<Span>) -> Vec<Placed> {
    spans.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
    let mut placed: Vec<Placed> = Vec::with_capacity(spans.len());
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        while let Some(&top) = open.last() {
            let t = &spans[top];
            if t.start <= span.start && span.end <= t.end {
                break;
            }
            open.pop();
        }
        let parent = open.last().copied();
        if let Some(p) = parent {
            children[p].push((span.start, span.end));
        }
        placed.push(Placed {
            span: *span,
            depth: open.len(),
            parent: parent.map(|p| spans[p].layer),
            self_ns: 0,
        });
        open.push(i);
    }
    for (p, kids) in placed.iter_mut().zip(children) {
        p.self_ns = p.duration() - covered(kids);
    }
    placed
}

/// Total length of the union of intervals.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(request: u64, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            request,
            layer,
            start,
            end,
        }
    }

    #[test]
    fn self_times_telescope_along_a_cross_thread_chain() {
        // Request 7: a client fetch (client thread) whose serve ran on a
        // server worker, which proxied to a peer whose own serve ran on
        // a third thread. Recorded in scrambled order, as stripes drain.
        // Request 8 overlaps in time but must not join request 7's tree.
        let spans = vec![
            span(7, Layer::ProxyHop, 30, 80),
            span(8, Layer::ClientFetch, 0, 1000),
            span(7, Layer::ServerServe, 40, 70),
            span(7, Layer::ClientFetch, 0, 100),
            span(7, Layer::ServerServe, 20, 90),
        ];
        let trees = place(spans);
        assert_eq!(trees.len(), 2);
        let (id, chain) = &trees[0];
        assert_eq!(*id, 7);
        let got: Vec<(Layer, usize, Option<Layer>, u64)> = chain
            .iter()
            .map(|p| (p.span.layer, p.depth, p.parent, p.self_ns))
            .collect();
        assert_eq!(
            got,
            vec![
                (Layer::ClientFetch, 0, None, 30),
                (Layer::ServerServe, 1, Some(Layer::ClientFetch), 20),
                (Layer::ProxyHop, 2, Some(Layer::ServerServe), 20),
                (Layer::ServerServe, 3, Some(Layer::ProxyHop), 30),
            ]
        );
        let total: u64 = chain.iter().map(|p| p.self_ns).sum();
        assert_eq!(total, chain[0].duration());
        assert_eq!(trees[1].1[0].self_ns, 1000);
    }

    #[test]
    fn siblings_subtract_their_union() {
        let chain = place(vec![
            span(1, Layer::ClientFetch, 0, 100),
            span(1, Layer::ServerServe, 10, 50),
            span(1, Layer::CoreAccess, 60, 70),
        ]);
        assert_eq!(chain[0].1[0].self_ns, 50);
        assert_eq!(covered(vec![(0, 10), (5, 20), (30, 40)]), 30);
    }

    #[test]
    fn only_sampled_requests_are_recorded() {
        let rec = Recorder::new(2);
        assert!(!rec.sampled(0), "off until switched on");
        rec.set_on(true);
        let sampled = (0..4000u64).filter(|&id| rec.sampled(id)).count();
        assert!((800..1200).contains(&sampled), "{sampled}");
        let hit = (0..4000u64).find(|&id| rec.sampled(id)).expect("some id");
        let miss = (0..4000u64).find(|&id| !rec.sampled(id)).expect("some id");
        assert_eq!(rec.time(hit, Layer::CoreAccess, || 5), 5);
        assert_eq!(rec.time(miss, Layer::CoreAccess, || 6), 6);
        let spans = rec.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].request, hit);
    }
}
