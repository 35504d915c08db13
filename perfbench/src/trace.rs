//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call into a layer's
//! public functions; nothing inside the library crates is instrumented.
//! A disabled tracer costs one branch per call, so the untraced run
//! measures the end-to-end metrics.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call. `id` is shared by every span of one request, poll
/// sweep or repair cycle.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans per storage chunk. Chunks are never reallocated, so a long run
/// does not stall on copying one ever-growing buffer.
const CHUNK: usize = 1 << 16;

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    chunks: Vec<Vec<Span>>,
    len: usize,
    open: Vec<u32>,
    id: u64,
}

/// Token returned by [`Tracer::begin`]; `None` when tracing is off.
pub type Token = Option<u32>;

impl Tracer {
    /// A tracer whose timestamps count from `origin` (shared by every
    /// thread of a run, so spans from different threads line up).
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            chunks: Vec::new(),
            len: 0,
            open: Vec::new(),
            id: 0,
        }
    }

    /// Set the id the next spans carry (request, sweep or cycle number).
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Token {
        if !self.on {
            return None;
        }
        let idx = u32::try_from(self.len).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.len += 1;
        let start_ns = self.now_ns();
        self.chunks.last_mut().expect("pushed above").push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id: self.id,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span `token` opened.
    pub fn end(&mut self, token: Token) {
        if let Some(idx) = token {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
            let end_ns = self.now_ns();
            let idx = idx as usize;
            self.chunks[idx / CHUNK][idx % CHUNK].end_ns = end_ns;
        }
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let token = self.begin(name);
        let out = f();
        self.end(token);
        out
    }

    /// Take the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        self.len = 0;
        std::mem::take(&mut self.chunks).concat()
    }
}

/// Concatenate the spans of several threads, re-basing parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for part in parts {
        let base = out.len() as u32;
        out.extend(part.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    out
}

/// Self times of one traced run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Self time in ns, summed over every span of one name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Wall time of all root spans (requests, poll sweeps, cycles).
    pub root_ns: u64,
    /// Part of the root spans' wall time their direct children cover.
    pub root_child_ns: u64,
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Analysis {
    /// A span's self time is its duration minus what its direct children
    /// cover (children of one span never overlap: one thread records
    /// them in sequence).
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut a = Analysis::default();
        for (s, kids) in spans.iter().zip(&child_ns) {
            let dur = s.dur_ns();
            *a.self_ns.entry(s.name).or_default() += dur.saturating_sub(*kids);
            if s.parent == NO_PARENT {
                a.root_ns += dur;
                a.root_child_ns += kids;
            }
        }
        a
    }

    /// Self time of the spans named `name`, in ns.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// Self time per layer, in ns.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, ns) in &self.self_ns {
            *out.entry(layer(name)).or_insert(0) += ns;
        }
        out
    }
}

/// Write spans as tab-separated `index parent id name start_ns end_ns`
/// lines (parent `-` for roots).
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index\tparent\tid\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT {
            writeln!(
                w,
                "{i}\t-\t{}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        } else {
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                s.parent, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "bench.round",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                id: 0,
            },
            Span {
                name: "store.update",
                start_ns: 10,
                end_ns: 30,
                parent: 0,
                id: 0,
            },
            Span {
                name: "store.absorb",
                start_ns: 40,
                end_ns: 90,
                parent: 0,
                id: 0,
            },
        ];
        let a = Analysis::of(&spans);
        assert_eq!(a.root_ns, 100);
        assert_eq!(a.root_child_ns, 70);
        assert_eq!(a.self_ns("bench.round"), 30);
        assert_eq!(a.layer_self_ns()["store"], 70);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("store.update", || 7), 7);
        assert!(t.take().is_empty());
    }
}
