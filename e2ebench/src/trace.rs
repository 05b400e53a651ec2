//! In-memory spans recorded around calls into each layer's public API.
//!
//! The benchmark wraps only coarse calls (a world build, a scheme
//! assembly, an engine run, a grid run), a few dozen per round, so
//! recording is cheap enough to stay on in every run: the end-to-end
//! metrics read their set-up and wall times from the same spans the
//! per-layer metrics do. What a traced run adds is probe work (the
//! separate placement solve and the planner replay) and writing the
//! spans out.

use std::io::Write;
use std::time::Instant;

/// One timed call: name, start and end in seconds since the tracer was
/// created, and the index of the enclosing span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Index the next span will get; spans from this index on were
    /// recorded after the call.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Total seconds of the spans named exactly `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.secs())
}

/// Total seconds of the spans whose name starts with `prefix`.
pub fn total_prefixed(spans: &[Span], prefix: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .fold(0.0, |acc, s| acc + s.secs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total_by_name() {
        let mut tr = Tracer::default();
        tr.span("round", |tr| {
            tr.span("a", |_| ());
            tr.span("a", |_| ());
            tr.span("b.x", |_| ());
        });
        let spans = tr.since(0);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(total(spans, "a") <= spans[0].secs());
        assert_eq!(total_prefixed(spans, "b."), spans[3].secs());
    }
}
