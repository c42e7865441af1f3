//! In-memory spans for `--trace` runs, recorded by the benchmark around
//! each public call into a layer and written out as JSON lines when the
//! run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds after the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// For commit spans: the pushed-event ordinals `[from, to)` this
    /// call committed.
    pub seq: Option<(u64, u64)>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span stack on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            seq: None,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Closes `id` and drops it: it did no work (an idle pump). Only
    /// valid while it has no children.
    pub fn discard(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        assert_eq!(
            self.spans.len(),
            id as usize + 1,
            "discarded span has children"
        );
        self.spans.pop();
    }

    /// Times `f` as span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Durations of spans named `name`, ascending.
    pub fn sorted_ns(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Per name: `(busy ns, self ns, count)`, where self time is busy
    /// time minus the time of direct children. Sorted by name.
    pub fn layers(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut by_name: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match by_name.iter_mut().find(|row| row.0 == s.name) {
                Some(row) => {
                    row.1 += s.ns();
                    row.2 += s.ns() - child_ns[i];
                    row.3 += 1;
                }
                None => by_name.push((s.name, s.ns(), s.ns() - child_ns[i], 1)),
            }
        }
        by_name.sort_by_key(|row| row.0);
        by_name
    }

    /// Writes one JSON object per span: `id`, `name`, `start_ns`,
    /// `end_ns`, `parent` (or null) and, for commit spans, `seq`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => write!(out, "null")?,
            }
            if let Some((from, to)) = s.seq {
                write!(out, ",\"seq\":[{from},{to}]")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_discard_drops_idle_spans() {
        let mut t = Tracer::new(Instant::now());
        let idle = t.begin("pump");
        t.discard(idle);
        let outer = t.begin("pump");
        let inner = t.begin("flush");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let layers = t.layers();
        let pump = layers.iter().find(|l| l.0 == "pump").unwrap();
        let flush = layers.iter().find(|l| l.0 == "flush").unwrap();
        assert_eq!(pump.1 - pump.2, flush.1, "pump self = busy - child");
        assert_eq!(pump.3, 1);
    }
}
