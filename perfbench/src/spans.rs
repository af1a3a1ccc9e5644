//! In-memory spans recorded around calls into the program's layers.
//!
//! Each span has a name, start, end, parent and trial id. A layer's self
//! time is its span's duration minus the time its child spans cover. The
//! spans are written out once, when the traced run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trial: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread; spans nest by a stack of open spans.
pub struct Tracer {
    epoch: Instant,
    trial: u64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, trial: u64) -> Tracer {
        Tracer {
            epoch,
            trial,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            trial: self.trial,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Append another tracer's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(other.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per span name: (total duration, self time), seconds, summed over spans.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.0 += s.dur_ns() as f64 * 1e-9;
        e.1 += s.dur_ns().saturating_sub(child_ns[i]) as f64 * 1e-9;
    }
    out
}

/// Write every span (one per line) and the per-name totals to `path`.
pub fn dump(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "# id\tname\tstart_ns\tend_ns\tparent\ttrial")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".into());
        writeln!(
            f,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.trial
        )?;
    }
    writeln!(f, "# name\ttotal_s\tself_s")?;
    for (name, (total, own)) in totals(spans) {
        writeln!(f, "# {name}\t{total:.6}\t{own:.6}")?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                trial: 0,
            },
            Span {
                name: "b",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                trial: 0,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                trial: 0,
            },
        ];
        let t = totals(&spans);
        assert!((t["a"].0 - 100e-9).abs() < 1e-15);
        assert!((t["a"].1 - 60e-9).abs() < 1e-15);
        assert!((t["b"].1 - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0);
        a.time("x", |_| ());
        let mut b = Tracer::new(epoch, 1);
        b.time("y", |t| t.time("z", |_| ()));
        a.absorb(b.spans);
        assert_eq!(a.spans[2].name, "z");
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[2].trial, 1);
    }
}
