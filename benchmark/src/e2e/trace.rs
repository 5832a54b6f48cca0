//! In-memory spans recorded by the benchmark around its calls into each
//! layer (no timer lives in product code). A span's self time is its
//! duration minus the part its direct children cover; spans are written
//! out only when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: `layer` is the product module it entered, `op_id`
/// the simulation job (or request) it served, `parent` the span that
/// caused it.
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub op_id: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self seconds per `layer.name` of one traced run.
pub struct SelfTimes(BTreeMap<String, f64>);

impl SelfTimes {
    /// Self seconds of one `layer.name` (0 when it never ran).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Self seconds of every call into a product layer: everything but
    /// the benchmark's own `bench.*` parent spans.
    pub fn in_layers(&self) -> f64 {
        self.0
            .iter()
            .filter(|(key, _)| !key.starts_with("bench."))
            .map(|(_, s)| s)
            .sum()
    }
}

/// Span recorder for one traced run.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, op_id: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            op_id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Time one call into a layer as a leaf span.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(layer, name, op_id);
        let out = f();
        self.end(id);
        out
    }

    /// Duration of one closed span, in seconds.
    pub fn seconds(&self, id: u32) -> f64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Self time per `layer.name`: each span's duration minus the part
    /// its direct children cover.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            *out.entry(format!("{}.{}", s.layer, s.name)).or_default() +=
                (s.end_ns - s.start_ns).saturating_sub(*children) as f64 / 1e9;
        }
        SelfTimes(out)
    }

    /// Append every span as one JSON object per line.
    pub fn write_jsonl(&self, workload: &str, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"workload\": \"{workload}\", \"span\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \
                 \"op_id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.layer, s.op_id, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}
