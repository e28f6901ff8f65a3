//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out as JSON when the run ends.

use std::collections::BTreeMap;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Root spans: the tag of the request (pool index or op id).
    pub tag: u64,
}

#[derive(Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    /// Opens a root span for request `req`; close it with
    /// [`Spans::close`].
    pub fn open(&mut self, name: &'static str, start: u64, req: u64) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: None,
            req,
            tag: 0,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32, end: u64) {
        self.spans[id as usize].end = end;
    }

    pub fn set_tag(&mut self, id: u32, tag: u64) {
        self.spans[id as usize].tag = tag;
    }

    /// Records a finished child of `parent`, in the parent's request.
    pub fn child(&mut self, parent: u32, name: &'static str, start: u64, end: u64) -> u32 {
        let req = self.spans[parent as usize].req;
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
            req,
            tag: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Per span name: `(count, mean duration ns, mean self time ns)`.
    /// Self time is a span's duration minus its children's durations.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end.saturating_sub(s.start);
            }
        }
        let mut acc: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end.saturating_sub(s.start);
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(child_ns[i]);
        }
        acc.into_iter()
            .map(|(k, (n, d, s))| (k, (n, d as f64 / n as f64, s as f64 / n as f64)))
            .collect()
    }

    /// The spans plus their per-name summary as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\":{},\"seed\":{seed},\"summary\":{{",
            crate::json::quote(workload)
        );
        let summary = self.summary();
        let parts: Vec<String> = summary
            .iter()
            .map(|(name, (n, mean, self_mean))| {
                format!(
                    "{}:{{\"count\":{n},\"mean_ns\":{mean:.1},\"self_mean_ns\":{self_mean:.1}}}",
                    crate::json::quote(name)
                )
            })
            .collect();
        out.push_str(&parts.join(","));
        out.push_str("},\"spans\":[\n");
        let lines: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                    s.name, s.start, s.end, s.req
                )
            })
            .collect();
        out.push_str(&lines.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::default();
        let root = s.open("req", 0, 7);
        s.child(root, "a", 10, 40);
        s.child(root, "b", 50, 60);
        s.close(root, 100);
        let sum = s.summary();
        assert_eq!(sum["req"], (1, 100.0, 60.0));
        assert_eq!(sum["a"], (1, 30.0, 30.0));
        assert!(s.spans.iter().all(|sp| sp.req == 7));
        assert!(crate::json::parse(&s.to_json("w", 1)).is_ok());
    }
}
