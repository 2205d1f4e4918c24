//! The benchmark's own spans, recorded from outside around calls into each
//! layer's public functions, kept in memory and written out at exit.
//!
//! The recorder reads the clock the program's tracer stamps its spans
//! with (`bpart_obs::tracer::now_ns`), so the spans the program already
//! records can be adopted as children by time alone.

use bpart_obs::tracer::now_ns;
use bpart_obs::SpanRecord;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Job the span belongs to; spans of one job share it.
    pub job: u32,
    /// True for a span the program recorded itself and the benchmark adopted.
    pub adopted: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::open`]; pass it back to `close`.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// Span recorder for the single benchmark thread. Disabled (every call a
/// no-op) on untraced runs, which is where end-to-end metrics come from.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            ..Recorder::default()
        }
    }

    /// Spans opened from now on belong to job `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job: self.job,
            adopted: false,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn close(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        self.spans[index].end_ns = now_ns();
        // Closing out of order would mis-parent later spans; the benchmark
        // only ever nests, so truncate to be safe against an early return.
        if let Some(pos) = self.stack.iter().rposition(|&i| i == index) {
            self.stack.truncate(pos);
        }
    }

    /// Times one call into a layer.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Adopts the program's own spans of the current job (`bpart_obs`
    /// snapshot) as children: a span keeps its recorded parent when that
    /// parent is in the snapshot, and otherwise hangs under the innermost
    /// benchmark span of this job that was open when it started.
    pub fn adopt(&mut self, records: &[SpanRecord]) {
        if !self.enabled {
            return;
        }
        let own_end = self.spans.len();
        let by_id: HashMap<u64, usize> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id, own_end + i))
            .collect();
        for r in records {
            let parent = r
                .parent
                .and_then(|p| by_id.get(&p).copied())
                .or_else(|| self.innermost_own(own_end, r.start_ns));
            self.spans.push(Span {
                name: r.name,
                start_ns: r.start_ns,
                end_ns: r.start_ns + r.dur_ns,
                parent,
                job: self.job,
                adopted: true,
            });
        }
    }

    /// The shortest closed benchmark span of the current job containing `t`.
    fn innermost_own(&self, own_end: usize, t: u64) -> Option<usize> {
        self.spans[..own_end]
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.adopted && s.job == self.job && s.start_ns <= t && t < s.end_ns)
            .min_by_key(|(_, s)| s.dur_ns())
            .map(|(i, _)| i)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover. Children may overlap each other (spans
    /// adopted from other threads do), so the covered part is the union of
    /// their intervals, clipped to the parent.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let lo = s.start_ns.max(self.spans[p].start_ns);
                let hi = s.end_ns.min(self.spans[p].end_ns);
                if lo < hi {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| s.dur_ns() - covered_ns(&mut kids))
            .collect()
    }

    /// Per job, the summed duration in seconds of the spans called `name`,
    /// as `(job, seconds)`; jobs without such a span are left out.
    pub fn per_job_secs(&self, name: &str) -> Vec<(u32, f64)> {
        self.per_job(name, |i| self.spans[i].dur_ns())
    }

    /// Like [`per_job_secs`](Self::per_job_secs) for self time, given the
    /// output of [`self_times_ns`](Self::self_times_ns).
    pub fn per_job_self_secs(&self, name: &str, self_ns: &[u64]) -> Vec<(u32, f64)> {
        self.per_job(name, |i| self_ns[i])
    }

    fn per_job(&self, name: &str, ns: impl Fn(usize) -> u64) -> Vec<(u32, f64)> {
        let mut by_job: Vec<(u32, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            match by_job.iter_mut().find(|(job, _)| *job == s.job) {
                Some((_, total)) => *total += ns(i),
                None => by_job.push((s.job, ns(i))),
            }
        }
        by_job
            .into_iter()
            .map(|(job, t)| (job, t as f64 / 1e9))
            .collect()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// One JSON object per span and line.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let origin = if s.adopted { "program" } else { "benchmark" };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"origin\":\"{origin}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.job, s.name, s.start_ns, s.end_ns, self_ns[i]
            );
        }
        out
    }
}

/// Total length of the union of `intervals` (sorted in place).
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job: 0,
            adopted: false,
        }
    }

    fn recorder(spans: Vec<Span>) -> Recorder {
        Recorder {
            enabled: true,
            spans,
            stack: Vec::new(),
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let rec = recorder(vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a by 10
            span("c", 90, 120, Some(0)), // runs past the parent: clipped to 10
            span("a.inner", 15, 20, Some(1)),
        ]);
        let self_ns = rec.self_times_ns();
        assert_eq!(self_ns[0], 100 - (50 + 10));
        assert_eq!(self_ns[1], 30 - 5);
        assert_eq!(self_ns[2], 30);
        assert_eq!(self_ns[4], 5);
    }

    #[test]
    fn nested_children_are_not_subtracted_twice() {
        let rec = recorder(vec![
            span("job", 0, 100, None),
            span("a", 0, 50, Some(0)),
            span("a.inner", 0, 50, Some(1)),
        ]);
        assert_eq!(rec.self_times_ns(), vec![50, 0, 50]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.open("job");
        assert_eq!(rec.time("x", || 7), 7);
        rec.close(open);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn open_close_nests_and_tags_jobs() {
        let mut rec = Recorder::new(true);
        rec.set_job(3);
        let job = rec.open("job");
        rec.time("graph.load", || ());
        rec.time("core.bpart_k8", || ());
        rec.close(job);
        let names: Vec<_> = rec
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.job))
            .collect();
        assert_eq!(
            names,
            vec![
                ("job", None, 3),
                ("graph.load", Some(0), 3),
                ("core.bpart_k8", Some(0), 3)
            ]
        );
        assert_eq!(rec.per_job_secs("graph.load").len(), 1);
    }

    #[test]
    fn adoption_parents_by_recorded_parent_then_by_time() {
        let mut rec = recorder(vec![
            span("job", 0, 1000, None),
            span("engine.pagerank", 100, 900, Some(0)),
        ]);
        let record = |id, parent, name, start_ns, dur_ns| SpanRecord {
            id,
            parent,
            name,
            thread: 0,
            start_ns,
            dur_ns,
            attrs: Vec::new(),
        };
        // Ring order is close order: the child closes before its parent.
        rec.adopt(&[
            record(8, Some(7), "cluster.exchange", 250, 50),
            record(7, None, "cluster.superstep", 200, 300),
            record(9, None, "outside.any.job", 5000, 10),
        ]);
        let s = rec.spans();
        assert_eq!((s[2].name, s[2].parent), ("cluster.exchange", Some(3)));
        assert_eq!((s[3].name, s[3].parent), ("cluster.superstep", Some(1)));
        assert_eq!(s[4].parent, None);
        assert!(s[2].adopted && s[3].adopted);
        // The engine's self time is what its supersteps do not cover.
        assert_eq!(rec.self_times_ns()[1], 800 - 300);
        assert_eq!(rec.per_job_secs("cluster.superstep"), vec![(0, 300e-9)]);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let rec = recorder(vec![span("job", 0, 10, None), span("a", 2, 4, Some(0))]);
        let text = rec.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
