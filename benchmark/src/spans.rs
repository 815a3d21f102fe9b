//! Spans around the benchmark's own calls into each layer.
//!
//! The traced rep wraps every public call it makes into a crate in a span
//! `{name, start_ns, end_ns, parent}` and adds counts at the same boundaries.
//! Spans are named `<crate>.<step>` (`memsim.run`, `trace.decode`, ...), held
//! in memory, and written out as JSON lines when the rep ends. A layer's self
//! time is its span's duration minus the part of that interval its child
//! spans cover, so a `core.report` span that plans queries inside itself does
//! not double-count the `query.plan` span nested in it.
//!
//! A disabled recorder makes every method a branch on one bool, which is how
//! the code shared by the timed and the traced rep (`tracegen`, the refresh
//! phase) runs untraced.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;
use crate::pace::Pace;

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<step>`.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time; `None` while the span is open.
    pub end_ns: Option<u64>,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds (0 for a span that never closed).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |end| end - self.start_ns)
    }
}

/// Handle returned by [`Spans::enter`]; hand it back to [`Spans::exit`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// The recorder's clock: nanoseconds since the recorder was created, less
/// the time spent [`Spans::off_the_clock`]. A copy lets code the recorder
/// cannot reach into (a stream handed to the simulator) stamp times on the
/// same axis, for [`Spans::attach`] afterwards.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    epoch: Instant,
    paused_ns: u64,
}

impl Clock {
    /// Now, on the recorder's axis.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 - self.paused_ns
    }
}

/// The in-memory span and count recorder.
pub struct Spans {
    enabled: bool,
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
    pace: Option<Pace>,
}

impl Spans {
    /// A recording recorder.
    pub fn on() -> Spans {
        Spans {
            enabled: true,
            clock: Clock {
                epoch: Instant::now(),
                paused_ns: 0,
            },
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            pace: None,
        }
    }

    /// Attaches a [`Pace`] (see [`Pace::start`] for its arguments), started now:
    /// [`Spans::tick`] then measures host speed at the step boundaries it is
    /// called from. The pacer rides on the recorder because the same code
    /// marks both — a disabled recorder with a pace is how a timed rep is
    /// paced.
    pub fn paced(mut self, threads: usize, share: f64) -> Spans {
        self.pace = Some(Pace::start(threads, share));
        self
    }

    /// A step boundary: lets the pace run a slice if one is due, with the
    /// recorder's clock stopped. Nothing without a pace.
    pub fn tick(&mut self) {
        let start = Instant::now();
        if let Some(pace) = &mut self.pace {
            pace.tick_if_due();
            self.clock.paused_ns += start.elapsed().as_nanos() as u64;
        }
    }

    /// Closes the pace's last segment and hands the pace back.
    pub fn finish_pace(&mut self) -> Option<Pace> {
        let mut pace = self.pace.take()?;
        pace.tick();
        Some(pace)
    }

    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            enabled: false,
            ..Spans::on()
        }
    }

    /// A copy of the clock, valid until the next [`Spans::off_the_clock`].
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Runs `f` with the clock stopped: probe work done in the middle of a
    /// rep (work the user's path does not do) appears in no span and in no
    /// wall time read off the recording.
    pub fn off_the_clock<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.clock.paused_ns += start.elapsed().as_nanos() as u64;
        out
    }

    /// Opens a span inside the innermost open one.
    #[must_use = "an entered span must be exited"]
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.clock.now_ns(),
            end_ns: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes the span `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span: spans nest.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end = self.clock.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = Some(end);
    }

    /// Adds an already-measured span under `parent`: how time stamped by a
    /// [`Clock`] copy, somewhere the recorder could not be borrowed, joins
    /// the recording.
    pub fn attach(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let Some(parent) = parent.0 else {
            return SpanId(None);
        };
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: Some(end_ns),
            parent: Some(parent),
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// The count `name` (0 if never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every recorded span, parents before their children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name` under the root
    /// span `root`.
    pub fn durations_ms(&self, root: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.root_of(*i) == root)
            .map(|(_, s)| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time in seconds per span name, over the spans strictly below the
    /// root span `root`.
    pub fn self_by_name(&self, root: &str) -> BTreeMap<String, f64> {
        let own = self_times_ns(&self.spans);
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() && self.root_of(i) == root {
                *out.entry(s.name.clone()).or_insert(0.0) += own[i] as f64 / 1e9;
            }
        }
        out
    }

    /// Duration in seconds of the first root span named `root`.
    pub fn root_s(&self, root: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.parent.is_none() && s.name == root)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
    }

    fn root_of(&self, mut i: usize) -> &str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        &self.spans[i].name
    }

    /// Checks the recording is well formed: every span closed, and every
    /// child inside its parent's interval.
    ///
    /// # Errors
    ///
    /// Names the first span that breaks either rule.
    pub fn check(&self) -> Result<(), String> {
        check_spans(&self.spans)
    }

    /// One JSON object per line, one line per span, tagged with the workload
    /// and rep that produced it.
    pub fn to_jsonl(&self, workload: &str, rep: usize) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::Str(s.name.clone())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                (
                    "end_ns",
                    s.end_ns.map_or(Value::Null, |e| Value::Num(e as f64)),
                ),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("workload", Value::Str(workload.to_string())),
                ("rep", Value::Num(rep as f64)),
            ]);
            out.push_str(&line.to_line());
            out.push('\n');
        }
        out
    }
}

/// See [`Spans::check`].
pub fn check_spans(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        let Some(end) = s.end_ns else {
            return Err(format!("span {i} `{}` never closed", s.name));
        };
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} `{}` names a later parent", s.name))?;
            let inside = parent.start_ns <= s.start_ns && parent.end_ns.is_some_and(|pe| end <= pe);
            if !inside {
                return Err(format!(
                    "span {i} `{}` leaves its parent `{}`",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// Self time of each span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end_ns) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = end.min(spans[p].end_ns.unwrap_or(end));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if lo < hi {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: Some(end),
            parent,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // rep [0,100): report [10,40) holding plan [15,25); two runs, the
        // second overlapping the first by 5 (as worker threads would).
        let spans = vec![
            span("rep", 0, 100, None),
            span("core.report", 10, 40, Some(0)),
            span("query.plan", 15, 25, Some(1)),
            span("memsim.run", 50, 70, Some(0)),
            span("memsim.run", 65, 90, Some(0)),
        ];
        assert_eq!(check_spans(&spans), Ok(()));
        // rep: 100 - (30 + 40 covered by [50,90)) = 30.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 20, 25]);
    }

    #[test]
    fn open_and_escaping_spans_are_caught() {
        let mut open = vec![span("rep", 0, 10, None)];
        open[0].end_ns = None;
        assert!(check_spans(&open).unwrap_err().contains("never closed"));
        let escaping = vec![span("rep", 0, 10, None), span("x", 5, 11, Some(0))];
        assert!(check_spans(&escaping)
            .unwrap_err()
            .contains("leaves its parent"));
        let early = vec![span("rep", 5, 10, None), span("x", 4, 6, Some(0))];
        assert!(check_spans(&early).is_err());
    }

    #[test]
    fn recorder_nests_counts_and_serializes() {
        let mut rec = Spans::on();
        let rep = rec.enter("rep");
        rec.time("memsim.run", || std::hint::black_box(1 + 1));
        let report = rec.enter("core.report");
        rec.time("query.plan", || ());
        rec.exit(report);
        rec.exit(rep);
        rec.count("memsim.points", 2);
        rec.count("memsim.points", 3);
        assert_eq!(rec.counted("memsim.points"), 5);
        assert_eq!(rec.check(), Ok(()));
        assert_eq!(rec.spans().len(), 4);
        assert_eq!(rec.spans()[3].parent, Some(2));
        let by_name = rec.self_by_name("rep");
        assert_eq!(
            by_name.keys().map(String::as_str).collect::<Vec<_>>(),
            ["core.report", "memsim.run", "query.plan"],
            "the root itself is not a layer"
        );
        let root_self_s = self_times_ns(rec.spans())[0] as f64 / 1e9;
        let total: f64 = by_name.values().sum::<f64>() + root_self_s;
        assert!(
            (total - rec.root_s("rep")).abs() < 1e-9,
            "self times partition the root"
        );
        let jsonl = rec.to_jsonl("sweep", 0);
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("workload").and_then(Value::as_str), Some("sweep"));
            assert!(v.get("end_ns").and_then(Value::as_u64).is_some());
        }
    }

    #[test]
    fn attached_spans_and_stopped_clocks() {
        let mut rec = Spans::on();
        let rep = rec.enter("rep");
        let run = rec.enter("memsim.run");
        let clock = rec.clock();
        let (start, end) = (clock.now_ns(), clock.now_ns() + 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit(run);
        let decode = rec.attach(run, "trace.decode", start, end);
        rec.attach(decode, "trace.file_read", start, start);
        let before = rec.clock().now_ns();
        rec.off_the_clock(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        let after = rec.clock().now_ns();
        assert!(
            after - before < 10_000_000,
            "the 20 ms nap is off the clock"
        );
        rec.exit(rep);
        assert_eq!(rec.check(), Ok(()));
        assert!(rec.root_s("rep") < 0.015);
        assert_eq!(rec.spans()[2].parent, Some(1));
        assert_eq!(rec.spans()[3].parent, Some(2));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Spans::off();
        let id = rec.enter("rep");
        assert_eq!(rec.time("x", || 7), 7);
        rec.count("n", 1);
        let _ = rec.attach(id, "y", 0, 1);
        rec.exit(id);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.counted("n"), 0);
    }
}
