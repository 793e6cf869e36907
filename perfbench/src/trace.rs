//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every call the benchmark makes into the program goes through
//! [`Tracer::time`], which always measures the call's wall time and, when
//! tracing is on, also records a span: its name, start, end, the span open
//! around it, and the id of the (goal, mode) run it belongs to. The spans
//! are written out when the benchmark ends; a layer's self time is its
//! spans' durations minus the part their child spans cover.
//!
//! Each span also records its own bookkeeping time: what recording it
//! added to the wall time of the code around it. Summed over the spans on
//! the timed cold path, that is the tracing overhead of the traced run,
//! measured in the same process and free of the host's drift.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    /// The (goal, mode) run the span belongs to; 0 for the workload root.
    pub run: u32,
    /// The layer call.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Time spent recording the span, on entry and on exit.
    pub cost_ns: u64,
}

/// Times calls and, when enabled, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f`, returning its result and its wall time in seconds. With
    /// tracing on, also record it as a span of `run` nested in the span
    /// currently open. `f` must not unwind (callers catch panics inside it).
    pub fn time<T>(&self, run: u32, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                run,
                name,
                parent: self.open.borrow().last().copied(),
                start_ns: nanos(start - self.epoch),
                end_ns: 0,
                cost_ns: 0,
            });
            let index = spans.len() - 1;
            self.open.borrow_mut().push(index);
            (index, Instant::now())
        });
        let out = f();
        let end = Instant::now();
        if let Some((index, entered)) = index {
            self.open.borrow_mut().pop();
            let mut spans = self.spans.borrow_mut();
            spans[index].end_ns = nanos(end - self.epoch);
            spans[index].cost_ns = nanos((entered - start) + end.elapsed());
        }
        (out, (end - start).as_secs_f64())
    }

    /// The recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("a benchmark run lasts far less than 584 years")
}

/// Spans that enclose the spans of several runs: the workload, and a unit
/// (a generated problem holds one run per goal).
const CONTAINERS: &[&str] = &["workload", "unit"];

/// Check that every span lies inside its parent and belongs to the
/// parent's run (or the parent is a container). Returns the violations.
pub fn nesting_errors(spans: &[Span]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            errors.push(format!("span {i} `{}` ends before it starts", span.name));
        }
        let Some(p) = span.parent else { continue };
        let parent = &spans[p];
        if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            errors.push(format!(
                "span {i} `{}` is not inside its parent {p} `{}`",
                span.name, parent.name
            ));
        }
        if !CONTAINERS.contains(&parent.name) && parent.run != span.run {
            errors.push(format!(
                "span {i} `{}` has run {} but its parent has run {}",
                span.name, span.run, parent.run
            ));
        }
    }
    errors
}

/// Self time in seconds per span name: duration minus the durations of the
/// span's direct children.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p] += span.end_ns - span.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (span, covered) in spans.iter().zip(children) {
        let own = (span.end_ns - span.start_ns).saturating_sub(covered);
        *out.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Bookkeeping seconds of the spans with one of the given names.
pub fn cost_seconds(spans: &[Span], names: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| s.cost_ns as f64 / 1e9)
        .sum()
}

/// Render the spans as JSON.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"run\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"cost_ns\": {}}}{}",
            span.run,
            span.name,
            span.start_ns,
            span.end_ns,
            span.cost_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::new(true);
        tracer.time(0, "workload", || {
            tracer.time(1, "run", || {
                tracer.time(1, "inner", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert!(nesting_errors(&spans).is_empty());
        let own = self_seconds(&spans);
        let run = &spans[1];
        assert!(own["inner"] >= 0.002);
        assert!(own["run"] < (run.end_ns - run.start_ns) as f64 / 1e9);
        let cost = cost_seconds(&spans, &["inner"]);
        assert!(cost > 0.0 && cost < 0.001, "{cost}");
    }

    #[test]
    fn a_disabled_tracer_still_times() {
        let tracer = Tracer::new(false);
        let (v, secs) = tracer.time(0, "x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn a_span_outside_its_parent_is_reported() {
        let spans = vec![
            Span {
                run: 1,
                name: "synth.cold",
                parent: None,
                start_ns: 10,
                end_ns: 20,
                cost_ns: 0,
            },
            Span {
                run: 1,
                name: "late",
                parent: Some(0),
                start_ns: 15,
                end_ns: 25,
                cost_ns: 0,
            },
            Span {
                run: 2,
                name: "foreign",
                parent: Some(0),
                start_ns: 12,
                end_ns: 13,
                cost_ns: 0,
            },
        ];
        let errors = nesting_errors(&spans);
        assert_eq!(errors.len(), 2, "{errors:?}");
    }
}
