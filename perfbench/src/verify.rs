//! The correctness check behind `failed`: every outcome is compared with a
//! hand-written expectation, and every program found is re-checked by
//! means independent of the run that found it.

use std::collections::BTreeMap;

use resyn_eval::measure::{classify, BoundClass};
use resyn_synth::{Mode, Synthesizer};

use crate::exec::GoalRun;
use crate::trace::Tracer;
use crate::workload::Workload;

/// The expected outcome of each (row, mode) of the paper tables.
const EXPECTED: &str = include_str!("../expected.tsv");

/// A run's expected verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Verdict {
    /// A program is found; its measured cost has this bound class.
    Solved(String),
    /// The search space is exhausted without a program.
    Exhausted,
}

/// The expectations a workload's runs are checked against.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Per (row, mode name) verdicts; empty for generated problems, which
    /// are all solvable by construction.
    rows: BTreeMap<(String, String), Verdict>,
    /// Whether runs must match a row entry (the paper tables).
    tabled: bool,
}

impl Expected {
    /// The expectations for a workload.
    pub fn for_workload(workload: Workload) -> Expected {
        let tabled = workload.tabled();
        let rows = if tabled {
            parse(EXPECTED).expect("expected.tsv is well-formed (checked by a unit test)")
        } else {
            BTreeMap::new()
        };
        Expected { rows, tabled }
    }

    /// Check one run's outcome; on success return its measured bound class
    /// (`Unknown` for an expected exhaustion).
    ///
    /// Every program found must be accepted again by
    /// [`Synthesizer::check`] on a fresh solver cache (EAC programs also in
    /// ReSyn mode, the check EAC applies last), and its cost, measured by
    /// the `lang::interp` cost interpreter, must have the expected bound
    /// class (`-` where the interpreter cannot build the inputs). A
    /// generated problem must be solved, and its program must run in the
    /// interpreter without a runtime error.
    pub fn check(&self, record: &GoalRun, run: u32, tracer: &Tracer) -> Result<BoundClass, String> {
        if let Some(warm) = &record.warm {
            if warm.hash != record.hash {
                return Err("the warm replay found a different program".into());
            }
        }
        let mut class = BoundClass::Unknown;
        let measured = match &record.program {
            None => Verdict::Exhausted,
            Some(program) => {
                let mut modes = vec![record.mode];
                if record.mode == Mode::Eac {
                    modes.push(Mode::ReSyn);
                }
                for mode in modes {
                    let (accepted, _) = tracer.time(run, "check.recheck", || {
                        Synthesizer::new().check(&record.goal, mode, program)
                    });
                    if !accepted {
                        return Err(format!(
                            "a fresh-cache check in {} mode rejects the program",
                            mode.as_str()
                        ));
                    }
                }
                (class, _) =
                    tracer.time(run, "measure.classify", || classify(&record.goal, program));
                // `-` (Unknown): the interpreter could not run the program.
                // `eval::measure` builds list and integer inputs only, so
                // the tree rows expect it; anywhere else it is a failure.
                Verdict::Solved(class.to_string())
            }
        };
        let expected = if self.tabled {
            self.rows
                .get(&(record.row.clone(), record.mode.as_str().to_string()))
                .ok_or_else(|| format!("no expectation (measured {measured:?})"))?
        } else if measured == Verdict::Exhausted {
            return Err("found no program for a solvable problem".into());
        } else if class == BoundClass::Unknown {
            return Err("the program fails in the cost interpreter".into());
        } else {
            &measured
        };
        if *expected != measured {
            return Err(format!("measured {measured:?}, expected {expected:?}"));
        }
        Ok(class)
    }
}

/// Parse `row mode verdict [bound]` lines; `#` starts a comment.
fn parse(text: &str) -> Result<BTreeMap<(String, String), Verdict>, String> {
    let mut rows = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let verdict = match fields.as_slice() {
            [_, mode, "solved", class] if mode.parse::<Mode>().is_ok() => {
                Verdict::Solved((*class).to_string())
            }
            [_, mode, "exhausted"] if mode.parse::<Mode>().is_ok() => Verdict::Exhausted,
            _ => return Err(format!("expected.tsv line {}: cannot read `{line}`", i + 1)),
        };
        let key = (fields[0].to_string(), fields[1].to_string());
        if rows.insert(key, verdict).is_some() {
            return Err(format!("expected.tsv line {}: duplicate entry", i + 1));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build, Input};

    #[test]
    fn every_table_run_has_exactly_one_expectation() {
        let rows = parse(EXPECTED).unwrap();
        let key = |unit: &crate::workload::Unit| {
            let Input::Row { row, .. } = &unit.input else {
                panic!("table units are rows")
            };
            (row.clone(), unit.mode.as_str().to_string())
        };
        let paper: Vec<_> = build(Workload::Paper, 0).iter().map(key).collect();
        for k in &paper {
            assert!(rows.contains_key(k), "{k:?} has no expectation");
        }
        assert_eq!(
            rows.len(),
            paper.len(),
            "expected.tsv lists runs no workload makes"
        );
        // The gated workloads are subsets of `paper`.
        for workload in [Workload::Table1, Workload::Table2] {
            for unit in build(workload, 0) {
                assert!(paper.contains(&key(&unit)), "{} is not in paper", unit.id);
            }
        }
    }

    #[test]
    fn malformed_lines_are_refused() {
        assert!(parse("a resyn solved").is_err());
        assert!(parse("a fast solved O(n)").is_err());
        assert!(parse("a resyn exhausted\na resyn exhausted").is_err());
        assert!(parse("# comment only\n\na resyn solved O(n) # trailing").is_ok());
    }
}
