//! The benchmark's workloads: which inputs each one hands to the program.
//!
//! A workload is a list of [`Unit`]s. A unit is one timed sample: a single
//! (row, mode) run of a paper table, or one generated problem that goes
//! through the same path as a server request (parse, lint, synthesize every
//! goal).
//!
//! The gated workloads `table1` and `table2` are sized so that one round
//! over their units takes about 10 s on a 2-vCPU host: a run then makes at
//! least three rounds and reports per-unit medians. The `paper` workload
//! runs every row in every mode the paper reports, for the paper-style
//! tables; it is informational and takes about a minute per round.

use std::fmt::Write as _;
use std::str::FromStr;

use resyn_eval::suite::{self, Benchmark};
use resyn_gen::{ProblemSpec, SplitMix64, Template, TEMPLATES};
use resyn_lang::CostMetric;
use resyn_parse::surface::schema_to_surface;
use resyn_synth::{Goal, Mode};

/// Table-1 rows left out of the `table1` workload, with the reason.
pub const TABLE1_EXCLUDED: &[(&str, &str)] = &[(
    "sslist-insert",
    "all four modes time out at 60 s in BENCH_eval.json after 105k-167k \
     candidates, so its time would equal the timeout",
)];

/// Table-1 rows left out of the gated `table1` workload (they stay in
/// `paper`), with the reason.
pub const TABLE1_UNGATED: &[(&str, &str)] = &[(
    "list-compress",
    "one 6 s goal would be 45 % of the workload's cold time, so the sum \
     would be as noisy as that one goal, and three rounds of it would take \
     18 s of the run",
)];

/// Generated problems per `gen` run.
pub const GEN_PROBLEMS: usize = 72;
/// Goals per generated problem: one problem is one request of about 100 ms.
pub const GEN_GOALS: usize = 5;
/// The generator's difficulty knob (`resyn gen --size`).
pub const GEN_SIZE: usize = 4;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// A seed kept out of all tuning, for re-checking later claims on `gen`.
pub const HELD_OUT_SEED: u64 = 7919;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 1 (minus [`TABLE1_EXCLUDED`] and
    /// [`TABLE1_UNGATED`]) in ReSyn mode.
    Table1,
    /// The paper's Table 2 in ReSyn (or ConstantTime) and Synquid mode.
    Table2,
    /// Seeded generated problems, handed to the program as text.
    Gen,
    /// Table 1 (minus [`TABLE1_EXCLUDED`]) in ReSyn and Synquid mode and
    /// Table 2 in all four modes: the paper-style tables.
    Paper,
}

impl Workload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Table2 => "table2",
            Workload::Gen => "gen",
            Workload::Paper => "paper",
        }
    }

    /// Whether the workload's inputs depend on the seed.
    pub fn seeded(self) -> bool {
        self == Workload::Gen
    }

    /// Whether the workload's runs are checked against `expected.tsv`.
    pub fn tabled(self) -> bool {
        self != Workload::Gen
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        match s {
            "table1" => Ok(Workload::Table1),
            "table2" => Ok(Workload::Table2),
            "gen" => Ok(Workload::Gen),
            "paper" => Ok(Workload::Paper),
            other => Err(format!(
                "unknown workload `{other}` (expected table1, table2, gen or paper)"
            )),
        }
    }
}

/// What a unit feeds to the program.
#[derive(Debug, Clone)]
pub enum Input {
    /// A suite row, synthesized from its built goal.
    Row {
        /// The paper table the row belongs to: `table1` or `table2`.
        table: &'static str,
        /// The suite row id.
        row: String,
        /// The goal as the suite builds it.
        goal: Box<Goal>,
    },
    /// A generated problem. The program receives only this text.
    Problem {
        /// The problem file.
        text: String,
    },
}

/// One timed sample.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Stable identity: `row/mode` or `gen-<seed>-<index>`.
    pub id: String,
    /// The synthesis mode.
    pub mode: Mode,
    /// The input.
    pub input: Input,
}

/// Build a workload's units, in forward order. This is the benchmark's
/// set-up: it calls only the program's suite and generator.
pub fn build(workload: Workload, seed: u64) -> Vec<Unit> {
    match workload {
        Workload::Table1 => rows("table1", suite::table1(), TABLE1_UNGATED, &[Mode::ReSyn]),
        Workload::Table2 => rows(
            "table2",
            suite::table2(),
            &[],
            &[Mode::ReSyn, Mode::Synquid],
        ),
        Workload::Gen => generated(seed),
        Workload::Paper => {
            let mut units = rows(
                "table1",
                suite::table1(),
                &[],
                &[Mode::ReSyn, Mode::Synquid],
            );
            units.extend(rows(
                "table2",
                suite::table2(),
                &[],
                &[Mode::ReSyn, Mode::Synquid, Mode::Eac, Mode::ReSynNoInc],
            ));
            units
        }
    }
}

/// One unit per (row, mode), skipping [`TABLE1_EXCLUDED`] and `skip`.
/// ReSyn stands for ConstantTime on the constant-resource rows.
fn rows(
    table: &'static str,
    benches: Vec<Benchmark>,
    skip: &[(&str, &str)],
    modes: &[Mode],
) -> Vec<Unit> {
    let mut units = Vec::new();
    for bench in benches {
        if TABLE1_EXCLUDED
            .iter()
            .chain(skip)
            .any(|(id, _)| *id == bench.id)
        {
            continue;
        }
        for &mode in modes {
            let mode = match mode {
                Mode::ReSyn if bench.constant_time => Mode::ConstantTime,
                mode => mode,
            };
            units.push(Unit {
                id: format!("{}/{}", bench.id, mode.as_str()),
                mode,
                input: Input::Row {
                    table,
                    row: bench.id.clone(),
                    goal: Box::new(bench.goal.clone()),
                },
            });
        }
    }
    units
}

/// Render a suite goal as a problem file. Every Table-1 and Table-2 goal
/// re-parses to the same components, schema and metric.
pub fn render_goal(goal: &Goal) -> String {
    let mut out = String::new();
    for (name, schema) in &goal.components {
        let _ = writeln!(out, "component {name} :: {}", schema_to_surface(schema));
    }
    match &goal.metric {
        CostMetric::RecursiveCalls => {}
        CostMetric::AllApplications => out.push_str("metric all-applications\n"),
        CostMetric::PerComponent(costs) => {
            out.push_str("metric");
            for (name, cost) in costs {
                let _ = write!(out, " cost {name} {cost}");
            }
            out.push('\n');
        }
    }
    let _ = writeln!(
        out,
        "goal {} :: {}",
        goal.name,
        schema_to_surface(&goal.schema)
    );
    out
}

/// The `gen` problems for a seed.
///
/// Goals are drawn from one generator stream per seed. Problem `i` takes
/// the templates `i, i+1, .., i+4` of a fixed rotation; for each, specs are
/// drawn until one's first goal has it. So every seed runs the same mix of
/// templates, with seeded names, potentials and distractors, and the
/// problems' times spread evenly instead of falling into a few classes: the
/// seed-to-seed spread stays small. The problem's library is the union of
/// its goals' libraries, so reachability pruning has components to drop.
///
/// The `member` template is left out: one instance takes 0.36-2.1 s
/// depending on its distractors and names, so it would dominate every
/// seed's time. Table 1's member rows cover that search.
fn generated(seed: u64) -> Vec<Unit> {
    let templates: Vec<Template> = TEMPLATES
        .iter()
        .copied()
        .filter(|t| *t != Template::Member)
        .collect();
    let mut rng = SplitMix64::derive(seed, 0);
    (0..GEN_PROBLEMS)
        .map(|index| {
            let mut goals = Vec::new();
            let mut distractors = Vec::new();
            let mut explicit_metric = false;
            for position in 0..GEN_GOALS {
                let target = templates[(index + position) % templates.len()];
                let spec = loop {
                    let spec = resyn_gen::generate(&mut rng, GEN_SIZE);
                    if spec.goals[0].template == target {
                        break spec;
                    }
                };
                if position == 0 {
                    explicit_metric = spec.explicit_metric;
                }
                for d in spec.distractors {
                    if !distractors.contains(&d) {
                        distractors.push(d);
                    }
                }
                let mut goal = spec.goals[0].clone();
                goal.name = format!("{}_{position}", goal.name);
                goals.push(goal);
            }
            let spec = ProblemSpec {
                goals,
                distractors,
                explicit_metric,
            };
            Unit {
                id: format!("gen-{seed}-{index}"),
                mode: Mode::ReSyn,
                input: Input::Problem {
                    text: spec.render(),
                },
            }
        })
        .collect()
}
