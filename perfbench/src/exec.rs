//! One pass over a workload: every unit cold on a fresh solver cache, then
//! replayed on that synthesizer's warm cache.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use resyn_eval::measure::BoundClass;
use resyn_lang::Expr;
use resyn_synth::{Goal, Mode, SynthOutcome, SynthStats, Synthesizer};

use crate::layers::{self, LayerCounts};
use crate::reference::Bracket;
use crate::trace::Tracer;
use crate::verify::Expected;
use crate::workload::{Input, Unit};

/// Per-goal synthesis timeout; a run that reaches it counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// What a pass does besides the cold runs.
#[derive(Debug, Clone, Copy)]
pub struct Pass<'a> {
    /// Re-issue each layer's public call (traced run only).
    pub layers: bool,
    /// Check every outcome against the expectations.
    pub verify: Option<&'a Expected>,
    /// Run reference chunks between the units.
    pub reference: bool,
}

/// The warm replay of one goal.
#[derive(Debug, Clone)]
pub struct Warm {
    /// Search statistics of the replay.
    pub stats: SynthStats,
    /// Wall time of the replay.
    pub secs: f64,
    /// Hash of the program the replay found (0 for none).
    pub hash: u64,
}

/// One (goal, mode) run.
#[derive(Debug, Clone)]
pub struct GoalRun {
    /// Stable identity: unit id, then the goal name for generated problems.
    pub key: String,
    /// The paper table of a suite row, or `gen`.
    pub table: &'static str,
    /// The suite row (tables) or problem id (gen).
    pub row: String,
    /// The mode.
    pub mode: Mode,
    /// The goal as synthesized.
    pub goal: Goal,
    /// Statistics of the cold run.
    pub cold: SynthStats,
    /// Wall time of the cold run.
    pub cold_s: f64,
    /// The warm replay (none when the cold run failed).
    pub warm: Option<Warm>,
    /// The program found by the cold run.
    pub program: Option<Expr>,
    /// Hash of the printed program (0 for none).
    pub hash: u64,
    /// Resident bytes of the run's solver cache after the cold run.
    pub resident_bytes: usize,
    /// Why the run failed, if it did (panic, timeout, wrong output).
    pub failure: Option<String>,
    /// Per-layer counts of the traced run.
    pub layers: Option<LayerCounts>,
    /// The measured bound class of the program, once checked.
    pub class: Option<BoundClass>,
}

/// One timed unit.
#[derive(Debug, Clone)]
pub struct UnitRun {
    /// The unit id.
    pub id: String,
    /// The synthesis mode of the unit's goals.
    pub mode: Mode,
    /// Wall time of the unit's cold phase (parse and lint included for
    /// generated problems).
    pub cold_s: f64,
    /// Bytes of problem text parsed on the timed path.
    pub parsed_bytes: usize,
    /// The goal runs.
    pub goals: Vec<GoalRun>,
    /// A failure before any goal ran (parse error, deny-level lint).
    pub failure: Option<String>,
    /// Mean wall time of the reference chunks run just before and just
    /// after the unit (0 when the pass runs none).
    pub ref_s: f64,
}

/// FNV-1a over the printed program: a stable fingerprint across processes.
pub fn program_hash(program: Option<&Expr>) -> u64 {
    let Some(program) = program else { return 0 };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in program.to_string().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn synthesize(synth: &Synthesizer, goal: &Goal, mode: Mode) -> Result<SynthOutcome, String> {
    catch_unwind(AssertUnwindSafe(|| synth.synthesize(goal, mode)))
        .map_err(|_| "synthesis panicked".to_string())
}

/// Run every unit in the given order.
pub fn run_pass(units: &[&Unit], pass: Pass<'_>, tracer: &Tracer) -> Vec<UnitRun> {
    // Span ids: 0 is the workload, then one per unit and one per goal run.
    let next_id = Cell::new(1u32);
    let fresh_id = || next_id.replace(next_id.get() + 1);
    let mut bracket = pass.reference.then(Bracket::open);
    let (runs, _) = tracer.time(0, "workload", || {
        units
            .iter()
            .map(|unit| {
                let unit_id = fresh_id();
                let (mut run, _) = tracer.time(unit_id, "unit", || {
                    run_unit(unit, unit_id, &fresh_id, pass, tracer)
                });
                run.ref_s = bracket.as_mut().map_or(0.0, Bracket::close);
                run
            })
            .collect()
    });
    runs
}

/// Parse and lint a generated problem as the server does.
fn goals_of(unit: &Unit, unit_id: u32, tracer: &Tracer) -> Result<Vec<Goal>, String> {
    match &unit.input {
        Input::Row { goal, .. } => Ok(vec![(**goal).clone()]),
        Input::Problem { text } => {
            let (parsed, _) = tracer.time(unit_id, "parse.problem", || {
                resyn_parse::parse_problem(text)
            });
            let parsed = parsed.map_err(|e| format!("parse error: {e}"))?;
            let (lint, _) = tracer.time(unit_id, "analysis.lint", || {
                resyn_parse::lint_source_structural(text)
            });
            let diagnostics = lint.map_err(|e| format!("lint scan error: {e}"))?;
            if resyn_analysis::lint::has_deny(&diagnostics) {
                return Err(format!(
                    "deny-level lint finding: {}",
                    diagnostics[0].message
                ));
            }
            Ok(parsed.into_goals())
        }
    }
}

/// The cold phase of a unit: its goals, and per goal the synthesizer, the
/// outcome and the wall time; plus the unit's wall time.
struct ColdPhase {
    goals: Vec<Goal>,
    runs: Vec<(Synthesizer, Result<SynthOutcome, String>, f64)>,
    secs: f64,
}

/// The timed path: parse and lint (generated problems), then every goal
/// cold on a fresh synthesizer, each a span of its own goal run.
fn cold_phase(
    unit: &Unit,
    unit_id: u32,
    fresh_id: &dyn Fn() -> u32,
    tracer: &Tracer,
) -> Result<(ColdPhase, Vec<u32>), String> {
    let start = Instant::now();
    let goals = goals_of(unit, unit_id, tracer)?;
    let ids: Vec<u32> = goals.iter().map(|_| fresh_id()).collect();
    let mut runs = Vec::with_capacity(goals.len());
    for (goal, &run) in goals.iter().zip(&ids) {
        let synth = Synthesizer::with_timeout(TIMEOUT).with_goal_jobs(1);
        let (outcome, secs) =
            tracer.time(run, "synth.cold", || synthesize(&synth, goal, unit.mode));
        runs.push((synth, outcome, secs));
    }
    let secs = start.elapsed().as_secs_f64();
    Ok((ColdPhase { goals, runs, secs }, ids))
}

fn run_unit(
    unit: &Unit,
    unit_id: u32,
    fresh_id: &dyn Fn() -> u32,
    pass: Pass<'_>,
    tracer: &Tracer,
) -> UnitRun {
    let (table, row) = match &unit.input {
        Input::Row { table, row, .. } => (*table, row.clone()),
        Input::Problem { .. } => ("gen", unit.id.clone()),
    };
    let parsed_bytes = match &unit.input {
        Input::Row { .. } => 0,
        Input::Problem { text } => text.len(),
    };
    let mut out = UnitRun {
        id: unit.id.clone(),
        mode: unit.mode,
        cold_s: 0.0,
        parsed_bytes,
        goals: Vec::new(),
        failure: None,
        ref_s: 0.0,
    };

    let (cold, ids) = match cold_phase(unit, unit_id, fresh_id, tracer) {
        Ok(phase) => phase,
        Err(e) => {
            out.failure = Some(e);
            return out;
        }
    };
    out.cold_s = cold.secs;

    let mut synths = Vec::with_capacity(cold.goals.len());
    for (goal, (synth, outcome, cold_s)) in cold.goals.into_iter().zip(cold.runs) {
        let key = match &unit.input {
            Input::Row { .. } => unit.id.clone(),
            Input::Problem { .. } => format!("{}/{}", unit.id, goal.name),
        };
        let mut record = GoalRun {
            key,
            table,
            row: row.clone(),
            mode: unit.mode,
            goal,
            cold: SynthStats::default(),
            cold_s,
            warm: None,
            program: None,
            hash: 0,
            resident_bytes: synth.cache().stats().resident_bytes,
            failure: None,
            layers: None,
            class: None,
        };
        match outcome {
            Ok(outcome) => {
                if outcome.stats.timed_out {
                    record.failure = Some(format!("timed out after {}s", TIMEOUT.as_secs()));
                }
                record.hash = program_hash(outcome.program.as_ref());
                record.program = outcome.program;
                record.cold = outcome.stats;
            }
            Err(e) => record.failure = Some(e),
        }
        out.goals.push(record);
        synths.push(synth);
    }

    // Off the timed path: warm replay, layer attribution, output checks.
    for ((record, synth), &run) in out.goals.iter_mut().zip(&synths).zip(&ids) {
        if record.failure.is_some() {
            continue;
        }
        let (outcome, secs) = tracer.time(run, "synth.warm", || {
            synthesize(synth, &record.goal, unit.mode)
        });
        match outcome {
            Ok(outcome) => {
                record.warm = Some(Warm {
                    hash: program_hash(outcome.program.as_ref()),
                    stats: outcome.stats,
                    secs,
                })
            }
            Err(e) => record.failure = Some(format!("warm replay: {e}")),
        }
        if pass.layers {
            record.layers = Some(layers::attribute(&unit.input, record, synth, run, tracer));
        }
        if let Some(expected) = pass.verify {
            if record.failure.is_none() {
                match expected.check(record, run, tracer) {
                    Ok(class) => record.class = Some(class),
                    Err(e) => record.failure = Some(e),
                }
            }
        }
    }
    out
}
