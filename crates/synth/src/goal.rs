//! Synthesis goals and modes.

use std::collections::BTreeMap;

use resyn_lang::CostMetric;
use resyn_ty::types::Schema;

/// A synthesis goal: the resource-annotated signature of the function to
/// synthesize, the component library it may use, and the cost metric.
#[derive(Debug, Clone)]
pub struct Goal {
    /// The name of the function being synthesized.
    pub name: String,
    /// The goal type (refinements + potential annotations).
    pub schema: Schema,
    /// The component library: names and schemas of functions the synthesized
    /// program may call (data constructors are always available).
    pub components: BTreeMap<String, Schema>,
    /// The cost metric (recursive calls, by default).
    pub metric: CostMetric,
}

impl Goal {
    /// Create a goal with the default (recursive-calls) metric.
    pub fn new(name: impl Into<String>, schema: Schema, components: Vec<(&str, Schema)>) -> Goal {
        Goal {
            name: name.into(),
            schema,
            components: components
                .into_iter()
                .map(|(n, s)| (n.to_string(), s))
                .collect(),
            metric: CostMetric::RecursiveCalls,
        }
    }
}

/// The synthesizer configuration compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Resource-guided synthesis (the paper's ReSyn).
    #[default]
    ReSyn,
    /// The resource-agnostic Synquid baseline.
    Synquid,
    /// Enumerate functionally-correct programs, then check resources
    /// (the naive combination, column `T-EAC`).
    Eac,
    /// Resource-guided synthesis with the non-incremental CEGIS solver
    /// (column `T-NInc`).
    ReSynNoInc,
    /// Constant-resource synthesis (benchmarks 14–16).
    ConstantTime,
}

impl Mode {
    /// The canonical mode name, as accepted by `--mode` and written in the
    /// eval report and perfbench's expected table (the inverse of the
    /// [`FromStr`] impl).
    ///
    /// [`FromStr`]: std::str::FromStr
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::ReSyn => "resyn",
            Mode::Synquid => "synquid",
            Mode::Eac => "eac",
            Mode::ReSynNoInc => "noinc",
            Mode::ConstantTime => "ct",
        }
    }
}

impl std::str::FromStr for Mode {
    type Err = String;

    /// Parse the mode names of the command line (`--mode`) and perfbench's
    /// expected table.
    fn from_str(s: &str) -> Result<Mode, String> {
        Ok(match s {
            "resyn" => Mode::ReSyn,
            "synquid" => Mode::Synquid,
            "eac" => Mode::Eac,
            "noinc" => Mode::ReSynNoInc,
            "ct" | "constant-time" => Mode::ConstantTime,
            other => {
                return Err(format!(
                    "unknown mode `{other}` (expected resyn, synquid, eac, noinc or ct)"
                ))
            }
        })
    }
}
