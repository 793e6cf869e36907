//! Seeded, deterministic generation of synthesis problems — the scenario
//! fuzzer behind `resyn gen` and `resyn fuzz`.
//!
//! The paper's evaluation is a fixed table of hand-written benchmarks; this
//! crate turns the same machinery into an unbounded workload. A
//! [`GenConfig`] (seed, count, size) names a reproducible batch of
//! well-typed `.re` problems: each problem instantiates a goal [`Template`]
//! (identity, is-empty, member, append, …) with randomized names, resource
//! annotations at or above the template's solvable minimum, and distractor
//! components — so every generated problem is known to be well-typed, and
//! solvable given enough budget.
//!
//! Three layers build on the generator:
//!
//! * [`spec`] — the structured problem form and its renderer (round-trip
//!   guaranteed through [`resyn_parse::surface`]),
//! * [`differential`] — run one problem through ReSyn, EAC and NoInc under
//!   one [`Budget`](resyn_budget::Budget), demanding verdict agreement, no
//!   panics, a bit-identical warm-cache replay and no call to a component
//!   the reachability analysis marks unreachable,
//! * [`mod@shrink`] — greedy spec-level minimization of failing problems.
//!
//! Determinism contract: the rendered output of [`problems`] depends only on
//! `(seed, count, size)` — problem `i` is drawn from its own derived
//! SplitMix64 stream, so it is byte-identical whatever the batch size.

pub mod differential;
#[cfg(test)]
mod proptests;
pub mod rng;
pub mod shrink;
pub mod spec;

pub use differential::{run_differential, DiffOutcome, GoalDiff, ModeRun, Verdict, DIFF_MODES};
pub use rng::SplitMix64;
pub use shrink::shrink;
pub use spec::{generate, Component, GoalSpec, ProblemSpec, Template, TEMPLATES};

use resyn_parse::ParsedProblem;

/// The generator's knobs: what `resyn gen --seed --count --size` parses to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Master seed; each problem derives its own stream from it.
    pub seed: u64,
    /// How many problems to draw.
    pub count: usize,
    /// Difficulty knob (see [`spec::generate`]); the default of 3 keeps
    /// every problem solvable within a couple of seconds even in debug
    /// builds.
    pub size: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 42,
            count: 10,
            size: 3,
        }
    }
}

/// One generated problem: a stable identity plus its structured spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenProblem {
    /// Stable identifier: `gen-<seed>-<index>`.
    pub id: String,
    /// The master seed the batch was drawn with.
    pub seed: u64,
    /// The problem's index within the batch.
    pub index: usize,
    /// The structured problem.
    pub spec: ProblemSpec,
}

impl GenProblem {
    /// The abstract problem (identical to parsing [`render`](Self::render)).
    pub fn problem(&self) -> ParsedProblem {
        self.spec.problem()
    }

    /// The problem as a `.re` file, headed by a comment naming its identity
    /// so a failure can be reproduced from the file alone.
    pub fn render(&self) -> String {
        format!(
            "-- {} (resyn gen --seed {} ; problem {})\n{}",
            self.id,
            self.seed,
            self.index,
            self.spec.render()
        )
    }
}

/// Draw a batch of problems. Deterministic: depends only on the config.
pub fn problems(config: &GenConfig) -> Vec<GenProblem> {
    (0..config.count)
        .map(|index| {
            let mut rng = SplitMix64::derive(config.seed, index as u64);
            GenProblem {
                id: format!("gen-{}-{index}", config.seed),
                seed: config.seed,
                index,
                spec: spec::generate(&mut rng, config.size),
            }
        })
        .collect()
}

/// Render a whole batch as one text stream (what `resyn gen` prints):
/// problems separated by a blank line, byte-deterministic in the config.
pub fn render_batch(batch: &[GenProblem]) -> String {
    let mut out = String::new();
    for (i, problem) in batch.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&problem.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_byte_deterministic() {
        let config = GenConfig {
            seed: 42,
            count: 20,
            size: 3,
        };
        let a = render_batch(&problems(&config));
        let b = render_batch(&problems(&config));
        assert_eq!(a, b);
        let other = render_batch(&problems(&GenConfig { seed: 43, ..config }));
        assert_ne!(a, other);
    }

    #[test]
    fn a_problem_is_independent_of_the_batch_size() {
        let small = problems(&GenConfig {
            seed: 7,
            count: 3,
            size: 3,
        });
        let large = problems(&GenConfig {
            seed: 7,
            count: 10,
            size: 3,
        });
        assert_eq!(small[..], large[..3]);
    }

    #[test]
    fn rendered_problems_parse_and_carry_their_identity() {
        for problem in problems(&GenConfig::default()) {
            let text = problem.render();
            assert!(text.starts_with(&format!("-- {}", problem.id)));
            let parsed =
                resyn_parse::parse_problem(&text).unwrap_or_else(|e| panic!("{}: {e}", problem.id));
            assert_eq!(parsed.goals.len(), problem.problem().goals.len());
        }
    }
}
