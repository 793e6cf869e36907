//! From-scratch decision procedures for the ReSyn refinement logic.
//!
//! The paper's implementation delegates validity checking and model finding to
//! Z3. This crate replaces Z3 with a self-contained solver for the fragment
//! the paper actually uses (quantifier-free formulas over linear integer
//! arithmetic, finite sets, booleans, and uninterpreted measure applications):
//!
//! * [`rational`] — exact rational arithmetic.
//! * [`linear`] — linear expressions over named variables and linearization of
//!   refinement terms (measure applications become fresh alias variables).
//! * [`lia`] — satisfiability of conjunctions of linear constraints by
//!   Fourier–Motzkin elimination with strictness tracking, plus a
//!   branch-and-bound wrapper that produces *integer* models.
//! * [`sets`] — elimination of finite-set atoms by membership expansion
//!   (reduction to booleans + element equalities), the standard decision
//!   procedure for this fragment.
//! * [`euf`] — congruence-axiom instantiation for measure applications.
//! * [`dpll`] — a small DPLL(T) search over hash-consed formulas:
//!   propagate the forced literals, prune with a theory check on the partial
//!   trail, then decide.
//! * [`smt`] — the public [`Solver`] combining everything: one interned
//!   formula per query, preprocessing, the DPLL(T) search, and model
//!   construction.
//! * [`cache`] — a shared validity/SAT query cache over interned terms
//!   ([`SolverCache`]), threaded through the checking pipeline so repeated
//!   obligations are answered by lookup.
//! * [`witness`] — the cache's recent counterexamples, which refute an invalid
//!   validity query by evaluation before the solver runs.
//!
//! The solver is sound and complete on the fragment above and produces models,
//! which the CEGIS resource-constraint solver requires.
//!
//! # Example
//!
//! ```
//! use resyn_logic::{Sort, SortingEnv, Term};
//! use resyn_solver::{SatResult, Solver};
//!
//! let mut env = SortingEnv::new();
//! env.bind_var("x", Sort::Int).bind_var("y", Sort::Int);
//! let solver = Solver::new(env);
//!
//! // x < y ∧ y < x is unsatisfiable.
//! let contradictory = [Term::var("x").lt(Term::var("y")), Term::var("y").lt(Term::var("x"))];
//! assert!(matches!(solver.check_sat(&contradictory), SatResult::Unsat));
//!
//! // x ≤ y is not valid, and the counterexample is an integer model.
//! assert!(!solver.is_valid(&[], &Term::var("x").le(Term::var("y"))));
//! ```

pub mod cache;
pub mod dpll;
pub mod euf;
pub mod lia;
pub mod linear;
pub mod rational;
pub mod sets;
pub mod smt;
pub mod witness;

pub use cache::{CacheStats, HandleStats, SolverCache};
pub use lia::LiaSolver;
pub use linear::{LinExpr, LinearizeError};
pub use rational::Rat;
pub use smt::{SatResult, Solver, SolverEnv, ValidityResult};

#[cfg(test)]
mod proptests;
