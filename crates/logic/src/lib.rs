//! Refinement logic for the Re² type system.
//!
//! This crate defines the *refinement language* shared by logical refinements
//! (`ψ`, of sort `Bool`) and potential annotations (`φ`, of numeric sort) in
//! the paper *Resource-Guided Program Synthesis* (PLDI 2019). The language
//! contains:
//!
//! * boolean connectives and linear integer arithmetic (the paper's sorts `B`
//!   and `N`; we use signed integers and emit explicit non-negativity
//!   constraints where the paper relies on naturals),
//! * finite-set algebra (`elems`-style measures produce sets), and
//! * applications of *measures* — logic-level functions such as `len`, `elems`
//!   or `numgt` that interpret program values in the refinement logic (the
//!   paper's interpretation `I(·)` generalised to user-defined measures).
//!
//! The crate also provides sorting (type checking of refinements),
//! substitution, free-variable computation, evaluation under a [`Model`] and
//! simplification. The [`intern`] module adds a hash-consing [`TermArena`]:
//! copyable [`TermId`] handles with O(1) equality and memoized id-based
//! versions of the simplification and sorting passes. Tables keyed on ids
//! hash with the [`fxhash`] hasher. A [`Conj`] is a persistent conjunction
//! (a typing context's path condition) that remembers what it was interned
//! to, so that each of its facts is interned once per arena.
//!
//! # Example
//!
//! ```
//! use resyn_logic::{Term, Model, Value};
//!
//! // len ν = len xs + 1
//! let t = Term::var("len_v").eq_(Term::var("len_xs") + Term::int(1));
//! let mut m = Model::new();
//! m.insert("len_v", Value::Int(4));
//! m.insert("len_xs", Value::Int(3));
//! assert_eq!(t.eval(&m).unwrap(), Value::Bool(true));
//! ```

pub mod conj;
pub mod eval;
pub mod fv;
pub mod fxhash;
pub mod intern;
pub mod pretty;
pub mod simplify;
pub mod sort;
pub mod subst;
pub mod term;

pub use conj::Conj;
pub use eval::{EvalError, Model, Value};
pub use fxhash::{FxHashMap, FxHashSet};
pub use intern::{InternStats, TermArena, TermId};
pub use sort::{Sort, SortError, SortingEnv};
pub use term::{BinOp, Term, UnOp, VALUE_VAR};

#[cfg(test)]
mod proptests;
