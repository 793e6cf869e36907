//! The Re² type system: polymorphic refinement types with AARA potential
//! annotations (the paper's Sec. 3).
//!
//! A scalar type `{B | ψ}^φ` couples a base type `B`, a logical refinement `ψ`
//! over the value variable `ν`, and a *potential annotation* `φ` — a numeric
//! refinement term denoting how many units of resource a value of this type
//! stores. Datatype element types carry their own annotations, so `List Int^1`
//! stores one unit per element. Arrow types are dependent
//! (`x: Tₓ → T`, where `T` may mention `x`) and may charge an application
//! cost.
//!
//! # Potential accounting
//!
//! The checker in [`check`] uses the *potential ledger* formulation of AARA:
//! when a value enters the context, the potential stored in it (expressed as a
//! linear term over length/count measures, e.g. `1·len(xs)` or `numgt(x, xs)`)
//! is deposited into a symbolic ledger; `tick` expressions and
//! potential-requiring function arguments withdraw from the ledger; function
//! results deposit their declared potential back. Every withdrawal emits a
//! *resource constraint* `path-condition ⟹ ledger ≥ 0` (with `≥` replaced by
//! on-exit equality in constant-resource mode). Constraints without unknown
//! annotations are discharged immediately by the refinement-logic solver;
//! constraints with unknowns (polymorphic instantiation potentials, inferred
//! bounds) are handed to the CEGIS solver in `resyn-rescon`.
//!
//! This formulation is equivalent to the paper's sharing-based presentation on
//! the fragment exercised by the benchmarks because dependent annotations make
//! the total potential of a context expressible as a single refinement term
//! (which is exactly the feature Re² adds over RaML); the trade-offs are
//! documented in `DESIGN.md`.

pub mod check;
pub mod constraints;
pub mod ctx;
pub mod datatypes;
pub mod shape;
pub mod subtype;
pub mod types;

pub use check::{CheckError, Checker, CheckerConfig, Prepared, ResourceMode};
pub use constraints::ResourceConstraint;
pub use ctx::Ctx;
pub use datatypes::{CtorDecl, DataDecl, Datatypes, MeasureDef};
pub use shape::Shape;
pub use types::{BaseType, Schema, Ty};
