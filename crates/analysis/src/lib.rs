//! Static analysis over parsed problems.
//!
//! Two passes back `resyn lint`:
//!
//! * [`reachability`] — a shape-level reachability analysis that decides, for
//!   every component in the library, whether the enumerator could ever build a
//!   full application of it (forward: which shapes are *producible* from the
//!   goal's parameters, match binders and literals) and whether its result
//!   could ever be *consumed* by a hole, a guard, or another application
//!   (backward, from the goal's return shape). A component failing either
//!   direction generates zero candidates by construction, so no synthesized
//!   program can call it.
//! * [`lint`] — a diagnostics pass over the declarations of a problem file:
//!   duplicate and shadowed names, unreachable components (those the
//!   reachability analysis drops), goals that cannot recurse structurally,
//!   ill-sorted refinements, and trivially-unsatisfiable refinements (decided
//!   by a budgeted solver query). Diagnostics carry byte spans and render to
//!   both a human format and the stable `resyn-lint/1` JSON schema.
//!
//! The crate deliberately depends only on the type/logic/solver layers (not on
//! the parser or the synthesizer), so both of those can build on it.

pub mod lint;
pub mod reachability;

pub use lint::{lint_problem, lint_structural, Decl, DeclKind, Diagnostic, Level, Span};
pub use reachability::{analyze, DropReason, PruneReport};
