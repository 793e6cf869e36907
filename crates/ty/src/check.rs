//! The Re² type checker.
//!
//! [`Checker::check_function`] checks a function body (a `fix`/λ-chain in
//! a-normal form) against a goal [`Schema`], in the presence of a component
//! library. Refinement obligations are discharged immediately with the
//! refinement-logic solver; resource obligations are tracked through the
//! potential ledger (see the crate documentation) and either discharged
//! immediately (when they contain no unknown annotations) or returned as
//! [`ResourceConstraint`]s for the CEGIS solver.
//!
//! The checker implements three modes (§5 of the paper):
//! * [`ResourceMode::Resource`] — full Re² checking (ReSyn),
//! * [`ResourceMode::Agnostic`] — refinements only, with Synquid's structural
//!   termination metric (the baseline),
//! * [`ResourceMode::ConstantResource`] — Re² with exact consumption on every
//!   path (the constant-resource extension of §3).

use std::collections::BTreeMap;
use std::sync::Arc;

use resyn_budget::Budget;
use resyn_lang::{CostMetric, Expr};
use resyn_logic::{SortingEnv, Term};
use resyn_solver::{Solver, SolverCache};

use crate::constraints::ResourceConstraint;
use crate::ctx::Ctx;
use crate::datatypes::{CtorDecl, DataDecl, Datatypes};
use crate::subtype::{self, SubtypeError, SubtypeObligations};
use crate::types::{BaseType, Schema, Ty};

/// Resource-checking mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResourceMode {
    /// Full resource-aware checking (ReSyn).
    #[default]
    Resource,
    /// Resource-agnostic checking with structural termination (Synquid).
    Agnostic,
    /// Constant-resource checking: consumption must be exact on every path.
    ConstantResource,
}

/// Checker configuration.
#[derive(Debug, Clone, Default)]
pub struct CheckerConfig {
    /// The resource mode.
    pub mode: ResourceMode,
    /// The cost metric used to charge applications.
    pub metric: CostMetric,
    /// Treat `impossible` as a *hole* that trivially checks. The synthesizer
    /// uses this for round-trip checking of partial programs (program
    /// prefixes whose remaining branches have not been filled in yet).
    pub allow_holes: bool,
}

/// Errors reported by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// A refinement implication failed.
    Refinement {
        /// Description of where the check arose.
        origin: String,
        /// The failed implication goal.
        goal: String,
    },
    /// A resource constraint without unknowns is violated.
    Resource {
        /// Description of where the constraint arose.
        origin: String,
        /// The violated ledger expression.
        ledger: String,
    },
    /// A structural/shape error (wrong arity, incompatible types, …).
    Shape(String),
    /// A variable or component is unbound.
    Unbound(String),
    /// The structural termination check failed (Agnostic mode only).
    Termination(String),
    /// `impossible` was used in a reachable branch.
    ReachableImpossible,
    /// A construct outside the supported fragment was encountered.
    Unsupported(String),
    /// The checker's [`Budget`] ran out mid-check. Unlike every other
    /// variant this says nothing about the program: re-checking with a fresh
    /// budget may accept it.
    Cancelled,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Refinement { origin, goal } => {
                write!(f, "refinement check failed at {origin}: {goal}")
            }
            CheckError::Resource { origin, ledger } => {
                write!(
                    f,
                    "resource bound violated at {origin}: {ledger} may be negative"
                )
            }
            CheckError::Shape(m) => write!(f, "type shape error: {m}"),
            CheckError::Unbound(x) => write!(f, "unbound variable or component `{x}`"),
            CheckError::Termination(m) => write!(f, "termination check failed: {m}"),
            CheckError::ReachableImpossible => write!(f, "`impossible` is reachable"),
            CheckError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
            CheckError::Cancelled => write!(f, "check cancelled: budget exhausted"),
        }
    }
}

impl std::error::Error for CheckError {}

/// An unknown numeric annotation created during checking, together with the
/// numeric variables its linear template may mention (empty scope = constant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownInfo {
    /// The unknown's name.
    pub name: String,
    /// Variables the template may depend on.
    pub scope: Vec<String>,
}

/// The result of a successful check.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// Resource constraints that still contain unknown annotations; they must
    /// be solved by the CEGIS solver for the program to be accepted.
    pub constraints: Vec<ResourceConstraint>,
    /// The unknown annotations appearing in those constraints.
    pub unknowns: Vec<UnknownInfo>,
    /// Number of refinement-validity queries issued (statistics).
    pub refinement_queries: usize,
    /// Number of resource constraints discharged eagerly (statistics).
    pub eager_resource_checks: usize,
}

impl CheckOutcome {
    /// Append what a later part of the same traversal produced.
    fn extend(&mut self, later: &CheckOutcome) {
        self.constraints.extend(later.constraints.iter().cloned());
        self.unknowns.extend(later.unknowns.iter().cloned());
        self.refinement_queries += later.refinement_queries;
        self.eager_resource_checks += later.eager_resource_checks;
    }
}

/// The Re² type checker.
#[derive(Debug, Clone)]
pub struct Checker {
    /// The datatype registry (read it through [`Checker::datatypes`]; it is
    /// fixed at construction because `measure_env` is derived from it).
    datatypes: Datatypes,
    /// The sorting environment of the registry's measures, built once: each
    /// solver query extends a copy of it with the context's variables.
    measure_env: SortingEnv,
    /// The configuration.
    pub config: CheckerConfig,
    /// Optional shared solver query cache: every refinement and resource
    /// validity query issued while checking is memoized there, so repeated
    /// obligations (candidate programs sharing prefixes, re-checks of the
    /// same partial program) are discharged without re-solving.
    pub cache: Option<SolverCache>,
    /// Cooperative budget checked before every solver obligation (and
    /// observed *inside* each obligation by the DPLL(T) search); once it is
    /// exceeded the check unwinds with [`CheckError::Cancelled`].
    pub budget: Budget,
}

/// The body-independent part of checking a function against its goal: the
/// signature peeled into a context (parameters bound, their refinements
/// assumed and their potential deposited), the return type, the component
/// table with the goal and its recursive names, and the measure instances
/// the specification mentions.
///
/// Built once by [`Checker::prepare`] and shared by every
/// [`Checker::check_body`] on the same goal. It depends on the checker's
/// datatypes and resource mode (not on `allow_holes`), so it may be shared
/// between checkers that differ only in the latter.
#[derive(Debug, Clone)]
pub struct Prepared {
    mode: ResourceMode,
    ctx: Ctx,
    ret_ty: Ty,
    components: BTreeMap<String, Schema>,
    recursive: Vec<String>,
    goal_params: Vec<String>,
    /// For parameterized measures (e.g. `numgt`), the parameter terms the
    /// specification actually mentions. Measure axioms at matches and
    /// constructor applications are instantiated only for these, keeping the
    /// validity queries small.
    measure_instances: BTreeMap<String, Vec<Term>>,
}

/// Add the parameter terms of the parameterized-measure applications in
/// `term` to `instances`.
fn note_measure_instances(instances: &mut BTreeMap<String, Vec<Term>>, term: &Term) {
    for (name, args) in term.measure_apps() {
        if args.len() >= 2 {
            let entry = instances.entry(name).or_default();
            let param = args[0].clone();
            if !entry.contains(&param) {
                entry.push(param);
            }
        }
    }
}

/// The checking state at one open hole of a partial body, captured once by
/// [`Checker::prepare_hole`] and shared by every [`Checker::check_hole`] of a
/// candidate for that hole.
///
/// A candidate at the hole sees the context the traversal reached it with,
/// continues the fresh-name counter from there, and is followed by the rest
/// of the body. The rest cannot see the candidate: `ite` and `match`
/// branches are checked in copies of the context at the branch point, and
/// the rest draws no fresh name (see [`Checker::prepare_hole`]). So the rest
/// only appends its own outcome (the *suffix*), recorded here once.
#[derive(Debug, Clone)]
pub struct HoleFrame {
    /// The state at the hole, or the error the body fails with before it.
    at_hole: Result<AtHole, CheckError>,
}

#[derive(Debug, Clone)]
struct AtHole {
    ctx: Ctx,
    expected: Ty,
    counter: usize,
    /// The outcome of the body up to the hole.
    prefix: CheckOutcome,
    /// What the body after the hole appends, or the error it fails with.
    suffix: Result<CheckOutcome, CheckError>,
}

/// The per-body checking state over a borrowed [`Prepared`] frame.
struct St<'p> {
    outcome: CheckOutcome,
    counter: usize,
    goal: &'p Prepared,
    /// The hole variable [`Checker::prepare_hole`] stops at, and the state
    /// captured there once the traversal reaches it (its `suffix` is filled
    /// in after the traversal).
    open_hole: Option<&'p str>,
    at_hole: Option<AtHole>,
}

impl St<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("_{prefix}{}", self.counter)
    }
}

impl Checker {
    /// Create a checker.
    pub fn new(datatypes: Datatypes, config: CheckerConfig) -> Checker {
        Checker {
            measure_env: datatypes.measure_env(),
            datatypes,
            config,
            cache: None,
            budget: Budget::unlimited(),
        }
    }

    /// A checker with the standard datatypes and default (resource) config.
    pub fn standard() -> Checker {
        Checker::new(Datatypes::standard(), CheckerConfig::default())
    }

    /// The datatype registry.
    pub fn datatypes(&self) -> &Datatypes {
        &self.datatypes
    }

    /// Attach a shared solver query cache (see [`SolverCache`]).
    pub fn with_cache(mut self, cache: SolverCache) -> Checker {
        self.cache = Some(cache);
        self
    }

    /// Attach a cooperative [`Budget`]: the check returns
    /// [`CheckError::Cancelled`] within one solver obligation of the budget
    /// being exceeded, instead of running the remaining obligations.
    pub fn with_budget(mut self, budget: Budget) -> Checker {
        self.budget = budget;
        self
    }

    /// Whether the checker tracks resources at all.
    fn resources_on(&self) -> bool {
        !matches!(self.config.mode, ResourceMode::Agnostic)
    }

    /// Check a function definition against a goal schema.
    ///
    /// `expr` must be a (possibly `fix`-wrapped) chain of lambdas in ANF; the
    /// component library maps names to their schemas. The binders may differ
    /// from the signature's formal parameters: the signature is renamed to
    /// them. Like [`prepare`](Checker::prepare) (but under the program's own
    /// binders and `fix` name) followed by
    /// [`check_body`](Checker::check_body) on the peeled body.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckError`] when the program is ill-typed. Programs whose
    /// acceptance depends on unknown annotations return `Ok` with the residual
    /// constraints in the [`CheckOutcome`]; the caller decides acceptance by
    /// solving them.
    pub fn check_function(
        &self,
        name: &str,
        expr: &Expr,
        schema: &Schema,
        components: &BTreeMap<String, Schema>,
    ) -> Result<CheckOutcome, CheckError> {
        if self.budget.is_exceeded() {
            return Err(CheckError::Cancelled);
        }
        // Peel the fix / lambda chain.
        let fix = match expr {
            Expr::Fix(f, _, _) => Some(f.as_str()),
            _ => None,
        };
        let mut binders = Vec::new();
        let mut body = expr;
        while let Expr::Fix(_, x, inner) | Expr::Lambda(x, inner) = body {
            binders.push(x.as_str());
            body = inner;
        }
        let prepared = self.prepare_header(name, fix, &binders, schema, components)?;
        self.check_body(&prepared, body)
    }

    /// Prepare the body-independent part of checking `name` against
    /// `schema`, for bodies written over the signature's own formal
    /// parameter names and calling the function recursively as `name`.
    pub fn prepare(
        &self,
        name: &str,
        schema: &Schema,
        components: &BTreeMap<String, Schema>,
    ) -> Prepared {
        let (params, _) = schema.ty.uncurry();
        let formals: Vec<&str> = params.iter().map(|(n, _, _)| n.as_str()).collect();
        self.prepare_header(name, None, &formals, schema, components)
            .expect("the formal parameters match the signature's arity")
    }

    /// Check a function body against a [`Prepared`] frame: the body is
    /// checked in a copy of the prepared context, so one frame serves any
    /// number of bodies.
    ///
    /// # Errors
    ///
    /// As for [`check_function`](Checker::check_function).
    pub fn check_body(&self, prepared: &Prepared, body: &Expr) -> Result<CheckOutcome, CheckError> {
        assert_eq!(
            prepared.mode, self.config.mode,
            "a frame is checked in the resource mode it was prepared in"
        );
        if self.budget.is_exceeded() {
            return Err(CheckError::Cancelled);
        }
        let mut ctx = prepared.ctx.clone();
        let mut st = St {
            outcome: CheckOutcome::default(),
            counter: 0,
            goal: prepared,
            open_hole: None,
            at_hole: None,
        };
        self.check_expr(&mut ctx, &mut st, body, &prepared.ret_ty)?;
        Ok(st.outcome)
    }

    /// Capture the checking state at the hole variable `hole` of a partial
    /// body, for [`check_hole`](Checker::check_hole). `body` is checked as
    /// by [`check_body`](Checker::check_body) except that `hole`, where the
    /// traversal reaches it in tail position, is skipped after recording the
    /// context, expected type, fresh-name counter and outcome so far. The
    /// rest of the body is then checked once and its outcome kept as the
    /// frame's suffix; an error before or after the hole is kept too.
    ///
    /// # Panics
    ///
    /// If the traversal completes without reaching `hole`, or if the body
    /// after the hole draws a fresh name. Neither happens for a skeleton
    /// body whose holes are numbered in traversal order and whose spine
    /// after a hole is matches and `let`-bound guard calls over variables.
    pub fn prepare_hole(&self, prepared: &Prepared, body: &Expr, hole: &str) -> HoleFrame {
        assert_eq!(
            prepared.mode, self.config.mode,
            "a frame is checked in the resource mode it was prepared in"
        );
        let mut ctx = prepared.ctx.clone();
        let mut st = St {
            outcome: CheckOutcome::default(),
            counter: 0,
            goal: prepared,
            open_hole: Some(hole),
            at_hole: None,
        };
        let rest = self.check_expr(&mut ctx, &mut st, body, &prepared.ret_ty);
        let at_hole = match st.at_hole {
            Some(mut at) => {
                assert_eq!(
                    st.counter, at.counter,
                    "the body after hole `{hole}` draws no fresh name"
                );
                at.suffix = rest.map(|()| st.outcome);
                Ok(at)
            }
            None => Err(rest.expect_err("the traversal reaches the open hole")),
        };
        HoleFrame { at_hole }
    }

    /// Check `candidate` at the hole of `frame`, a frame prepared by
    /// [`prepare_hole`](Checker::prepare_hole) over `prepared`: the
    /// candidate is checked in a copy of the captured state and the
    /// frame's suffix is appended. The result equals that of
    /// [`check_body`](Checker::check_body) on the body with the candidate
    /// in place of the hole, constraint order included.
    ///
    /// # Errors
    ///
    /// As for [`check_function`](Checker::check_function).
    pub fn check_hole(
        &self,
        prepared: &Prepared,
        frame: &HoleFrame,
        candidate: &Expr,
    ) -> Result<CheckOutcome, CheckError> {
        assert_eq!(
            prepared.mode, self.config.mode,
            "a frame is checked in the resource mode it was prepared in"
        );
        if self.budget.is_exceeded() {
            return Err(CheckError::Cancelled);
        }
        let at = frame.at_hole.as_ref().map_err(Clone::clone)?;
        let mut ctx = at.ctx.clone();
        // The traversal only appends to the outcome, so the candidate's part
        // is collected alone and the prefix copied only for a candidate that
        // checks.
        let mut st = St {
            outcome: CheckOutcome::default(),
            counter: at.counter,
            goal: prepared,
            open_hole: None,
            at_hole: None,
        };
        self.check_expr(&mut ctx, &mut st, candidate, &at.expected)?;
        let suffix = at.suffix.as_ref().map_err(Clone::clone)?;
        let mut outcome = at.prefix.clone();
        outcome.extend(&st.outcome);
        outcome.extend(suffix);
        Ok(outcome)
    }

    /// Build the frame for a body under the binders `binders` (aligned with
    /// the signature's parameters and renaming them), recursively callable
    /// as `name` and, if given, as the `fix` name `fix`.
    fn prepare_header(
        &self,
        name: &str,
        fix: Option<&str>,
        binders: &[&str],
        schema: &Schema,
        components: &BTreeMap<String, Schema>,
    ) -> Result<Prepared, CheckError> {
        let goal_ty = if matches!(self.config.mode, ResourceMode::Agnostic) {
            Arc::new(schema.ty.strip_potential())
        } else {
            Arc::clone(&schema.ty)
        };
        let (params, mut ret_ty) = goal_ty.uncurry();
        if binders.len() > params.len() {
            return Err(CheckError::Shape(
                "more lambdas than parameters in the goal type".into(),
            ));
        }
        if binders.len() < params.len() {
            return Err(CheckError::Shape(
                "fewer lambdas than parameters in the goal type".into(),
            ));
        }
        let goal_schema = Schema {
            tyvars: schema.tyvars.clone(),
            ty: goal_ty,
        };
        let mut components = components.clone();
        let mut recursive = vec![name.to_string()];
        components.insert(name.to_string(), goal_schema.clone());
        if let Some(f) = fix {
            recursive.push(f.to_string());
            components.insert(f.to_string(), goal_schema);
        }

        let mut ctx = Ctx::new();
        // Bind the parameters, aligning binders with the signature.
        let mut remaining_params = params;
        let mut goal_params = Vec::new();
        for &x in binders {
            let (formal, pty, _cost) = remaining_params.remove(0);
            // Rename the formal parameter to the actual binder in the
            // remaining signature.
            if formal != x {
                let replacement = Term::var(x);
                remaining_params = remaining_params
                    .into_iter()
                    .map(|(n, t, c)| (n, t.subst_term(&formal, &replacement), c))
                    .collect();
                ret_ty = ret_ty.subst_term(&formal, &replacement);
            }
            goal_params.push(x.to_string());
            self.bind_with_deposit(&mut ctx, x, &pty);
        }

        // Record which parameterized-measure instances the specification
        // mentions (they drive axiom instantiation at matches/constructors).
        let mut measure_instances = BTreeMap::new();
        note_measure_instances(&mut measure_instances, ctx.ledger());
        note_measure_instances(&mut measure_instances, &ret_ty.refinement());
        note_measure_instances(&mut measure_instances, &ret_ty.potential());
        for (_, ty) in ctx.scalar_vars() {
            note_measure_instances(&mut measure_instances, &ty.refinement());
        }
        Ok(Prepared {
            mode: self.config.mode,
            ctx,
            ret_ty,
            components,
            recursive,
            goal_params,
            measure_instances,
        })
    }

    // ----------------------------------------------------------------- //
    // Context manipulation
    // ----------------------------------------------------------------- //

    /// Bind a variable, assume its refinement, and deposit its potential.
    fn bind_with_deposit(&self, ctx: &mut Ctx, name: &str, ty: &Ty) {
        self.bind_no_deposit(ctx, name, ty);
        if self.resources_on() && ty.is_scalar() {
            if let Ok(p) = subtype::total_potential(ty, &Term::var(name), &self.datatypes) {
                ctx.deposit(p);
            }
        }
    }

    /// Bind a variable and assume its refinement without depositing potential
    /// (used for match binders and aliases, whose potential is already
    /// accounted for through the value they came from).
    fn bind_no_deposit(&self, ctx: &mut Ctx, name: &str, ty: &Ty) {
        ctx.bind_raw(name, ty.clone());
        if ty.is_scalar() {
            let fact = ty.refinement().subst_value_var(&Term::var(name));
            ctx.assume(fact);
            // Sizes of inductive values are non-negative.
            if let Some(BaseType::Data(_, _)) = ty.base_type() {
                if let Some(base) = ty.base_type() {
                    if let Some(measure) = base.primary_measure(&self.datatypes) {
                        ctx.assume(Term::app(measure, vec![Term::var(name)]).ge(Term::int(0)));
                    }
                }
            }
        }
    }

    /// Emit a withdrawal of `amount` from the ledger, discharging or recording
    /// the non-negativity constraint.
    fn withdraw(
        &self,
        ctx: &mut Ctx,
        st: &mut St,
        amount: Term,
        exact: bool,
        origin: &str,
    ) -> Result<(), CheckError> {
        if !self.resources_on() {
            return Ok(());
        }
        let amount = amount.simplify();
        if amount.is_zero() && !exact {
            return Ok(());
        }
        ctx.withdraw(amount);
        let potential = ctx.ledger();
        let deferred = potential.mentions_measure(crate::constraints::PROD)
            || ctx.path().has_unknowns()
            || potential.has_unknowns();
        if deferred {
            // Returned to CEGIS, which needs the context's sorts.
            st.outcome.constraints.push(ResourceConstraint {
                premise: ctx.path_condition(),
                potential: potential.clone(),
                exact,
                origin: origin.to_string(),
                env: ctx.sorting_env_over(&self.measure_env),
            });
            return Ok(());
        }
        // Discharge eagerly.
        if self.budget.is_exceeded() {
            return Err(CheckError::Cancelled);
        }
        st.outcome.eager_resource_checks += 1;
        let solver = self.solver(ctx);
        let ok_lower = solver.is_valid_under(ctx.path(), &[], &potential.clone().ge(Term::int(0)));
        let ok = if exact {
            ok_lower && solver.is_valid_under(ctx.path(), &[], &potential.clone().le(Term::int(0)))
        } else {
            ok_lower
        };
        if ok {
            Ok(())
        } else if self.budget.is_exceeded() {
            // The solver declined because the budget ran out mid-query, not
            // because the constraint is violated: report the cancellation,
            // never a (wrong) resource error.
            Err(CheckError::Cancelled)
        } else {
            Err(CheckError::Resource {
                origin: origin.to_string(),
                ledger: potential.to_string(),
            })
        }
    }

    fn solver(&self, ctx: &Ctx) -> Solver {
        let env = ctx.solver_env(&self.measure_env);
        let solver = Solver::shared(env).with_budget(self.budget.clone());
        match &self.cache {
            Some(cache) => solver.with_cache(cache.clone()),
            None => solver,
        }
    }

    /// Require a refinement implication to be valid under the path condition.
    fn require_valid(
        &self,
        ctx: &Ctx,
        st: &mut St,
        extra_premise: Term,
        goal: Term,
        origin: &str,
    ) -> Result<(), CheckError> {
        if goal.is_true() {
            return Ok(());
        }
        // `premises ⊢ a ∧ b` holds iff both conjuncts hold on their own, and
        // the split queries are strictly smaller — a conjunction of two set
        // equalities (e.g. compress's `elems … ∧ heads …`) can exceed the
        // solver's decision limit where each half alone is easy.
        if let Term::Binary(resyn_logic::BinOp::And, a, b) = &goal {
            self.require_valid(ctx, st, extra_premise.clone(), (**a).clone(), origin)?;
            return self.require_valid(ctx, st, extra_premise, (**b).clone(), origin);
        }
        if self.budget.is_exceeded() {
            return Err(CheckError::Cancelled);
        }
        st.outcome.refinement_queries += 1;
        let solver = self.solver(ctx);
        if solver.is_valid_under(ctx.path(), &[extra_premise], &goal) {
            Ok(())
        } else if self.budget.is_exceeded() {
            // Mid-query cancellation, not a genuine refutation.
            Err(CheckError::Cancelled)
        } else {
            Err(CheckError::Refinement {
                origin: origin.to_string(),
                goal: goal.to_string(),
            })
        }
    }

    // ----------------------------------------------------------------- //
    // Expression checking
    // ----------------------------------------------------------------- //

    fn check_expr(
        &self,
        ctx: &mut Ctx,
        st: &mut St,
        expr: &Expr,
        expected: &Ty,
    ) -> Result<(), CheckError> {
        match expr {
            Expr::Let(x, bound, body) => {
                self.infer_bound(ctx, st, x, bound, None)?;
                self.check_expr(ctx, st, body, expected)
            }
            Expr::Ite(c, t, e) => {
                let guard = self.atom_interp(ctx, st, c)?;
                let mut then_ctx = ctx.clone();
                then_ctx.assume(guard.clone());
                self.check_expr(&mut then_ctx, st, t, expected)?;
                let mut else_ctx = ctx.clone();
                else_ctx.assume(guard.not());
                self.check_expr(&mut else_ctx, st, e, expected)
            }
            Expr::Match(s, arms) => {
                let scrut = match &**s {
                    Expr::Var(v) => v.clone(),
                    other => {
                        return Err(CheckError::Unsupported(format!(
                            "match scrutinee must be a variable, got {other}"
                        )))
                    }
                };
                let scrut_ty = ctx
                    .lookup(&scrut)
                    .cloned()
                    .ok_or_else(|| CheckError::Unbound(scrut.clone()))?;
                let (decl, elem) = self.datatype_of(&scrut_ty)?;
                for arm in arms {
                    let ctor = decl.ctor(&arm.ctor).ok_or_else(|| {
                        CheckError::Shape(format!("unknown constructor {}", arm.ctor))
                    })?;
                    if ctor.args.len() != arm.binders.len() {
                        return Err(CheckError::Shape(format!(
                            "constructor {} expects {} binders",
                            arm.ctor,
                            ctor.args.len()
                        )));
                    }
                    let mut arm_ctx = ctx.clone();
                    self.open_ctor(
                        &mut arm_ctx,
                        st,
                        decl,
                        ctor,
                        &elem,
                        &Term::var(scrut.clone()),
                        &arm.binders,
                    );
                    for b in &arm.binders {
                        arm_ctx.set_parent(b.clone(), scrut.clone());
                    }
                    self.check_expr(&mut arm_ctx, st, &arm.body, expected)?;
                }
                Ok(())
            }
            Expr::Tick(c, body) => {
                self.withdraw(ctx, st, Term::int(*c), false, "tick")?;
                self.check_expr(ctx, st, body, expected)
            }
            Expr::Impossible => {
                if self.config.allow_holes {
                    return Ok(());
                }
                // The branch must be unreachable: the path condition implies false.
                self.require_valid(ctx, st, Term::tt(), Term::ff(), "impossible")
                    .map_err(|_| CheckError::ReachableImpossible)
            }
            // The hole `prepare_hole` stops at: record the state a
            // candidate here is checked in; the rest of the traversal then
            // accumulates the suffix only.
            Expr::Var(x) if st.open_hole == Some(x.as_str()) => {
                st.at_hole = Some(AtHole {
                    ctx: ctx.clone(),
                    expected: expected.clone(),
                    counter: st.counter,
                    prefix: std::mem::take(&mut st.outcome),
                    suffix: Ok(CheckOutcome::default()),
                });
                Ok(())
            }
            // Tail position: infer and check against the expected type.
            _ => {
                let ret = st.fresh("ret");
                let inferred = self.infer_bound(ctx, st, &ret, expr, Some(expected))?;
                let obligations = subtype::subtype(
                    &inferred,
                    expected,
                    &Term::var(ret.clone()),
                    ctx,
                    &self.datatypes,
                )
                .map_err(|e| self.shape_err(e))?;
                self.discharge(ctx, st, obligations, "return value")?;
                if matches!(self.config.mode, ResourceMode::ConstantResource) {
                    // Exact consumption: the ledger must be exactly empty here.
                    self.withdraw(ctx, st, Term::int(0), true, "constant-resource exit")?;
                }
                Ok(())
            }
        }
    }

    fn discharge(
        &self,
        ctx: &mut Ctx,
        st: &mut St,
        obligations: SubtypeObligations,
        origin: &str,
    ) -> Result<(), CheckError> {
        for (premise, goal) in obligations.implications {
            self.require_valid(ctx, st, premise, goal, origin)?;
        }
        self.withdraw(ctx, st, obligations.required_potential, false, origin)
    }

    fn shape_err(&self, e: SubtypeError) -> CheckError {
        match e {
            SubtypeError::Shape(m) => CheckError::Shape(m),
            SubtypeError::UnsupportedPotential(m) => CheckError::Unsupported(m),
        }
    }

    // ----------------------------------------------------------------- //
    // Inference of let-bound / tail expressions
    // ----------------------------------------------------------------- //

    /// Infer the type of `expr`, bind it under `dest` in the context (with its
    /// describing facts assumed and result potential deposited), and return
    /// the type.
    fn infer_bound(
        &self,
        ctx: &mut Ctx,
        st: &mut St,
        dest: &str,
        expr: &Expr,
        expected: Option<&Ty>,
    ) -> Result<Ty, CheckError> {
        match expr {
            Expr::Tick(c, inner) => {
                self.withdraw(ctx, st, Term::int(*c), false, "tick")?;
                self.infer_bound(ctx, st, dest, inner, expected)
            }
            Expr::Var(x) => {
                let ty = ctx
                    .lookup(x)
                    .cloned()
                    .ok_or_else(|| CheckError::Unbound(x.clone()))?;
                if ty.is_scalar() {
                    self.bind_alias(ctx, dest, &ty, &Term::var(x.clone()));
                } else {
                    ctx.bind_raw(dest, ty.clone());
                }
                Ok(ty)
            }
            Expr::Int(n) => {
                let ty = Ty::refined(BaseType::Int, Term::value_var().eq_(Term::int(*n)));
                self.bind_no_deposit(ctx, dest, &ty);
                Ok(ty)
            }
            Expr::Bool(b) => {
                let ty = Ty::refined(BaseType::Bool, Term::value_var().eq_(Term::Bool(*b)));
                self.bind_no_deposit(ctx, dest, &ty);
                Ok(ty)
            }
            Expr::Ctor(name, args) => self.infer_ctor(ctx, st, dest, name, args, expected),
            Expr::App(_, _) => self.infer_app(ctx, st, dest, expr, expected),
            Expr::Lambda(_, _) | Expr::Fix(_, _, _) => Err(CheckError::Unsupported(
                "local function definitions are not part of the synthesis fragment".into(),
            )),
            other => Err(CheckError::Unsupported(format!(
                "unsupported let-bound expression: {other}"
            ))),
        }
    }

    /// Bind `dest` as an alias of an existing value denoted by `value`.
    fn bind_alias(&self, ctx: &mut Ctx, dest: &str, ty: &Ty, value: &Term) {
        ctx.bind_raw(dest, ty.clone());
        match ty.base_type() {
            Some(BaseType::Data(dname, _)) => {
                // Equate all parameter-free measures.
                if let Some(decl) = self.datatypes.get(dname) {
                    for m in &decl.measures {
                        if m.params.is_empty() {
                            let lhs = Term::app(m.name.clone(), vec![Term::var(dest)]);
                            let rhs = Term::app(m.name.clone(), vec![value.clone()]);
                            ctx.assume(lhs.eq_(rhs));
                        }
                    }
                }
                ctx.assume(ty.refinement().subst_value_var(&Term::var(dest)));
            }
            Some(_) => {
                ctx.assume(Term::var(dest).eq_(value.clone()));
                ctx.assume(ty.refinement().subst_value_var(&Term::var(dest)));
            }
            None => {}
        }
    }

    /// The logic-level interpretation of an atom (`I(a)` in the paper).
    /// Constructor atoms are bound to a fresh ghost variable first.
    fn atom_interp(&self, ctx: &mut Ctx, st: &mut St, atom: &Expr) -> Result<Term, CheckError> {
        match atom {
            Expr::Var(x) => {
                if ctx.lookup(x).is_none() {
                    return Err(CheckError::Unbound(x.clone()));
                }
                Ok(Term::var(x.clone()))
            }
            Expr::Int(n) => Ok(Term::int(*n)),
            Expr::Bool(b) => Ok(Term::Bool(*b)),
            Expr::Ctor(_, _) => {
                let ghost = st.fresh("g");
                self.infer_bound(ctx, st, &ghost, atom, None)?;
                Ok(Term::var(ghost))
            }
            other => Err(CheckError::Unsupported(format!(
                "expected an atom, got {other}"
            ))),
        }
    }

    fn datatype_of(&self, ty: &Ty) -> Result<(&DataDecl, Ty), CheckError> {
        match ty.base_type() {
            Some(BaseType::Data(name, args)) => {
                let decl = self
                    .datatypes
                    .get(name)
                    .ok_or_else(|| CheckError::Shape(format!("unknown datatype {name}")))?;
                let elem = args.first().cloned().unwrap_or_else(|| Ty::tvar("a"));
                Ok((decl, elem))
            }
            _ => Err(CheckError::Shape(format!("expected a datatype, got {ty}"))),
        }
    }

    /// Open a constructor: bind the given binders at the instantiated
    /// argument types and assume the measure axioms for the subject value.
    #[allow(clippy::too_many_arguments)]
    fn open_ctor(
        &self,
        ctx: &mut Ctx,
        st: &St,
        decl: &DataDecl,
        ctor: &CtorDecl,
        elem: &Ty,
        subject: &Term,
        binders: &[String],
    ) {
        // Instantiate argument types: datatype element variable := elem,
        // declared binder names := actual binder names.
        let mut rename: BTreeMap<String, Term> = BTreeMap::new();
        for ((declared, _), actual) in ctor.args.iter().zip(binders) {
            rename.insert(declared.clone(), Term::var(actual.clone()));
        }
        for (i, (declared, declared_ty)) in ctor.args.iter().enumerate() {
            let _ = declared;
            let actual = &binders[i];
            let mut ty = declared_ty.clone();
            if let Some(param) = &decl.param {
                ty = ty.subst_tvar(param, elem);
            }
            for (d, r) in &rename {
                ty = ty.subst_term(d, r);
            }
            self.bind_no_deposit(ctx, actual, &ty);
        }
        // Measure axioms for the subject.
        for axiom in self.measure_axioms(st, decl, ctor, subject, &rename) {
            ctx.assume(axiom);
        }
    }

    fn measure_axioms(
        &self,
        st: &St,
        decl: &DataDecl,
        ctor: &CtorDecl,
        subject: &Term,
        binder_map: &BTreeMap<String, Term>,
    ) -> Vec<Term> {
        let mut axioms = Vec::new();
        for m in &decl.measures {
            let Some(case) = m.cases.get(&ctor.name) else {
                continue;
            };
            if m.params.is_empty() {
                let rhs = case.subst_all(binder_map);
                axioms.push(Term::app(m.name.clone(), vec![subject.clone()]).eq_(rhs));
            } else {
                // Parameterized measures (numgt, numlt, …): instantiate the
                // parameters only for the instances the specification mentions,
                // keeping validity queries small.
                let Some(instances) = st.goal.measure_instances.get(&m.name) else {
                    continue;
                };
                for candidate in instances {
                    let mut map = binder_map.clone();
                    for (p, _) in &m.params {
                        map.insert(p.clone(), candidate.clone());
                    }
                    let rhs = case.subst_all(&map);
                    let lhs = Term::app(m.name.clone(), vec![candidate.clone(), subject.clone()]);
                    axioms.push(lhs.eq_(rhs));
                }
            }
        }
        axioms
    }

    fn infer_ctor(
        &self,
        ctx: &mut Ctx,
        st: &mut St,
        dest: &str,
        name: &str,
        args: &[Expr],
        expected: Option<&Ty>,
    ) -> Result<Ty, CheckError> {
        let decl = self
            .datatypes
            .owner_of_ctor(name)
            .ok_or_else(|| CheckError::Shape(format!("unknown constructor {name}")))?;
        let ctor = decl.ctor(name).expect("ctor exists in owner");
        if ctor.args.len() != args.len() {
            return Err(CheckError::Shape(format!(
                "constructor {name} applied to {} arguments, expects {}",
                args.len(),
                ctor.args.len()
            )));
        }
        // Element instantiation: prefer the expected type, else infer from the
        // first argument whose declared type is a datatype or the element
        // variable itself.
        let elem = self
            .ctor_element_from_expected(decl, expected)
            .or_else(|| self.ctor_element_from_args(ctx, decl, ctor, args))
            .unwrap_or_else(|| Ty::tvar(decl.param.clone().unwrap_or_else(|| "a".into())));

        // Interpret the arguments.
        let mut interps = Vec::new();
        for a in args {
            interps.push(self.atom_interp(ctx, st, a)?);
        }
        // Check each argument against its (instantiated, dependent) declared type.
        let mut rename: BTreeMap<String, Term> = BTreeMap::new();
        for ((declared, _), interp) in ctor.args.iter().zip(&interps) {
            rename.insert(declared.clone(), interp.clone());
        }
        for (i, (declared, declared_ty)) in ctor.args.iter().enumerate() {
            let _ = declared;
            let mut required = declared_ty.clone();
            if let Some(param) = &decl.param {
                required = required.subst_tvar(param, &elem);
            }
            for (d, r) in &rename {
                required = required.subst_term(d, r);
            }
            // Constructing a value moves potential around without consuming
            // it, so only the refinements of the required type matter here.
            let required = required.strip_potential();
            let actual = self.type_of_interp(ctx, &interps[i]);
            let obligations =
                subtype::subtype(&actual, &required, &interps[i], ctx, &self.datatypes)
                    .map_err(|e| self.shape_err(e))?;
            for (premise, goal) in obligations.implications {
                self.require_valid(ctx, st, premise, goal, &format!("argument of {name}"))?;
            }
        }
        // Bind the destination and assume the measure axioms.
        let result_ty = Ty::data(decl.name.clone(), vec![elem.clone()]);
        ctx.bind_raw(dest, result_ty.clone());
        for axiom in self.measure_axioms(st, decl, ctor, &Term::var(dest), &rename) {
            ctx.assume(axiom);
        }
        Ok(result_ty)
    }

    fn ctor_element_from_expected(&self, decl: &DataDecl, expected: Option<&Ty>) -> Option<Ty> {
        match expected?.base_type()? {
            BaseType::Data(name, args) if *name == decl.name => args.first().cloned(),
            _ => None,
        }
    }

    fn ctor_element_from_args(
        &self,
        ctx: &Ctx,
        decl: &DataDecl,
        ctor: &CtorDecl,
        args: &[Expr],
    ) -> Option<Ty> {
        let param = decl.param.clone()?;
        for ((_, declared_ty), actual) in ctor.args.iter().zip(args) {
            let Expr::Var(v) = actual else { continue };
            let actual_ty = ctx.lookup(v)?;
            match (declared_ty.base_type(), actual_ty.base_type()) {
                // Declared type is the element variable itself.
                (Some(BaseType::TVar(a)), Some(_)) if *a == param => {
                    return Some(actual_ty.clone().with_refinement(Term::tt()));
                }
                // Declared type is a recursive occurrence of the datatype.
                (Some(BaseType::Data(dn, _)), Some(BaseType::Data(an, aargs)))
                    if *dn == decl.name && *an == decl.name =>
                {
                    return aargs.first().cloned();
                }
                _ => {}
            }
        }
        None
    }

    /// The type of a logic-level interpretation term: for variables their
    /// declared type, for literals a singleton type.
    fn type_of_interp(&self, ctx: &Ctx, interp: &Term) -> Ty {
        match interp {
            Term::Var(x) => ctx.lookup(x).cloned().unwrap_or_else(|| {
                Ty::refined(BaseType::Int, Term::value_var().eq_(interp.clone()))
            }),
            Term::Int(_) => Ty::refined(BaseType::Int, Term::value_var().eq_(interp.clone())),
            Term::Bool(_) => Ty::refined(BaseType::Bool, Term::value_var().eq_(interp.clone())),
            _ => Ty::int(),
        }
    }

    // ----------------------------------------------------------------- //
    // Applications
    // ----------------------------------------------------------------- //

    fn infer_app(
        &self,
        ctx: &mut Ctx,
        st: &mut St,
        dest: &str,
        expr: &Expr,
        expected: Option<&Ty>,
    ) -> Result<Ty, CheckError> {
        // Flatten the application spine.
        let mut args: Vec<&Expr> = Vec::new();
        let mut head = expr;
        while let Expr::App(f, a) = head {
            args.push(a);
            head = f;
        }
        args.reverse();
        let fname = match head {
            Expr::Var(x) => x.clone(),
            other => {
                return Err(CheckError::Unsupported(format!(
                    "application head must be a variable, got {other}"
                )))
            }
        };
        let is_recursive = st.goal.recursive.contains(&fname);

        // Resolve the callee type.
        let goal = st.goal;
        let fun_ty = if let Some(schema) = goal.components.get(&fname) {
            self.instantiate(ctx, st, schema, &args, expected, is_recursive)
        } else if let Some(ty) = ctx.lookup(&fname).cloned() {
            if ty.is_arrow() {
                ty
            } else {
                return Err(CheckError::Shape(format!("`{fname}` is not a function")));
            }
        } else {
            return Err(CheckError::Unbound(fname.clone()));
        };

        // Structural termination check for the resource-agnostic baseline.
        if is_recursive && matches!(self.config.mode, ResourceMode::Agnostic) {
            self.check_termination(ctx, st, &fname, &args)?;
        }

        // Process the arguments left to right.
        let mut remaining = fun_ty;
        let mut declared_cost = 0i64;
        for arg in &args {
            let Ty::Arrow {
                param,
                param_ty,
                ret,
                cost,
            } = remaining
            else {
                return Err(CheckError::Shape(format!(
                    "too many arguments in application of `{fname}`"
                )));
            };
            declared_cost += cost;
            let mut rest = *ret;
            if param_ty.is_scalar() {
                let interp = self.atom_interp(ctx, st, arg)?;
                let actual = self.type_of_interp(ctx, &interp);
                let obligations =
                    subtype::subtype(&actual, &param_ty, &interp, ctx, &self.datatypes)
                        .map_err(|e| self.shape_err(e))?;
                self.discharge(ctx, st, obligations, &format!("argument of `{fname}`"))?;
                rest = rest.subst_term(&param, &interp);
            } else {
                // Higher-order argument: accept variables bound to arrows.
                match arg {
                    Expr::Var(v) => {
                        let ok = ctx.lookup(v).map(Ty::is_arrow).unwrap_or(false)
                            || st.goal.components.contains_key(v);
                        if !ok {
                            return Err(CheckError::Shape(format!(
                                "higher-order argument `{v}` of `{fname}` is not a function"
                            )));
                        }
                    }
                    Expr::Lambda(_, _) | Expr::Fix(_, _, _) => {}
                    other => {
                        return Err(CheckError::Unsupported(format!(
                            "unsupported higher-order argument {other}"
                        )))
                    }
                }
            }
            remaining = rest;
        }

        // Charge the application cost.
        let metric_cost = self.config.metric.application_cost(&fname, is_recursive);
        let total_cost = declared_cost + metric_cost;
        self.withdraw(
            ctx,
            st,
            Term::int(total_cost),
            false,
            &format!("call to `{fname}`"),
        )?;

        // Bind the result.
        if remaining.is_scalar() {
            self.bind_no_deposit(ctx, dest, &remaining);
            if self.resources_on() {
                if let Ok(p) =
                    subtype::total_potential(&remaining, &Term::var(dest), &self.datatypes)
                {
                    ctx.deposit(p);
                }
            }
        } else {
            ctx.bind_raw(dest, remaining.clone());
        }
        Ok(remaining)
    }

    fn check_termination(
        &self,
        ctx: &Ctx,
        st: &St,
        fname: &str,
        args: &[&Expr],
    ) -> Result<(), CheckError> {
        // Synquid's termination metric is the tuple of arguments: a recursive
        // call is allowed when some argument decreases — structurally for
        // datatypes, or as a provably smaller non-negative integer.
        let decreasing = args.iter().enumerate().any(|(i, a)| match a {
            Expr::Var(v) => {
                let Some(p) = st.goal.goal_params.get(i) else {
                    return false;
                };
                if ctx.is_structurally_smaller(v, p) {
                    return true;
                }
                // Integer arguments: v < p ∧ p ≥ 0 under the path condition.
                let param_is_int = ctx
                    .lookup(p)
                    .and_then(|t| t.base_type().cloned())
                    .map(|b| matches!(b, BaseType::Int))
                    .unwrap_or(false);
                if !param_is_int || v == p {
                    return false;
                }
                let solver = self.solver(ctx);
                solver.is_valid_under(
                    ctx.path(),
                    &[],
                    &Term::var(v.clone())
                        .lt(Term::var(p.clone()))
                        .and(Term::var(p.clone()).ge(Term::int(0))),
                )
            }
            _ => false,
        });
        if decreasing {
            return Ok(());
        }
        // Synquid's inconsistent-context rule: a recursive call in dead code
        // (contradictory path condition, e.g. the `Nil` branch of a match on
        // a provably non-empty list) never executes, so it cannot diverge.
        // Without this the baseline rejects programs the resource modes
        // accept — where the same call is discharged by a vacuous cost
        // obligation — and the differential fuzzer reports a verdict split.
        if self
            .solver(ctx)
            .is_valid_under(ctx.path(), &[], &Term::ff())
        {
            return Ok(());
        }
        if self.budget.is_exceeded() {
            // The decreasing-argument query may have been declined because
            // the budget ran out mid-solve, not because no argument
            // decreases: report the cancellation, never a (wrong)
            // termination error.
            return Err(CheckError::Cancelled);
        }
        Err(CheckError::Termination(format!(
            "recursive call to `{fname}` has no structurally decreasing argument"
        )))
    }

    /// Instantiate a (possibly polymorphic) component schema for a call site.
    /// Recursive self-calls keep the potential annotations of the goal
    /// signature (potential-monomorphic recursion), so no instantiation
    /// unknowns are created for them.
    fn instantiate(
        &self,
        ctx: &Ctx,
        st: &mut St,
        schema: &Schema,
        args: &[&Expr],
        expected: Option<&Ty>,
        is_recursive: bool,
    ) -> Ty {
        if schema.is_mono() {
            return (*schema.ty).clone();
        }
        if is_recursive {
            // Recursive self-calls are checked with *rigid* type variables
            // (monomorphic recursion): the function must work for the caller's
            // choice of the element type, so it cannot re-instantiate its own
            // type variables with concrete types such as `Int`.
            return (*schema.ty).clone();
        }
        let (params, ret) = schema.ty.uncurry();
        let mut ty = (*schema.ty).clone();
        for alpha in &schema.tyvars {
            let binding = self
                .instantiate_from_expected(alpha, &ret, expected)
                .or_else(|| self.instantiate_from_args(ctx, alpha, &params, args))
                .unwrap_or_else(|| Ty::tvar(alpha.clone()));
            // Potential polymorphism: in resource mode, allow the instantiation
            // to carry an unknown amount of extra potential per value, solved
            // by the CEGIS solver (cf. the `triple`/`tripleSlow` example).
            // The unknown is only useful when potential can flow *out* through
            // the component's result (the result type mentions the variable);
            // otherwise the best instantiation is always zero and we avoid the
            // unknown so that resource violations are detected eagerly.
            let binding = if matches!(self.config.mode, ResourceMode::Resource)
                && !is_recursive
                && self.schema_has_tvar_potential(schema, alpha)
                && self.result_mentions_tvar(&ret, alpha)
            {
                let name = format!("_inst{}", st.counter);
                st.counter += 1;
                st.outcome.unknowns.push(UnknownInfo {
                    name: name.clone(),
                    scope: Vec::new(),
                });
                let pot = (binding.potential() + Term::unknown(name)).simplify();
                binding.with_potential(pot)
            } else {
                binding
            };
            ty = ty.subst_tvar(alpha, &binding);
        }
        ty
    }

    fn result_mentions_tvar(&self, ret: &Ty, alpha: &str) -> bool {
        fn go(ty: &Ty, alpha: &str) -> bool {
            match ty {
                Ty::Scalar { base, .. } => match base {
                    BaseType::TVar(a) => a == alpha,
                    BaseType::Data(_, args) => args.iter().any(|t| go(t, alpha)),
                    _ => false,
                },
                Ty::Arrow { param_ty, ret, .. } => go(param_ty, alpha) || go(ret, alpha),
            }
        }
        go(ret, alpha)
    }

    fn schema_has_tvar_potential(&self, schema: &Schema, alpha: &str) -> bool {
        fn go(ty: &Ty, alpha: &str) -> bool {
            match ty {
                Ty::Scalar {
                    base, potential, ..
                } => {
                    let here =
                        matches!(base, BaseType::TVar(a) if a == alpha) && !potential.is_zero();
                    let nested = match base {
                        BaseType::Data(_, args) => args.iter().any(|t| go(t, alpha)),
                        _ => false,
                    };
                    here || nested
                }
                Ty::Arrow { param_ty, ret, .. } => go(param_ty, alpha) || go(ret, alpha),
            }
        }
        go(&schema.ty, alpha)
    }

    fn instantiate_from_expected(
        &self,
        alpha: &str,
        ret: &Ty,
        expected: Option<&Ty>,
    ) -> Option<Ty> {
        let expected = expected?;
        match (ret.base_type()?, expected.base_type()?) {
            (BaseType::TVar(a), _) if a == alpha => {
                Some(expected.clone().with_potential(Term::int(0)))
            }
            (BaseType::Data(dn, dargs), BaseType::Data(en, eargs)) if dn == en => {
                match (dargs.first().and_then(Ty::base_type), eargs.first()) {
                    (Some(BaseType::TVar(a)), Some(e)) if a == alpha => Some(e.clone()),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn instantiate_from_args(
        &self,
        ctx: &Ctx,
        alpha: &str,
        params: &[(String, Ty, i64)],
        args: &[&Expr],
    ) -> Option<Ty> {
        for ((_, pty, _), arg) in params.iter().zip(args) {
            let Expr::Var(v) = arg else { continue };
            let aty = ctx.lookup(v)?;
            // Only the base shape is taken from arguments; the refinement is
            // dropped (the weakest instantiation), because strengthening it
            // would impose the argument's element refinement on every other
            // occurrence of the variable. Refined instantiations only come
            // from the expected (return) type, cf. round-trip checking.
            match (pty.base_type(), aty.base_type()) {
                (Some(BaseType::TVar(a)), Some(_)) if a == alpha => {
                    return Some(
                        aty.clone()
                            .with_potential(Term::int(0))
                            .with_refinement(Term::tt()),
                    );
                }
                (Some(BaseType::Data(dn, dargs)), Some(BaseType::Data(an, aargs))) if dn == an => {
                    if let (Some(BaseType::TVar(a)), Some(e)) =
                        (dargs.first().and_then(Ty::base_type), aargs.first())
                    {
                        if a == alpha {
                            return Some(
                                e.clone()
                                    .with_potential(Term::int(0))
                                    .with_refinement(Term::tt()),
                            );
                        }
                    }
                }
                _ => {}
            }
        }
        None
    }
}
