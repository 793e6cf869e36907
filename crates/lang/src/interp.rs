//! The cost-semantics interpreter.
//!
//! Evaluation follows the paper's operational cost semantics: `tick(c, e)`
//! consumes `c` units of resource (releases them when `c` is negative) and the
//! interpreter tracks both the *net* cost and the *high-water mark* — the
//! minimal initial resource budget `q` such that evaluation never gets stuck
//! on resources (`⟨e, q⟩ ↦* ⟨v, q'⟩`). The evaluation harness uses the
//! high-water mark to measure the bounds reported in the paper's Table 2.
//!
//! Components (library functions such as `append`, `<`, `inc`) can be supplied
//! either as values in the initial environment (closures written in the core
//! calculus) or as *native* Rust functions registered with
//! [`Interp::register_native`].

use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::expr::{Expr, Ident, MatchArm};
use crate::value::{EnvMap, Val};

/// How deep evaluation may nest. The evaluator recurses on the native stack:
/// a nesting level, one `Interp::eval` with the frames of its construct,
/// took up to 2.9 KB in a debug build (944 bytes in release) on x86-64, so
/// 512 levels fit in the 2 MB stack of a test thread with half a megabyte
/// left for its callers. A diverging program stops here long before the
/// step limit, instead of aborting the process on a stack overflow. The
/// paper's list programs nest four to seven levels per recursive call.
pub const MAX_DEPTH: usize = 512;

/// A persistent runtime environment.
#[derive(Debug, Clone, Default)]
pub struct Env(Rc<EnvMap>);

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Extend the environment with a binding, returning a new environment.
    pub fn bind(&self, name: impl Into<Ident>, value: Val) -> Env {
        let mut map = (*self.0).clone();
        map.insert(name.into(), value);
        Env(Rc::new(map))
    }

    /// Look up a variable.
    pub fn get(&self, name: &str) -> Option<&Val> {
        self.0.get(name)
    }

    /// Build an environment from an iterator of bindings.
    pub fn from_bindings<I: IntoIterator<Item = (Ident, Val)>>(bindings: I) -> Env {
        Env(Rc::new(bindings.into_iter().collect()))
    }

    fn as_map(&self) -> Rc<EnvMap> {
        Rc::clone(&self.0)
    }
}

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A variable had no binding.
    UnboundVariable(Ident),
    /// A non-function value was applied.
    NotAFunction(String),
    /// No match arm covered the scrutinee's constructor.
    MatchFailure(String),
    /// The `impossible` marker was reached (the type system should prevent this).
    ImpossibleReached,
    /// The step limit was exceeded (probable divergence).
    StepLimit,
    /// Evaluation nested deeper than [`MAX_DEPTH`] (probable divergence).
    DepthLimit,
    /// A native component reported an error.
    Native(String),
    /// A value of the wrong shape was encountered.
    Type(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnboundVariable(x) => write!(f, "unbound variable `{x}`"),
            RuntimeError::NotAFunction(v) => write!(f, "attempt to apply non-function `{v}`"),
            RuntimeError::MatchFailure(c) => write!(f, "no match arm for constructor `{c}`"),
            RuntimeError::ImpossibleReached => write!(f, "reached `impossible`"),
            RuntimeError::StepLimit => write!(f, "evaluation step limit exceeded"),
            RuntimeError::DepthLimit => write!(f, "evaluation nesting depth limit exceeded"),
            RuntimeError::Native(m) => write!(f, "native component error: {m}"),
            RuntimeError::Type(m) => write!(f, "runtime type error: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The result of a successful evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// The resulting value.
    pub value: Val,
    /// Total cost consumed minus cost released (the net cost).
    pub net_cost: i64,
    /// The high-water mark: the minimal initial budget with which evaluation
    /// never goes negative.
    pub high_water: i64,
    /// Number of evaluation steps performed (a proxy for wall-clock work).
    pub steps: usize,
}

type NativeFn = Rc<dyn Fn(&[Val]) -> Result<Val, String>>;

/// The interpreter: a registry of native components plus a step limit.
#[derive(Clone, Default)]
pub struct Interp {
    natives: BTreeMap<Ident, (usize, NativeFn)>,
    step_limit: usize,
}

impl fmt::Debug for Interp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interp")
            .field("natives", &self.natives.keys().collect::<Vec<_>>())
            .field("step_limit", &self.step_limit)
            .finish()
    }
}

struct State {
    steps: usize,
    /// Calls of [`Interp::eval`] in progress.
    depth: usize,
    cost: i64,
    high_water: i64,
}

impl Interp {
    /// A new interpreter with the default step limit.
    pub fn new() -> Interp {
        Interp {
            natives: BTreeMap::new(),
            step_limit: 5_000_000,
        }
    }

    /// Override the step limit.
    pub fn with_step_limit(mut self, limit: usize) -> Interp {
        self.step_limit = limit;
        self
    }

    /// Register a native component. The component becomes available as a
    /// curried function value via [`Interp::native_value`].
    pub fn register_native(
        &mut self,
        name: impl Into<Ident>,
        arity: usize,
        f: impl Fn(&[Val]) -> Result<Val, String> + 'static,
    ) -> &mut Interp {
        self.natives.insert(name.into(), (arity, Rc::new(f)));
        self
    }

    /// The (unapplied) function value of a registered native component.
    ///
    /// # Panics
    ///
    /// Panics if no component with this name has been registered.
    pub fn native_value(&self, name: &str) -> Val {
        let (arity, _) = self
            .natives
            .get(name)
            .unwrap_or_else(|| panic!("native component `{name}` not registered"));
        Val::Native {
            name: name.to_string(),
            arity: *arity,
            args: Vec::new(),
        }
    }

    /// Evaluate an expression in an environment, tracking resource usage.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for unbound variables, application of
    /// non-functions, uncovered matches, reached `impossible` markers, native
    /// component failures, or when the step limit or [`MAX_DEPTH`] is
    /// exceeded.
    pub fn run(&self, expr: &Expr, env: &Env) -> Result<EvalOutcome, RuntimeError> {
        let mut state = State {
            steps: 0,
            depth: 0,
            cost: 0,
            high_water: 0,
        };
        let value = self.eval(expr, env, &mut state)?;
        Ok(EvalOutcome {
            value,
            net_cost: state.cost,
            high_water: state.high_water,
            steps: state.steps,
        })
    }

    /// Evaluate `expr`. Each construct that evaluates a subexpression has
    /// its own method, so a nesting level holds the stack frame of one
    /// construct, not the locals of all of them.
    fn eval(&self, expr: &Expr, env: &Env, state: &mut State) -> Result<Val, RuntimeError> {
        state.steps += 1;
        if state.steps > self.step_limit {
            return Err(RuntimeError::StepLimit);
        }
        if state.depth == MAX_DEPTH {
            return Err(RuntimeError::DepthLimit);
        }
        state.depth += 1;
        let value = match expr {
            Expr::Var(_) | Expr::Bool(_) | Expr::Int(_) | Expr::Lambda(..) | Expr::Fix(..) => {
                value_of(expr, env)
            }
            Expr::Ctor(name, args) => self.eval_ctor(name, args, env, state),
            Expr::App(f, a) => self.eval_app(f, a, env, state),
            Expr::Ite(c, t, e) => self.eval_ite(c, t, e, env, state),
            Expr::Match(s, arms) => self.eval_match(s, arms, env, state),
            Expr::Let(x, bound, body) => self.eval_let(x, bound, body, env, state),
            Expr::Impossible => Err(RuntimeError::ImpossibleReached),
            Expr::Tick(c, body) => {
                state.cost += *c;
                if state.cost > state.high_water {
                    state.high_water = state.cost;
                }
                self.eval(body, env, state)
            }
        };
        state.depth -= 1;
        value
    }

    fn eval_ctor(
        &self,
        name: &Ident,
        args: &[Expr],
        env: &Env,
        state: &mut State,
    ) -> Result<Val, RuntimeError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, env, state)?);
        }
        Ok(Val::Ctor(name.clone(), vals))
    }

    fn eval_app(
        &self,
        f: &Expr,
        a: &Expr,
        env: &Env,
        state: &mut State,
    ) -> Result<Val, RuntimeError> {
        let fv = self.eval(f, env, state)?;
        let av = self.eval(a, env, state)?;
        self.apply(fv, av, state)
    }

    fn eval_ite(
        &self,
        c: &Expr,
        t: &Expr,
        e: &Expr,
        env: &Env,
        state: &mut State,
    ) -> Result<Val, RuntimeError> {
        let cv = self.eval(c, env, state)?;
        match cv.as_bool() {
            Some(true) => self.eval(t, env, state),
            Some(false) => self.eval(e, env, state),
            None => Err(RuntimeError::Type(format!(
                "conditional guard is not a boolean: {cv}"
            ))),
        }
    }

    fn eval_match(
        &self,
        s: &Expr,
        arms: &[MatchArm],
        env: &Env,
        state: &mut State,
    ) -> Result<Val, RuntimeError> {
        let sv = self.eval(s, env, state)?;
        let (ctor, args) = match sv {
            Val::Ctor(name, args) => (name, args),
            other => {
                return Err(RuntimeError::Type(format!(
                    "match scrutinee is not a constructor value: {other}"
                )))
            }
        };
        let arm = arms
            .iter()
            .find(|arm| arm.ctor == ctor)
            .ok_or_else(|| RuntimeError::MatchFailure(ctor.clone()))?;
        if arm.binders.len() != args.len() {
            return Err(RuntimeError::Type(format!(
                "constructor `{ctor}` arity mismatch in match"
            )));
        }
        let mut new_env = env.clone();
        for (binder, value) in arm.binders.iter().zip(args) {
            new_env = new_env.bind(binder.clone(), value);
        }
        self.eval(&arm.body, &new_env, state)
    }

    fn eval_let(
        &self,
        x: &Ident,
        bound: &Expr,
        body: &Expr,
        env: &Env,
        state: &mut State,
    ) -> Result<Val, RuntimeError> {
        let bv = self.eval(bound, env, state)?;
        let new_env = env.bind(x.clone(), bv);
        self.eval(body, &new_env, state)
    }

    fn apply(&self, f: Val, arg: Val, state: &mut State) -> Result<Val, RuntimeError> {
        match f {
            Val::Closure { param, body, env } => {
                let env = Env(env).bind(param, arg);
                self.eval(&body, &env, state)
            }
            Val::FixClosure {
                fname,
                param,
                body,
                env,
            } => {
                let recursive = Val::FixClosure {
                    fname: fname.clone(),
                    param: param.clone(),
                    body: Rc::clone(&body),
                    env: Rc::clone(&env),
                };
                let env = Env(env).bind(fname, recursive).bind(param, arg);
                self.eval(&body, &env, state)
            }
            Val::Native {
                name,
                arity,
                mut args,
            } => {
                args.push(arg);
                if args.len() == arity {
                    let (_, func) = self.natives.get(&name).ok_or_else(|| {
                        RuntimeError::Native(format!("unregistered native `{name}`"))
                    })?;
                    func(&args).map_err(RuntimeError::Native)
                } else {
                    Ok(Val::Native { name, arity, args })
                }
            }
            other => Err(RuntimeError::NotAFunction(other.to_string())),
        }
    }
}

/// The value of an expression that evaluates no subexpression.
fn value_of(expr: &Expr, env: &Env) -> Result<Val, RuntimeError> {
    match expr {
        Expr::Var(x) => env
            .get(x)
            .cloned()
            .ok_or_else(|| RuntimeError::UnboundVariable(x.clone())),
        Expr::Bool(b) => Ok(Val::Bool(*b)),
        Expr::Int(n) => Ok(Val::Int(*n)),
        Expr::Lambda(param, body) => Ok(Val::Closure {
            param: param.clone(),
            body: Rc::new((**body).clone()),
            env: env.as_map(),
        }),
        Expr::Fix(fname, param, body) => Ok(Val::FixClosure {
            fname: fname.clone(),
            param: param.clone(),
            body: Rc::new((**body).clone()),
            env: env.as_map(),
        }),
        _ => unreachable!("{expr} evaluates a subexpression"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interp() -> Interp {
        let mut i = Interp::new();
        i.register_native("plus", 2, |args| {
            Ok(Val::Int(
                args[0].as_int().unwrap() + args[1].as_int().unwrap(),
            ))
        });
        i.register_native("leq", 2, |args| {
            Ok(Val::Bool(
                args[0].as_int().unwrap() <= args[1].as_int().unwrap(),
            ))
        });
        i
    }

    fn base_env(i: &Interp) -> Env {
        Env::new()
            .bind("plus", i.native_value("plus"))
            .bind("leq", i.native_value("leq"))
    }

    #[test]
    fn literals_and_lets() {
        let i = interp();
        let e = Expr::let_("x", Expr::int(3), Expr::var("x"));
        let out = i.run(&e, &Env::new()).unwrap();
        assert_eq!(out.value, Val::Int(3));
        assert_eq!(out.net_cost, 0);
    }

    #[test]
    fn native_components_curry() {
        let i = interp();
        let env = base_env(&i);
        let e = Expr::let_(
            "inc1",
            Expr::app(Expr::var("plus"), Expr::int(1)),
            Expr::app(Expr::var("inc1"), Expr::int(41)),
        );
        assert_eq!(i.run(&e, &env).unwrap().value, Val::Int(42));
    }

    #[test]
    fn conditionals_and_comparisons() {
        let i = interp();
        let env = base_env(&i);
        let e = Expr::ite(
            Expr::app2(Expr::var("leq"), Expr::int(2), Expr::int(3)),
            Expr::int(1),
            Expr::int(0),
        );
        assert_eq!(i.run(&e, &env).unwrap().value, Val::Int(1));
    }

    #[test]
    fn recursion_computes_list_length() {
        let i = interp();
        let env = base_env(&i);
        // fix len. λl. match l with Nil -> 0 | Cons h t -> tick(1, 1 + len t)
        let len = Expr::fix(
            "len",
            "l",
            Expr::match_list(
                Expr::var("l"),
                Expr::int(0),
                "h",
                "t",
                Expr::tick(
                    1,
                    Expr::app2(
                        Expr::var("plus"),
                        Expr::int(1),
                        Expr::app(Expr::var("len"), Expr::var("t")),
                    ),
                ),
            ),
        );
        let e = Expr::app(len, Expr::int_list(&[5, 6, 7, 8]));
        let out = i.run(&e, &env).unwrap();
        assert_eq!(out.value, Val::Int(4));
        // One tick per element.
        assert_eq!(out.net_cost, 4);
        assert_eq!(out.high_water, 4);
    }

    #[test]
    fn negative_ticks_release_resources() {
        let i = interp();
        // tick(3, tick(-2, tick(1, 0)))  — net 2, high-water 3.
        let e = Expr::tick(3, Expr::tick(-2, Expr::tick(1, Expr::int(0))));
        let out = i.run(&e, &Env::new()).unwrap();
        assert_eq!(out.net_cost, 2);
        assert_eq!(out.high_water, 3);
    }

    #[test]
    fn impossible_and_match_failures_are_errors() {
        let i = interp();
        assert_eq!(
            i.run(&Expr::Impossible, &Env::new()),
            Err(RuntimeError::ImpossibleReached)
        );
        let e = Expr::match_(
            Expr::nil(),
            vec![MatchArm {
                ctor: "Cons".into(),
                binders: vec!["h".into(), "t".into()],
                body: Expr::int(0),
            }],
        );
        assert!(matches!(
            i.run(&e, &Env::new()),
            Err(RuntimeError::MatchFailure(_))
        ));
        assert!(matches!(
            i.run(&Expr::var("zzz"), &Env::new()),
            Err(RuntimeError::UnboundVariable(_))
        ));
    }

    #[test]
    fn divergence_hits_step_limit() {
        // Keep the limit small: this program nests stack frames as it steps.
        let i = interp().with_step_limit(200);
        // fix loop. λx. loop x
        let loop_ = Expr::fix("loop", "x", Expr::app(Expr::var("loop"), Expr::var("x")));
        let e = Expr::app(loop_, Expr::int(0));
        assert_eq!(i.run(&e, &Env::new()), Err(RuntimeError::StepLimit));
    }

    #[test]
    fn divergence_under_default_limits_hits_the_depth_limit() {
        // Every step of this program nests one more call, so the depth
        // bound ends it long before the step limit: the stack of a test
        // thread must hold `MAX_DEPTH` levels.
        let loop_ = Expr::fix("loop", "x", Expr::app(Expr::var("loop"), Expr::var("x")));
        let e = Expr::app(loop_, Expr::int(0));
        assert_eq!(interp().run(&e, &Env::new()), Err(RuntimeError::DepthLimit));
    }

    #[test]
    fn shadowing_respects_lexical_scope() {
        let i = interp();
        let env = base_env(&i);
        // let x = 1 in let f = λy. x in let x = 2 in f 0  ==> 1
        let e = Expr::let_(
            "x",
            Expr::int(1),
            Expr::let_(
                "f",
                Expr::lambda("y", Expr::var("x")),
                Expr::let_("x", Expr::int(2), Expr::app(Expr::var("f"), Expr::int(0))),
            ),
        );
        assert_eq!(i.run(&e, &env).unwrap().value, Val::Int(1));
    }
}
