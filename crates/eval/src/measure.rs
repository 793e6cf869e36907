//! Empirical measurement of the resource usage of synthesized programs.
//!
//! The paper's Table 2 reports the tightest bound of the code generated by
//! ReSyn (`B`) and by Synquid (`B-NR`). We measure those bounds by running the
//! synthesized program in the cost-semantics interpreter on inputs of growing
//! size (with recursive calls charged one unit, matching the benchmarks' cost
//! metric) and classifying the growth of the high-water mark.

use resyn_lang::{Expr, Interp, Val};
use resyn_synth::Goal;

use crate::components;
use resyn_synth::skeleton::Shape;

/// The asymptotic class of the measured cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundClass {
    /// No resource usage at all.
    Zero,
    /// Bounded by a constant.
    Constant,
    /// Linear in the input size.
    Linear,
    /// Quadratic in the input size.
    Quadratic,
    /// Worse than quadratic.
    Exponential,
    /// The program could not be executed.
    Unknown,
}

impl std::fmt::Display for BoundClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BoundClass::Zero => "0",
            BoundClass::Constant => "O(1)",
            BoundClass::Linear => "O(n)",
            BoundClass::Quadratic => "O(n^2)",
            BoundClass::Exponential => "exp",
            BoundClass::Unknown => "-",
        };
        write!(f, "{s}")
    }
}

/// Wrap every recursive call of `fname` in `tick(1, ·)` so the interpreter
/// counts recursive calls (the benchmarks' cost metric).
pub fn instrument(expr: &Expr, fname: &str) -> Expr {
    fn is_call_of(e: &Expr, fname: &str) -> bool {
        match e {
            Expr::App(f, _) => is_call_of(f, fname),
            Expr::Var(x) => x == fname,
            _ => false,
        }
    }
    fn go(e: &Expr, fname: &str) -> Expr {
        match e {
            Expr::App(_, _) if is_call_of(e, fname) => {
                // Wrap the *whole* call spine in a single tick; only the
                // argument subexpressions are instrumented recursively.
                Expr::tick(1, map_spine(e, fname))
            }
            _ => map_children(e, fname),
        }
    }
    fn map_spine(e: &Expr, fname: &str) -> Expr {
        match e {
            Expr::App(f, a) => Expr::App(Box::new(map_spine(f, fname)), Box::new(go(a, fname))),
            _ => e.clone(),
        }
    }
    fn map_children(e: &Expr, fname: &str) -> Expr {
        match e {
            Expr::Var(_) | Expr::Bool(_) | Expr::Int(_) | Expr::Impossible => e.clone(),
            Expr::Ctor(n, args) => {
                Expr::Ctor(n.clone(), args.iter().map(|a| go(a, fname)).collect())
            }
            Expr::Lambda(x, b) => Expr::Lambda(x.clone(), Box::new(go(b, fname))),
            Expr::Fix(f, x, b) => Expr::Fix(f.clone(), x.clone(), Box::new(go(b, fname))),
            Expr::App(f, a) => Expr::App(Box::new(go(f, fname)), Box::new(go(a, fname))),
            Expr::Ite(c, t, els) => Expr::Ite(
                Box::new(go(c, fname)),
                Box::new(go(t, fname)),
                Box::new(go(els, fname)),
            ),
            Expr::Match(s, arms) => Expr::Match(
                Box::new(go(s, fname)),
                arms.iter()
                    .map(|arm| resyn_lang::MatchArm {
                        ctor: arm.ctor.clone(),
                        binders: arm.binders.clone(),
                        body: go(&arm.body, fname),
                    })
                    .collect(),
            ),
            Expr::Let(x, b, body) => {
                Expr::Let(x.clone(), Box::new(go(b, fname)), Box::new(go(body, fname)))
            }
            Expr::Tick(c, b) => Expr::Tick(*c, Box::new(go(b, fname))),
        }
    }
    go(expr, fname)
}

/// Build an input value of the given size for a parameter shape.
fn input_for(shape: &Shape, size: usize, salt: i64) -> Expr {
    match shape {
        Shape::Bool => Expr::bool(true),
        Shape::Int => Expr::int(size as i64),
        // Element arguments are chosen larger than every generated list
        // element so that worst-case paths (insert at the end, search without
        // a hit, delete nothing) are exercised; otherwise e.g. `insert`'s
        // measured cost would be a constant rather than the paper's |xs|.
        Shape::Elem => Expr::int(2 * size as i64 + 16 + salt),
        Shape::Data(_) => {
            let items: Vec<i64> = (0..size as i64).map(|i| 2 * i + salt).collect();
            let mut e = Expr::ctor(ctor_names(shape).0, vec![]);
            for x in items.into_iter().rev() {
                e = Expr::ctor(ctor_names(shape).1, vec![Expr::int(x), e]);
            }
            e
        }
    }
}

fn ctor_names(shape: &Shape) -> (&'static str, &'static str) {
    match shape {
        Shape::Data(d) if d == "SList" => ("SNil", "SCons"),
        Shape::Data(d) if d == "IList" => ("INil", "ICons"),
        Shape::Data(d) if d == "CList" => ("CNil", "CCons"),
        _ => ("Nil", "Cons"),
    }
}

/// Measure the high-water-mark cost of a synthesized program on inputs of the
/// given size (recursive calls cost one unit).
pub fn cost_at(goal: &Goal, program: &Expr, size: usize) -> Option<i64> {
    let mut interp = Interp::new();
    let bindings = components::register_natives(&mut interp);
    // Goal components that are not native are not supported for measurement.
    let env = resyn_lang::interp::Env::from_bindings(bindings);
    let instrumented = instrument(program, &goal.name);
    let (params, _) = goal.schema.ty.uncurry();
    let mut call = instrumented;
    for (i, (_, ty, _)) in params.iter().enumerate() {
        let shape = Shape::of(ty)?;
        call = Expr::app(call, input_for(&shape, size, i as i64));
    }
    let out = interp.run(&call, &env).ok()?;
    let _ = Val::Int(0);
    Some(out.high_water)
}

/// Classify the growth of the measured cost over a few input sizes.
pub fn classify(goal: &Goal, program: &Expr) -> BoundClass {
    let sizes = [4usize, 8, 16];
    let mut costs = Vec::new();
    for s in sizes {
        match cost_at(goal, program, s) {
            Some(c) => costs.push(c.max(0) as f64),
            None => return BoundClass::Unknown,
        }
    }
    let (c4, c8, c16) = (costs[0], costs[1], costs[2]);
    if c16 == 0.0 {
        return BoundClass::Zero;
    }
    if c16 <= 2.0 {
        return BoundClass::Constant;
    }
    let r1 = c8 / c4.max(1.0);
    let r2 = c16 / c8.max(1.0);
    if r2 <= 2.5 && r1 <= 2.5 {
        BoundClass::Linear
    } else if r2 <= 5.0 {
        BoundClass::Quadratic
    } else {
        BoundClass::Exponential
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_logic::Term;
    use resyn_synth::Goal;
    use resyn_ty::types::{BaseType, Schema, Ty};

    fn length_goal() -> Goal {
        Goal::new(
            "length",
            Schema::poly(
                vec!["a"],
                Ty::fun(
                    vec![("l", Ty::list(Ty::tvar("a")))],
                    Ty::refined(
                        BaseType::Int,
                        Term::value_var().eq_(Term::app("len", vec![Term::var("l")])),
                    ),
                ),
            ),
            vec![("inc", crate::components::inc())],
        )
    }

    fn length_program() -> Expr {
        Expr::fix(
            "length",
            "l",
            Expr::match_list(
                Expr::var("l"),
                Expr::int(0),
                "h",
                "t",
                Expr::let_(
                    "r",
                    Expr::app(Expr::var("length"), Expr::var("t")),
                    Expr::app(Expr::var("inc"), Expr::var("r")),
                ),
            ),
        )
    }

    #[test]
    fn linear_programs_are_classified_linear() {
        let goal = length_goal();
        let program = length_program();
        assert_eq!(cost_at(&goal, &program, 8), Some(8));
        assert_eq!(classify(&goal, &program), BoundClass::Linear);
    }

    #[test]
    fn instrumentation_only_charges_recursive_calls() {
        let program = length_program();
        let instrumented = instrument(&program, "length");
        // The inc application is not wrapped in a tick.
        assert!(instrumented.to_string().contains("tick 1 (length t)"));
        assert!(!instrumented.to_string().contains("tick 1 (inc"));
    }
}
