//! Expressions of the Re² core calculus (the paper's Fig. 4, extended with
//! integers and general algebraic constructors).
//!
//! Programs manipulated by the type checker and synthesizer are kept in
//! *a-normal form*: constructor arguments, application functions/arguments,
//! conditional guards and match scrutinees are atoms (variables or values).
//! The [`Expr::is_anf`] predicate checks the discipline; the builders in this
//! module do not enforce it so that tests can also express non-normalized
//! programs.

use std::fmt;

/// Variable and constructor names.
pub type Ident = String;

/// One arm of a pattern match: constructor name, binders for its arguments,
/// and the arm body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MatchArm {
    /// The constructor this arm matches.
    pub ctor: Ident,
    /// Binders for the constructor's arguments.
    pub binders: Vec<Ident>,
    /// The arm body.
    pub body: Expr,
}

/// An expression of the core calculus.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A variable.
    Var(Ident),
    /// A boolean literal.
    Bool(bool),
    /// An integer literal.
    Int(i64),
    /// A saturated constructor application, e.g. `Cons x xs` or `Nil`.
    Ctor(Ident, Vec<Expr>),
    /// A lambda abstraction `λx. e`.
    Lambda(Ident, Box<Expr>),
    /// A recursive function `fix f. λx. e` (binds both `f` and `x` in `e`).
    Fix(Ident, Ident, Box<Expr>),
    /// Application.
    App(Box<Expr>, Box<Expr>),
    /// Conditional.
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Pattern match on a constructor value.
    Match(Box<Expr>, Vec<MatchArm>),
    /// `let x = e₁ in e₂`.
    Let(Ident, Box<Expr>, Box<Expr>),
    /// Unreachable code (the else-branch of an always-true conditional, etc.).
    Impossible,
    /// `tick(c, e)`: consume `c` units of resource (release if negative), then
    /// evaluate `e`.
    Tick(i64, Box<Expr>),
}

impl Expr {
    /// A variable.
    pub fn var(name: impl Into<Ident>) -> Expr {
        Expr::Var(name.into())
    }

    /// An integer literal.
    pub fn int(n: i64) -> Expr {
        Expr::Int(n)
    }

    /// A boolean literal.
    pub fn bool(b: bool) -> Expr {
        Expr::Bool(b)
    }

    /// The empty list `Nil`.
    pub fn nil() -> Expr {
        Expr::Ctor(crate::ctors::NIL.into(), vec![])
    }

    /// A cons cell `Cons head tail`.
    pub fn cons(head: Expr, tail: Expr) -> Expr {
        Expr::Ctor(crate::ctors::CONS.into(), vec![head, tail])
    }

    /// A constructor application.
    pub fn ctor(name: impl Into<Ident>, args: Vec<Expr>) -> Expr {
        Expr::Ctor(name.into(), args)
    }

    /// A lambda abstraction.
    pub fn lambda(param: impl Into<Ident>, body: Expr) -> Expr {
        Expr::Lambda(param.into(), Box::new(body))
    }

    /// A recursive function.
    pub fn fix(fname: impl Into<Ident>, param: impl Into<Ident>, body: Expr) -> Expr {
        Expr::Fix(fname.into(), param.into(), Box::new(body))
    }

    /// An application.
    pub fn app(f: Expr, arg: Expr) -> Expr {
        Expr::App(Box::new(f), Box::new(arg))
    }

    /// A binary application `f a b`.
    pub fn app2(f: Expr, a: Expr, b: Expr) -> Expr {
        Expr::app(Expr::app(f, a), b)
    }

    /// A ternary application `f a b c`.
    pub fn app3(f: Expr, a: Expr, b: Expr, c: Expr) -> Expr {
        Expr::app(Expr::app2(f, a, b), c)
    }

    /// A conditional.
    pub fn ite(cond: Expr, then: Expr, els: Expr) -> Expr {
        Expr::Ite(Box::new(cond), Box::new(then), Box::new(els))
    }

    /// A let binding.
    pub fn let_(name: impl Into<Ident>, bound: Expr, body: Expr) -> Expr {
        Expr::Let(name.into(), Box::new(bound), Box::new(body))
    }

    /// A chain of let bindings around a body.
    pub fn lets(bindings: Vec<(Ident, Expr)>, body: Expr) -> Expr {
        bindings
            .into_iter()
            .rev()
            .fold(body, |acc, (name, bound)| Expr::let_(name, bound, acc))
    }

    /// A pattern match.
    pub fn match_(scrutinee: Expr, arms: Vec<MatchArm>) -> Expr {
        Expr::Match(Box::new(scrutinee), arms)
    }

    /// A match on a list with `Nil` and `Cons` arms (the paper's `matl`).
    pub fn match_list(
        scrutinee: Expr,
        nil_body: Expr,
        head: impl Into<Ident>,
        tail: impl Into<Ident>,
        cons_body: Expr,
    ) -> Expr {
        Expr::match_(
            scrutinee,
            vec![
                MatchArm {
                    ctor: crate::ctors::NIL.into(),
                    binders: vec![],
                    body: nil_body,
                },
                MatchArm {
                    ctor: crate::ctors::CONS.into(),
                    binders: vec![head.into(), tail.into()],
                    body: cons_body,
                },
            ],
        )
    }

    /// A tick expression.
    pub fn tick(cost: i64, body: Expr) -> Expr {
        Expr::Tick(cost, Box::new(body))
    }

    /// Build a list literal value from expressions.
    pub fn list(items: Vec<Expr>) -> Expr {
        items
            .into_iter()
            .rev()
            .fold(Expr::nil(), |acc, item| Expr::cons(item, acc))
    }

    /// Build an integer list literal.
    pub fn int_list(items: &[i64]) -> Expr {
        Expr::list(items.iter().map(|n| Expr::int(*n)).collect())
    }

    /// Is this expression an *atom* in the sense of the paper's grammar
    /// (a variable or a value built from constructors and literals, possibly a
    /// lambda or fix)?
    pub fn is_atom(&self) -> bool {
        match self {
            Expr::Var(_)
            | Expr::Bool(_)
            | Expr::Int(_)
            | Expr::Lambda(_, _)
            | Expr::Fix(_, _, _) => true,
            Expr::Ctor(_, args) => args.iter().all(Expr::is_atom),
            _ => false,
        }
    }

    /// Is this expression in a-normal form? Applications, guards, scrutinees
    /// and constructor arguments must be atoms; nested expressions must be
    /// named by `let`.
    pub fn is_anf(&self) -> bool {
        match self {
            Expr::Var(_) | Expr::Bool(_) | Expr::Int(_) | Expr::Impossible => true,
            Expr::Ctor(_, args) => args.iter().all(Expr::is_atom),
            Expr::Lambda(_, body) | Expr::Fix(_, _, body) => body.is_anf(),
            Expr::App(f, a) => {
                (f.is_atom() || matches!(**f, Expr::App(_, _))) && a.is_atom() && f.is_anf()
            }
            Expr::Ite(c, t, e) => c.is_atom() && t.is_anf() && e.is_anf(),
            Expr::Match(s, arms) => s.is_atom() && arms.iter().all(|arm| arm.body.is_anf()),
            Expr::Let(_, bound, body) => bound.is_anf() && body.is_anf(),
            Expr::Tick(_, body) => body.is_anf(),
        }
    }

    /// Free (program) variables of the expression.
    pub fn free_vars(&self) -> std::collections::BTreeSet<Ident> {
        use std::collections::BTreeSet;
        fn go(e: &Expr, bound: &mut Vec<Ident>, out: &mut BTreeSet<Ident>) {
            match e {
                Expr::Var(x) => {
                    if !bound.contains(x) {
                        out.insert(x.clone());
                    }
                }
                Expr::Bool(_) | Expr::Int(_) | Expr::Impossible => {}
                Expr::Ctor(_, args) => {
                    for a in args {
                        go(a, bound, out);
                    }
                }
                Expr::Lambda(x, body) => {
                    bound.push(x.clone());
                    go(body, bound, out);
                    bound.pop();
                }
                Expr::Fix(f, x, body) => {
                    bound.push(f.clone());
                    bound.push(x.clone());
                    go(body, bound, out);
                    bound.pop();
                    bound.pop();
                }
                Expr::App(f, a) => {
                    go(f, bound, out);
                    go(a, bound, out);
                }
                Expr::Ite(c, t, e2) => {
                    go(c, bound, out);
                    go(t, bound, out);
                    go(e2, bound, out);
                }
                Expr::Match(s, arms) => {
                    go(s, bound, out);
                    for arm in arms {
                        let n = arm.binders.len();
                        bound.extend(arm.binders.iter().cloned());
                        go(&arm.body, bound, out);
                        bound.truncate(bound.len() - n);
                    }
                }
                Expr::Let(x, b, body) => {
                    go(b, bound, out);
                    bound.push(x.clone());
                    go(body, bound, out);
                    bound.pop();
                }
                Expr::Tick(_, body) => go(body, bound, out),
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// Count the applications of a given function variable (used by the
    /// evaluation harness to locate recursive calls).
    pub fn count_calls(&self, fname: &str) -> usize {
        match self {
            Expr::Var(_) | Expr::Bool(_) | Expr::Int(_) | Expr::Impossible => 0,
            Expr::Ctor(_, args) => args.iter().map(|a| a.count_calls(fname)).sum(),
            Expr::Lambda(_, b) | Expr::Fix(_, _, b) | Expr::Tick(_, b) => b.count_calls(fname),
            Expr::App(f, a) => {
                let direct = usize::from(matches!(&**f, Expr::Var(x) if x == fname));
                direct + f.count_calls(fname) + a.count_calls(fname)
            }
            Expr::Ite(c, t, e) => {
                c.count_calls(fname) + t.count_calls(fname) + e.count_calls(fname)
            }
            Expr::Match(s, arms) => {
                s.count_calls(fname)
                    + arms
                        .iter()
                        .map(|arm| arm.body.count_calls(fname))
                        .sum::<usize>()
            }
            Expr::Let(_, b, body) => b.count_calls(fname) + body.count_calls(fname),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_expr(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_builders() {
        let l = Expr::int_list(&[1, 2]);
        assert_eq!(
            l,
            Expr::cons(Expr::int(1), Expr::cons(Expr::int(2), Expr::nil()))
        );
        assert!(l.is_atom());
    }

    #[test]
    fn anf_discipline() {
        // let y = f x in y  — ANF.
        let good = Expr::let_(
            "y",
            Expr::app(Expr::var("f"), Expr::var("x")),
            Expr::var("y"),
        );
        assert!(good.is_anf());
        // f (g x) — not ANF (argument is an application).
        let bad = Expr::app(Expr::var("f"), Expr::app(Expr::var("g"), Expr::var("x")));
        assert!(!bad.is_anf());
        // if (f x) then ... — not ANF (guard is an application).
        let bad = Expr::ite(
            Expr::app(Expr::var("f"), Expr::var("x")),
            Expr::bool(true),
            Expr::bool(false),
        );
        assert!(!bad.is_anf());
    }

    #[test]
    fn free_variables_respect_binders() {
        let e = Expr::lambda(
            "x",
            Expr::let_(
                "y",
                Expr::app(Expr::var("f"), Expr::var("x")),
                Expr::cons(Expr::var("y"), Expr::var("zs")),
            ),
        );
        let fv = e.free_vars();
        assert!(fv.contains("f") && fv.contains("zs"));
        assert!(!fv.contains("x") && !fv.contains("y"));
    }

    #[test]
    fn fix_binds_function_and_parameter() {
        let e = Expr::fix("f", "x", Expr::app(Expr::var("f"), Expr::var("x")));
        assert!(e.free_vars().is_empty());
    }

    #[test]
    fn match_arm_binders_are_bound() {
        let e = Expr::match_list(
            Expr::var("l"),
            Expr::nil(),
            "h",
            "t",
            Expr::cons(Expr::var("h"), Expr::var("t")),
        );
        assert_eq!(e.free_vars().into_iter().collect::<Vec<_>>(), vec!["l"]);
    }

    #[test]
    fn count_calls_finds_recursive_applications() {
        let body = Expr::ite(
            Expr::var("b"),
            Expr::app(Expr::var("f"), Expr::var("x")),
            Expr::app(Expr::var("g"), Expr::app(Expr::var("f"), Expr::var("y"))),
        );
        assert_eq!(body.count_calls("f"), 2);
        assert_eq!(body.count_calls("g"), 1);
        assert_eq!(body.count_calls("h"), 0);
    }

    #[test]
    fn lets_nests_in_order() {
        let e = Expr::lets(
            vec![("a".into(), Expr::int(1)), ("b".into(), Expr::var("a"))],
            Expr::var("b"),
        );
        assert_eq!(
            e,
            Expr::let_(
                "a",
                Expr::int(1),
                Expr::let_("b", Expr::var("a"), Expr::var("b"))
            )
        );
    }
}
