//! The shared component library: schemas of the functions benchmarks may use
//! (mirroring the `Components` column of the paper's tables) and their native
//! implementations for the cost-semantics interpreter.

use resyn_lang::{Interp, Val};
use resyn_logic::Term;
use resyn_ty::types::{BaseType, Schema, Ty};

/// `true`/`false` are literals; the comparison components follow the paper.
pub fn lt() -> Schema {
    cmp("lt", |x, y| x.lt(y))
}

/// `leq :: x:a → y:a → {Bool | ν = (x ≤ y)}`.
pub fn leq() -> Schema {
    cmp("leq", |x, y| x.le(y))
}

/// `eq :: x:a → y:a → {Bool | ν = (x = y)}`.
pub fn eq() -> Schema {
    cmp("eq", |x, y| x.eq_(y))
}

/// `neq :: x:a → y:a → {Bool | ν = (x ≠ y)}`.
pub fn neq() -> Schema {
    cmp("neq", |x, y| x.neq(y))
}

fn cmp(_name: &str, rel: impl Fn(Term, Term) -> Term) -> Schema {
    Schema::poly(
        vec!["a"],
        Ty::fun(
            vec![("x", Ty::tvar("a")), ("y", Ty::tvar("a"))],
            Ty::refined(
                BaseType::Bool,
                Term::value_var().iff(rel(Term::var("x"), Term::var("y"))),
            ),
        ),
    )
}

/// `inc :: x:Int → {Int | ν = x + 1}`.
pub fn inc() -> Schema {
    Schema::mono(Ty::arrow(
        "x",
        Ty::int(),
        Ty::refined(
            BaseType::Int,
            Term::value_var().eq_(Term::var("x") + Term::int(1)),
        ),
    ))
}

/// `dec :: x:Int → {Int | ν = x − 1}`.
pub fn dec() -> Schema {
    Schema::mono(Ty::arrow(
        "x",
        Ty::int(),
        Ty::refined(
            BaseType::Int,
            Term::value_var().eq_(Term::var("x") - Term::int(1)),
        ),
    ))
}

/// `plus :: x:Int → y:Int → {Int | ν = x + y}` (used by `tree-count`, which
/// must combine the counts of both subtrees before incrementing).
pub fn plus() -> Schema {
    Schema::mono(Ty::fun(
        vec![("x", Ty::int()), ("y", Ty::int())],
        Ty::refined(
            BaseType::Int,
            Term::value_var().eq_(Term::var("x") + Term::var("y")),
        ),
    ))
}

/// `insert :: x:a → xs:IList a → {IList a | elems ν = {x} ∪ elems xs}`: a
/// cost-free sorted insertion used as the inner loop of `insertion-sort`
/// (the outer recursion is what the resource bound meters, exactly as the
/// paper's Table 1 charges `sort` and not its auxiliary).
pub fn insert_sorted() -> Schema {
    Schema::poly(
        vec!["a"],
        Ty::fun(
            vec![
                ("x", Ty::tvar("a")),
                ("xs", Ty::data("IList", vec![Ty::tvar("a")])),
            ],
            Ty::refined(
                BaseType::Data("IList".into(), vec![Ty::tvar("a")]),
                Term::app("elems", vec![Term::value_var()]).eq_(
                    Term::var("x")
                        .singleton()
                        .union(Term::app("elems", vec![Term::var("xs")])),
                ),
            ),
        ),
    )
}

/// `append0 :: xs:List a → ys:List a → {List a | len ν = len xs + len ys}`:
/// a cost-free append for benchmarks whose metric charges only the
/// synthesized function's own recursion (`tree-flatten` — the recursive
/// results carry no element potential, so the potential-demanding
/// [`append`] could never be paid there).
pub fn append_free() -> Schema {
    Schema::poly(
        vec!["a"],
        Ty::fun(
            vec![
                ("xs", Ty::list(Ty::tvar("a"))),
                ("ys", Ty::list(Ty::tvar("a"))),
            ],
            Ty::refined(
                BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                Term::app("len", vec![Term::value_var()]).eq_(
                    Term::app("len", vec![Term::var("xs")])
                        + Term::app("len", vec![Term::var("ys")]),
                ),
            ),
        ),
    )
}

/// `member :: x:a → l:List a¹ → {Bool | ν = (x ∈ elems l)}` over the given
/// list datatype (`List`, `SList`, `IList`).
pub fn member(datatype: &str) -> Schema {
    Schema::poly(
        vec!["a"],
        Ty::fun(
            vec![
                ("x", Ty::tvar("a")),
                (
                    "l",
                    Ty::data(datatype, vec![Ty::tvar("a").with_potential(Term::int(1))]),
                ),
            ],
            Ty::refined(
                BaseType::Bool,
                Term::value_var()
                    .iff(Term::var("x").member(Term::app("elems", vec![Term::var("l")]))),
            ),
        ),
    )
}

/// `append :: xs:List a¹ → ys:List a → {List a | len ν = len xs + len ys}`
/// (one unit of potential per element of the first list, as in Fig. 3).
pub fn append() -> Schema {
    Schema::poly(
        vec!["a"],
        Ty::fun(
            vec![
                ("xs", Ty::list(Ty::tvar("a").with_potential(Term::int(1)))),
                ("ys", Ty::list(Ty::tvar("a"))),
            ],
            Ty::refined(
                BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                Term::app("len", vec![Term::value_var()]).eq_(
                    Term::app("len", vec![Term::var("xs")])
                        + Term::app("len", vec![Term::var("ys")]),
                ),
            ),
        ),
    )
}

/// `append' :: xs:List a → ys:List a¹ → {List a | len ν = len xs + len ys}`:
/// the mirror image of [`append`], which traverses its *second* argument
/// (used by Table 2's `triple'` case study).
pub fn append_snd() -> Schema {
    Schema::poly(
        vec!["a"],
        Ty::fun(
            vec![
                ("xs", Ty::list(Ty::tvar("a"))),
                ("ys", Ty::list(Ty::tvar("a").with_potential(Term::int(1)))),
            ],
            Ty::refined(
                BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                Term::app("len", vec![Term::value_var()]).eq_(
                    Term::app("len", vec![Term::var("xs")])
                        + Term::app("len", vec![Term::var("ys")]),
                ),
            ),
        ),
    )
}

/// `not :: x:Bool → {Bool | ν = ¬x}`.
pub fn not_() -> Schema {
    Schema::mono(Ty::arrow(
        "x",
        Ty::bool(),
        Ty::refined(BaseType::Bool, Term::value_var().iff(Term::var("x").not())),
    ))
}

/// `or :: x:Bool → y:Bool → {Bool | ν = x ∨ y}`.
pub fn or_() -> Schema {
    bool_binop(|x, y| x.or(y))
}

fn bool_binop(rel: impl Fn(Term, Term) -> Term) -> Schema {
    Schema::mono(Ty::fun(
        vec![("x", Ty::bool()), ("y", Ty::bool())],
        Ty::refined(
            BaseType::Bool,
            Term::value_var().iff(rel(Term::var("x"), Term::var("y"))),
        ),
    ))
}

/// Register native implementations of all components with an interpreter and
/// return the environment bindings for them.
pub fn register_natives(interp: &mut Interp) -> Vec<(String, Val)> {
    interp.register_native("lt", 2, |a| binop(a, |x, y| Val::Bool(x < y)));
    interp.register_native("leq", 2, |a| binop(a, |x, y| Val::Bool(x <= y)));
    interp.register_native("eq", 2, |a| binop(a, |x, y| Val::Bool(x == y)));
    interp.register_native("neq", 2, |a| binop(a, |x, y| Val::Bool(x != y)));
    interp.register_native("inc", 1, |a| {
        Ok(Val::Int(a[0].as_int().ok_or("inc expects an int")? + 1))
    });
    interp.register_native("dec", 1, |a| {
        Ok(Val::Int(a[0].as_int().ok_or("dec expects an int")? - 1))
    });
    interp.register_native("plus", 2, |a| binop(a, |x, y| Val::Int(x + y)));
    interp.register_native("insert", 2, |a| {
        let x = a[0].as_int().ok_or("insert expects an int element")?;
        let mut xs = a[1].as_int_list().ok_or("insert expects an int list")?;
        let at = xs.iter().position(|&y| x <= y).unwrap_or(xs.len());
        xs.insert(at, x);
        Ok(Val::int_list(&xs))
    });
    interp.register_native("member", 2, |a| {
        let x = a[0].as_int().ok_or("member expects an int element")?;
        let l = a[1].as_int_list().ok_or("member expects an int list")?;
        Ok(Val::Bool(l.contains(&x)))
    });
    interp.register_native("append", 2, |a| {
        let mut xs = a[0].as_int_list().ok_or("append expects int lists")?;
        let ys = a[1].as_int_list().ok_or("append expects int lists")?;
        xs.extend(ys);
        Ok(Val::int_list(&xs))
    });
    interp.register_native("append'", 2, |a| {
        let mut xs = a[0].as_int_list().ok_or("append' expects int lists")?;
        let ys = a[1].as_int_list().ok_or("append' expects int lists")?;
        xs.extend(ys);
        Ok(Val::int_list(&xs))
    });
    interp.register_native("not", 1, |a| {
        Ok(Val::Bool(!a[0].as_bool().ok_or("not expects a bool")?))
    });
    interp.register_native("and", 2, |a| {
        let x = a[0].as_bool().ok_or("and expects bools")?;
        let y = a[1].as_bool().ok_or("and expects bools")?;
        Ok(Val::Bool(x && y))
    });
    interp.register_native("or", 2, |a| {
        let x = a[0].as_bool().ok_or("or expects bools")?;
        let y = a[1].as_bool().ok_or("or expects bools")?;
        Ok(Val::Bool(x || y))
    });
    [
        "lt", "leq", "eq", "neq", "inc", "dec", "plus", "insert", "member", "append", "append'",
        "not", "and", "or",
    ]
    .iter()
    .map(|n| (n.to_string(), interp.native_value(n)))
    .collect()
}

fn binop(args: &[Val], f: impl Fn(i64, i64) -> Val) -> Result<Val, String> {
    let x = args[0].as_int().ok_or("expected an int")?;
    let y = args[1].as_int().ok_or("expected an int")?;
    Ok(f(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_schemas_are_well_formed() {
        for schema in [lt(), leq(), eq(), neq(), member("SList"), append()] {
            assert!(!schema.tyvars.is_empty());
            let (params, _) = schema.ty.uncurry();
            assert!(!params.is_empty());
        }
        assert!(inc().is_mono());
    }

    #[test]
    fn natives_execute() {
        let mut interp = Interp::new();
        let env_bindings = register_natives(&mut interp);
        assert!(env_bindings.iter().any(|(n, _)| n == "append"));
        let env = resyn_lang::interp::Env::from_bindings(env_bindings);
        let e = resyn_lang::Expr::app2(
            resyn_lang::Expr::var("append"),
            resyn_lang::Expr::int_list(&[1, 2]),
            resyn_lang::Expr::int_list(&[3]),
        );
        let out = interp.run(&e, &env).unwrap();
        assert_eq!(out.value.as_int_list(), Some(vec![1, 2, 3]));
    }
}
