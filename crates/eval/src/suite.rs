//! Benchmark definitions for the paper's Table 1 and Table 2.
//!
//! Each benchmark is a synthesis [`Goal`]; the coverage relative to the paper
//! (which rows are reproduced, which are out of scope and why) is documented
//! in `EXPERIMENTS.md`.

use resyn_logic::Term;
use resyn_synth::Goal;
use resyn_ty::types::{BaseType, Schema, Ty};

use crate::components as c;

/// Which paper table a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// Table 1: ReSyn vs Synquid on the linear-bounded Synquid suite.
    One,
    /// Table 2: the case studies (optimization, dependent potentials,
    /// constant resource).
    Two,
}

/// A benchmark: an identifier, its group, and the synthesis goal.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Row identifier (matches the paper where applicable).
    pub id: String,
    /// Benchmark group (Table 1) or case-study category (Table 2).
    pub group: String,
    /// The synthesis goal.
    pub goal: Goal,
    /// Which table the benchmark reproduces.
    pub table: Table,
    /// Whether the goal is synthesized in constant-resource mode.
    pub constant_time: bool,
}

fn elem(potential: i64) -> Ty {
    if potential == 0 {
        Ty::tvar("a")
    } else {
        Ty::tvar("a").with_potential(Term::int(potential))
    }
}

fn list(elem_ty: Ty) -> Ty {
    Ty::data("List", vec![elem_ty])
}

fn ilist(elem_ty: Ty) -> Ty {
    Ty::data("IList", vec![elem_ty])
}

fn slist(elem_ty: Ty) -> Ty {
    Ty::data("SList", vec![elem_ty])
}

fn clist(elem_ty: Ty) -> Ty {
    Ty::data("CList", vec![elem_ty])
}

fn tree(elem_ty: Ty) -> Ty {
    Ty::data("Tree", vec![elem_ty])
}

fn len(x: &str) -> Term {
    Term::app("len", vec![Term::var(x)])
}

fn elems(x: &str) -> Term {
    Term::app("elems", vec![Term::var(x)])
}

fn size(x: &str) -> Term {
    Term::app("size", vec![Term::var(x)])
}

fn telems(x: &str) -> Term {
    Term::app("telems", vec![Term::var(x)])
}

fn poly(params: Vec<(&str, Ty)>, ret: Ty) -> Schema {
    Schema::poly(vec!["a"], Ty::fun(params, ret))
}

/// Keep the benchmarks whose id contains any of the given substrings; an
/// empty filter list keeps everything.
fn filter_by_id(benches: Vec<Benchmark>, filters: &[String]) -> Vec<Benchmark> {
    if filters.is_empty() {
        return benches;
    }
    benches
        .into_iter()
        .filter(|b| filters.iter().any(|f| b.id.contains(f)))
        .collect()
}

/// Keep the benchmarks whose id contains any of the given substrings (an
/// empty filter list keeps everything), but only if *every* filter selects
/// at least one benchmark. A filter that matches nothing is almost always a
/// typo or a renamed row, and silently running an empty (or
/// smaller-than-intended) slice reads as success — `resyn eval` gates on
/// this instead.
///
/// # Errors
///
/// Returns a message naming the first dead filter.
pub fn filter_by_id_strict(
    benches: Vec<Benchmark>,
    filters: &[String],
) -> Result<Vec<Benchmark>, String> {
    if let Some(dead) = filters
        .iter()
        .find(|f| !benches.iter().any(|b| b.id.contains(f.as_str())))
    {
        return Err(format!("filter `{dead}` matches no benchmark id"));
    }
    Ok(filter_by_id(benches, filters))
}

fn bench(id: &str, group: &str, goal: Goal, table: Table) -> Benchmark {
    Benchmark {
        id: id.to_string(),
        group: group.to_string(),
        goal,
        table,
        constant_time: false,
    }
}

/// The Table 1 benchmarks (a representative subset of the 43 linear-bounded
/// Synquid benchmarks; see `EXPERIMENTS.md` for coverage).
// One labelled push per benchmark row reads better than one giant `vec![]`.
#[allow(clippy::vec_init_then_push)]
pub fn table1() -> Vec<Benchmark> {
    let mut out = Vec::new();

    // List: is empty.
    out.push(bench(
        "list-is-empty",
        "List",
        Goal::new(
            "isEmpty",
            poly(
                vec![("l", list(elem(0)))],
                Ty::refined(
                    BaseType::Bool,
                    Term::value_var().iff(len("l").eq_(Term::int(0))),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // List: member.
    out.push(bench(
        "list-member",
        "List",
        Goal::new(
            "member",
            poly(
                vec![("x", Ty::tvar("a")), ("l", list(elem(1)))],
                Ty::refined(
                    BaseType::Bool,
                    Term::value_var().iff(Term::var("x").member(elems("l"))),
                ),
            ),
            vec![("eq", c::eq()), ("neq", c::neq())],
        ),
        Table::One,
    ));

    // List: replicate.
    out.push(bench(
        "list-replicate",
        "List",
        Goal::new(
            "replicate",
            poly(
                vec![
                    (
                        "n",
                        Ty::refined(BaseType::Int, Term::value_var().ge(Term::int(0)))
                            .with_potential(Term::value_var()),
                    ),
                    ("x", Ty::tvar("a")),
                ],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(Term::var("n")),
                ),
            ),
            vec![("eq", c::eq()), ("dec", c::dec())],
        ),
        Table::One,
    ));

    // List: append two lists.
    out.push(bench(
        "list-append",
        "List",
        Goal::new(
            "append",
            poly(
                vec![("xs", list(elem(1))), ("ys", list(elem(0)))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(len("xs") + len("ys")),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // List: delete a value.
    out.push(bench(
        "list-delete",
        "List",
        Goal::new(
            "delete",
            poly(
                vec![("x", Ty::tvar("a")), ("l", list(elem(1)))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    Term::app("elems", vec![Term::value_var()])
                        .eq_(elems("l").diff(Term::var("x").singleton())),
                ),
            ),
            vec![("eq", c::eq()), ("neq", c::neq())],
        ),
        Table::One,
    ));

    // List: insert at end (snoc).
    out.push(bench(
        "list-snoc",
        "List",
        Goal::new(
            "snoc",
            poly(
                vec![("x", Ty::tvar("a")), ("l", list(elem(1)))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR)
                        .eq_(len("l") + Term::int(1))
                        .and(
                            Term::app("elems", vec![Term::value_var()])
                                .eq_(elems("l").union(Term::var("x").singleton())),
                        ),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // List: take the first n elements.
    out.push(bench(
        "list-take",
        "List",
        Goal::new(
            "take",
            poly(
                vec![
                    (
                        "n",
                        Ty::refined(BaseType::Int, Term::value_var().ge(Term::int(0)))
                            .with_potential(Term::value_var()),
                    ),
                    (
                        "xs",
                        list(elem(0))
                            .and_refinement(len(resyn_logic::VALUE_VAR).ge(Term::var("n"))),
                    ),
                ],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(Term::var("n")),
                ),
            ),
            vec![("eq", c::eq()), ("dec", c::dec())],
        ),
        Table::One,
    ));

    // List: drop the first n elements.
    out.push(bench(
        "list-drop",
        "List",
        Goal::new(
            "drop",
            poly(
                vec![
                    (
                        "n",
                        Ty::refined(BaseType::Int, Term::value_var().ge(Term::int(0)))
                            .with_potential(Term::value_var()),
                    ),
                    (
                        "xs",
                        list(elem(0))
                            .and_refinement(len(resyn_logic::VALUE_VAR).ge(Term::var("n"))),
                    ),
                ],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(len("xs") - Term::var("n")),
                ),
            ),
            vec![("eq", c::eq()), ("dec", c::dec())],
        ),
        Table::One,
    ));

    // List: the identity (the smallest length-preserving goal; a fast smoke
    // row exercised heavily by the golden and determinism suites).
    out.push(bench(
        "list-id",
        "List",
        Goal::new(
            "id",
            poly(
                vec![("xs", list(elem(0)))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(len("xs")),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // List: singleton construction.
    out.push(bench(
        "list-singleton",
        "List",
        Goal::new(
            "singleton",
            poly(
                vec![("x", Ty::tvar("a"))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(Term::int(1)).and(
                        Term::app("elems", vec![Term::value_var()]).eq_(Term::var("x").singleton()),
                    ),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // List: is the list non-empty (the boolean dual of is-empty, checking
    // both branch literals).
    out.push(bench(
        "list-nonempty",
        "List",
        Goal::new(
            "nonEmpty",
            poly(
                vec![("l", list(elem(0)))],
                Ty::refined(
                    BaseType::Bool,
                    Term::value_var().iff(len("l").neq(Term::int(0))),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // List: length (integer recursion through `inc`).
    out.push(bench(
        "list-length",
        "List",
        Goal::new(
            "length",
            poly(
                vec![("l", list(elem(1)))],
                Ty::refined(BaseType::Int, Term::value_var().eq_(len("l"))),
            ),
            vec![("inc", c::inc())],
        ),
        Table::One,
    ));

    // List: head of a non-empty list.
    out.push(bench(
        "list-head",
        "List",
        Goal::new(
            "head",
            poly(
                vec![(
                    "xs",
                    list(elem(0)).and_refinement(len(resyn_logic::VALUE_VAR).gt(Term::int(0))),
                )],
                Ty::refined(
                    BaseType::TVar("a".into()),
                    Term::value_var().member(elems("xs")),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // List: double a list with one append (the Table-1 cousin of the
    // `triple` case study; exercises sharing of `xs` across both arguments).
    out.push(bench(
        "list-double",
        "List",
        Goal::new(
            "double",
            poly(
                vec![("xs", list(elem(1)))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(len("xs") + len("xs")),
                ),
            ),
            vec![("append", c::append())],
        ),
        Table::One,
    ));

    // Sorted list: member.
    out.push(bench(
        "sorted-member",
        "Sorted list",
        Goal::new(
            "member",
            poly(
                vec![("x", Ty::tvar("a")), ("xs", ilist(elem(1)))],
                Ty::refined(
                    BaseType::Bool,
                    Term::value_var().iff(Term::var("x").member(elems("xs"))),
                ),
            ),
            vec![("eq", c::eq()), ("neq", c::neq())],
        ),
        Table::One,
    ));

    // Sorted list: singleton construction.
    out.push(bench(
        "sorted-singleton",
        "Sorted list",
        Goal::new(
            "singleton",
            poly(
                vec![("x", Ty::tvar("a"))],
                Ty::refined(
                    BaseType::Data("IList".into(), vec![Ty::tvar("a")]),
                    Term::app("elems", vec![Term::value_var()]).eq_(Term::var("x").singleton()),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // Sorted list: insert.
    out.push(bench(
        "sorted-insert",
        "Sorted list",
        Goal::new(
            "insert",
            poly(
                vec![("x", Ty::tvar("a")), ("xs", ilist(elem(1)))],
                Ty::refined(
                    BaseType::Data("IList".into(), vec![Ty::tvar("a")]),
                    Term::app("elems", vec![Term::value_var()])
                        .eq_(Term::var("x").singleton().union(elems("xs"))),
                ),
            ),
            vec![("leq", c::leq())],
        ),
        Table::One,
    ));

    // Sorted list: delete a value.
    out.push(bench(
        "sorted-delete",
        "Sorted list",
        Goal::new(
            "delete",
            poly(
                vec![("x", Ty::tvar("a")), ("xs", ilist(elem(1)))],
                Ty::refined(
                    BaseType::Data("IList".into(), vec![Ty::tvar("a")]),
                    Term::app("elems", vec![Term::value_var()])
                        .eq_(elems("xs").diff(Term::var("x").singleton())),
                ),
            ),
            vec![("eq", c::eq()), ("neq", c::neq())],
        ),
        Table::One,
    ));

    // List: tail of a non-empty list.
    out.push(bench(
        "list-tail",
        "List",
        Goal::new(
            "tail",
            poly(
                vec![(
                    "xs",
                    list(elem(0)).and_refinement(len(resyn_logic::VALUE_VAR).gt(Term::int(0))),
                )],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(len("xs") - Term::int(1)),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // List: cons (prepend) — the length *and* element spec pins the program.
    out.push(bench(
        "list-cons",
        "List",
        Goal::new(
            "cons",
            poly(
                vec![("x", Ty::tvar("a")), ("xs", list(elem(0)))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR)
                        .eq_(len("xs") + Term::int(1))
                        .and(
                            Term::app("elems", vec![Term::value_var()])
                                .eq_(Term::var("x").singleton().union(elems("xs"))),
                        ),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // List: a two-element list from two values.
    out.push(bench(
        "list-pair",
        "List",
        Goal::new(
            "pair",
            poly(
                vec![("x", Ty::tvar("a")), ("y", Ty::tvar("a"))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(Term::int(2)).and(
                        Term::app("elems", vec![Term::value_var()])
                            .eq_(Term::var("x").singleton().union(Term::var("y").singleton())),
                    ),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // List: append three lists with the binary append component (no direct
    // recursion; exercises nested component application and potential on the
    // two traversed arguments).
    out.push(bench(
        "list-append3",
        "List",
        Goal::new(
            "append3",
            poly(
                vec![
                    ("xs", list(elem(1))),
                    ("ys", list(elem(1))),
                    ("zs", list(elem(0))),
                ],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(len("xs") + len("ys") + len("zs")),
                ),
            ),
            vec![("append", c::append())],
        ),
        Table::One,
    ));

    // List: stutter — duplicate every element.
    out.push(bench(
        "list-stutter",
        "List",
        Goal::new(
            "stutter",
            poly(
                vec![("xs", list(elem(1)))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(len("xs") + len("xs")),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // Sorted list: is empty.
    out.push(bench(
        "sorted-is-empty",
        "Sorted list",
        Goal::new(
            "isEmpty",
            poly(
                vec![("xs", ilist(elem(0)))],
                Ty::refined(
                    BaseType::Bool,
                    Term::value_var().iff(len("xs").eq_(Term::int(0))),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // Sorted list: head of a non-empty sorted list.
    out.push(bench(
        "sorted-head",
        "Sorted list",
        Goal::new(
            "head",
            poly(
                vec![(
                    "xs",
                    ilist(elem(0)).and_refinement(len(resyn_logic::VALUE_VAR).gt(Term::int(0))),
                )],
                Ty::refined(
                    BaseType::TVar("a".into()),
                    Term::value_var().member(elems("xs")),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // Sorted list: tail of a non-empty sorted list (stays sorted).
    out.push(bench(
        "sorted-tail",
        "Sorted list",
        Goal::new(
            "tail",
            poly(
                vec![(
                    "xs",
                    ilist(elem(0)).and_refinement(len(resyn_logic::VALUE_VAR).gt(Term::int(0))),
                )],
                Ty::refined(
                    BaseType::Data("IList".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(len("xs") - Term::int(1)),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // Strictly sorted list: singleton construction.
    out.push(bench(
        "sslist-singleton",
        "Strictly sorted list",
        Goal::new(
            "singleton",
            poly(
                vec![("x", Ty::tvar("a"))],
                Ty::refined(
                    BaseType::Data("SList".into(), vec![Ty::tvar("a")]),
                    Term::app("elems", vec![Term::value_var()]).eq_(Term::var("x").singleton()),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // Strictly sorted list: insert (duplicates collapse).
    out.push(bench(
        "sslist-insert",
        "Strictly sorted list",
        Goal::new(
            "insert",
            poly(
                vec![("x", Ty::tvar("a")), ("xs", slist(elem(1)))],
                Ty::refined(
                    BaseType::Data("SList".into(), vec![Ty::tvar("a")]),
                    Term::app("elems", vec![Term::value_var()])
                        .eq_(Term::var("x").singleton().union(elems("xs"))),
                ),
            ),
            vec![("lt", c::lt()), ("eq", c::eq()), ("neq", c::neq())],
        ),
        Table::One,
    ));

    // Strictly sorted list: delete a value.
    out.push(bench(
        "sslist-delete",
        "Strictly sorted list",
        Goal::new(
            "delete",
            poly(
                vec![("x", Ty::tvar("a")), ("xs", slist(elem(1)))],
                Ty::refined(
                    BaseType::Data("SList".into(), vec![Ty::tvar("a")]),
                    Term::app("elems", vec![Term::value_var()])
                        .eq_(elems("xs").diff(Term::var("x").singleton())),
                ),
            ),
            vec![("eq", c::eq()), ("neq", c::neq())],
        ),
        Table::One,
    ));

    // Unique list: singleton construction.
    out.push(bench(
        "clist-singleton",
        "Unique list",
        Goal::new(
            "singleton",
            poly(
                vec![("x", Ty::tvar("a"))],
                Ty::refined(
                    BaseType::Data("CList".into(), vec![Ty::tvar("a")]),
                    Term::app("elems", vec![Term::value_var()]).eq_(Term::var("x").singleton()),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // Unique list: insert without creating an adjacent duplicate.
    out.push(bench(
        "unique-insert",
        "Unique list",
        Goal::new(
            "insert",
            poly(
                vec![("x", Ty::tvar("a")), ("xs", clist(elem(1)))],
                Ty::refined(
                    BaseType::Data("CList".into(), vec![Ty::tvar("a")]),
                    Term::app("elems", vec![Term::value_var()])
                        .eq_(Term::var("x").singleton().union(elems("xs"))),
                ),
            ),
            vec![("eq", c::eq()), ("neq", c::neq())],
        ),
        Table::One,
    ));

    // Unique list: collapse adjacent duplicates. Needs the tail-rematch
    // skeleton family (`match xs' with …` inside the `Cons x xs'` arm) so
    // the innermost branch can compare two adjacent elements — the last
    // enumerator-coverage gap of the paper's Table 1.
    out.push(bench(
        "list-compress",
        "Unique list",
        Goal::new(
            "compress",
            poly(
                vec![("xs", list(elem(1)))],
                Ty::refined(
                    BaseType::Data("CList".into(), vec![Ty::tvar("a")]),
                    // Same elements, and — the clause that makes the
                    // recursive call usable — the same head element, so the
                    // checker can rule the head of `compress xs'` out of an
                    // adjacent duplicate with `x`.
                    Term::app("elems", vec![Term::value_var()])
                        .eq_(elems("xs"))
                        .and(
                            Term::app("heads", vec![Term::value_var()])
                                .eq_(Term::app("heads", vec![Term::var("xs")])),
                        ),
                ),
            ),
            vec![("eq", c::eq()), ("neq", c::neq())],
        ),
        Table::One,
    ));

    // Tree: membership (depth-3 boolean combination over both subtree
    // recursions: `or (eq x n) (or (member x l) (member x r))`).
    out.push(bench(
        "tree-member",
        "Tree",
        Goal::new(
            "member",
            poly(
                vec![("x", Ty::tvar("a")), ("t", tree(elem(2)))],
                Ty::refined(
                    BaseType::Bool,
                    Term::value_var().iff(Term::var("x").member(telems("t"))),
                ),
            ),
            vec![("eq", c::eq()), ("or", c::or_())],
        ),
        Table::One,
    ));

    // Tree: the identity (size-preserving).
    out.push(bench(
        "tree-id",
        "Tree",
        Goal::new(
            "id",
            poly(
                vec![("t", tree(elem(0)))],
                Ty::refined(
                    BaseType::Data("Tree".into(), vec![Ty::tvar("a")]),
                    size(resyn_logic::VALUE_VAR).eq_(size("t")),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // Tree: singleton node.
    out.push(bench(
        "tree-singleton",
        "Tree",
        Goal::new(
            "singleton",
            poly(
                vec![("x", Ty::tvar("a"))],
                Ty::refined(
                    BaseType::Data("Tree".into(), vec![Ty::tvar("a")]),
                    size(resyn_logic::VALUE_VAR)
                        .eq_(Term::int(1))
                        .and(telems(resyn_logic::VALUE_VAR).eq_(Term::var("x").singleton())),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // Tree: is the tree a leaf.
    out.push(bench(
        "tree-is-empty",
        "Tree",
        Goal::new(
            "isLeaf",
            poly(
                vec![("t", tree(elem(0)))],
                Ty::refined(
                    BaseType::Bool,
                    Term::value_var().iff(size("t").eq_(Term::int(0))),
                ),
            ),
            vec![],
        ),
        Table::One,
    ));

    // Tree: flatten into a list (two recursive calls per node).
    out.push(bench(
        "tree-flatten",
        "Tree",
        Goal::new(
            "flatten",
            poly(
                vec![("t", tree(elem(2)))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    len(resyn_logic::VALUE_VAR).eq_(size("t")),
                ),
            ),
            // A cost-free append: the metric charges flatten's own recursion
            // (2 units per element via the tree's potential), and the
            // recursive results carry no element potential with which the
            // linear-cost `append` could be paid.
            vec![("append", c::append_free())],
        ),
        Table::One,
    ));

    // Tree: count the nodes.
    out.push(bench(
        "tree-count",
        "Tree",
        Goal::new(
            "count",
            poly(
                vec![("t", tree(elem(2)))],
                Ty::refined(BaseType::Int, Term::value_var().eq_(size("t"))),
            ),
            vec![("inc", c::inc()), ("plus", c::plus())],
        ),
        Table::One,
    ));

    // Sorting: insertion sort (the outer recursion is metered; the sorted
    // insertion is the cost-free auxiliary component, as in the paper).
    out.push(bench(
        "insertion-sort",
        "Sorting",
        Goal::new(
            "sort",
            poly(
                vec![("xs", list(elem(1)))],
                Ty::refined(
                    BaseType::Data("IList".into(), vec![Ty::tvar("a")]),
                    Term::app("elems", vec![Term::value_var()]).eq_(elems("xs")),
                ),
            ),
            vec![("insert", c::insert_sorted())],
        ),
        Table::One,
    ));

    out
}

/// The Table 2 case studies (subset; see `EXPERIMENTS.md`).
pub fn table2() -> Vec<Benchmark> {
    let mut out = Vec::new();

    // 1: triple — append three copies of a list within 2n.
    out.push(bench(
        "cs1-triple",
        "Optimization",
        Goal::new(
            "triple",
            Schema::mono(Ty::fun(
                vec![("l", Ty::list(Ty::int().with_potential(Term::int(2))))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::int()]),
                    len(resyn_logic::VALUE_VAR).eq_(len("l") + len("l") + len("l")),
                ),
            )),
            vec![("append", c::append())],
        ),
        Table::Two,
    ));

    // 2: triple' — like triple, but the only available append traverses its
    // *second* argument, so only the left-associated composition fits in 2n.
    out.push(bench(
        "cs2-triple-slow",
        "Optimization",
        Goal::new(
            "triple'",
            Schema::mono(Ty::fun(
                vec![("l", Ty::list(Ty::int().with_potential(Term::int(2))))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::int()]),
                    len(resyn_logic::VALUE_VAR).eq_(len("l") + len("l") + len("l")),
                ),
            )),
            vec![("append'", c::append_snd())],
        ),
        Table::Two,
    ));

    // 7: insert with the linear bound.
    let insert_goal = |potential: Term| {
        poly(
            vec![
                ("x", Ty::tvar("a")),
                (
                    "xs",
                    Ty::data("IList", vec![Ty::tvar("a").with_potential(potential)]),
                ),
            ],
            Ty::refined(
                BaseType::Data("IList".into(), vec![Ty::tvar("a")]),
                Term::app("elems", vec![Term::value_var()])
                    .eq_(Term::var("x").singleton().union(elems("xs"))),
            ),
        )
    };
    out.push(bench(
        "cs7-insert",
        "Dependent potentials",
        Goal::new("insert", insert_goal(Term::int(1)), vec![("leq", c::leq())]),
        Table::Two,
    ));

    // 9: insert with the fine-grained conditional bound (elements ≤ x carry
    // potential).
    out.push(bench(
        "cs9-insert-fine",
        "Dependent potentials",
        Goal::new(
            "insert",
            insert_goal(Term::ite(
                Term::value_var().lt(Term::var("x") + Term::int(1)),
                Term::int(1),
                Term::int(0),
            )),
            vec![("leq", c::leq())],
        ),
        Table::Two,
    ));

    // 10: replicate.
    out.push(bench(
        "cs10-replicate",
        "Dependent potentials",
        table1()
            .into_iter()
            .find(|b| b.id == "list-replicate")
            .unwrap()
            .goal,
        Table::Two,
    ));

    // 11 and 12: take and drop (shared with Table 1; here they additionally
    // exercise the EAC and non-incremental-CEGIS ablations).
    for (row, table1_id) in [("cs11-take", "list-take"), ("cs12-drop", "list-drop")] {
        out.push(bench(
            row,
            "Dependent potentials",
            table1()
                .into_iter()
                .find(|b| b.id == table1_id)
                .unwrap()
                .goal,
            Table::Two,
        ));
    }

    // 13: range (List result; the paper's SList result needs ordered-element
    // instantiation at the recursive call, see EXPERIMENTS.md).
    out.push(bench(
        "cs13-range",
        "Dependent potentials",
        Goal::new(
            "range",
            Schema::mono(Ty::fun(
                vec![
                    ("lo", Ty::int()),
                    (
                        "hi",
                        Ty::refined(BaseType::Int, Term::value_var().ge(Term::var("lo")))
                            .with_potential(Term::value_var() - Term::var("lo")),
                    ),
                ],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::int()]),
                    len(resyn_logic::VALUE_VAR).eq_(Term::var("hi") - Term::var("lo")),
                ),
            )),
            vec![("eq", c::eq()), ("inc", c::inc())],
        ),
        Table::Two,
    ));

    // 16: compare the lengths of a public and a secret list.
    let compare_goal = poly(
        vec![("ys", list(elem(1))), ("zs", list(elem(0)))],
        Ty::refined(
            BaseType::Bool,
            Term::value_var().iff(len("ys").eq_(len("zs"))),
        ),
    );
    out.push(bench(
        "cs16-compare",
        "Constant resource",
        Goal::new("compare", compare_goal.clone(), vec![]),
        Table::Two,
    ));

    // 15: the constant-resource version of compare.
    let mut ct = bench(
        "cs15-ct-compare",
        "Constant resource",
        Goal::new("compare", compare_goal, vec![]),
        Table::Two,
    );
    ct.constant_time = true;
    out.push(ct);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_nonempty_and_well_formed() {
        let t1 = table1();
        let t2 = table2();
        assert!(t1.len() >= 35, "expanded Table 1 has {} rows", t1.len());
        assert!(t2.len() >= 9);
        for b in t1.iter().chain(t2.iter()) {
            let (params, _) = b.goal.schema.ty.uncurry();
            assert!(!params.is_empty(), "{} has no parameters", b.id);
        }
        assert!(t2.iter().any(|b| b.constant_time));
    }

    #[test]
    fn benchmark_ids_are_unique_and_cover_the_documented_rows() {
        let t1 = table1();
        let t2 = table2();
        let mut ids: Vec<&str> = t1.iter().chain(t2.iter()).map(|b| b.id.as_str()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate benchmark ids");

        for expected in [
            "list-take",
            "list-drop",
            "sorted-delete",
            // PR 3's expansion rows.
            "list-id",
            "list-singleton",
            "list-nonempty",
            "list-length",
            "list-head",
            "list-double",
            "sorted-member",
            "sorted-singleton",
            // This PR's full-coverage expansion rows.
            "list-tail",
            "list-cons",
            "list-pair",
            "list-append3",
            "list-stutter",
            "sorted-is-empty",
            "sorted-head",
            "sorted-tail",
            "sslist-singleton",
            "sslist-insert",
            "sslist-delete",
            "clist-singleton",
            "unique-insert",
            "list-compress",
            "tree-id",
            "tree-singleton",
            "tree-is-empty",
            "tree-flatten",
            "tree-count",
            "insertion-sort",
        ] {
            assert!(
                t1.iter().any(|b| b.id == expected),
                "Table 1 row `{expected}` missing"
            );
        }
        for expected in [
            "cs1-triple",
            "cs2-triple-slow",
            "cs7-insert",
            "cs9-insert-fine",
            "cs10-replicate",
            "cs11-take",
            "cs12-drop",
            "cs13-range",
            "cs15-ct-compare",
            "cs16-compare",
        ] {
            assert!(
                t2.iter().any(|b| b.id == expected),
                "Table 2 row `{expected}` missing"
            );
        }
    }

    #[test]
    fn filter_by_id_matches_substrings_and_keeps_everything_when_empty() {
        let all = table1();
        let total = all.len();
        assert_eq!(filter_by_id(table1(), &[]).len(), total);
        let sorted = filter_by_id(table1(), &["sorted".to_string()]);
        assert!(!sorted.is_empty() && sorted.len() < total);
        assert!(sorted.iter().all(|b| b.id.contains("sorted")));
        assert!(filter_by_id(table1(), &["no-such-id".to_string()]).is_empty());
    }

    #[test]
    fn strict_filtering_names_the_dead_filter() {
        let ok = filter_by_id_strict(table1(), &["sorted".to_string()]).unwrap();
        assert!(ok.iter().all(|b| b.id.contains("sorted")));
        assert!(filter_by_id_strict(table1(), &[]).is_ok());
        // One live and one dead filter: the dead one must still be reported
        // (a silent partial match is exactly the typo this guards against).
        let err = filter_by_id_strict(table1(), &["sorted".to_string(), "no-such-id".to_string()])
            .unwrap_err();
        assert!(err.contains("no-such-id"), "{err}");
    }

    #[test]
    fn dependent_potential_rows_use_dependent_annotations() {
        // The rows documented as "dependent potentials" must actually carry a
        // non-constant potential term somewhere in their signature.
        let t2 = table2();
        for id in ["cs9-insert-fine", "cs13-range"] {
            let b = t2.iter().find(|b| b.id == id).unwrap();
            let (params, _) = b.goal.schema.ty.uncurry();
            let dependent = params.iter().any(|(_, ty, _)| {
                fn has_nonconstant_potential(ty: &Ty) -> bool {
                    match ty {
                        Ty::Scalar {
                            base, potential, ..
                        } => {
                            !matches!(potential, Term::Int(_))
                                || match base {
                                    BaseType::Data(_, args) => {
                                        args.iter().any(has_nonconstant_potential)
                                    }
                                    _ => false,
                                }
                        }
                        Ty::Arrow { param_ty, ret, .. } => {
                            has_nonconstant_potential(param_ty) || has_nonconstant_potential(ret)
                        }
                    }
                }
                has_nonconstant_potential(ty)
            });
            assert!(dependent, "{id} does not carry a dependent potential");
        }
    }
}
