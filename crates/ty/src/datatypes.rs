//! Datatype declarations and inductive measures.
//!
//! The paper's formal calculus is restricted to length-indexed lists, but
//! notes (§3 "Inductive Datatypes and Measures") that the development extends
//! to arbitrary inductive types whose invariants are captured by *measures*.
//! This module provides that generalisation: each datatype declares its
//! constructors (with dependent, possibly element-refined argument types) and
//! a family of measures with one defining equation per constructor. The
//! checker instantiates those equations as path conditions when a value is
//! pattern-matched or constructed — the generalised interpretation `I(·)`.

use std::collections::BTreeMap;

use resyn_logic::{Sort, SortingEnv, Term};

use crate::types::{BaseType, Ty};

/// A constructor declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtorDecl {
    /// Constructor name (e.g. `Cons`).
    pub name: String,
    /// Argument binders and types. Types may mention earlier binders
    /// (dependency) and the datatype's element type variable.
    pub args: Vec<(String, Ty)>,
}

/// A measure definition: a logic-level function interpreting values of the
/// datatype, defined by one equation per constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureDef {
    /// Measure name (e.g. `len`, `elems`, `numgt`).
    pub name: String,
    /// Extra parameters preceding the structure argument (e.g. `numgt v xs`
    /// takes the threshold `v` first). Given as `(name, sort)`.
    pub params: Vec<(String, Sort)>,
    /// Result sort.
    pub result: Sort,
    /// Defining equations: constructor name ↦ right-hand side over the
    /// constructor's argument binders and the measure parameters. Recursive
    /// occurrences are written as measure applications on the binders.
    pub cases: BTreeMap<String, Term>,
}

impl MeasureDef {
    /// The full argument-sort list of the measure (parameters then the
    /// structure argument, which is abstracted at sort `Int`).
    pub fn arg_sorts(&self) -> Vec<Sort> {
        let mut sorts: Vec<Sort> = self.params.iter().map(|(_, s)| s.clone()).collect();
        sorts.push(Sort::Int);
        sorts
    }

    /// Apply the measure to the given parameters and structure term.
    pub fn apply(&self, params: Vec<Term>, structure: Term) -> Term {
        let mut args = params;
        args.push(structure);
        Term::app(self.name.clone(), args)
    }
}

/// A datatype declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataDecl {
    /// Datatype name (e.g. `List`).
    pub name: String,
    /// The element type variable, if the datatype is polymorphic.
    pub param: Option<String>,
    /// Constructors.
    pub ctors: Vec<CtorDecl>,
    /// Measures interpreting values of this datatype.
    pub measures: Vec<MeasureDef>,
}

impl DataDecl {
    /// Look up a constructor by name.
    pub fn ctor(&self, name: &str) -> Option<&CtorDecl> {
        self.ctors.iter().find(|c| c.name == name)
    }

    /// Look up a measure by name.
    pub fn measure(&self, name: &str) -> Option<&MeasureDef> {
        self.measures.iter().find(|m| m.name == name)
    }
}

/// The registry of datatype declarations known to the checker/synthesizer.
#[derive(Debug, Clone, Default)]
pub struct Datatypes {
    decls: BTreeMap<String, DataDecl>,
}

impl Datatypes {
    /// An empty registry.
    pub fn new() -> Datatypes {
        Datatypes::default()
    }

    /// The registry with the standard library of datatypes used by the
    /// paper's benchmarks: plain lists, sorted (increasing) lists, strictly
    /// sorted lists, lists without adjacent duplicates, and binary trees.
    pub fn standard() -> Datatypes {
        let mut d = Datatypes::new();
        d.declare(list_decl("List", None));
        d.declare(list_decl(
            "SList",
            // Strictly sorted: tail elements are greater than the head.
            Some(Term::var("x").lt(Term::value_var())),
        ));
        d.declare(list_decl(
            "IList",
            // Weakly sorted (increasing): tail elements are at least the head.
            Some(Term::var("x").le(Term::value_var())),
        ));
        d.declare(clist_decl());
        d.declare(tree_decl());
        d
    }

    /// Register a datatype declaration.
    pub fn declare(&mut self, decl: DataDecl) -> &mut Datatypes {
        self.decls.insert(decl.name.clone(), decl);
        self
    }

    /// Look up a declaration.
    pub fn get(&self, name: &str) -> Option<&DataDecl> {
        self.decls.get(name)
    }

    /// Find the datatype that declares the given constructor.
    pub fn owner_of_ctor(&self, ctor: &str) -> Option<&DataDecl> {
        self.decls.values().find(|d| d.ctor(ctor).is_some())
    }

    /// Iterate over all declarations.
    pub fn iter(&self) -> impl Iterator<Item = &DataDecl> {
        self.decls.values()
    }

    /// The sorting environment of the measures alone: every measure of
    /// [`all_measures`](Datatypes::all_measures) plus the `__prod`
    /// pseudo-measure for unknown-coefficient products. Contexts extend it
    /// with their variables (see [`Ctx::sorting_env_over`](crate::Ctx::sorting_env_over)).
    pub(crate) fn measure_env(&self) -> SortingEnv {
        let mut env = SortingEnv::new();
        for (name, m) in self.all_measures() {
            env.declare_measure(name, m.arg_sorts(), m.result.clone());
        }
        env.declare_measure(
            crate::constraints::PROD,
            vec![Sort::Int, Sort::Int],
            Sort::Int,
        );
        env
    }

    /// All measure definitions across all datatypes (name ↦ definition).
    /// Measures with the same name (e.g. `len` for every list-like datatype)
    /// are assumed to share their signature.
    pub fn all_measures(&self) -> BTreeMap<String, &MeasureDef> {
        let mut out = BTreeMap::new();
        for d in self.decls.values() {
            for m in &d.measures {
                out.entry(m.name.clone()).or_insert(m);
            }
        }
        out
    }
}

/// A list-like datatype with constructors `Nil`/`Cons` (or their sorted
/// variants), measures `len`, `elems`, `numgt` and `numlt`.
///
/// `tail_elem_refinement` refines the element type of the *tail* in terms of
/// the head binder `x` (e.g. `x < ν` for strictly sorted lists).
fn list_decl(name: &str, tail_elem_refinement: Option<Term>) -> DataDecl {
    let elem = Ty::tvar("a");
    let tail_elem = match &tail_elem_refinement {
        None => Ty::tvar("a"),
        Some(r) => Ty::tvar("a").with_refinement(r.clone()),
    };
    let self_ty = |e: Ty| Ty::data(name, vec![e]);
    let (nil_name, cons_name) = match name {
        "List" => ("Nil", "Cons"),
        "SList" => ("SNil", "SCons"),
        "IList" => ("INil", "ICons"),
        other => panic!("unknown list-like datatype {other}"),
    };
    let len = MeasureDef {
        name: "len".into(),
        params: vec![],
        result: Sort::Int,
        cases: [
            (nil_name.to_string(), Term::int(0)),
            (
                cons_name.to_string(),
                Term::app("len", vec![Term::var("xs")]) + Term::int(1),
            ),
        ]
        .into_iter()
        .collect(),
    };
    let elems = MeasureDef {
        name: "elems".into(),
        params: vec![],
        result: Sort::Set,
        cases: [
            (nil_name.to_string(), Term::EmptySet),
            (
                cons_name.to_string(),
                Term::var("x")
                    .singleton()
                    .union(Term::app("elems", vec![Term::var("xs")])),
            ),
        ]
        .into_iter()
        .collect(),
    };
    let numgt = MeasureDef {
        name: "numgt".into(),
        params: vec![("v".into(), Sort::Int)],
        result: Sort::Int,
        cases: [
            (nil_name.to_string(), Term::int(0)),
            (
                cons_name.to_string(),
                Term::ite(
                    Term::var("x").gt(Term::var("v")),
                    Term::int(1),
                    Term::int(0),
                ) + Term::app("numgt", vec![Term::var("v"), Term::var("xs")]),
            ),
        ]
        .into_iter()
        .collect(),
    };
    let numlt = MeasureDef {
        name: "numlt".into(),
        params: vec![("v".into(), Sort::Int)],
        result: Sort::Int,
        cases: [
            (nil_name.to_string(), Term::int(0)),
            (
                cons_name.to_string(),
                Term::ite(
                    Term::var("x").lt(Term::var("v")),
                    Term::int(1),
                    Term::int(0),
                ) + Term::app("numlt", vec![Term::var("v"), Term::var("xs")]),
            ),
        ]
        .into_iter()
        .collect(),
    };
    // The head-element set ({x} for a cons, ∅ for nil), matching the CList
    // measure of the same name: `compress`'s signature uses it to promise
    // the result starts with the same element as the input, which is what
    // lets `CCons x (compress xs')` discharge the no-adjacent-duplicate
    // constraint on the recursive call. Declared for plain `List` only —
    // the sorted variants have no goal relating them to `CList`.
    let heads = MeasureDef {
        name: "heads".into(),
        params: vec![],
        result: Sort::Set,
        cases: [
            (nil_name.to_string(), Term::EmptySet),
            (cons_name.to_string(), Term::var("x").singleton()),
        ]
        .into_iter()
        .collect(),
    };
    let mut measures = vec![len, elems, numgt, numlt];
    if name == "List" {
        measures.push(heads);
    }
    DataDecl {
        name: name.into(),
        param: Some("a".into()),
        ctors: vec![
            CtorDecl {
                name: nil_name.into(),
                args: vec![],
            },
            CtorDecl {
                name: cons_name.into(),
                args: vec![("x".into(), elem), ("xs".into(), self_ty(tail_elem))],
            },
        ],
        measures,
    }
}

/// Lists without adjacent duplicates (the paper's `CL`, used by `compress`):
/// the tail elements carry no constraint, but the *head of the tail* must
/// differ from the head. We approximate the adjacency constraint with a
/// `heads` measure (the set containing the head element, empty for `CNil`),
/// which is exactly how the Synquid benchmark encodes it.
fn clist_decl() -> DataDecl {
    let elem = Ty::tvar("a");
    // xs : {CList a | ¬ (x ∈ heads ν)}
    let tail_ty = Ty::data("CList", vec![Ty::tvar("a")]).with_refinement(
        Term::var("x")
            .member(Term::app("heads", vec![Term::value_var()]))
            .not(),
    );
    let len = MeasureDef {
        name: "len".into(),
        params: vec![],
        result: Sort::Int,
        cases: [
            ("CNil".to_string(), Term::int(0)),
            (
                "CCons".to_string(),
                Term::app("len", vec![Term::var("xs")]) + Term::int(1),
            ),
        ]
        .into_iter()
        .collect(),
    };
    let elems = MeasureDef {
        name: "elems".into(),
        params: vec![],
        result: Sort::Set,
        cases: [
            ("CNil".to_string(), Term::EmptySet),
            (
                "CCons".to_string(),
                Term::var("x")
                    .singleton()
                    .union(Term::app("elems", vec![Term::var("xs")])),
            ),
        ]
        .into_iter()
        .collect(),
    };
    let heads = MeasureDef {
        name: "heads".into(),
        params: vec![],
        result: Sort::Set,
        cases: [
            ("CNil".to_string(), Term::EmptySet),
            ("CCons".to_string(), Term::var("x").singleton()),
        ]
        .into_iter()
        .collect(),
    };
    DataDecl {
        name: "CList".into(),
        param: Some("a".into()),
        ctors: vec![
            CtorDecl {
                name: "CNil".into(),
                args: vec![],
            },
            CtorDecl {
                name: "CCons".into(),
                args: vec![("x".into(), elem), ("xs".into(), tail_ty)],
            },
        ],
        measures: vec![len, elems, heads],
    }
}

/// Plain binary trees with `size` and `telems` measures.
fn tree_decl() -> DataDecl {
    let elem = Ty::tvar("a");
    let self_ty = Ty::data("Tree", vec![Ty::tvar("a")]);
    let size = MeasureDef {
        name: "size".into(),
        params: vec![],
        result: Sort::Int,
        cases: [
            ("Leaf".to_string(), Term::int(0)),
            (
                "Node".to_string(),
                Term::app("size", vec![Term::var("l")])
                    + Term::app("size", vec![Term::var("r")])
                    + Term::int(1),
            ),
        ]
        .into_iter()
        .collect(),
    };
    let telems = MeasureDef {
        name: "telems".into(),
        params: vec![],
        result: Sort::Set,
        cases: [
            ("Leaf".to_string(), Term::EmptySet),
            (
                "Node".to_string(),
                Term::var("x")
                    .singleton()
                    .union(Term::app("telems", vec![Term::var("l")]))
                    .union(Term::app("telems", vec![Term::var("r")])),
            ),
        ]
        .into_iter()
        .collect(),
    };
    DataDecl {
        name: "Tree".into(),
        param: Some("a".into()),
        ctors: vec![
            CtorDecl {
                name: "Leaf".into(),
                args: vec![],
            },
            CtorDecl {
                name: "Node".into(),
                args: vec![
                    ("x".into(), elem),
                    ("l".into(), self_ty.clone()),
                    ("r".into(), self_ty),
                ],
            },
        ],
        measures: vec![size, telems],
    }
}

impl BaseType {
    /// For a datatype base type, the primary numeric measure used as the
    /// interpretation `I(·)` of values in the refinement logic (`len` for
    /// lists, `size` for trees).
    pub fn primary_measure(&self, datatypes: &Datatypes) -> Option<String> {
        let name = self.data_name()?;
        let decl = datatypes.get(name)?;
        decl.measures
            .iter()
            .find(|m| m.params.is_empty() && m.result == Sort::Int)
            .map(|m| m.name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_contains_expected_datatypes() {
        let d = Datatypes::standard();
        for name in ["List", "SList", "IList", "CList", "Tree"] {
            assert!(d.get(name).is_some(), "missing datatype {name}");
        }
        assert_eq!(d.owner_of_ctor("Cons").unwrap().name, "List");
        assert_eq!(d.owner_of_ctor("SCons").unwrap().name, "SList");
        assert_eq!(d.owner_of_ctor("Node").unwrap().name, "Tree");
        assert!(d.owner_of_ctor("Bogus").is_none());
    }

    #[test]
    fn list_measures_have_cases_for_both_constructors() {
        let d = Datatypes::standard();
        let list = d.get("List").unwrap();
        let len = list.measure("len").unwrap();
        assert!(len.cases.contains_key("Nil") && len.cases.contains_key("Cons"));
        let elems = list.measure("elems").unwrap();
        assert_eq!(elems.result, Sort::Set);
        let numgt = list.measure("numgt").unwrap();
        assert_eq!(numgt.params.len(), 1);
        assert_eq!(numgt.arg_sorts(), vec![Sort::Int, Sort::Int]);
    }

    #[test]
    fn sorted_list_tail_is_element_refined() {
        let d = Datatypes::standard();
        let scons = d.get("SList").unwrap().ctor("SCons").unwrap();
        let (_, tail_ty) = &scons.args[1];
        match tail_ty.base_type().unwrap() {
            BaseType::Data(name, args) => {
                assert_eq!(name, "SList");
                assert_eq!(args[0].refinement(), Term::var("x").lt(Term::value_var()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn primary_measures() {
        let d = Datatypes::standard();
        assert_eq!(
            BaseType::Data("List".into(), vec![]).primary_measure(&d),
            Some("len".to_string())
        );
        assert_eq!(
            BaseType::Data("Tree".into(), vec![]).primary_measure(&d),
            Some("size".to_string())
        );
        assert_eq!(BaseType::Int.primary_measure(&d), None);
    }

    #[test]
    fn measure_application_builder() {
        let d = Datatypes::standard();
        let numgt = d.get("List").unwrap().measure("numgt").unwrap();
        let app = numgt.apply(vec![Term::var("v")], Term::var("xs"));
        assert_eq!(
            app,
            Term::app("numgt", vec![Term::var("v"), Term::var("xs")])
        );
    }
}
