//! Evaluation of refinement terms under a concrete model.
//!
//! Models map variables to concrete [`Value`]s and give finite interpretations
//! to measure applications; they are produced by the SMT-style solver in
//! `resyn-solver` (counterexamples for CEGIS) and by the denotational tests.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

use crate::term::{BinOp, Term, UnOp};

/// A concrete value of the refinement logic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A finite set of integers (element sorts are modelled as integers).
    Set(BTreeSet<i64>),
}

impl Value {
    /// Construct a set value from an iterator of elements.
    pub fn set<I: IntoIterator<Item = i64>>(elems: I) -> Value {
        Value::Set(elems.into_iter().collect())
    }

    /// View as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// View as an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, e) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no binding in the model.
    UnboundVariable(String),
    /// A measure application had no interpretation in the model.
    UninterpretedApp(String),
    /// An unknown predicate was encountered (unknowns must be substituted
    /// away before evaluation).
    UnresolvedUnknown(String),
    /// A value of the wrong shape was combined with an operator.
    TypeError(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(x) => write!(f, "unbound variable `{x}` during evaluation"),
            EvalError::UninterpretedApp(a) => write!(f, "no interpretation for application `{a}`"),
            EvalError::UnresolvedUnknown(u) => write!(f, "unresolved unknown `{u}`"),
            EvalError::TypeError(m) => write!(f, "type error during evaluation: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A concrete model: a finite map from variables to values, plus a finite map
/// from measure applications (keyed by their printed form) to values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    vars: BTreeMap<String, Value>,
    apps: BTreeMap<String, Value>,
}

impl Model {
    /// The empty model.
    pub fn new() -> Model {
        Model::default()
    }

    /// Bind a variable to a value.
    pub fn insert(&mut self, var: impl Into<String>, value: Value) -> &mut Model {
        self.vars.insert(var.into(), value);
        self
    }

    /// Give an interpretation to a specific measure application term.
    pub fn insert_app(&mut self, app: &Term, value: Value) -> &mut Model {
        self.apps.insert(app.to_string(), value);
        self
    }

    /// Look up a variable.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.vars.get(var)
    }

    /// Iterate over the variable bindings.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.vars.iter()
    }

    /// Number of variable bindings.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the model has no variable bindings.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterate over the measure-application interpretations, keyed by each
    /// application's printed form (the key [`insert_app`](Self::insert_app)
    /// stores them under).
    pub fn apps(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.apps.iter()
    }

    /// Merge another model into this one (bindings in `other` win).
    pub fn extend(&mut self, other: &Model) {
        for (k, v) in &other.vars {
            self.vars.insert(k.clone(), v.clone());
        }
        for (k, v) in &other.apps {
            self.apps.insert(k.clone(), v.clone());
        }
    }
}

impl FromIterator<(String, Value)> for Model {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut m = Model::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl Term {
    /// Evaluate the term under a model.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if the term references variables or measure
    /// applications absent from the model, contains unknowns, or combines
    /// values at the wrong sorts.
    pub fn eval(&self, model: &Model) -> Result<Value, EvalError> {
        match self {
            Term::Var(x) => model
                .vars
                .get(x)
                .cloned()
                .ok_or_else(|| EvalError::UnboundVariable(x.clone())),
            Term::Bool(b) => Ok(Value::Bool(*b)),
            Term::Int(n) => Ok(Value::Int(*n)),
            Term::EmptySet => Ok(Value::Set(BTreeSet::new())),
            Term::SetLit(s) => Ok(Value::Set(s.clone())),
            Term::Singleton(t) => {
                let v = int(t.eval(model)?)?;
                Ok(Value::set([v]))
            }
            Term::Unary(UnOp::Not, t) => Ok(Value::Bool(!boolean(t.eval(model)?)?)),
            Term::Unary(UnOp::Neg, t) => Ok(Value::Int(-int(t.eval(model)?)?)),
            Term::Mul(k, t) => Ok(Value::Int(k * int(t.eval(model)?)?)),
            Term::Binary(op, a, b) => eval_binary(*op, a.eval(model)?, b.eval(model)?),
            Term::Ite(c, t, e) => {
                if boolean(c.eval(model)?)? {
                    t.eval(model)
                } else {
                    e.eval(model)
                }
            }
            Term::App(_, _) => model
                .apps
                .get(&self.to_string())
                .cloned()
                .ok_or_else(|| EvalError::UninterpretedApp(self.to_string())),
            Term::Unknown(u, _) => Err(EvalError::UnresolvedUnknown(u.clone())),
        }
    }

    /// Evaluate the term expecting a boolean result.
    ///
    /// # Errors
    ///
    /// As for [`Term::eval`], plus a [`EvalError::TypeError`] if the result is
    /// not a boolean.
    pub fn eval_bool(&self, model: &Model) -> Result<bool, EvalError> {
        boolean(self.eval(model)?)
    }

    /// Evaluate the term expecting an integer result.
    ///
    /// # Errors
    ///
    /// As for [`Term::eval`], plus a [`EvalError::TypeError`] if the result is
    /// not an integer.
    pub fn eval_int(&self, model: &Model) -> Result<i64, EvalError> {
        int(self.eval(model)?)
    }
}

fn boolean(v: Value) -> Result<bool, EvalError> {
    v.as_bool()
        .ok_or_else(|| EvalError::TypeError(format!("expected boolean, got {v}")))
}

fn int(v: Value) -> Result<i64, EvalError> {
    v.as_int()
        .ok_or_else(|| EvalError::TypeError(format!("expected integer, got {v}")))
}

fn set(v: Value) -> Result<BTreeSet<i64>, EvalError> {
    match v {
        Value::Set(s) => Ok(s),
        other => Err(EvalError::TypeError(format!("expected set, got {other}"))),
    }
}

fn eval_binary(op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
    use BinOp::*;
    Ok(match op {
        And => Value::Bool(boolean(a)? && boolean(b)?),
        Or => Value::Bool(boolean(a)? || boolean(b)?),
        Implies => Value::Bool(!boolean(a)? || boolean(b)?),
        Iff => Value::Bool(boolean(a)? == boolean(b)?),
        Add => Value::Int(int(a)? + int(b)?),
        Sub => Value::Int(int(a)? - int(b)?),
        Le => Value::Bool(int(a)? <= int(b)?),
        Lt => Value::Bool(int(a)? < int(b)?),
        Ge => Value::Bool(int(a)? >= int(b)?),
        Gt => Value::Bool(int(a)? > int(b)?),
        Eq => Value::Bool(a == b),
        Neq => Value::Bool(a != b),
        Union => Value::Set(set(a)?.union(&set(b)?).copied().collect()),
        Intersect => Value::Set(set(a)?.intersection(&set(b)?).copied().collect()),
        Diff => Value::Set(set(a)?.difference(&set(b)?).copied().collect()),
        Member => Value::Bool(set(b)?.contains(&int(a)?)),
        Subset => Value::Bool(set(a)?.is_subset(&set(b)?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Model {
        let mut m = Model::new();
        m.insert("x", Value::Int(3))
            .insert("y", Value::Int(5))
            .insert("p", Value::Bool(true))
            .insert("s", Value::set([1, 2, 3]))
            .insert("t", Value::set([2, 4]));
        m
    }

    #[test]
    fn arithmetic_and_comparison() {
        let m = model();
        let t = (Term::var("x") + Term::var("y")).eq_(Term::int(8));
        assert_eq!(t.eval(&m).unwrap(), Value::Bool(true));
        let t = Term::var("x").times(3).gt(Term::var("y"));
        assert_eq!(t.eval(&m).unwrap(), Value::Bool(true));
        let t = Term::var("x") - Term::var("y");
        assert_eq!(t.eval_int(&m).unwrap(), -2);
    }

    #[test]
    fn boolean_connectives() {
        let m = model();
        let t = Term::var("p").and(Term::var("x").lt(Term::var("y")));
        assert!(t.eval_bool(&m).unwrap());
        let t = Term::var("p").implies(Term::var("x").gt(Term::var("y")));
        assert!(!t.eval_bool(&m).unwrap());
        let t = Term::var("p").iff(Term::tt());
        assert!(t.eval_bool(&m).unwrap());
    }

    #[test]
    fn set_algebra() {
        let m = model();
        let union = Term::var("s").union(Term::var("t"));
        assert_eq!(union.eval(&m).unwrap(), Value::set([1, 2, 3, 4]));
        let inter = Term::var("s").intersect(Term::var("t"));
        assert_eq!(inter.eval(&m).unwrap(), Value::set([2]));
        let diff = Term::var("s").diff(Term::var("t"));
        assert_eq!(diff.eval(&m).unwrap(), Value::set([1, 3]));
        let mem = Term::var("x").member(Term::var("s"));
        assert!(mem.eval_bool(&m).unwrap());
        let sub = Term::var("t").subset(Term::var("s"));
        assert!(!sub.eval_bool(&m).unwrap());
        let single = Term::var("x").singleton().subset(Term::var("s"));
        assert!(single.eval_bool(&m).unwrap());
    }

    #[test]
    fn ite_selects_by_condition() {
        let m = model();
        let t = Term::Ite(
            Box::new(Term::var("x").lt(Term::var("y"))),
            Box::new(Term::var("x")),
            Box::new(Term::var("y")),
        );
        assert_eq!(t.eval_int(&m).unwrap(), 3);
    }

    #[test]
    fn applications_use_model_interpretation() {
        let mut m = model();
        let app = Term::app("len", vec![Term::var("xs")]);
        assert!(matches!(app.eval(&m), Err(EvalError::UninterpretedApp(_))));
        m.insert_app(&app, Value::Int(7));
        assert_eq!(app.eval_int(&m).unwrap(), 7);
    }

    #[test]
    fn errors_for_unbound_and_unknown() {
        let m = model();
        assert!(matches!(
            Term::var("zzz").eval(&m),
            Err(EvalError::UnboundVariable(_))
        ));
        assert!(matches!(
            Term::unknown("U0").eval(&m),
            Err(EvalError::UnresolvedUnknown(_))
        ));
        assert!(matches!(
            Term::var("p").le(Term::int(1)).eval(&m),
            Err(EvalError::TypeError(_))
        ));
    }

    #[test]
    fn model_extend_overrides() {
        let mut a = model();
        let mut b = Model::new();
        b.insert("x", Value::Int(100));
        a.extend(&b);
        assert_eq!(a.get("x"), Some(&Value::Int(100)));
        assert_eq!(a.get("y"), Some(&Value::Int(5)));
    }
}
