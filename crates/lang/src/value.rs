//! Runtime values of the core calculus.

use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::expr::{Expr, Ident};

/// A runtime environment mapping variables to values.
pub type EnvMap = BTreeMap<Ident, Val>;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A saturated constructor value, e.g. `Cons 1 (Cons 2 Nil)`.
    Ctor(Ident, Vec<Val>),
    /// A closure created from a lambda.
    Closure {
        /// Parameter name.
        param: Ident,
        /// Function body.
        body: Rc<Expr>,
        /// Captured environment.
        env: Rc<EnvMap>,
    },
    /// A closure created from a `fix` (knows its own name for recursion).
    FixClosure {
        /// The recursive function's own name.
        fname: Ident,
        /// Parameter name.
        param: Ident,
        /// Function body.
        body: Rc<Expr>,
        /// Captured environment.
        env: Rc<EnvMap>,
    },
    /// A (possibly partially applied) native component registered with the
    /// interpreter, e.g. `<`, `inc`, `append`.
    Native {
        /// Component name (key into the interpreter's registry).
        name: Ident,
        /// Number of arguments the component expects.
        arity: usize,
        /// Arguments collected so far.
        args: Vec<Val>,
    },
}

impl Val {
    /// The empty list value.
    pub fn nil() -> Val {
        Val::Ctor(crate::ctors::NIL.into(), vec![])
    }

    /// A cons cell value.
    pub fn cons(head: Val, tail: Val) -> Val {
        Val::Ctor(crate::ctors::CONS.into(), vec![head, tail])
    }

    /// Build a list value from a vector of values.
    pub fn list(items: Vec<Val>) -> Val {
        items
            .into_iter()
            .rev()
            .fold(Val::nil(), |acc, v| Val::cons(v, acc))
    }

    /// Build an integer list value.
    pub fn int_list(items: &[i64]) -> Val {
        Val::list(items.iter().map(|n| Val::Int(*n)).collect())
    }

    /// View as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Val::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// View as an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Val::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// View a list-like value as a vector of element values. Any nullary
    /// constructor terminates the list and any binary constructor is treated
    /// as a cons cell, so plain lists, sorted lists (`SCons`/`SNil`) and other
    /// list-like datatypes are all supported.
    pub fn as_list(&self) -> Option<Vec<Val>> {
        let mut out = Vec::new();
        let mut cur = self;
        loop {
            match cur {
                Val::Ctor(_, args) if args.is_empty() => return Some(out),
                Val::Ctor(_, args) if args.len() == 2 => {
                    out.push(args[0].clone());
                    cur = &args[1];
                }
                _ => return None,
            }
        }
    }

    /// View a list of integers as a vector of `i64`.
    pub fn as_int_list(&self) -> Option<Vec<i64>> {
        self.as_list()?
            .into_iter()
            .map(|v| v.as_int())
            .collect::<Option<Vec<_>>>()
    }

    /// The length of a list value (`None` if not a list).
    pub fn list_len(&self) -> Option<usize> {
        self.as_list().map(|l| l.len())
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Bool(b) => write!(f, "{b}"),
            Val::Int(n) => write!(f, "{n}"),
            Val::Ctor(name, args) => {
                if let Some(items) = self.as_list() {
                    write!(f, "[")?;
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{v}")?;
                    }
                    return write!(f, "]");
                }
                write!(f, "{name}")?;
                for a in args {
                    write!(f, " ({a})")?;
                }
                Ok(())
            }
            Val::Closure { param, .. } => write!(f, "<closure λ{param}>"),
            Val::FixClosure { fname, .. } => write!(f, "<fix {fname}>"),
            Val::Native { name, arity, args } => {
                write!(f, "<native {name} {}/{arity}>", args.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_roundtrip() {
        let v = Val::int_list(&[1, 2, 3]);
        assert_eq!(v.as_int_list(), Some(vec![1, 2, 3]));
        assert_eq!(v.list_len(), Some(3));
        assert_eq!(Val::nil().list_len(), Some(0));
        assert_eq!(Val::Int(3).as_list(), None);
    }

    #[test]
    fn display_of_lists_and_scalars() {
        assert_eq!(Val::int_list(&[1, 2]).to_string(), "[1, 2]");
        assert_eq!(Val::Bool(true).to_string(), "true");
        assert_eq!(
            Val::Ctor("Node".into(), vec![Val::Int(1), Val::nil(), Val::nil()]).to_string(),
            "Node (1) ([]) ([])"
        );
    }
}
