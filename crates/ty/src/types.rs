//! Re² types: base types, refinement types with potential annotations, arrow
//! types and type schemas.

use std::fmt;
use std::sync::Arc;

use resyn_logic::{Sort, Term};

/// A base type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaseType {
    /// Booleans.
    Bool,
    /// Integers.
    Int,
    /// A type variable `α`.
    TVar(String),
    /// A datatype application, e.g. `List T` or `SList T`. The element types
    /// are full annotated types, so they can carry refinements *and*
    /// potential (`List {Int | ν > 0}^1`).
    Data(String, Vec<Ty>),
}

impl BaseType {
    /// The refinement-logic sort of values of this base type (the paper's
    /// `S ⇝ Δ`): booleans map to `B`, integers to `N`, datatypes to their
    /// primary numeric measure (length), and type variables to their
    /// uninterpreted sort.
    pub fn sort(&self) -> Sort {
        match self {
            BaseType::Bool => Sort::Bool,
            BaseType::Int => Sort::Int,
            BaseType::TVar(a) => Sort::Uninterp(a.clone()),
            BaseType::Data(_, _) => Sort::Int,
        }
    }

    /// The datatype name, if this is a datatype.
    pub fn data_name(&self) -> Option<&str> {
        match self {
            BaseType::Data(name, _) => Some(name),
            _ => None,
        }
    }
}

/// A Re² type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    /// A scalar type `{B | ψ}^φ`: values of base type `B` satisfying `ψ`
    /// (over the value variable `ν`), carrying `φ` units of potential
    /// (`φ` may mention `ν` and program variables — *dependent* annotations).
    Scalar {
        /// The base type.
        base: BaseType,
        /// The logical refinement (sort `Bool`).
        refinement: Term,
        /// The potential annotation (sort `Int`, must be non-negative).
        potential: Term,
    },
    /// A dependent arrow type `x: Tₓ → T` with an application cost: applying
    /// a function of this type costs `cost` resource units (the
    /// implementation-level generalisation of wrapping applications in
    /// `tick(1, ·)`, cf. Sec. 4.1 "Cost Metrics").
    Arrow {
        /// The formal parameter name (scope of `ret`).
        param: String,
        /// The parameter type.
        param_ty: Box<Ty>,
        /// The result type (may mention `param`).
        ret: Box<Ty>,
        /// Cost charged for each application of the function.
        cost: i64,
    },
}

impl Ty {
    /// A scalar type with trivial refinement and zero potential.
    pub fn base(base: BaseType) -> Ty {
        Ty::Scalar {
            base,
            refinement: Term::tt(),
            potential: Term::int(0),
        }
    }

    /// The plain `Int` type.
    pub fn int() -> Ty {
        Ty::base(BaseType::Int)
    }

    /// The plain `Bool` type.
    pub fn bool() -> Ty {
        Ty::base(BaseType::Bool)
    }

    /// A plain type variable.
    pub fn tvar(name: impl Into<String>) -> Ty {
        Ty::base(BaseType::TVar(name.into()))
    }

    /// A refined scalar type `{B | ψ}`.
    pub fn refined(base: BaseType, refinement: Term) -> Ty {
        Ty::Scalar {
            base,
            refinement,
            potential: Term::int(0),
        }
    }

    /// Attach (replace) a potential annotation.
    pub fn with_potential(self, potential: Term) -> Ty {
        match self {
            Ty::Scalar {
                base, refinement, ..
            } => Ty::Scalar {
                base,
                refinement,
                potential,
            },
            arrow => arrow,
        }
    }

    /// Attach (replace) a refinement.
    pub fn with_refinement(self, refinement: Term) -> Ty {
        match self {
            Ty::Scalar {
                base, potential, ..
            } => Ty::Scalar {
                base,
                refinement,
                potential,
            },
            arrow => arrow,
        }
    }

    /// Conjoin an additional refinement onto a scalar type.
    pub fn and_refinement(self, extra: Term) -> Ty {
        match self {
            Ty::Scalar {
                base,
                refinement,
                potential,
            } => Ty::Scalar {
                base,
                refinement: refinement.and(extra),
                potential,
            },
            arrow => arrow,
        }
    }

    /// A list type with the given element type.
    pub fn list(elem: Ty) -> Ty {
        Ty::base(BaseType::Data("List".into(), vec![elem]))
    }

    /// A sorted-list type with the given element type.
    pub fn slist(elem: Ty) -> Ty {
        Ty::base(BaseType::Data("SList".into(), vec![elem]))
    }

    /// A datatype type.
    pub fn data(name: impl Into<String>, args: Vec<Ty>) -> Ty {
        Ty::base(BaseType::Data(name.into(), args))
    }

    /// An arrow type with zero application cost.
    pub fn arrow(param: impl Into<String>, param_ty: Ty, ret: Ty) -> Ty {
        Ty::Arrow {
            param: param.into(),
            param_ty: Box::new(param_ty),
            ret: Box::new(ret),
            cost: 0,
        }
    }

    /// An arrow type with an application cost.
    pub fn arrow_costing(param: impl Into<String>, param_ty: Ty, ret: Ty, cost: i64) -> Ty {
        Ty::Arrow {
            param: param.into(),
            param_ty: Box::new(param_ty),
            ret: Box::new(ret),
            cost,
        }
    }

    /// A multi-argument arrow type (right-nested) with zero cost.
    pub fn fun(params: Vec<(&str, Ty)>, ret: Ty) -> Ty {
        params
            .into_iter()
            .rev()
            .fold(ret, |acc, (name, ty)| Ty::arrow(name, ty, acc))
    }

    /// Is this a scalar type?
    pub fn is_scalar(&self) -> bool {
        matches!(self, Ty::Scalar { .. })
    }

    /// Is this an arrow type?
    pub fn is_arrow(&self) -> bool {
        matches!(self, Ty::Arrow { .. })
    }

    /// The refinement of a scalar type (`true` for arrows).
    pub fn refinement(&self) -> Term {
        match self {
            Ty::Scalar { refinement, .. } => refinement.clone(),
            Ty::Arrow { .. } => Term::tt(),
        }
    }

    /// The potential annotation of a scalar type (`0` for arrows).
    pub fn potential(&self) -> Term {
        match self {
            Ty::Scalar { potential, .. } => potential.clone(),
            Ty::Arrow { .. } => Term::int(0),
        }
    }

    /// The base type of a scalar type.
    pub fn base_type(&self) -> Option<&BaseType> {
        match self {
            Ty::Scalar { base, .. } => Some(base),
            Ty::Arrow { .. } => None,
        }
    }

    /// Uncurry an arrow type into its parameter list and final result.
    pub fn uncurry(&self) -> (Vec<(String, Ty, i64)>, Ty) {
        let mut params = Vec::new();
        let mut cur = self.clone();
        while let Ty::Arrow {
            param,
            param_ty,
            ret,
            cost,
        } = cur
        {
            params.push((param, *param_ty, cost));
            cur = *ret;
        }
        (params, cur)
    }

    /// Substitute a logic-level term for a program variable in refinements and
    /// potential annotations (used for dependent application).
    pub fn subst_term(&self, var: &str, replacement: &Term) -> Ty {
        match self {
            Ty::Scalar {
                base,
                refinement,
                potential,
            } => Ty::Scalar {
                base: base.subst_term(var, replacement),
                refinement: refinement.subst(var, replacement),
                potential: potential.subst(var, replacement),
            },
            Ty::Arrow {
                param,
                param_ty,
                ret,
                cost,
            } => {
                let param_ty = Box::new(param_ty.subst_term(var, replacement));
                let ret = if param == var {
                    ret.clone()
                } else {
                    Box::new(ret.subst_term(var, replacement))
                };
                Ty::Arrow {
                    param: param.clone(),
                    param_ty,
                    ret,
                    cost: *cost,
                }
            }
        }
    }

    /// Substitute a type for a type variable. Following the paper's type
    /// substitution, refinements and potential of the replaced occurrence are
    /// conjoined/added with those of the replacement.
    pub fn subst_tvar(&self, alpha: &str, replacement: &Ty) -> Ty {
        match self {
            Ty::Scalar {
                base: BaseType::TVar(a),
                refinement,
                potential,
            } if a == alpha => match replacement {
                Ty::Scalar {
                    base,
                    refinement: r2,
                    potential: p2,
                } => Ty::Scalar {
                    base: base.clone(),
                    refinement: refinement.clone().and(r2.clone()),
                    potential: (potential.clone() + p2.clone()).simplify(),
                },
                arrow => arrow.clone(),
            },
            Ty::Scalar {
                base,
                refinement,
                potential,
            } => Ty::Scalar {
                base: base.subst_tvar(alpha, replacement),
                refinement: refinement.clone(),
                potential: potential.clone(),
            },
            Ty::Arrow {
                param,
                param_ty,
                ret,
                cost,
            } => Ty::Arrow {
                param: param.clone(),
                param_ty: Box::new(param_ty.subst_tvar(alpha, replacement)),
                ret: Box::new(ret.subst_tvar(alpha, replacement)),
                cost: *cost,
            },
        }
    }

    /// Strip all potential annotations (used by the resource-agnostic Synquid
    /// baseline mode).
    pub fn strip_potential(&self) -> Ty {
        match self {
            Ty::Scalar {
                base,
                refinement,
                potential: _,
            } => Ty::Scalar {
                base: match base {
                    BaseType::Data(name, args) => {
                        BaseType::Data(name.clone(), args.iter().map(Ty::strip_potential).collect())
                    }
                    other => other.clone(),
                },
                refinement: refinement.clone(),
                potential: Term::int(0),
            },
            Ty::Arrow {
                param,
                param_ty,
                ret,
                cost,
            } => Ty::Arrow {
                param: param.clone(),
                param_ty: Box::new(param_ty.strip_potential()),
                ret: Box::new(ret.strip_potential()),
                cost: *cost,
            },
        }
    }
}

impl BaseType {
    fn subst_term(&self, var: &str, replacement: &Term) -> BaseType {
        match self {
            BaseType::Data(name, args) => BaseType::Data(
                name.clone(),
                args.iter()
                    .map(|t| t.subst_term(var, replacement))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    fn subst_tvar(&self, alpha: &str, replacement: &Ty) -> BaseType {
        match self {
            BaseType::Data(name, args) => BaseType::Data(
                name.clone(),
                args.iter()
                    .map(|t| t.subst_tvar(alpha, replacement))
                    .collect(),
            ),
            other => other.clone(),
        }
    }
}

/// A type schema `∀ᾱ. T`.
///
/// The type is shared: cloning a schema (a goal's signature and component
/// library are cloned per run and per report) copies a pointer, not the
/// type's refinement terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// The quantified type variables.
    pub tyvars: Vec<String>,
    /// The quantified type.
    pub ty: Arc<Ty>,
}

impl Schema {
    /// A monomorphic schema.
    pub fn mono(ty: Ty) -> Schema {
        Schema {
            tyvars: Vec::new(),
            ty: Arc::new(ty),
        }
    }

    /// A polymorphic schema over the given type variables.
    pub fn poly(tyvars: Vec<&str>, ty: Ty) -> Schema {
        Schema {
            tyvars: tyvars.into_iter().map(String::from).collect(),
            ty: Arc::new(ty),
        }
    }

    /// Is the schema monomorphic?
    pub fn is_mono(&self) -> bool {
        self.tyvars.is_empty()
    }
}

impl fmt::Display for BaseType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseType::Bool => write!(f, "Bool"),
            BaseType::Int => write!(f, "Int"),
            BaseType::TVar(a) => write!(f, "{a}"),
            BaseType::Data(name, args) => {
                write!(f, "{name}")?;
                for a in args {
                    write!(f, " ({a})")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Scalar {
                base,
                refinement,
                potential,
            } => {
                if refinement.is_true() {
                    write!(f, "{base}")?;
                } else {
                    write!(f, "{{{base} | {refinement}}}")?;
                }
                if !potential.is_zero() {
                    write!(f, "^{potential}")?;
                }
                Ok(())
            }
            Ty::Arrow {
                param,
                param_ty,
                ret,
                cost,
            } => {
                write!(f, "{param}:{param_ty} -")?;
                if *cost != 0 {
                    write!(f, "[{cost}]")?;
                }
                write!(f, "-> {ret}")
            }
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.tyvars {
            write!(f, "∀{a}. ")?;
        }
        write!(f, "{}", self.ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_accessors() {
        let t = Ty::list(Ty::int().with_potential(Term::int(1)));
        assert!(t.is_scalar());
        assert_eq!(t.potential(), Term::int(0));
        match t.base_type().unwrap() {
            BaseType::Data(name, args) => {
                assert_eq!(name, "List");
                assert_eq!(args[0].potential(), Term::int(1));
            }
            other => panic!("unexpected base {other:?}"),
        }
    }

    #[test]
    fn uncurry_multi_argument_functions() {
        let f = Ty::fun(
            vec![("x", Ty::int()), ("y", Ty::bool())],
            Ty::refined(BaseType::Int, Term::value_var().ge(Term::var("x"))),
        );
        let (params, ret) = f.uncurry();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].0, "x");
        assert_eq!(params[1].0, "y");
        assert!(ret.refinement().mentions("x"));
    }

    #[test]
    fn dependent_substitution() {
        let t = Ty::refined(BaseType::Int, Term::value_var().le(Term::var("n")))
            .with_potential(Term::var("n"));
        let s = t.subst_term("n", &Term::int(5));
        assert_eq!(s.refinement(), Term::value_var().le(Term::int(5)));
        assert_eq!(s.potential(), Term::int(5));
    }

    #[test]
    fn tvar_substitution_merges_refinement_and_potential() {
        // α^1 with α := {Int | ν ≥ 0}^2  ==>  {Int | ν ≥ 0}^3
        let t = Ty::tvar("a").with_potential(Term::int(1));
        let repl = Ty::refined(BaseType::Int, Term::value_var().ge(Term::int(0)))
            .with_potential(Term::int(2));
        let s = t.subst_tvar("a", &repl);
        assert_eq!(s.potential(), Term::int(3));
        assert_eq!(s.refinement(), Term::value_var().ge(Term::int(0)));
        // Substitution descends into datatype element types.
        let lt = Ty::list(Ty::tvar("a").with_potential(Term::int(1)));
        let ls = lt.subst_tvar("a", &repl);
        match ls.base_type().unwrap() {
            BaseType::Data(_, args) => assert_eq!(args[0].potential(), Term::int(3)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn strip_potential_removes_annotations_everywhere() {
        let f = Ty::arrow(
            "xs",
            Ty::list(Ty::tvar("a").with_potential(Term::int(2))),
            Ty::list(Ty::tvar("a")).with_potential(Term::var("n")),
        );
        let s = f.strip_potential();
        let (params, ret) = s.uncurry();
        match params[0].1.base_type().unwrap() {
            BaseType::Data(_, args) => assert!(args[0].potential().is_zero()),
            _ => unreachable!(),
        }
        assert!(ret.potential().is_zero());
    }

    #[test]
    fn display_is_readable() {
        let t = Ty::refined(BaseType::Int, Term::value_var().ge(Term::int(0)))
            .with_potential(Term::int(1));
        assert_eq!(t.to_string(), "{Int | ν >= 0}^1");
        let f = Ty::arrow_costing("x", Ty::int(), Ty::bool(), 1);
        assert_eq!(f.to_string(), "x:Int -[1]-> Bool");
    }
}
