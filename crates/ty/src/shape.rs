//! Base-type shapes: the coarse abstraction of Re² types used to drive
//! enumeration and the reachability analysis behind `resyn lint`.
//!
//! A [`Shape`] forgets refinements, potentials and element types, keeping only
//! the information needed to decide whether a value can occupy a syntactic
//! position: booleans, integers, polymorphic elements, and datatypes by name.

use crate::types::{BaseType, Ty};

/// The base-type shape of a value, used to drive enumeration.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Shape {
    /// Booleans.
    Bool,
    /// Integers.
    Int,
    /// Values of a (polymorphic element) type variable.
    Elem,
    /// Values of the named datatype.
    Data(String),
}

impl Shape {
    /// The shape of a Re² type (arrows have no shape).
    pub fn of(ty: &Ty) -> Option<Shape> {
        match ty.base_type()? {
            BaseType::Bool => Some(Shape::Bool),
            BaseType::Int => Some(Shape::Int),
            BaseType::TVar(_) => Some(Shape::Elem),
            BaseType::Data(name, _) => Some(Shape::Data(name.clone())),
        }
    }

    /// Whether an argument of this shape may be passed where `param` is
    /// expected (element-shaped parameters accept integers and vice versa,
    /// mirroring polymorphic instantiation).
    pub fn fits(&self, param: &Shape) -> bool {
        match (self, param) {
            (a, b) if a == b => true,
            (Shape::Int, Shape::Elem) | (Shape::Elem, Shape::Int) => true,
            (Shape::Data(_), Shape::Elem) => false,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_of_base_types() {
        assert_eq!(Shape::of(&Ty::int()), Some(Shape::Int));
        assert_eq!(Shape::of(&Ty::bool()), Some(Shape::Bool));
        assert_eq!(Shape::of(&Ty::tvar("a")), Some(Shape::Elem));
        assert_eq!(
            Shape::of(&Ty::list(Ty::tvar("a"))),
            Some(Shape::Data("List".into()))
        );
        assert_eq!(Shape::of(&Ty::arrow("x", Ty::int(), Ty::int())), None);
    }

    #[test]
    fn fits_is_reflexive_and_bridges_int_elem() {
        assert!(Shape::Int.fits(&Shape::Elem));
        assert!(Shape::Elem.fits(&Shape::Int));
        assert!(Shape::Bool.fits(&Shape::Bool));
        assert!(!Shape::Data("List".into()).fits(&Shape::Elem));
        assert!(!Shape::Data("List".into()).fits(&Shape::Int));
        assert!(!Shape::Data("List".into()).fits(&Shape::Data("Tree".into())));
    }
}
