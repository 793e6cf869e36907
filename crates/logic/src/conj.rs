//! Persistent conjunctions: the path condition of a typing context.
//!
//! A [`Conj`] is a list of facts, oldest first, that stands for
//! `Term::and_all` of them ([`Conj::to_term`]). Pushing a fact allocates one
//! link that shares every earlier one, so cloning a conjunction copies a
//! pointer, and the branches of an `ite` or a `match` share the facts
//! assumed before the branch point.
//!
//! Each link memoizes the interned id of the conjunction up to it, for the
//! first [`TermArena`](crate::TermArena) that interns it
//! ([`TermArena::intern_conj`](crate::TermArena::intern_conj)). A solver
//! query under a path condition therefore interns only the facts added since
//! the last query in that arena, and none under a path already queried.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::intern::TermId;
use crate::term::Term;

/// A persistent conjunction of facts (see the module documentation).
#[derive(Clone, Default)]
pub struct Conj(Option<Arc<Link>>);

/// One fact and the conjunction before it.
pub(crate) struct Link {
    fact: Term,
    prev: Conj,
    /// Some fact up to here is `false`, so the conjunction is `false`.
    absorbed: bool,
    /// The conjunction up to here mentions an unknown (`false` does not).
    unknowns: bool,
    /// The arena tag and interned id of the conjunction up to here.
    spine: OnceLock<(u64, TermId)>,
}

impl Link {
    pub(crate) fn fact(&self) -> &Term {
        &self.fact
    }

    /// The memoized id of the conjunction up to here in the arena `tag`.
    pub(crate) fn spine(&self, tag: u64) -> Option<TermId> {
        match self.spine.get() {
            Some(&(t, id)) if t == tag => Some(id),
            _ => None,
        }
    }

    /// Memoize `id` for the arena `tag`, unless another arena came first.
    pub(crate) fn memoize(&self, tag: u64, id: TermId) {
        let _ = self.spine.set((tag, id));
    }
}

impl Conj {
    /// The empty conjunction (`true`).
    pub fn new() -> Conj {
        Conj::default()
    }

    /// Conjoin `fact`. A `true` fact changes nothing and is dropped.
    pub fn push(&mut self, fact: Term) {
        if fact.is_true() {
            return;
        }
        let prev = std::mem::take(self);
        let absorbed = fact.is_false() || prev.is_false();
        let unknowns = !absorbed && (prev.has_unknowns() || fact.has_unknowns());
        *self = Conj(Some(Arc::new(Link {
            fact,
            prev,
            absorbed,
            unknowns,
            spine: OnceLock::new(),
        })));
    }

    /// Whether some fact is `false`, so that the conjunction is `false`.
    pub(crate) fn is_false(&self) -> bool {
        self.0.as_ref().is_some_and(|l| l.absorbed)
    }

    /// Whether [`to_term`](Conj::to_term) mentions an unknown: some fact
    /// does and none is `false`. Read off the newest link.
    pub fn has_unknowns(&self) -> bool {
        self.0.as_ref().is_some_and(|l| l.unknowns)
    }

    /// The links, newest first.
    pub(crate) fn links(&self) -> impl Iterator<Item = &Link> {
        std::iter::successors(self.0.as_deref(), |l| l.prev.0.as_deref())
    }

    /// The facts, oldest first.
    fn facts(&self) -> Vec<&Term> {
        let mut facts: Vec<&Term> = self.links().map(Link::fact).collect();
        facts.reverse();
        facts
    }

    /// The conjunction as one term: `Term::and_all` of the facts.
    pub fn to_term(&self) -> Term {
        Term::and_all(self.facts().into_iter().cloned())
    }
}

impl Drop for Conj {
    /// Unlink iteratively: a long conjunction must not drop its links by
    /// recursion.
    fn drop(&mut self) {
        let mut next = self.0.take();
        while let Some(link) = next {
            next = Arc::into_inner(link).and_then(|mut l| l.prev.0.take());
        }
    }
}

impl fmt::Debug for Conj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.facts()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TermArena;

    fn x_ge(n: i64) -> Term {
        Term::var("x").ge(Term::int(n))
    }

    #[test]
    fn a_second_arena_interns_without_the_first_arenas_memo() {
        let mut c = Conj::new();
        c.push(x_ge(0));
        c.push(x_ge(1));
        let mut first = TermArena::new();
        let mut second = TermArena::new();
        second.intern(&Term::var("y"));
        let a = first.intern_conj(&c);
        let b = second.intern_conj(&c);
        assert_eq!(first.term(a), c.to_term());
        assert_eq!(second.term(b), c.to_term());
        assert_ne!(a, b, "the arenas number the same term differently");
        assert_eq!(first.intern_conj(&c), a);
        assert_eq!(second.intern_conj(&c), b);

        // A clone is another arena: what it interns after the copy gets ids
        // the original hands out to other terms.
        let mut clone = first.clone();
        clone.intern(&Term::var("z"));
        c.push(x_ge(2));
        let id = first.intern_conj(&c);
        assert_eq!(first.term(id), c.to_term());
        let id = clone.intern_conj(&c);
        assert_eq!(clone.term(id), c.to_term());
    }

    #[test]
    fn dropping_a_long_conjunction_does_not_recurse() {
        let mut c = Conj::new();
        for i in 0..200_000 {
            c.push(x_ge(i));
        }
        drop(c);
    }
}
