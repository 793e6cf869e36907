//! Hash-consed term interning with memoized logic operations.
//!
//! A [`TermArena`] stores every distinct term exactly once and hands out
//! copyable [`TermId`] handles. Because interning is *hash-consing* — a node is
//! only allocated if no structurally equal node exists — two interned terms are
//! structurally equal **iff** their ids are equal, so equality and hashing are
//! O(1). Every node carries cached metadata (its free-variable set and whether
//! it contains unknown predicates), and the expensive logic passes —
//! [`TermArena::simplify_id`] and [`TermArena::sort_of_id`] — run as
//! memoized traversals over node ids, so shared subterms are processed once
//! instead of once per occurrence.
//!
//! The arena is the substrate of the solver's query cache (`resyn-solver`):
//! the checking pipeline interns every validity/satisfiability query, and
//! structurally equal constraints arriving from different candidate programs
//! collapse to the same ids for free.
//!
//! Every id-based operation is a faithful mirror of the corresponding
//! tree-based operation on [`Term`]; the differential property tests in this
//! crate (`proptests.rs`) check the two agree on random terms.
//!
//! # Example
//!
//! ```
//! use resyn_logic::{Term, TermArena};
//!
//! let mut arena = TermArena::new();
//! let a = arena.intern(&Term::var("x").le(Term::var("y") + Term::int(1)));
//! let b = arena.intern(&Term::var("x").le(Term::var("y") + Term::int(1)));
//! assert_eq!(a, b); // structural equality is id equality
//! assert!(arena.free_vars(a).contains("x"));
//! ```

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use crate::sort::{Sort, SortError, SortingEnv};
use crate::term::{BinOp, Term, UnOp};

/// A handle to an interned term. Copyable; equality and hashing are O(1) and
/// agree with structural equality of the underlying terms (within one arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned term node: the same shape as [`Term`], with children replaced
/// by [`TermId`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// A variable reference.
    Var(String),
    /// A boolean literal.
    Bool(bool),
    /// An integer literal.
    Int(i64),
    /// The empty set literal.
    EmptySet,
    /// A literal finite set of integers.
    SetLit(BTreeSet<i64>),
    /// A singleton set.
    Singleton(TermId),
    /// Unary operator application.
    Unary(UnOp, TermId),
    /// Binary operator application.
    Binary(BinOp, TermId, TermId),
    /// Multiplication by an integer constant.
    Mul(i64, TermId),
    /// Conditional term.
    Ite(TermId, TermId, TermId),
    /// Measure / uninterpreted function application.
    App(String, Vec<TermId>),
    /// Unknown predicate with its pending substitution.
    Unknown(String, Vec<(String, TermId)>),
}

/// Cached per-node metadata, computed bottom-up at interning time.
#[derive(Debug, Clone)]
struct Meta {
    /// The free variables of the node (shared with children where possible).
    free_vars: Arc<BTreeSet<String>>,
    /// Whether the node contains any unknown predicate.
    has_unknown: bool,
}

/// Counters describing the arena and its memo tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Number of distinct terms interned.
    pub terms: usize,
    /// Memo-table hits across all memoized passes.
    pub memo_hits: u64,
    /// Memo-table misses across all memoized passes.
    pub memo_misses: u64,
}

/// The hash-consing interner.
#[derive(Debug, Clone, Default)]
pub struct TermArena {
    nodes: Vec<Node>,
    meta: Vec<Meta>,
    index: HashMap<Node, TermId>,
    empty_fv: Arc<BTreeSet<String>>,
    simplify_memo: HashMap<TermId, TermId>,
    sort_memo: HashMap<(TermId, u64), Result<Sort, SortError>>,
    memo_hits: u64,
    memo_misses: u64,
}

impl TermArena {
    /// An empty arena.
    pub fn new() -> TermArena {
        TermArena::default()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Arena and memo-table counters.
    pub fn stats(&self) -> InternStats {
        InternStats {
            terms: self.nodes.len(),
            memo_hits: self.memo_hits,
            memo_misses: self.memo_misses,
        }
    }

    /// The node of an interned term.
    pub fn node(&self, id: TermId) -> &Node {
        &self.nodes[id.index()]
    }

    // ----------------------------------------------------------------- //
    // Interning
    // ----------------------------------------------------------------- //

    /// Intern a node, returning the id of the already-present structurally
    /// equal node if there is one (hash-consing).
    pub fn mk(&mut self, node: Node) -> TermId {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let meta = self.compute_meta(&node);
        let id = TermId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        self.index.insert(node.clone(), id);
        self.nodes.push(node);
        self.meta.push(meta);
        id
    }

    fn compute_meta(&self, node: &Node) -> Meta {
        let fv_of = |id: &TermId| Arc::clone(&self.meta[id.index()].free_vars);
        let unk = |id: &TermId| self.meta[id.index()].has_unknown;
        match node {
            Node::Var(x) => Meta {
                free_vars: Arc::new(BTreeSet::from([x.clone()])),
                has_unknown: false,
            },
            Node::Bool(_) | Node::Int(_) | Node::EmptySet | Node::SetLit(_) => Meta {
                free_vars: Arc::clone(&self.empty_fv),
                has_unknown: false,
            },
            Node::Singleton(t) | Node::Unary(_, t) | Node::Mul(_, t) => Meta {
                free_vars: fv_of(t),
                has_unknown: unk(t),
            },
            Node::Binary(_, a, b) => Meta {
                free_vars: self.union_fv(&[*a, *b]),
                has_unknown: unk(a) || unk(b),
            },
            Node::Ite(c, t, e) => Meta {
                free_vars: self.union_fv(&[*c, *t, *e]),
                has_unknown: unk(c) || unk(t) || unk(e),
            },
            Node::App(_, args) => Meta {
                free_vars: self.union_fv(args),
                has_unknown: args.iter().any(unk),
            },
            // Mirrors `Term::free_vars`: variables inside the *pending
            // substitutions* are free; the substituted-for names are not.
            Node::Unknown(_, pending) => {
                let children: Vec<TermId> = pending.iter().map(|(_, t)| *t).collect();
                Meta {
                    free_vars: self.union_fv(&children),
                    has_unknown: true,
                }
            }
        }
    }

    fn union_fv(&self, ids: &[TermId]) -> Arc<BTreeSet<String>> {
        let mut nonempty = ids
            .iter()
            .map(|id| &self.meta[id.index()].free_vars)
            .filter(|fv| !fv.is_empty());
        let Some(first) = nonempty.next() else {
            return Arc::clone(&self.empty_fv);
        };
        let rest: Vec<_> = nonempty.collect();
        if rest.iter().all(|fv| fv.is_subset(first)) {
            return Arc::clone(first);
        }
        let mut out: BTreeSet<String> = (**first).clone();
        for fv in rest {
            out.extend(fv.iter().cloned());
        }
        Arc::new(out)
    }

    /// Intern a tree term.
    pub fn intern(&mut self, t: &Term) -> TermId {
        match t {
            Term::Var(x) => self.mk(Node::Var(x.clone())),
            Term::Bool(b) => self.mk(Node::Bool(*b)),
            Term::Int(n) => self.mk(Node::Int(*n)),
            Term::EmptySet => self.mk(Node::EmptySet),
            Term::SetLit(s) => self.mk(Node::SetLit(s.clone())),
            Term::Singleton(x) => {
                let x = self.intern(x);
                self.mk(Node::Singleton(x))
            }
            Term::Unary(op, x) => {
                let x = self.intern(x);
                self.mk(Node::Unary(*op, x))
            }
            Term::Binary(op, a, b) => {
                let a = self.intern(a);
                let b = self.intern(b);
                self.mk(Node::Binary(*op, a, b))
            }
            Term::Mul(k, x) => {
                let x = self.intern(x);
                self.mk(Node::Mul(*k, x))
            }
            Term::Ite(c, t, e) => {
                let c = self.intern(c);
                let t = self.intern(t);
                let e = self.intern(e);
                self.mk(Node::Ite(c, t, e))
            }
            Term::App(m, args) => {
                let args: Vec<TermId> = args.iter().map(|a| self.intern(a)).collect();
                self.mk(Node::App(m.clone(), args))
            }
            Term::Unknown(u, pending) => {
                let pending: Vec<(String, TermId)> = pending
                    .iter()
                    .map(|(x, t)| (x.clone(), self.intern(t)))
                    .collect();
                self.mk(Node::Unknown(u.clone(), pending))
            }
        }
    }

    /// Reconstruct the tree term of an id.
    pub fn term(&self, id: TermId) -> Term {
        match self.node(id) {
            Node::Var(x) => Term::Var(x.clone()),
            Node::Bool(b) => Term::Bool(*b),
            Node::Int(n) => Term::Int(*n),
            Node::EmptySet => Term::EmptySet,
            Node::SetLit(s) => Term::SetLit(s.clone()),
            Node::Singleton(t) => Term::Singleton(Box::new(self.term(*t))),
            Node::Unary(op, t) => Term::Unary(*op, Box::new(self.term(*t))),
            Node::Binary(op, a, b) => {
                Term::Binary(*op, Box::new(self.term(*a)), Box::new(self.term(*b)))
            }
            Node::Mul(k, t) => Term::Mul(*k, Box::new(self.term(*t))),
            Node::Ite(c, t, e) => Term::Ite(
                Box::new(self.term(*c)),
                Box::new(self.term(*t)),
                Box::new(self.term(*e)),
            ),
            Node::App(m, args) => {
                Term::App(m.clone(), args.iter().map(|a| self.term(*a)).collect())
            }
            Node::Unknown(u, pending) => Term::Unknown(
                u.clone(),
                pending
                    .iter()
                    .map(|(x, t)| (x.clone(), self.term(*t)))
                    .collect(),
            ),
        }
    }

    // ----------------------------------------------------------------- //
    // Cached metadata
    // ----------------------------------------------------------------- //

    /// The free variables of an interned term (O(1), cached at intern time).
    pub fn free_vars(&self, id: TermId) -> &BTreeSet<String> {
        &self.meta[id.index()].free_vars
    }

    /// Whether the interned term contains any unknown predicate (O(1)).
    pub fn has_unknowns(&self, id: TermId) -> bool {
        self.meta[id.index()].has_unknown
    }

    /// Whether `var` occurs free in the interned term (O(log n)).
    pub fn mentions(&self, id: TermId, var: &str) -> bool {
        self.meta[id.index()].free_vars.contains(var)
    }

    /// Is this id the literal `true`?
    pub fn is_true(&self, id: TermId) -> bool {
        matches!(self.node(id), Node::Bool(true))
    }

    /// Is this id the literal `false`?
    pub fn is_false(&self, id: TermId) -> bool {
        matches!(self.node(id), Node::Bool(false))
    }

    fn as_bool(&self, id: TermId) -> Option<bool> {
        match self.node(id) {
            Node::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_int(&self, id: TermId) -> Option<i64> {
        match self.node(id) {
            Node::Int(n) => Some(*n),
            _ => None,
        }
    }

    // ----------------------------------------------------------------- //
    // Id-level builders (mirroring the `Term` smart constructors)
    // ----------------------------------------------------------------- //

    /// The literal `true`.
    pub fn tt_id(&mut self) -> TermId {
        self.mk(Node::Bool(true))
    }

    /// The literal `false`.
    pub fn ff_id(&mut self) -> TermId {
        self.mk(Node::Bool(false))
    }

    /// An integer literal.
    pub fn int_id(&mut self, n: i64) -> TermId {
        self.mk(Node::Int(n))
    }

    /// Boolean negation with the same shallow simplification as [`Term::not`].
    pub fn not_id(&mut self, t: TermId) -> TermId {
        match self.node(t) {
            Node::Bool(b) => {
                let b = !*b;
                self.mk(Node::Bool(b))
            }
            Node::Unary(UnOp::Not, inner) => *inner,
            _ => self.mk(Node::Unary(UnOp::Not, t)),
        }
    }

    /// Conjunction with unit simplification, mirroring [`Term::and`].
    pub fn and_id(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool(a), self.as_bool(b)) {
            (Some(true), _) => b,
            (_, Some(true)) => a,
            (Some(false), _) | (_, Some(false)) => self.ff_id(),
            _ => self.mk(Node::Binary(BinOp::And, a, b)),
        }
    }

    /// Disjunction with unit simplification, mirroring [`Term::or`].
    pub fn or_id(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool(a), self.as_bool(b)) {
            (Some(false), _) => b,
            (_, Some(false)) => a,
            (Some(true), _) | (_, Some(true)) => self.tt_id(),
            _ => self.mk(Node::Binary(BinOp::Or, a, b)),
        }
    }

    /// Implication with unit simplification, mirroring [`Term::implies`].
    pub fn implies_id(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool(a), self.as_bool(b)) {
            (Some(true), _) => b,
            (Some(false), _) => self.tt_id(),
            (_, Some(true)) => self.tt_id(),
            (_, Some(false)) => self.not_id(a),
            _ => self.mk(Node::Binary(BinOp::Implies, a, b)),
        }
    }

    /// Conditional with literal-condition selection, mirroring [`Term::ite`].
    pub fn ite_id(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        match self.as_bool(c) {
            Some(true) => t,
            Some(false) => e,
            None => self.mk(Node::Ite(c, t, e)),
        }
    }

    /// Addition with unit/constant folding, mirroring `Term + Term`.
    pub fn add_id(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_int(a), self.as_int(b)) {
            (Some(0), _) => b,
            (_, Some(0)) => a,
            (Some(x), Some(y)) => self.int_id(x + y),
            _ => self.mk(Node::Binary(BinOp::Add, a, b)),
        }
    }

    /// Subtraction with unit/constant folding, mirroring `Term - Term`.
    pub fn sub_id(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_int(a), self.as_int(b)) {
            (_, Some(0)) => a,
            (Some(x), Some(y)) => self.int_id(x - y),
            _ => self.mk(Node::Binary(BinOp::Sub, a, b)),
        }
    }

    /// Multiplication by a constant, mirroring [`Term::times`].
    pub fn times_id(&mut self, t: TermId, k: i64) -> TermId {
        match (k, self.as_int(t)) {
            (0, _) => self.int_id(0),
            (1, _) => t,
            (k, Some(n)) => self.int_id(k * n),
            (k, None) => self.mk(Node::Mul(k, t)),
        }
    }

    /// A plain binary node (no simplification).
    pub fn binary_id(&mut self, op: BinOp, a: TermId, b: TermId) -> TermId {
        self.mk(Node::Binary(op, a, b))
    }

    /// Conjunction of a list of ids, mirroring [`Term::and_all`].
    pub fn and_all_id<I: IntoIterator<Item = TermId>>(&mut self, ids: I) -> TermId {
        let mut acc = self.tt_id();
        for id in ids {
            acc = self.and_id(acc, id);
        }
        acc
    }

    /// Disjunction of a list of ids, mirroring [`Term::or_all`].
    pub fn or_all_id<I: IntoIterator<Item = TermId>>(&mut self, ids: I) -> TermId {
        let mut acc = self.ff_id();
        for id in ids {
            acc = self.or_id(acc, id);
        }
        acc
    }

    /// Flatten a conjunction spine into its conjuncts, mirroring
    /// [`Term::conjuncts`].
    pub fn conjuncts_id(&self, id: TermId) -> Vec<TermId> {
        match self.node(id) {
            Node::Bool(true) => vec![],
            Node::Binary(BinOp::And, a, b) => {
                let (a, b) = (*a, *b);
                let mut v = self.conjuncts_id(a);
                v.extend(self.conjuncts_id(b));
                v
            }
            _ => vec![id],
        }
    }

    /// Flatten a disjunction spine into its disjuncts, mirroring
    /// [`Term::disjuncts`].
    pub fn disjuncts_id(&self, id: TermId) -> Vec<TermId> {
        match self.node(id) {
            Node::Bool(false) => vec![],
            Node::Binary(BinOp::Or, a, b) => {
                let (a, b) = (*a, *b);
                let mut v = self.disjuncts_id(a);
                v.extend(self.disjuncts_id(b));
                v
            }
            _ => vec![id],
        }
    }

    // ----------------------------------------------------------------- //
    // Memoized passes
    // ----------------------------------------------------------------- //

    /// Recursively simplify, mirroring [`Term::simplify`]. Memoized across
    /// calls: a subterm (by id) is simplified at most once per arena.
    pub fn simplify_id(&mut self, id: TermId) -> TermId {
        if let Some(&r) = self.simplify_memo.get(&id) {
            self.memo_hits += 1;
            return r;
        }
        self.memo_misses += 1;
        let node = self.nodes[id.index()].clone();
        let out = match node {
            Node::Var(_)
            | Node::Bool(_)
            | Node::Int(_)
            | Node::EmptySet
            | Node::SetLit(_)
            | Node::Unknown(_, _) => id,
            Node::Singleton(t) => {
                let s = self.simplify_id(t);
                self.mk(Node::Singleton(s))
            }
            Node::Unary(UnOp::Not, t) => {
                let s = self.simplify_id(t);
                self.not_id(s)
            }
            Node::Unary(UnOp::Neg, t) => {
                let s = self.simplify_id(t);
                match self.as_int(s) {
                    Some(n) => self.int_id(-n),
                    None => self.mk(Node::Unary(UnOp::Neg, s)),
                }
            }
            Node::Mul(k, t) => {
                let s = self.simplify_id(t);
                self.times_id(s, k)
            }
            Node::Binary(op, a, b) => {
                let a = self.simplify_id(a);
                let b = self.simplify_id(b);
                self.simplify_binary_id(op, a, b)
            }
            Node::Ite(c, t, e) => {
                let c = self.simplify_id(c);
                let t = self.simplify_id(t);
                let e = self.simplify_id(e);
                if t == e {
                    t
                } else {
                    self.ite_id(c, t, e)
                }
            }
            Node::App(m, args) => {
                let args: Vec<TermId> = args.into_iter().map(|a| self.simplify_id(a)).collect();
                self.mk(Node::App(m, args))
            }
        };
        self.simplify_memo.insert(id, out);
        out
    }

    fn simplify_binary_id(&mut self, op: BinOp, a: TermId, b: TermId) -> TermId {
        use BinOp::*;
        match op {
            And => {
                let mut seen: HashSet<TermId> = HashSet::new();
                let mut kept: Vec<TermId> = Vec::new();
                let mut all = self.conjuncts_id(a);
                all.extend(self.conjuncts_id(b));
                for c in all {
                    if self.is_false(c) {
                        return self.ff_id();
                    }
                    if self.is_true(c) || !seen.insert(c) {
                        continue;
                    }
                    kept.push(c);
                }
                self.and_all_id(kept)
            }
            Or => {
                let mut seen: HashSet<TermId> = HashSet::new();
                let mut kept: Vec<TermId> = Vec::new();
                let mut all = self.disjuncts_id(a);
                all.extend(self.disjuncts_id(b));
                for d in all {
                    if self.is_true(d) {
                        return self.tt_id();
                    }
                    if self.is_false(d) || !seen.insert(d) {
                        continue;
                    }
                    kept.push(d);
                }
                self.or_all_id(kept)
            }
            Implies => self.implies_id(a, b),
            Iff => match (self.as_bool(a), self.as_bool(b)) {
                (Some(true), _) => b,
                (_, Some(true)) => a,
                (Some(false), _) => self.not_id(b),
                (_, Some(false)) => self.not_id(a),
                _ if a == b => self.tt_id(),
                _ => self.mk(Node::Binary(Iff, a, b)),
            },
            Add => self.add_id(a, b),
            Sub => {
                if a == b {
                    self.int_id(0)
                } else {
                    self.sub_id(a, b)
                }
            }
            Eq => match (self.node(a), self.node(b)) {
                (Node::Int(x), Node::Int(y)) => {
                    let v = x == y;
                    self.mk(Node::Bool(v))
                }
                (Node::Bool(x), Node::Bool(y)) => {
                    let v = x == y;
                    self.mk(Node::Bool(v))
                }
                _ if a == b => self.tt_id(),
                _ => self.mk(Node::Binary(Eq, a, b)),
            },
            Neq => match (self.node(a), self.node(b)) {
                (Node::Int(x), Node::Int(y)) => {
                    let v = x != y;
                    self.mk(Node::Bool(v))
                }
                _ if a == b => self.ff_id(),
                _ => self.mk(Node::Binary(Neq, a, b)),
            },
            Le => self.fold_cmp_id(Le, a, b, |x, y| x <= y),
            Lt => self.fold_cmp_id(Lt, a, b, |x, y| x < y),
            Ge => self.fold_cmp_id(Ge, a, b, |x, y| x >= y),
            Gt => self.fold_cmp_id(Gt, a, b, |x, y| x > y),
            Union => match (self.node(a), self.node(b)) {
                (Node::EmptySet, _) => b,
                (_, Node::EmptySet) => a,
                _ if a == b => a,
                _ => self.mk(Node::Binary(Union, a, b)),
            },
            Intersect => match (self.node(a), self.node(b)) {
                (Node::EmptySet, _) | (_, Node::EmptySet) => self.mk(Node::EmptySet),
                _ if a == b => a,
                _ => self.mk(Node::Binary(Intersect, a, b)),
            },
            Diff => match (self.node(a), self.node(b)) {
                (Node::EmptySet, _) => self.mk(Node::EmptySet),
                (_, Node::EmptySet) => a,
                _ if a == b => self.mk(Node::EmptySet),
                _ => self.mk(Node::Binary(Diff, a, b)),
            },
            Member => self.mk(Node::Binary(Member, a, b)),
            Subset => match self.node(a) {
                Node::EmptySet => self.tt_id(),
                _ if a == b => self.tt_id(),
                _ => self.mk(Node::Binary(Subset, a, b)),
            },
        }
    }

    fn fold_cmp_id(
        &mut self,
        op: BinOp,
        a: TermId,
        b: TermId,
        cmp: impl Fn(i64, i64) -> bool,
    ) -> TermId {
        match (self.as_int(a), self.as_int(b)) {
            (Some(x), Some(y)) => {
                let v = cmp(x, y);
                self.mk(Node::Bool(v))
            }
            _ => self.mk(Node::Binary(op, a, b)),
        }
    }

    /// Sort an interned term under an environment, memoized per
    /// (term, environment) pair; `env_key` must uniquely identify `env` within
    /// this arena's lifetime (callers typically use a fingerprint hash).
    ///
    /// # Errors
    ///
    /// As for [`SortingEnv::sort_of`].
    pub fn sort_of_id(
        &mut self,
        id: TermId,
        env: &SortingEnv,
        env_key: u64,
    ) -> Result<Sort, SortError> {
        if let Some(r) = self.sort_memo.get(&(id, env_key)) {
            self.memo_hits += 1;
            return r.clone();
        }
        self.memo_misses += 1;
        let out = env.sort_of(&self.term(id));
        self.sort_memo.insert((id, env_key), out.clone());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_gives_equal_ids_for_equal_terms() {
        let mut arena = TermArena::new();
        let t = Term::var("x").le(Term::var("y") + Term::int(1));
        let a = arena.intern(&t);
        let b = arena.intern(&t.clone());
        assert_eq!(a, b);
        let c = arena.intern(&Term::var("x").le(Term::var("y") + Term::int(2)));
        assert_ne!(a, c);
        // Shared subterms are stored once: x, y, 1, y+1, x ≤ y+1, 2, y+2,
        // x ≤ y+2 — eight nodes in total.
        assert_eq!(arena.len(), 8);
    }

    #[test]
    fn roundtrip_reconstructs_the_term() {
        let mut arena = TermArena::new();
        let t = Term::ite(
            Term::var("c"),
            Term::app("len", vec![Term::var("xs")]),
            Term::int(0),
        )
        .eq_(Term::unknown("U0").subst("x", &Term::var("q")));
        let id = arena.intern(&t);
        assert_eq!(arena.term(id), t);
    }

    #[test]
    fn cached_free_vars_match_the_tree_computation() {
        let mut arena = TermArena::new();
        let t = Term::var("x")
            .le(Term::var("y") + Term::int(1))
            .and(Term::unknown("U0").subst("p", &Term::var("q")));
        let id = arena.intern(&t);
        assert_eq!(*arena.free_vars(id), t.free_vars());
        assert!(arena.has_unknowns(id));
        assert!(arena.mentions(id, "q"));
        assert!(!arena.mentions(id, "p"));
    }

    #[test]
    fn simplify_id_agrees_with_tree_simplify_and_memoizes() {
        let mut arena = TermArena::new();
        let t = Term::var("x")
            .le(Term::int(2) + Term::int(3))
            .and(Term::tt())
            .or(Term::var("x").eq_(Term::var("x")).not());
        let id = arena.intern(&t);
        let s1 = arena.simplify_id(id);
        assert_eq!(arena.term(s1), t.simplify());
        let hits_before = arena.stats().memo_hits;
        let s2 = arena.simplify_id(id);
        assert_eq!(s1, s2);
        assert!(arena.stats().memo_hits > hits_before);
    }

    #[test]
    fn sort_of_id_is_memoized_per_environment() {
        let mut arena = TermArena::new();
        let mut env = SortingEnv::new();
        env.bind_var("x", Sort::Int);
        let id = arena.intern(&Term::var("x").le(Term::int(3)));
        assert_eq!(arena.sort_of_id(id, &env, 7), Ok(Sort::Bool));
        let hits = arena.stats().memo_hits;
        assert_eq!(arena.sort_of_id(id, &env, 7), Ok(Sort::Bool));
        assert!(arena.stats().memo_hits > hits);
    }
}
