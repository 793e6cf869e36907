//! Hash-consed term interning with memoized logic operations.
//!
//! A [`TermArena`] stores every distinct term exactly once and hands out
//! copyable [`TermId`] handles. Because interning is *hash-consing* — a node is
//! only allocated if no structurally equal node exists — two interned terms are
//! structurally equal **iff** their ids are equal, so equality and hashing are
//! O(1). A node is only its shape: interning computes nothing else. The
//! expensive logic passes — [`TermArena::simplify_id`] and
//! [`TermArena::sort_of_id`] — run as memoized traversals over node ids, so
//! shared subterms are processed once instead of once per occurrence.
//!
//! The arena is the substrate of the solver (`resyn-solver`): its query cache
//! interns every validity/satisfiability query, so structurally equal
//! constraints arriving from different candidate programs collapse to the
//! same ids for free, and a cache miss interns the query once into a fresh
//! arena and runs every preprocessing pass on its ids.
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
//!
//! // p ∧ (true ∧ p) simplifies to p, over ids.
//! let p = Term::var("p");
//! let t = arena.intern(&p.clone().and(Term::tt().and(p.clone())));
//! let s = arena.simplify_id(t);
//! assert_eq!(arena.term(s), p);
//! ```

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::conj::Conj;
use crate::fxhash::{FxHashMap, FxHashSet};

use crate::sort::{self, Sort, SortError, SortingEnv};
use crate::term::{BinOp, Term, UnOp};

/// A handle to an interned term. Copyable; equality and hashing are O(1) and
/// agree with structural equality of the underlying terms (within one arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The id's position in its arena: ids are handed out densely from 0,
    /// in interning order.
    pub fn index(self) -> usize {
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

impl Node {
    /// Call `f` on each child id, left to right (an unknown's children are
    /// the terms of its pending substitution).
    pub fn for_each_child(&self, mut f: impl FnMut(TermId)) {
        match self {
            Node::Var(_) | Node::Bool(_) | Node::Int(_) | Node::EmptySet | Node::SetLit(_) => {}
            Node::Singleton(t) | Node::Unary(_, t) | Node::Mul(_, t) => f(*t),
            Node::Binary(_, a, b) => {
                f(*a);
                f(*b);
            }
            Node::Ite(c, t, e) => {
                f(*c);
                f(*t);
                f(*e);
            }
            Node::App(_, args) => args.iter().copied().for_each(f),
            Node::Unknown(_, pending) => pending.iter().for_each(|(_, t)| f(*t)),
        }
    }
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

/// The identity of one arena, drawn fresh for every new or cloned arena: a
/// [`Conj`] memoizes the ids it was interned to under its arena's tag, and
/// an id is only meaningful in the arena that handed it out.
#[derive(Debug)]
struct ArenaTag(u64);

impl ArenaTag {
    fn fresh() -> ArenaTag {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        ArenaTag(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Default for ArenaTag {
    fn default() -> ArenaTag {
        ArenaTag::fresh()
    }
}

impl Clone for ArenaTag {
    fn clone(&self) -> ArenaTag {
        ArenaTag::fresh()
    }
}

/// The hash-consing interner.
#[derive(Debug, Clone, Default)]
pub struct TermArena {
    tag: ArenaTag,
    nodes: Vec<Node>,
    index: FxHashMap<Node, TermId>,
    simplify_memo: FxHashMap<TermId, TermId>,
    sort_memo: FxHashMap<(TermId, u64), Result<Sort, SortError>>,
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
        let id = TermId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        self.index.insert(node.clone(), id);
        self.nodes.push(node);
        id
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

    /// Intern the conjunction `conj` stands for: the id of
    /// `intern(&conj.to_term())`, with the same nodes created in the same
    /// order, since `Term::and_all` is a left fold whose spine interning
    /// visits fact by fact. Each link of `conj` memoizes the id of the
    /// conjunction up to it for the first arena that interns it, so a later
    /// call on that arena interns only the facts pushed since; a link
    /// memoized for another arena is interned again on every call here. A
    /// conjunction holding `false`
    /// interns `false` alone, as `Term::and_all` absorbs the rest.
    pub fn intern_conj(&mut self, conj: &Conj) -> TermId {
        if conj.is_false() {
            return self.ff_id();
        }
        // Walk back to the newest prefix this arena memoized, then fold the
        // facts after it in oldest-first, as `Term::and_all` does.
        let tag = self.tag.0;
        let mut acc = None;
        let mut pending = Vec::new();
        for link in conj.links() {
            if let Some(id) = link.spine(tag) {
                acc = Some(id);
                break;
            }
            pending.push(link);
        }
        for link in pending.into_iter().rev() {
            let fact = self.intern(link.fact());
            let id = match acc {
                None => fact,
                Some(prefix) => self.and_id(prefix, fact),
            };
            link.memoize(tag, id);
            acc = Some(id);
        }
        acc.unwrap_or_else(|| self.tt_id())
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
    // Queries
    // ----------------------------------------------------------------- //

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
        let mut out = Vec::new();
        self.push_spine(BinOp::And, id, &mut out);
        out
    }

    /// Append the operands of the `op` spine rooted at `id` (`And` or `Or`)
    /// to `out`, left to right, skipping the spine's unit (`true` for `And`,
    /// `false` for `Or`).
    fn push_spine(&self, op: BinOp, id: TermId, out: &mut Vec<TermId>) {
        match self.node(id) {
            Node::Bool(b) if *b == (op == BinOp::And) => {}
            Node::Binary(o, a, b) if *o == op => {
                let (a, b) = (*a, *b);
                self.push_spine(op, a, out);
                self.push_spine(op, b, out);
            }
            _ => out.push(id),
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
            // A conjunction/disjunction spine is flattened once, from its
            // root, as `Term::simplify` does: simplifying every inner spine
            // node would re-flatten and re-deduplicate its whole subtree,
            // quadratic in the length of the premise-heavy solver queries.
            Node::Binary(op @ (BinOp::And | BinOp::Or), _, _) => {
                let mut operands = Vec::new();
                self.push_spine(op, id, &mut operands);
                self.simplify_spine_id(op, operands)
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

    /// Simplify an `And`/`Or` spine given its unsimplified operands,
    /// mirroring the tree `simplify_and`/`simplify_or`: each operand is
    /// simplified, spines that exposes are flattened, units and repeats are
    /// dropped, and an absorbing literal short-circuits.
    fn simplify_spine_id(&mut self, op: BinOp, operands: Vec<TermId>) -> TermId {
        let and = op == BinOp::And;
        let mut seen: FxHashSet<TermId> = FxHashSet::default();
        let mut kept: Vec<TermId> = Vec::new();
        let mut flat = Vec::new();
        for operand in operands {
            let s = self.simplify_id(operand);
            flat.clear();
            self.push_spine(op, s, &mut flat);
            for &x in &flat {
                match self.as_bool(x) {
                    Some(b) if b != and => return self.mk(Node::Bool(b)),
                    Some(_) => continue,
                    None => {}
                }
                if seen.insert(x) {
                    kept.push(x);
                }
            }
        }
        if and {
            self.and_all_id(kept)
        } else {
            self.or_all_id(kept)
        }
    }

    fn simplify_binary_id(&mut self, op: BinOp, a: TermId, b: TermId) -> TermId {
        use BinOp::*;
        match op {
            And | Or => unreachable!("spines are simplified from their root"),
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

    /// Sort an interned term under an environment, mirroring
    /// [`SortingEnv::sort_of`], memoized per (term, environment) pair;
    /// `env_key` must uniquely identify `env` within this arena's lifetime
    /// (callers typically use a fingerprint hash or a per-stage constant).
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
        let out = self.sort_uncached(id, env, env_key);
        self.sort_memo.insert((id, env_key), out.clone());
        out
    }

    /// Record `sort` as the sort of `id` under `env_key`, as if the
    /// environment behind that key bound it. The solver binds its alias
    /// variables this way instead of extending a copy of the caller's
    /// environment; it must do so before any term mentioning them is sorted
    /// under that key.
    pub fn assume_sort(&mut self, id: TermId, env_key: u64, sort: Sort) {
        self.sort_memo.insert((id, env_key), Ok(sort));
    }

    /// Check that an interned term has the expected sort, mirroring
    /// [`SortingEnv::check`].
    fn check_id(
        &mut self,
        id: TermId,
        expected: &Sort,
        env: &SortingEnv,
        env_key: u64,
    ) -> Result<(), SortError> {
        let found = self.sort_of_id(id, env, env_key)?;
        if sort::compatible(&found, expected) {
            Ok(())
        } else {
            Err(self.mismatch(id, expected.clone(), found))
        }
    }

    fn mismatch(&self, id: TermId, expected: Sort, found: Sort) -> SortError {
        SortError::Mismatch {
            term: self.term(id).to_string(),
            expected,
            found,
        }
    }

    fn sort_uncached(
        &mut self,
        id: TermId,
        env: &SortingEnv,
        env_key: u64,
    ) -> Result<Sort, SortError> {
        match self.node(id) {
            Node::Var(x) => env
                .var_sort(x)
                .cloned()
                .ok_or_else(|| SortError::UnboundVariable(x.clone())),
            Node::Bool(_) => Ok(Sort::Bool),
            Node::Int(_) => Ok(Sort::Int),
            Node::EmptySet | Node::SetLit(_) => Ok(Sort::Set),
            &Node::Singleton(t) => {
                // Elements may be of any non-boolean scalar sort.
                let s = self.sort_of_id(t, env, env_key)?;
                if s == Sort::Bool || s == Sort::Set {
                    return Err(self.mismatch(t, Sort::Int, s));
                }
                Ok(Sort::Set)
            }
            &Node::Unary(UnOp::Not, t) => {
                self.check_id(t, &Sort::Bool, env, env_key)?;
                Ok(Sort::Bool)
            }
            &Node::Unary(UnOp::Neg, t) | &Node::Mul(_, t) => {
                self.check_id(t, &Sort::Int, env, env_key)?;
                Ok(Sort::Int)
            }
            &Node::Binary(op, a, b) => self.sort_of_binary_id(op, a, b, env, env_key),
            &Node::Ite(c, t, e) => {
                self.check_id(c, &Sort::Bool, env, env_key)?;
                let st = self.sort_of_id(t, env, env_key)?;
                self.check_id(e, &st, env, env_key)?;
                Ok(st)
            }
            Node::App(m, args) => {
                let sig = env
                    .measure_sig(m)
                    .ok_or_else(|| SortError::UnknownMeasure(m.clone()))?;
                if sig.args.len() != args.len() {
                    return Err(SortError::Arity {
                        measure: m.clone(),
                        expected: sig.args.len(),
                        found: args.len(),
                    });
                }
                let result = sig.result.clone();
                for (arg, expected) in args.clone().into_iter().zip(&sig.args) {
                    // Uninterpreted argument sorts accept any scalar sort
                    // (they stand for polymorphic element positions).
                    if matches!(expected, Sort::Uninterp(_)) {
                        self.sort_of_id(arg, env, env_key)?;
                    } else {
                        self.check_id(arg, expected, env, env_key)?;
                    }
                }
                Ok(result)
            }
            Node::Unknown(u, pending) => {
                let u = u.clone();
                for t in pending.iter().map(|(_, t)| *t).collect::<Vec<_>>() {
                    self.sort_of_id(t, env, env_key)?;
                }
                env.unknown_sort(&u)
                    .cloned()
                    .ok_or(SortError::UndeclaredUnknown(u))
            }
        }
    }

    fn sort_of_binary_id(
        &mut self,
        op: BinOp,
        a: TermId,
        b: TermId,
        env: &SortingEnv,
        env_key: u64,
    ) -> Result<Sort, SortError> {
        use BinOp::*;
        let (operand, result) = match op {
            And | Or | Implies | Iff => (Sort::Bool, Sort::Bool),
            Add | Sub => (Sort::Int, Sort::Int),
            Union | Intersect | Diff => (Sort::Set, Sort::Set),
            Subset => (Sort::Set, Sort::Bool),
            Le | Lt | Ge | Gt => {
                // Comparisons are permitted on Int and on uninterpreted
                // sorts (see `SortingEnv::sort_of`).
                let sa = self.sort_of_id(a, env, env_key)?;
                if !matches!(sa, Sort::Int | Sort::Uninterp(_)) {
                    return Err(self.mismatch(a, Sort::Int, sa));
                }
                self.check_id(b, &sa, env, env_key)?;
                return Ok(Sort::Bool);
            }
            Eq | Neq => {
                let sa = self.sort_of_id(a, env, env_key)?;
                self.check_id(b, &sa, env, env_key)?;
                return Ok(Sort::Bool);
            }
            Member => {
                let sa = self.sort_of_id(a, env, env_key)?;
                if sa == Sort::Bool || sa == Sort::Set {
                    return Err(self.mismatch(a, Sort::Int, sa));
                }
                self.check_id(b, &Sort::Set, env, env_key)?;
                return Ok(Sort::Bool);
            }
        };
        self.check_id(a, &operand, env, env_key)?;
        self.check_id(b, &operand, env, env_key)?;
        Ok(result)
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
