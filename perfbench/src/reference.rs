//! A fixed reference workload that measures the host's speed.
//!
//! On a shared host the machine itself slows down and speeds up, by 20-60 %
//! over minutes and between two speeds within seconds, which no amount of
//! repetition inside one run removes. The benchmark therefore runs a short,
//! fixed chunk of work before and after every timed step (the chunk after
//! one step is the chunk before the next) and scales the step's time by
//! `NOMINAL_S / mean(the two chunk times)`: a time is reported as it would
//! read on a host where one chunk takes `NOMINAL_S`. Scaling each step by
//! the chunks next to it follows the host's speed at the time of the step;
//! one factor for a whole run did not, when the speed changed within it.
//!
//! The chunk uses only the standard library (hash maps of small vectors, a
//! B-tree of short strings, a boxed binary tree), so the program under test
//! cannot make it faster or slower; it has the synthesizer's profile of
//! small allocations and pointer-heavy lookups, so it slows down in the
//! same phases. Raw times are printed beside the scaled ones.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The chunk time that scaled times refer to: about one chunk's time on a
/// quiet 2-vCPU host.
pub const NOMINAL_S: f64 = 0.0055;

enum Tree {
    Leaf,
    Node(Box<Tree>, u64, Box<Tree>),
}

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn grow(depth: u32, x: &mut u64) -> Tree {
    if depth == 0 {
        return Tree::Leaf;
    }
    let left = Box::new(grow(depth - 1, x));
    let value = next(x);
    Tree::Node(left, value, Box::new(grow(depth - 1, x)))
}

fn fold(tree: &Tree) -> u64 {
    match tree {
        Tree::Leaf => 1,
        Tree::Node(l, v, r) => fold(l).wrapping_add(v % 7).wrapping_add(fold(r)),
    }
}

/// Run one chunk and return its wall time in seconds.
pub fn chunk() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    for i in 0..20_000u64 {
        let r = next(&mut x);
        buckets.entry(r % 5_000).or_default().push(i);
        names.insert(r % 50_000, format!("v{i}"));
    }
    let mut acc = 0u64;
    for i in 0..20_000u64 {
        if let Some(v) = buckets.get(&(i % 5_000)) {
            acc = acc.wrapping_add(v.len() as u64);
        }
    }
    acc = acc.wrapping_add(names.range(100..20_000).count() as u64);
    acc = acc.wrapping_add(fold(&grow(14, &mut x)));
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Reference chunks around a sequence of timed steps.
#[derive(Debug)]
pub struct Bracket {
    before: f64,
}

impl Bracket {
    /// Run the chunk before the first step.
    pub fn open() -> Bracket {
        Bracket { before: chunk() }
    }

    /// Run the chunk after a step; return the mean of the chunks before
    /// and after it, the step's reference time.
    pub fn close(&mut self) -> f64 {
        let after = chunk();
        let mean = (self.before + after) / 2.0;
        self.before = after;
        mean
    }
}

/// The factor that turns a raw time measured next to reference chunks of
/// mean time `ref_s` into a time at the nominal host speed.
pub fn scale(ref_s: f64) -> f64 {
    NOMINAL_S / ref_s
}
