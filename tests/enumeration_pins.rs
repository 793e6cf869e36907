//! Pins the search space: the skeletons `skeleton::generate` builds and the
//! E-terms `enumerate::eterms` offers each of their holes, in order.
//!
//! The synthesizer returns the first candidate that checks, so enumeration
//! order decides which program comes back and how many candidates are
//! checked before it. Every goal of both paper tables and of
//! `examples/problems/*.re` is enumerated exactly as the synthesizer does it
//! (standard datatypes, the synthesizer's E-term cap, an unlimited budget),
//! and three numbers are pinned per goal: the skeleton count, the E-term
//! count summed over every hole of every skeleton, and a 64-bit FNV-1a hash
//! of the `Debug` text of the skeleton list followed by, for each hole in
//! order, the hash of the `Debug` text of its E-term list. E-term lists are
//! computed once per distinct hole scope.
//!
//! A refactor of the generators must leave this table unchanged; a change
//! that means to alter the search updates the table in the same commit and
//! says why.

use std::collections::HashMap;
use std::fmt::Write as _;

use resyn::budget::Budget;
use resyn::eval::suite;
use resyn::parse::parse_problem;
use resyn::synth::skeleton::{self, Shape};
use resyn::synth::{enumerate, Goal, Synthesizer};

/// `(goal, skeletons, E-terms over all holes, FNV-1a hash)`.
const PINS: &[(&str, usize, usize, u64)] = &[
    ("list-is-empty", 3, 32, 0xf798aeed80d4fb55),
    ("list-member", 2191, 5631077, 0x73357ded3db60306),
    ("list-replicate", 13, 14125, 0xfe2a7e6e8ce84e1c),
    ("list-append", 6, 3435, 0x5424e7b5f84b2e50),
    ("list-delete", 2191, 3948605, 0x833331f7e275ca9f),
    ("list-snoc", 3, 1389, 0x351a47831f5fe0e5),
    ("list-take", 553, 1020569, 0x49fb15b104994094),
    ("list-drop", 553, 1020569, 0xa7021c7164c9c8db),
    ("list-id", 3, 350, 0xb9e25bf6a0a6913a),
    ("list-singleton", 1, 55, 0x87f557d682a9e654),
    ("list-nonempty", 3, 32, 0x4ba219a097d65194),
    ("list-length", 3, 100, 0x1c71b6c310d3069e),
    ("list-head", 3, 24, 0x3df7b62d5499f485),
    ("list-double", 3, 862, 0x40a16d0871833da9),
    ("sorted-member", 2191, 5631077, 0xd8d6096e592c2f8b),
    ("sorted-singleton", 1, 55, 0x635ff28dc7bb55a8),
    ("sorted-insert", 553, 980981, 0x88e24be44b7bd989),
    ("sorted-delete", 2191, 3948605, 0xcb76364ed326b205),
    ("list-tail", 3, 350, 0xc90edf90bade23b5),
    ("list-cons", 3, 1389, 0x11186d3891880fd4),
    ("list-pair", 1, 485, 0xa882d4546880d31e),
    ("list-append3", 8, 12000, 0x6e017e70dd8e4fbb),
    ("list-stutter", 3, 350, 0x371fff71ce84a36c),
    ("sorted-is-empty", 3, 32, 0x20ef5975dd7946b5),
    ("sorted-head", 3, 24, 0x9c8726f8cc6d582b),
    ("sorted-tail", 3, 350, 0xf9dad0d4d1727dec),
    ("sslist-singleton", 1, 55, 0x74c627eed23c8ab5),
    ("sslist-insert", 4917, 8904261, 0xb005a5ec14322b48),
    ("sslist-delete", 2191, 3948605, 0xc205239b25deba46),
    ("clist-singleton", 1, 55, 0x3df3d2e6eff77725),
    ("unique-insert", 2191, 3948605, 0x131c6bc431e466dc),
    ("list-compress", 727, 200218, 0x0a843338066fbfb0),
    ("tree-member", 954, 2263386, 0x2ec116df70f222f3),
    ("tree-id", 4, 542, 0xaa544d6ad148d57b),
    ("tree-singleton", 1, 10, 0x99d54bda75bc61f1),
    ("tree-is-empty", 4, 64, 0xc4f84ffaebcf3437),
    ("tree-flatten", 4, 759, 0x56d146e7a7dcd6bd),
    ("tree-count", 4, 1451, 0x430d1b29fbf85323),
    ("insertion-sort", 3, 244, 0x0599a93055dd2c2b),
    ("cs1-triple", 3, 862, 0x09ab514d7db4db1a),
    ("cs2-triple-slow", 3, 862, 0xd8f9e668694e2a2d),
    ("cs7-insert", 553, 980981, 0x88e24be44b7bd989),
    ("cs9-insert-fine", 553, 980981, 0x88e24be44b7bd989),
    ("cs10-replicate", 13, 14125, 0xfe2a7e6e8ce84e1c),
    ("cs11-take", 553, 1020569, 0x49fb15b104994094),
    ("cs12-drop", 553, 1020569, 0xa7021c7164c9c8db),
    ("cs13-range", 13, 15000, 0x94dcad27ff42080c),
    ("cs16-compare", 6, 960, 0xe61ed87dfd08433f),
    ("cs15-ct-compare", 6, 960, 0xe61ed87dfd08433f),
    ("append.re:append", 6, 3435, 0x5424e7b5f84b2e50),
    ("compare.re:compare", 6, 960, 0xe61ed87dfd08433f),
    ("range.re:range", 13, 15000, 0x94dcad27ff42080c),
    ("sorted_insert.re:insert", 553, 980981, 0x88e24be44b7bd989),
    (
        "wide_components.re:hard_wide",
        18162,
        55837800,
        0xbafca41d0e9ba5b3,
    ),
];

/// 64-bit FNV-1a, fed through `fmt::Write` so `Debug` text is hashed as it
/// is formatted.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Enumerate `goal`'s search space as the synthesizer does and reduce it to
/// `(skeletons, E-terms over all holes, hash)`.
fn fingerprint(goal: &Goal, synth: &Synthesizer) -> (usize, usize, u64) {
    let budget = Budget::unlimited();
    let (params, ret_ty) = goal.schema.ty.uncurry();
    let param_shapes: Vec<(String, Shape)> = params
        .iter()
        .filter_map(|(n, t, _)| Shape::of(t).map(|s| (n.clone(), s)))
        .collect();
    let Some(ret_shape) = Shape::of(&ret_ty) else {
        return (0, 0, Fnv::new().0);
    };
    let guard_fn = |scope: &[(String, Shape)]| enumerate::guards(goal, scope, &budget);
    let skeletons = skeleton::generate(&param_shapes, &synth.datatypes, &guard_fn, &budget);

    let mut hash = Fnv::new();
    write!(hash, "{skeletons:?}").unwrap();
    let mut lists: HashMap<String, (usize, u64)> = HashMap::new();
    let mut eterms = 0;
    for skel in &skeletons {
        for hole in &skel.holes {
            let mut scope = param_shapes.clone();
            scope.extend(hole.binders.iter().cloned());
            let (len, list_hash) = *lists.entry(format!("{scope:?}")).or_insert_with(|| {
                let terms = enumerate::eterms(
                    goal,
                    &synth.datatypes,
                    &scope,
                    &ret_shape,
                    synth.eterm_cap,
                    &budget,
                );
                let mut h = Fnv::new();
                write!(h, "{terms:?}").unwrap();
                (terms.len(), h.0)
            });
            eterms += len;
            write!(hash, "{list_hash:016x}").unwrap();
        }
    }
    (skeletons.len(), eterms, hash.0)
}

/// Every goal of Table 1, Table 2 and `examples/problems/*.re`, named by
/// benchmark id or by `file:goal`.
fn goals() -> Vec<(String, Goal)> {
    let mut out: Vec<(String, Goal)> = suite::table1()
        .into_iter()
        .chain(suite::table2())
        .map(|b| (b.id, b.goal))
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/problems");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/problems is readable")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "re"))
        .collect();
    files.sort();
    for path in files {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("a readable problem file");
        let problem = parse_problem(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        for goal in problem.into_goals() {
            out.push((format!("{file}:{}", goal.name), goal));
        }
    }
    out
}

#[test]
fn enumeration_order_is_pinned_for_every_suite_and_example_goal() {
    let synth = Synthesizer::new();
    let mut table = String::new();
    for (name, goal) in goals() {
        let (skeletons, eterms, hash) = fingerprint(&goal, &synth);
        writeln!(
            table,
            "    (\"{name}\", {skeletons}, {eterms}, 0x{hash:016x}),"
        )
        .unwrap();
    }
    let mut pinned = String::new();
    for (name, skeletons, eterms, hash) in PINS {
        writeln!(
            pinned,
            "    (\"{name}\", {skeletons}, {eterms}, 0x{hash:016x}),"
        )
        .unwrap();
    }
    assert!(
        table == pinned,
        "the enumeration differs from the pinned table; the table now reads:\n{table}"
    );
}
