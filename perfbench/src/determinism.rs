//! The determinism guard: the program's own counts and the program found
//! must repeat exactly between runs of one binary, whatever the goal order.
//!
//! Each run fingerprints every (goal, mode): candidates, skeletons, cache
//! misses and hits of the cold run, the same counters of the warm replay,
//! and a hash of the printed program. The first run of a binary on a
//! workload (and seed, for `gen`) stores the fingerprints under
//! `out/state/`; every later run compares against them. The rounds of an
//! untraced run alternate the unit order, and a traced run starts with the
//! opposite order to an untraced one, so order dependence shows.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::exec::UnitRun;

/// The fingerprint of one (goal, mode) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Cold run: candidates, skeletons, misses, hits, program hash.
    cold: [u64; 5],
    /// Warm replay: misses, hits, program hash (when the pass replayed).
    warm: Option<[u64; 3]>,
}

/// Fingerprints of a pass, keyed by run.
pub type Fingerprints = BTreeMap<String, Fingerprint>;

/// Fingerprint every goal run of a pass.
pub fn fingerprints(runs: &[UnitRun]) -> Fingerprints {
    let mut out = BTreeMap::new();
    for record in runs.iter().flat_map(|u| &u.goals) {
        out.insert(
            record.key.clone(),
            Fingerprint {
                cold: [
                    record.cold.candidates_checked as u64,
                    record.cold.skeletons as u64,
                    record.cold.solver_cache_misses,
                    record.cold.solver_cache_hits,
                    record.hash,
                ],
                warm: record.warm.as_ref().map(|w| {
                    [
                        w.stats.solver_cache_misses,
                        w.stats.solver_cache_hits,
                        w.hash,
                    ]
                }),
            },
        );
    }
    out
}

/// Differences between two sets of fingerprints. Warm counters are compared
/// only where both sides replayed.
pub fn differences(expected: &Fingerprints, actual: &Fingerprints) -> Vec<String> {
    let mut out = Vec::new();
    for (key, want) in expected {
        match actual.get(key) {
            None => out.push(format!("{key}: missing")),
            Some(got) if got.cold != want.cold => {
                out.push(format!("{key}: cold {:?} != {:?}", got.cold, want.cold))
            }
            Some(got) => {
                if let (Some(a), Some(b)) = (got.warm, want.warm) {
                    if a != b {
                        out.push(format!("{key}: warm {a:?} != {b:?}"));
                    }
                }
            }
        }
    }
    for key in actual.keys().filter(|k| !expected.contains_key(*k)) {
        out.push(format!("{key}: not in the earlier run"));
    }
    out
}

fn render(prints: &Fingerprints) -> String {
    let mut out = String::new();
    for (key, p) in prints {
        let _ = write!(out, "{key}");
        for v in p.cold {
            let _ = write!(out, "\t{v}");
        }
        if let Some(warm) = p.warm {
            for v in warm {
                let _ = write!(out, "\t{v}");
            }
        }
        out.push('\n');
    }
    out
}

fn parse(text: &str) -> Option<Fingerprints> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let mut fields = line.split('\t');
        let key = fields.next()?.to_string();
        let values: Vec<u64> = fields.map(|f| f.parse().ok()).collect::<Option<_>>()?;
        let cold: [u64; 5] = values.get(..5)?.try_into().ok()?;
        let warm = match values.len() {
            5 => None,
            8 => Some(values[5..].try_into().ok()?),
            _ => return None,
        };
        out.insert(key, Fingerprint { cold, warm });
    }
    Some(out)
}

/// FNV-1a of the running executable: the state of one binary is kept apart
/// from that of any other build.
pub fn binary_id() -> std::io::Result<String> {
    let bytes = std::fs::read(std::env::current_exe()?)?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(format!("{h:016x}"))
}

/// Where a binary's fingerprints for a workload (and seed) live.
pub fn state_path(out_dir: &Path, workload: &str, seed: Option<u64>, binary: &str) -> PathBuf {
    let name = match seed {
        Some(seed) => format!("{workload}-seed{seed}-{binary}.tsv"),
        None => format!("{workload}-{binary}.tsv"),
    };
    out_dir.join("state").join(name)
}

/// Compare with the fingerprints stored at `path`, or store these if there
/// are none yet. Returns the differences.
pub fn check_against(path: &Path, prints: &Fingerprints) -> std::io::Result<Vec<String>> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(match parse(&text) {
            Some(stored) => differences(&stored, prints),
            None => vec![format!("{} is unreadable", path.display())],
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(path, render(prints))?;
            Ok(Vec::new())
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn print(c: u64, warm: Option<[u64; 3]>) -> Fingerprint {
        Fingerprint {
            cold: [c, 2, 3, 4, 5],
            warm,
        }
    }

    #[test]
    fn fingerprints_round_trip_through_the_state_format() {
        let mut prints = Fingerprints::new();
        prints.insert("a/resyn".into(), print(1, None));
        prints.insert("b/synquid".into(), print(7, Some([0, 9, 5])));
        assert_eq!(parse(&render(&prints)), Some(prints));
    }

    #[test]
    fn changed_counts_and_keys_are_reported() {
        let mut a = Fingerprints::new();
        a.insert("x".into(), print(1, Some([0, 1, 2])));
        a.insert("y".into(), print(1, None));
        let mut b = a.clone();
        assert!(differences(&a, &b).is_empty());
        b.insert("x".into(), print(1, Some([0, 2, 2])));
        b.remove("y");
        b.insert("z".into(), print(1, None));
        assert_eq!(differences(&a, &b).len(), 3);
        // A pass without warm replays compares on the cold counters only.
        let mut c = a.clone();
        c.insert("x".into(), print(1, None));
        assert!(differences(&a, &c).is_empty());
    }
}
