//! Property tests: every generated problem survives a round trip through
//! the surface renderer and the parser unchanged.
//!
//! This is the generator's core well-formedness contract — `resyn gen`
//! output must mean to the parser exactly what the [`ProblemSpec`] meant to
//! the generator, or the differential fuzzer would be testing a different
//! problem than the one it reports and shrinks.

use proptest::prelude::*;

use crate::rng::SplitMix64;
use crate::spec::generate;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn rendered_specs_round_trip_through_the_parser(
        seed in 0i64..i64::MAX,
        size in 1usize..9,
    ) {
        let spec = generate(&mut SplitMix64::from_seed(seed as u64), size);
        let direct = spec.problem();
        let reparsed = resyn_parse::parse_problem(&spec.render())
            .expect("every generated problem must parse");
        prop_assert_eq!(&reparsed.components, &direct.components);
        prop_assert_eq!(&reparsed.goals, &direct.goals);
        prop_assert_eq!(reparsed.metric, direct.metric);
    }

    /// Reachability soundness against the templates' known reference
    /// solutions: the analysis must keep every component a goal's template
    /// *requires* (i.e. that its golden program calls), for every generated
    /// problem. No synthesis needed — required components are
    /// known statically.
    #[test]
    fn pruning_never_drops_a_template_required_component(
        seed in 0i64..i64::MAX,
        size in 1usize..9,
    ) {
        let spec = generate(&mut SplitMix64::from_seed(seed as u64), size);
        let problem = spec.problem();
        let datatypes = resyn_ty::datatypes::Datatypes::standard();
        for (goal_spec, goal) in spec.goals.iter().zip(problem.into_goals()) {
            let report =
                resyn_analysis::analyze(&goal.schema, &goal.components, &datatypes);
            for required in goal_spec.template.required_components() {
                prop_assert!(
                    report.is_kept(required.name()),
                    "goal `{}` ({:?}): analysis dropped required `{}`: {:?}",
                    goal.name,
                    goal_spec.template,
                    required.name(),
                    report.dropped
                );
            }
        }
    }
}
