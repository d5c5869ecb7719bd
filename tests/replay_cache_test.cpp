// The replay cache (diag/replay_cache.hpp): firing index and snapshot
// correctness, verdict equivalence with the legacy full replay, and — the
// load-bearing contract — production diagnose()/run_campaign() results
// identical to the reference pipeline run with the cache on and off, on the
// paper example and across random systems.
#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.hpp"

namespace cfsmdiag {
namespace {

using testing_helpers::expect_step6_matches_reference;
using testing_helpers::expect_steps_match_reference;
using testing_helpers::run_reference_steps;

struct paper_fixture {
    paperex::paper_example ex;
    symptom_report report;

    static paper_fixture make() {
        paper_fixture fx{paperex::make_paper_example(), {}};
        simulated_iut iut(fx.ex.spec, fx.ex.fault);
        fx.report = collect_symptoms(fx.ex.spec, fx.ex.suite, iut);
        return fx;
    }
};

/// First step of `trace` whose fired list contains `t`, if any.
std::optional<std::size_t> first_fired_step(
    const std::vector<trace_step>& trace, global_transition_id t) {
    for (std::size_t step = 0; step < trace.size(); ++step) {
        for (global_transition_id g : trace[step].fired) {
            if (g == t) return step;
        }
    }
    return std::nullopt;
}

TEST(replay_cache, firing_index_matches_spec_trace) {
    const auto fx = paper_fixture::make();
    const spec_context ctx(fx.ex.spec, fx.ex.suite);
    const replay_cache cache = ctx.make_replay_cache(fx.report);
    ASSERT_EQ(cache.case_count(), fx.ex.suite.cases.size());

    for (std::size_t ci = 0; ci < fx.ex.suite.cases.size(); ++ci) {
        const auto trace =
            explain(fx.ex.spec, fx.ex.suite.cases[ci].inputs);
        for (global_transition_id t : fx.ex.spec.all_transitions()) {
            SCOPED_TRACE("case " + std::to_string(ci) + ", " +
                         fx.ex.spec.transition_label(t));
            EXPECT_EQ(cache.first_firing(ci, t), first_fired_step(trace, t));
        }
    }
}

TEST(replay_cache, snapshot_restore_reproduces_spec_suffix) {
    const auto fx = paper_fixture::make();
    const spec_context ctx(fx.ex.spec, fx.ex.suite);
    const replay_cache cache = ctx.make_replay_cache(fx.report);

    simulator sim(fx.ex.spec);
    for (std::size_t ci = 0; ci < fx.ex.suite.cases.size(); ++ci) {
        const auto& inputs = fx.ex.suite.cases[ci].inputs;
        const auto trace = explain(fx.ex.spec, inputs);
        for (global_transition_id t : fx.ex.spec.all_transitions()) {
            const auto f = cache.first_firing(ci, t);
            if (!f) continue;
            SCOPED_TRACE("case " + std::to_string(ci) + ", " +
                         fx.ex.spec.transition_label(t));
            // Restoring the snapshot and replaying the suffix on the plain
            // spec must reproduce the expected outputs exactly.
            sim.set_state(cache.snapshot(ci, t));
            for (std::size_t step = *f; step < inputs.size(); ++step)
                EXPECT_EQ(sim.apply(inputs[step]), trace[step].expected);
        }
    }
}

TEST(replay_cache, verdict_equals_legacy_for_every_enumerated_fault) {
    const auto fx = paper_fixture::make();
    const spec_context ctx(fx.ex.spec, fx.ex.suite);
    const replay_cache cache = ctx.make_replay_cache(fx.report);

    for (const auto& fault : enumerate_all_faults(fx.ex.spec)) {
        const transition_override ov = fault.to_override();
        SCOPED_TRACE(describe(fx.ex.spec, fault));
        EXPECT_EQ(cache.consistent(ov),
                  hypothesis_consistent(fx.ex.spec, fx.ex.suite, fx.report,
                                        ov, nullptr));
    }
}

TEST(replay_cache, multi_override_verdict_equals_full_replay) {
    const auto fx = paper_fixture::make();
    const spec_context ctx(fx.ex.spec, fx.ex.suite);
    const replay_cache cache = ctx.make_replay_cache(fx.report);
    const auto faults = enumerate_all_faults(fx.ex.spec);

    // Pair faults on distinct transitions; compare against a plain
    // full-suite replay of the pair.
    std::size_t checked = 0;
    for (std::size_t i = 0; i < faults.size() && checked < 400; i += 7) {
        for (std::size_t j = i + 1; j < faults.size() && checked < 400;
             j += 11) {
            if (faults[i].target == faults[j].target) continue;
            const std::vector<transition_override> ovs{
                faults[i].to_override(), faults[j].to_override()};
            bool legacy = true;
            simulator sim(fx.ex.spec, ovs);
            for (std::size_t ci = 0;
                 legacy && ci < fx.ex.suite.cases.size(); ++ci) {
                const auto& inputs = fx.ex.suite.cases[ci].inputs;
                const auto& observed = fx.report.runs[ci].observed;
                sim.reset();
                for (std::size_t step = 0; step < inputs.size(); ++step) {
                    if (sim.apply(inputs[step]) != observed[step]) {
                        legacy = false;
                        break;
                    }
                }
            }
            SCOPED_TRACE(describe(fx.ex.spec, faults[i]) + " + " +
                         describe(fx.ex.spec, faults[j]));
            EXPECT_EQ(cache.consistent(ovs), legacy);
            ++checked;
        }
    }
    ASSERT_GT(checked, 0u);
}

TEST(sequence_replay, predict_and_matches_equal_plain_observe) {
    const auto fx = paper_fixture::make();
    const auto faults = enumerate_all_faults(fx.ex.spec);

    for (const auto& tc : fx.ex.suite.cases) {
        const sequence_replay rep(fx.ex.spec, tc.inputs);
        for (std::size_t i = 0; i < faults.size(); i += 3) {
            const transition_override ov = faults[i].to_override();
            const auto plain = observe(fx.ex.spec, tc.inputs, ov);
            SCOPED_TRACE(describe(fx.ex.spec, faults[i]));
            EXPECT_EQ(rep.predict(ov), plain);
            EXPECT_TRUE(rep.matches(ov, plain));
            // And against the *spec* observations (disagreeing whenever the
            // fault is visible on this case).
            const auto spec_obs = observe(fx.ex.spec, tc.inputs);
            EXPECT_EQ(rep.matches(ov, spec_obs), plain == spec_obs);
        }
    }
}

// Production diagnose() against the reference pipeline: Steps 4-5C with
// the replay cache on and off (conflict/candidate sets, Step 5B-5C result,
// replay counts) and Step 6 replayed through an engine-less tracker whose
// sequence_replay verdicts are checked against plain simulation.

TEST(replay_cache, diagnose_identical_with_cache_on_and_off_paper) {
    const auto ex = paperex::make_paper_example();
    const spec_context ctx(ex.spec, ex.suite);
    for (const auto& fault : enumerate_all_faults(ex.spec)) {
        SCOPED_TRACE(describe(ex.spec, fault));
        const auto result = expect_steps_match_reference(ctx, fault);
        expect_step6_matches_reference(ex.spec, result);
    }
}

TEST(replay_cache, diagnose_identical_both_evaluation_modes) {
    const auto ex = paperex::make_paper_example();
    const spec_context ctx(ex.spec, ex.suite);
    for (const auto mode : {evaluation_mode::paper_flag_routing,
                            evaluation_mode::complete}) {
        diagnoser_options options;
        options.evaluation = mode;
        const auto result = expect_steps_match_reference(ctx, ex.fault,
                                                         options);
        ASSERT_FALSE(result.initial_diagnoses.empty());
        expect_step6_matches_reference(ex.spec, result, options);
    }
}

TEST(replay_cache, randomized_diagnose_equivalence_20_systems) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        rng random(seed);
        random_system_options opts;
        opts.machines = 2;
        opts.states_per_machine = 3;
        opts.extra_transitions = 4;
        const system sys = random_system(opts, random);
        test_suite suite = transition_tour(sys).suite;
        rng walk(seed + 1000);
        suite.extend(random_walk_suite(
            sys, walk, {.cases = 2, .steps_per_case = 8}));
        const spec_context ctx(sys, suite);

        auto faults = enumerate_all_faults(sys);
        // Every 5th fault keeps the test fast while covering output,
        // transfer and both-fault kinds across all machines.
        for (std::size_t i = 0; i < faults.size(); i += 5) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                         describe(sys, faults[i]));
            const auto result = expect_steps_match_reference(ctx, faults[i]);
            expect_step6_matches_reference(sys, result);
        }
    }
}

TEST(replay_cache, campaign_entries_identical_with_cache_on_and_off) {
    rng random(42);
    random_system_options opts;
    opts.machines = 2;
    opts.states_per_machine = 3;
    opts.extra_transitions = 5;
    const system sys = random_system(opts, random);
    const test_suite suite = transition_tour(sys).suite;
    auto faults = enumerate_all_faults(sys);
    if (faults.size() > 40) faults.resize(40);

    const spec_context ctx(sys, suite);
    campaign_engine engine(ctx, faults, {});
    const campaign_stats& a = engine.run();
    ASSERT_EQ(a.entries.size(), faults.size());

    // Each entry's replay count and initial diagnoses equal the reference
    // Step 5B's with the cache on and off; the cache saves simulation.
    std::size_t cached_steps = 0;
    std::size_t uncached_steps = 0;
    for (const campaign_entry& entry : a.entries) {
        SCOPED_TRACE(describe(sys, entry.fault));
        if (!entry.detected) continue;
        simulated_iut iut(sys, entry.fault);
        const symptom_report report = collect_symptoms(sys, suite, iut);
        const replay_cache cache = ctx.make_replay_cache(report);
        std::size_t steps = cost_record.simulated_steps;
        const auto on = run_reference_steps(sys, suite, report, {}, &cache);
        cached_steps += cost_record.simulated_steps - steps;
        steps = cost_record.simulated_steps;
        const auto off = run_reference_steps(sys, suite, report, {}, nullptr);
        uncached_steps += cost_record.simulated_steps - steps;
        EXPECT_EQ(entry.replays, on.replays);
        EXPECT_EQ(entry.replays, off.replays);
        EXPECT_EQ(entry.initial_diagnoses, on.initial_diagnoses.size());
        EXPECT_EQ(entry.initial_diagnoses, off.initial_diagnoses.size());
    }
    // The cache must actually engage (and save simulation work) on any
    // campaign with detected faults.
    if (a.detected > 0) {
        EXPECT_GT(engine.metrics().cache_case_skips +
                      engine.metrics().cache_suffix_replays,
                  0u);
        EXPECT_LT(cached_steps, uncached_steps);
    }
}

TEST(replay_cache, multi_fault_diagnosis_identical_with_cache_on_and_off) {
    const auto ex = paperex::make_paper_example();
    // The paper's transfer fault plus a second fault on another transition.
    const auto all = enumerate_all_faults(ex.spec);
    const auto second =
        std::find_if(all.begin(), all.end(),
                     [&](const single_transition_fault& f) {
                         return f.target != ex.fault.target;
                     });
    ASSERT_NE(second, all.end());
    const fault_set fs{{ex.fault, *second}};

    multi_fault_options options;
    options.max_hypotheses = 3000;
    options.max_additional_tests = 10;
    simulated_multi_iut iut(ex.spec, fs);
    const auto a = diagnose_multi(ex.spec, ex.suite, iut, options);
    ASSERT_GT(a.initial_hypotheses, 0u);

    // The cached consistency filter against plain from-reset replays: every
    // survivor reproduces the suite observations and every applied test.
    simulated_multi_iut truth(ex.spec, fs);
    const symptom_report report = collect_symptoms(ex.spec, ex.suite, truth);
    for (const fault_set& h : a.final_hypotheses) {
        SCOPED_TRACE(describe(ex.spec, h));
        const auto ovs = h.to_overrides();
        for (std::size_t ci = 0; ci < ex.suite.cases.size(); ++ci) {
            EXPECT_EQ(observe_multi(ex.spec, ex.suite.cases[ci].inputs, ovs),
                      report.runs[ci].observed);
        }
        for (const auto& rec : a.additional_tests)
            EXPECT_EQ(observe_multi(ex.spec, rec.tc.inputs, ovs),
                      rec.observed);
    }
    // Every test came from a splitting sequence, so it refuted at least one
    // of the two hypotheses it separates.
    for (const auto& rec : a.additional_tests) EXPECT_GT(rec.eliminated, 0u);
}

TEST(replay_cache, step_counter_is_monotone_and_counted_per_apply) {
    const auto ex = paperex::make_paper_example();
    const std::size_t before = cost_record.simulated_steps;
    simulator sim(ex.spec);
    sim.reset();
    (void)sim.apply(ex.suite.cases[0].inputs[0]);
    (void)sim.apply(ex.suite.cases[0].inputs[1]);
    EXPECT_EQ(cost_record.simulated_steps, before + 2);
}

TEST(replay_cache, rejects_out_of_range_override) {
    const auto fx = paper_fixture::make();
    const spec_context ctx(fx.ex.spec, fx.ex.suite);
    const replay_cache cache = ctx.make_replay_cache(fx.report);
    transition_override bad;
    bad.target = {machine_id{99}, transition_id{0}};
    bad.output = symbol{};
    EXPECT_THROW((void)cache.consistent(bad), error);
}

}  // namespace
}  // namespace cfsmdiag
