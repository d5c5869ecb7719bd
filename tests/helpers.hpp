// Shared fixtures for the unit tests: a small two-machine system,
// shortcuts for building inputs/observations, and the reference-pipeline
// checks that production diagnoses are compared against.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "cfsmdiag.hpp"

namespace cfsmdiag {

/// gtest printer: a failed cost-record comparison shows every field.
inline void PrintTo(const cost_counters& c, std::ostream* os) {
    *os << "{replays " << c.replays << ", simulated_steps "
        << c.simulated_steps << ", cache_case_skips " << c.cache_case_skips
        << ", cache_suffix_replays " << c.cache_suffix_replays
        << ", discrim_joint_states " << c.discrim_joint_states
        << ", discrim_memo_hits " << c.discrim_memo_hits
        << ", discrim_memo_misses " << c.discrim_memo_misses
        << ", discrim_table_answers " << c.discrim_table_answers
        << ", discrim_bfs_searches " << c.discrim_bfs_searches << "}";
}

}  // namespace cfsmdiag

namespace cfsmdiag::testing_helpers {

/// Two machines, fully hand-checkable:
///   A (port 1, states p0 p1):
///     a1 p0 -x/ok→ p1        a2 p1 -x/ok2→ p0
///     a3 p0 -send/msg1⇒B → p0   a4 p1 -send/msg2⇒B → p1
///   B (port 2, states q0 q1):
///     b1 q0 -msg1/r1→ q1     b2 q0 -msg2/r2→ q0
///     b3 q1 -msg1/r2→ q0     b4 q1 -msg2/r1→ q1
///     b5 q0 -y/r1→ q1
inline system make_pair_system() {
    symbol_table symbols;
    const machine_id b{1};
    fsm_builder ba("A", symbols);
    ba.external("a1", "p0", "x", "ok", "p1");
    ba.external("a2", "p1", "x", "ok2", "p0");
    ba.internal("a3", "p0", "send", "msg1", "p0", b);
    ba.internal("a4", "p1", "send", "msg2", "p1", b);
    fsm_builder bb("B", symbols);
    bb.external("b1", "q0", "msg1", "r1", "q1");
    bb.external("b2", "q0", "msg2", "r2", "q0");
    bb.external("b3", "q1", "msg1", "r2", "q0");
    bb.external("b4", "q1", "msg2", "r1", "q1");
    bb.external("b5", "q0", "y", "r1", "q1");
    std::vector<fsm> machines;
    machines.push_back(ba.build("p0"));
    machines.push_back(bb.build("q0"));
    return system("pair", std::move(symbols), std::move(machines));
}

/// Input at a port by spelling.
inline global_input in(const system& sys, std::uint32_t port_1based,
                       const std::string& sym) {
    return global_input::at(machine_id{port_1based - 1},
                            sys.symbols().lookup(sym));
}

/// Expected observation at a port by spelling.
inline observation at(const system& sys, std::uint32_t port_1based,
                      const std::string& sym) {
    return observation::at(machine_id{port_1based - 1},
                           sys.symbols().lookup(sym));
}

/// Finds a transition id by display name.
inline global_transition_id tid(const system& sys, std::uint32_t machine,
                                const std::string& name) {
    const machine_id m{machine};
    const fsm& f = sys.machine(m);
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(f.transitions().size()); ++i) {
        if (f.transitions()[i].name == name) return {m, transition_id{i}};
    }
    throw error("tid: no transition named " + name);
}

/// Renders observations compactly for EXPECT_EQ diffs.
inline std::string render(const system& sys,
                          const std::vector<observation>& obs) {
    std::vector<std::string> cells;
    for (const auto& o : obs) cells.push_back(to_string(o, sys.symbols()));
    return join(cells, ", ");
}

// --- the reference pipeline, called directly ------------------------------
//
// Production diagnose() runs Steps 4-5C on the compiled core and Step 6
// through the context's discrimination engine.  The reference
// implementations below (std::set conflict/candidate sets,
// hypothesis_consistent replays with or without a replay_cache, the
// engine-less hypothesis_tracker and the reference joint search) must
// reproduce every production result exactly.

/// The reference Steps 4-5C for one symptom report, as diagnose() sequences
/// them (including the flag-routed pass's escalation when it finds
/// nothing), with the hypothesis replays Step 5B cost.  `cache` null means
/// plain from-reset simulation.
struct reference_steps {
    conflict_sets conflicts;
    candidate_sets candidates;
    diagnostic_candidates evaluated;
    std::vector<diagnosis> initial_diagnoses;
    std::size_t replays = 0;
};

inline reference_steps run_reference_steps(const system& spec,
                                           const test_suite& suite,
                                           const symptom_report& report,
                                           const diagnoser_options& options,
                                           const replay_cache* cache) {
    reference_steps out;
    out.conflicts = generate_conflict_sets(spec, report);
    out.candidates = generate_candidates(spec, report, out.conflicts);
    const std::size_t base = cost_record.replays;
    const auto full = [&] {
        return evaluate_candidates_escalated(
            spec, suite, report, out.candidates,
            options.include_addressing_faults, cache);
    };
    if (options.evaluation == evaluation_mode::complete) {
        out.evaluated = full();
    } else {
        out.evaluated =
            evaluate_candidates(spec, suite, report, out.candidates, cache);
        if (out.evaluated.diagnoses().empty() && options.escalate_if_empty)
            out.evaluated = full();
    }
    out.initial_diagnoses = out.evaluated.diagnoses();
    out.replays = cost_record.replays - base;
    return out;
}

/// Field-wise equality of two Step 5B-5C results.
inline void expect_same_evaluation(const diagnostic_candidates& a,
                                   const diagnostic_candidates& b) {
    ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
    for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
        const evaluated_candidate& x = a.evaluated[i];
        const evaluated_candidate& y = b.evaluated[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.end_states, y.end_states);
        EXPECT_EQ(x.outputs, y.outputs);
        EXPECT_EQ(x.statout, y.statout);
        EXPECT_EQ(x.destinations, y.destinations);
        EXPECT_EQ(x.is_ust, y.is_ust);
    }
    EXPECT_EQ(a.dctr, b.dctr);
    EXPECT_EQ(a.dcco, b.dcco);
    EXPECT_EQ(a.ust, b.ust);
}

/// One fault through production diagnose() and through the reference
/// Steps 4-5C with the replay cache on and off: identical conflict sets,
/// candidate sets, Step 5B-5C result, initial diagnoses and replay count.
/// Returns the production result.
inline diagnosis_result expect_steps_match_reference(
    const spec_context& ctx, const single_transition_fault& fault,
    const diagnoser_options& options = {}) {
    const system& spec = ctx.spec();
    simulated_iut iut(spec, fault);
    const std::size_t base = cost_record.replays;
    diagnosis_result result = diagnose(ctx, iut, options);
    const std::size_t replays = cost_record.replays - base;
    if (!result.symptoms.has_symptoms()) return result;

    const replay_cache cache = ctx.make_replay_cache(result.symptoms);
    for (const replay_cache* c : {&cache, static_cast<const replay_cache*>(
                                              nullptr)}) {
        SCOPED_TRACE(c ? "replay cache on" : "replay cache off");
        const reference_steps ref = run_reference_steps(
            spec, ctx.suite(), result.symptoms, options, c);
        EXPECT_EQ(result.conflicts.per_machine, ref.conflicts.per_machine);
        EXPECT_EQ(result.candidates.itc, ref.candidates.itc);
        EXPECT_EQ(result.candidates.ftc_tr, ref.candidates.ftc_tr);
        EXPECT_EQ(result.candidates.ftc_co, ref.candidates.ftc_co);
        EXPECT_EQ(result.candidates.ust, ref.candidates.ust);
        EXPECT_EQ(result.initial_diagnoses, ref.initial_diagnoses);
        // Step 6's mid-loop escalation re-evaluates (and replays again).
        if (!result.used_escalation ||
            options.evaluation == evaluation_mode::complete) {
            expect_same_evaluation(result.evaluated, ref.evaluated);
            EXPECT_EQ(replays, ref.replays);
        }
    }
    return result;
}

/// True when two live hypotheses predict different observations, by plain
/// simulation (hypothesis_tracker::predict).
inline bool predicted_split(const hypothesis_tracker& tracker,
                            const std::vector<global_input>& inputs) {
    for (std::size_t i = 1; i < tracker.count(); ++i) {
        if (tracker.predict(i, inputs) != tracker.predict(0, inputs))
            return true;
    }
    return false;
}

/// Replays a production diagnosis's Step 6 through the reference
/// implementation: an engine-less tracker whose splits()/apply_result()
/// verdicts are checked against plain predict() simulation, the structured
/// proposals re-derived by propose_structured_tests, and every fallback
/// test recomputed by the reference joint search splitting_sequence(spec,
/// ...).  The reference path must not touch the discrimination engine.
/// Runs whose flag-routed evaluation escalated mid-loop restart Step 6 and
/// are not replayed.
inline void expect_step6_matches_reference(
    const system& spec, const diagnosis_result& result,
    const diagnoser_options& options = {}) {
    if (result.initial_diagnoses.empty()) return;
    if (result.used_escalation &&
        options.evaluation == evaluation_mode::paper_flag_routing)
        return;
    const cost_counters before = cost_record;
    const auto reference_split = [&](const hypothesis_tracker& t) {
        std::vector<std::vector<transition_override>> hyps;
        for (const diagnosis& d : t.alive()) hyps.push_back({d.to_override()});
        const auto seq =
            splitting_sequence(spec, hyps, options.max_joint_states);
        EXPECT_EQ(t.find_splitting_sequence(options.max_joint_states), seq);
        return seq;
    };
    const auto first_structured = [&](const hypothesis_tracker& t)
        -> std::optional<proposed_test> {
        if (!options.structured_step6) return std::nullopt;
        for (const proposed_test& p :
             propose_structured_tests(spec, t, options.step6)) {
            if (t.splits(p.tc.inputs)) return p;
        }
        return std::nullopt;
    };

    hypothesis_tracker tracker(spec, result.initial_diagnoses);
    for (const additional_test_record& rec : result.additional_tests) {
        ASSERT_FALSE(rec.quarantined);
        const std::vector<global_input>& inputs = rec.tc.inputs;
        const auto structured = first_structured(tracker);
        if (rec.from_fallback) {
            EXPECT_FALSE(structured.has_value());
            const auto seq = reference_split(tracker);
            ASSERT_TRUE(seq.has_value());
            EXPECT_EQ(test_case::from_inputs(rec.tc.name, *seq).inputs,
                      inputs);
        } else {
            ASSERT_TRUE(structured.has_value());
            EXPECT_EQ(structured->tc.inputs, inputs);
            EXPECT_EQ(structured->purpose, rec.purpose);
        }
        EXPECT_TRUE(tracker.splits(inputs));
        EXPECT_TRUE(predicted_split(tracker, inputs));
        std::vector<diagnosis> survivors;
        for (std::size_t i = 0; i < tracker.count(); ++i) {
            if (tracker.predict(i, inputs) == rec.observed)
                survivors.push_back(tracker.alive()[i]);
        }
        EXPECT_EQ(tracker.apply_result(inputs, rec.observed),
                  rec.eliminated);
        EXPECT_EQ(tracker.alive(), survivors);
    }
    EXPECT_EQ(tracker.alive(), result.final_diagnoses);
    // The loop stopped because nothing splits the survivors any more.
    if (tracker.count() > 1 &&
        result.additional_tests.size() < options.max_additional_tests) {
        EXPECT_FALSE(first_structured(tracker).has_value());
        if (options.fallback_search) {
            EXPECT_FALSE(reference_split(tracker).has_value());
        }
    }
    // The verdict on the survivors agrees with the reference search.
    if (tracker.count() == 1) {
        EXPECT_EQ(result.outcome, diagnosis_outcome::localized);
    } else if (tracker.count() > 1) {
        EXPECT_EQ(result.outcome ==
                      diagnosis_outcome::localized_up_to_equivalence,
                  !reference_split(tracker).has_value());
    }
    // Apart from replay work, the reference path spent nothing.
    cost_counters spent = cost_record - before;
    spent.replays = spent.simulated_steps = 0;
    spent.cache_case_skips = spent.cache_suffix_replays = 0;
    EXPECT_EQ(spent, cost_counters{});
}

}  // namespace cfsmdiag::testing_helpers
