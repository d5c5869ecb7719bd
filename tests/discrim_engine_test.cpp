// The flat discrimination engine (diag/discrim_engine.hpp): result identity
// with the reference joint search — per splitting-sequence call (memo miss
// and hit) and through the full diagnose()/run_campaign() pipeline, whose
// Step 6 is replayed through an engine-less tracker — across cold and warm
// contexts at jobs 1 and 2, hypothesis sets on both sides of the splitting
// tables' size cap, the property that every returned sequence actually
// splits its hypothesis set, error parity on malformed overrides,
// determinism of the engine's counters at any job count, a memo compute
// that throws, and the flat transfer search and structured proposals
// against the reference global_transfer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "helpers.hpp"

namespace cfsmdiag {
namespace {

using testing_helpers::expect_step6_matches_reference;

/// Engine vs reference search, including thrown error parity, for one
/// hypothesis set and cap.  The second, identical call is served by the
/// memo (when the first did not throw).
void expect_engine_matches_reference(
    const cfsmdiag::system& spec, const discrim_engine& engine,
    const std::vector<std::vector<transition_override>>& hyps,
    std::size_t cap) {
    std::optional<std::vector<global_input>> ref;
    bool ref_threw = false;
    std::string ref_msg;
    try {
        ref = splitting_sequence(spec, hyps, cap);
    } catch (const error& e) {
        ref_threw = true;
        ref_msg = e.what();
    }
    for (const bool second_call : {false, true}) {
        SCOPED_TRACE("cap " + std::to_string(cap) + ", call " +
                     std::to_string(1 + second_call));
        const std::size_t hits = cost_record.discrim_memo_hits;
        std::optional<std::vector<global_input>> flat;
        bool flat_threw = false;
        std::string flat_msg;
        try {
            flat = engine.splitting_sequence(hyps, cap);
        } catch (const error& e) {
            flat_threw = true;
            flat_msg = e.what();
        }
        ASSERT_EQ(ref_threw, flat_threw);
        if (ref_threw) {
            EXPECT_EQ(ref_msg, flat_msg);
        } else {
            EXPECT_EQ(ref, flat);
            if (second_call && hyps.size() >= 2) {
                EXPECT_EQ(cost_record.discrim_memo_hits, hits + 1);
            }
        }
    }
}

/// The engine's flat transfer search against the reference
/// global_transfer_to_machine_state from reset: the same result or error
/// text, and the same cost (simulated steps only).  Returns the flat result.
std::optional<std::vector<global_input>> expect_transfer_matches_reference(
    const cfsmdiag::system& spec, const discrim_engine& engine, machine_id m,
    state_id s, const global_search_options& options) {
    std::optional<std::vector<global_input>> ref;
    std::optional<std::vector<global_input>> flat;
    std::string ref_msg;
    std::string flat_msg;
    const cost_counters before = cost_record;
    try {
        ref = global_transfer_to_machine_state(
            spec, initial_global_state(spec), m, s, options);
    } catch (const error& e) {
        ref_msg = e.what();
    }
    const cost_counters ref_spent = cost_record - before;
    const cost_counters mid = cost_record;
    try {
        flat = engine.transfer_from_reset(m, s, options);
    } catch (const error& e) {
        flat_msg = e.what();
    }
    EXPECT_EQ(cost_record - mid, ref_spent);
    EXPECT_EQ(flat, ref);
    EXPECT_EQ(flat_msg, ref_msg);
    return flat;
}

/// Single-override hypothesis per enumerated fault, plus the unmutated
/// spec.
std::vector<std::vector<transition_override>> fault_hypotheses(
    const cfsmdiag::system& spec) {
    std::vector<std::vector<transition_override>> all;
    for (const auto& f : enumerate_all_faults(spec))
        all.push_back({f.to_override()});
    all.push_back({});
    return all;
}

TEST(discrim_engine, splitting_sequence_identity_paper) {
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    const spec_context ctx(ex.spec, suite);
    const auto all = fault_hypotheses(ex.spec);

    for (std::size_t i = 0; i < all.size(); i += 3) {
        for (std::size_t j = i + 1; j < all.size(); j += 5 + (i % 3)) {
            SCOPED_TRACE("pair " + std::to_string(i) + "," +
                         std::to_string(j));
            const std::vector<std::vector<transition_override>> hyps{
                all[i], all[j]};
            for (const std::size_t cap :
                 {std::size_t{100'000}, std::size_t{7}})
                expect_engine_matches_reference(ex.spec, ctx.discrim(),
                                                hyps, cap);
        }
    }
    // Larger sets exercise the k-way joint space.
    for (std::size_t i = 0; i + 4 < all.size(); i += 7) {
        SCOPED_TRACE("triple from " + std::to_string(i));
        const std::vector<std::vector<transition_override>> hyps{
            all[i], all[i + 2], all[i + 4]};
        expect_engine_matches_reference(ex.spec, ctx.discrim(), hyps,
                                        100'000);
    }
}

TEST(discrim_engine, splitting_sequence_identity_random_20_systems) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        rng random(seed);
        random_system_options opts;
        opts.machines = 2;
        opts.states_per_machine = 3;
        opts.extra_transitions = 4;
        const cfsmdiag::system sys = random_system(opts, random);
        const test_suite suite = transition_tour(sys).suite;
        const spec_context ctx(sys, suite);
        const auto all = fault_hypotheses(sys);

        for (std::size_t i = 0; i < all.size(); i += 4) {
            for (std::size_t j = i + 1; j < all.size(); j += 6) {
                SCOPED_TRACE("seed " + std::to_string(seed) + ", pair " +
                             std::to_string(i) + "," + std::to_string(j));
                const std::vector<std::vector<transition_override>> hyps{
                    all[i], all[j]};
                expect_engine_matches_reference(sys, ctx.discrim(), hyps,
                                                100'000);
            }
        }
        for (std::size_t i = 0; i + 6 < all.size(); i += 9) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", triple from " +
                         std::to_string(i));
            const std::vector<std::vector<transition_override>> hyps{
                all[i], all[i + 3], all[i + 6]};
            expect_engine_matches_reference(sys, ctx.discrim(), hyps,
                                            100'000);
        }
    }
}

TEST(discrim_engine, splitting_sequence_identity_at_pair_k_cap_boundary) {
    // k = 4, 8 and 16 hypotheses are partitioned by the splitting tables
    // (16 is their cap); 17 is searched without them.  Each k runs at a cap
    // above and a cap below the joint bound S^k, so both the pruned and the
    // unpruned BFS run.  Per k: two windows of distinct hypotheses; k copies
    // of one hypothesis, which no input sequence can split; k - 1 copies of
    // one plus another, once sorted first and once last; and k copies of a
    // hypothesis whose step throws (an internal transition made to send ε),
    // which equal copies must not hide.
    std::vector<cfsmdiag::system> systems;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        rng random(seed);
        random_system_options opts;
        opts.machines = 2;
        opts.states_per_machine = 3;
        opts.extra_transitions = 4;
        systems.push_back(random_system(opts, random));
    }
    systems.push_back(models::sliding_window(4));

    const cost_counters before = cost_record;
    for (const cfsmdiag::system& sys : systems) {
        const test_suite suite = transition_tour(sys).suite;
        const spec_context ctx(sys, suite);
        ASSERT_TRUE(ctx.discrim().flat_search_available());
        const auto all = fault_hypotheses(sys);
        ASSERT_GE(all.size(), 4u);
        std::vector<transition_override> thrower;
        for (std::uint32_t m = 0; m < sys.machine_count() && thrower.empty();
             ++m) {
            const auto& ts = sys.machine(machine_id{m}).transitions();
            for (std::uint32_t t = 0; t < ts.size(); ++t) {
                if (ts[t].kind != output_kind::internal) continue;
                thrower.push_back({global_transition_id{machine_id{m},
                                                        transition_id{t}},
                                   symbol::epsilon()});
                break;
            }
        }
        ASSERT_FALSE(thrower.empty());
        for (const std::size_t k : {std::size_t{4}, std::size_t{8},
                                    std::size_t{16}, std::size_t{17}}) {
            std::vector<std::vector<std::vector<transition_override>>> sets;
            if (all.size() >= k) {
                sets.emplace_back(all.begin(), all.begin() + k);
                sets.emplace_back(all.end() - k, all.end());
            }
            sets.emplace_back(k, all[all.size() / 2]);
            for (const auto& [copied, other] :
                 {std::pair{all[1], all[all.size() - 2]},
                  std::pair{all[all.size() - 2], all[1]}}) {
                sets.emplace_back(k - 1, copied);
                sets.back().push_back(other);
            }
            sets.emplace_back(k, thrower);
            for (std::size_t s = 0; s < sets.size(); ++s) {
                SCOPED_TRACE(sys.name() + ", k " + std::to_string(k) +
                             ", set " + std::to_string(s));
                for (const std::size_t cap :
                     {std::size_t{100'000}, std::size_t{50}})
                    expect_engine_matches_reference(sys, ctx.discrim(),
                                                    sets[s], cap);
            }
        }
    }
    const cost_counters spent = cost_record - before;
    EXPECT_GT(spent.discrim_table_answers, 0u);
    EXPECT_GT(spent.discrim_bfs_searches, 0u);
}

TEST(discrim_engine, returned_sequences_actually_split) {
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    const spec_context ctx(ex.spec, suite);
    const auto all = fault_hypotheses(ex.spec);

    std::size_t sequences = 0;
    for (std::size_t i = 0; i < all.size(); i += 2) {
        for (std::size_t j = i + 1; j < all.size(); j += 4) {
            const std::vector<std::vector<transition_override>> hyps{
                all[i], all[j]};
            const auto seq =
                ctx.discrim().splitting_sequence(hyps, 100'000);
            if (!seq) continue;
            ++sequences;
            SCOPED_TRACE("pair " + std::to_string(i) + "," +
                         std::to_string(j));
            // A returned sequence must produce at least two distinct
            // predictions among the hypotheses (here: exactly two, so
            // they must disagree).
            std::vector<std::vector<observation>> predicted;
            for (const auto& ovs : hyps) {
                simulator sim(ex.spec, ovs);
                std::vector<observation> obs;
                for (const global_input& in : *seq)
                    obs.push_back(sim.apply(in));
                predicted.push_back(std::move(obs));
            }
            EXPECT_NE(predicted[0], predicted[1]);
        }
    }
    // The paper example has plenty of distinguishable fault pairs; if no
    // sequence came back the test checked nothing.
    EXPECT_GT(sequences, 10u);
}

TEST(discrim_engine, diagnose_identical_flat_vs_reference_paper) {
    // Every production Step 6 (engine-backed) replayed through the
    // reference: same structured proposals, same fallback sequences as
    // splitting_sequence(spec, ...), same survivors — and the reference
    // path never touches the engine.
    const auto ex = paperex::make_paper_example();
    const spec_context ctx(ex.spec, ex.suite);
    std::size_t fallbacks = 0;
    for (const auto& fault : enumerate_all_faults(ex.spec)) {
        SCOPED_TRACE(describe(ex.spec, fault));
        simulated_iut iut(ex.spec, fault);
        const auto result = diagnose(ctx, iut);
        expect_step6_matches_reference(ex.spec, result);
        fallbacks += result.used_fallback_search;
    }
    // Structured-only campaigns would leave the joint search unchecked.
    diagnoser_options search_only;
    search_only.structured_step6 = false;
    for (const auto& fault : enumerate_all_faults(ex.spec)) {
        SCOPED_TRACE("fallback search only, " + describe(ex.spec, fault));
        simulated_iut iut(ex.spec, fault);
        const auto result = diagnose(ctx, iut, search_only);
        expect_step6_matches_reference(ex.spec, result, search_only);
        fallbacks += result.used_fallback_search;
    }
    EXPECT_GT(fallbacks, 0u);
}

TEST(discrim_engine, campaign_entries_identical_across_all_configurations) {
    // {cold context, warm context (memo hits instead of searches)} x
    // {jobs 1, 2}: byte-identical entries.
    rng random(42);
    random_system_options opts;
    opts.machines = 2;
    opts.states_per_machine = 3;
    opts.extra_transitions = 5;
    const cfsmdiag::system sys = random_system(opts, random);
    const test_suite suite = transition_tour(sys).suite;
    auto faults = enumerate_all_faults(sys);
    if (faults.size() > 40) faults.resize(40);

    campaign_engine baseline_engine(sys, suite, faults, {});
    const auto baseline = baseline_engine.run().entries;

    const spec_context warm(sys, suite);
    for (const bool shared : {false, true}) {
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
            campaign_options o;
            o.jobs = jobs;
            std::optional<campaign_engine> e;
            if (shared)
                e.emplace(warm, faults, o);
            else
                e.emplace(sys, suite, faults, o);
            const auto& entries = e->run().entries;
            ASSERT_EQ(entries.size(), baseline.size());
            for (std::size_t i = 0; i < entries.size(); ++i) {
                SCOPED_TRACE("shared context " + std::to_string(shared) +
                             ", jobs " + std::to_string(jobs) +
                             ", fault #" + std::to_string(i) + ": " +
                             describe(sys, entries[i].fault));
                EXPECT_EQ(entries[i], baseline[i]);
            }
            if (shared && jobs == 2) {
                // The second run on the warm context searches nothing new.
                EXPECT_EQ(e->metrics().discrim_memo_misses, 0u);
                EXPECT_EQ(e->metrics().discrim_bfs_searches, 0u);
            }
        }
    }
}

TEST(discrim_engine, memo_counters_deterministic_across_jobs) {
    // Fresh context per run: every engine cache computes each key once
    // (outside its lock; a caller of an in-flight key waits for it), so the
    // whole cost record — replays, simulated steps and replay-cache
    // counters included — depends only on the workload, not on the worker
    // interleaving.  sliding_window(4) is small enough for the splitting
    // tables, so their builds are part of the totals.  rtos_round_robin(4)
    // runs no joint search: its Step 6 is all structured proposals and
    // spec replays, whose steps are part of the totals.
    const auto ex = paperex::make_paper_example();
    auto paper_faults = enumerate_all_faults(ex.spec);
    if (paper_faults.size() > 60) paper_faults.resize(60);
    const cfsmdiag::system window = models::sliding_window(4);
    const cfsmdiag::system rtos = models::rtos_round_robin(4);

    struct workload {
        const cfsmdiag::system* spec;
        std::vector<single_transition_fault> faults;
    };
    const workload workloads[] = {
        {&ex.spec, paper_faults},
        {&window, enumerate_all_faults(window)},
        {&rtos, enumerate_all_faults(rtos)}};
    for (const workload& w : workloads) {
        SCOPED_TRACE(w.spec->name());
        const test_suite suite = transition_tour(*w.spec).suite;
        cost_counters first;
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            campaign_options o;
            o.jobs = jobs;
            campaign_engine e(*w.spec, suite, w.faults, o);
            (void)e.run();
            const campaign_metrics& m = e.metrics();
            if (jobs == 1) {
                first = m;
                if (w.spec == &rtos) {
                    // Proposals and replays only: no joint search at all.
                    EXPECT_EQ(m.discrim_memo_hits + m.discrim_memo_misses,
                              0u);
                    EXPECT_GT(m.additional_tests, 0u);
                } else {
                    EXPECT_GT(m.discrim_memo_hits + m.discrim_memo_misses,
                              0u);
                    EXPECT_GT(m.discrim_bfs_searches, 0u);
                }
                continue;
            }
            EXPECT_EQ(static_cast<const cost_counters&>(m), first);
        }
        if (w.spec == &window) {
            EXPECT_GT(first.discrim_table_answers, 0u);
        }
    }
}

TEST(discrim_engine, memo_compute_that_throws_stays_retryable) {
    // A query whose compute runs out of budget is not cached: the same
    // query without a budget then counts a miss, computes, and returns the
    // reference answer; only the call after that is a hit.
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    const spec_context ctx(ex.spec, suite);
    const auto all = fault_hypotheses(ex.spec);
    run_budget starved;
    starved.with_step_quota(0);  // the joint BFS's first poll throws

    bool threw = false;
    for (std::size_t i = 0; i < all.size() && !threw; ++i) {
        for (std::size_t j = i + 1; j < all.size() && !threw; ++j) {
            const std::vector<std::vector<transition_override>> hyps{
                all[i], all[j]};
            const cost_counters before = cost_record;
            try {
                const budget_scope scope(&starved);
                (void)ctx.discrim().splitting_sequence(hyps, 100'000);
            } catch (const resource_exhausted&) {
                threw = true;
            }
            // Answered without a joint BFS (and cached): try the next pair.
            if (!threw) continue;
            SCOPED_TRACE("pair " + std::to_string(i) + "," +
                         std::to_string(j));
            EXPECT_EQ((cost_record - before).discrim_memo_misses, 1u);
            EXPECT_EQ((cost_record - before).discrim_memo_hits, 0u);

            const auto ref = splitting_sequence(ex.spec, hyps, 100'000);
            const cost_counters retry_base = cost_record;
            EXPECT_EQ(ctx.discrim().splitting_sequence(hyps, 100'000), ref);
            const cost_counters retry = cost_record - retry_base;
            EXPECT_EQ(retry.discrim_memo_misses, 1u);
            EXPECT_EQ(retry.discrim_memo_hits, 0u);
            EXPECT_EQ(retry.discrim_bfs_searches, 1u);

            const cost_counters hit_base = cost_record;
            EXPECT_EQ(ctx.discrim().splitting_sequence(hyps, 100'000), ref);
            const cost_counters hit = cost_record - hit_base;
            EXPECT_EQ(hit.discrim_memo_misses, 0u);
            EXPECT_EQ(hit.discrim_memo_hits, 1u);
        }
    }
    EXPECT_TRUE(threw) << "no query reached the budgeted joint BFS";
}

TEST(discrim_engine, transfer_search_identity_with_reference) {
    // Every (machine, state) goal, plus one state the machine does not
    // have; avoid sets empty, each single transition and each machine's
    // whole transition set; visited caps 1, 2, 3 and the default.
    std::vector<cfsmdiag::system> systems;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        rng random(seed);
        random_system_options opts;
        opts.machines = 2;
        opts.states_per_machine = 3;
        opts.extra_transitions = 4;
        systems.push_back(random_system(opts, random));
    }
    systems.push_back(models::sliding_window(4));
    systems.push_back(models::rtos_round_robin(3));
    systems.push_back(models::token_ring3());

    std::size_t found = 0;
    std::size_t blocked = 0;
    for (const cfsmdiag::system& sys : systems) {
        const test_suite suite = transition_tour(sys).suite;
        const spec_context ctx(sys, suite);
        ASSERT_TRUE(ctx.compiled().packable);
        std::vector<std::vector<global_transition_id>> avoid_sets{{}};
        for (const global_transition_id& t : sys.all_transitions())
            avoid_sets.push_back({t});
        for (std::uint32_t mi = 0; mi < sys.machine_count(); ++mi) {
            std::vector<global_transition_id> whole;
            for (const global_transition_id& t : sys.all_transitions())
                if (t.machine.value == mi) whole.push_back(t);
            avoid_sets.push_back(std::move(whole));
        }
        for (std::uint32_t mi = 0; mi < sys.machine_count(); ++mi) {
            const machine_id m{mi};
            const auto states =
                static_cast<std::uint32_t>(sys.machine(m).state_count());
            for (std::uint32_t s = 0; s <= states; ++s) {
                for (std::size_t a = 0; a < avoid_sets.size(); ++a) {
                    for (const std::size_t cap :
                         {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          global_search_options{}.max_states}) {
                        SCOPED_TRACE(sys.name() + ", machine " +
                                     std::to_string(mi) + ", state " +
                                     std::to_string(s) + ", avoid set " +
                                     std::to_string(a) + ", cap " +
                                     std::to_string(cap));
                        global_search_options o;
                        o.avoid = avoid_sets[a];
                        o.max_states = cap;
                        const auto seq = expect_transfer_matches_reference(
                            sys, ctx.discrim(), m, state_id{s}, o);
                        if (seq && !seq->empty()) ++found;
                        if (!seq && s < states) ++blocked;
                    }
                }
            }
        }
    }
    // Both outcomes occur, so the comparisons above checked both.
    EXPECT_GT(found, 0u);
    EXPECT_GT(blocked, 0u);
}

TEST(discrim_engine, structured_proposals_identity_over_campaign_live_sets) {
    // Every live set Step 6 holds in a Figure-1 and an rtos_round_robin(3)
    // campaign: the initial diagnoses, then the survivors of each applied
    // test.  The engine's proposals (flat transfer search) equal the
    // reference derivation (global_transfer).
    const auto ex = paperex::make_paper_example();
    const cfsmdiag::system rtos = models::rtos_round_robin(3);
    const test_suite rtos_suite = transition_tour(rtos).suite;
    struct workload {
        const cfsmdiag::system* spec;
        const test_suite* suite;
    };
    for (const workload& w :
         {workload{&ex.spec, &ex.suite}, workload{&rtos, &rtos_suite}}) {
        SCOPED_TRACE(w.spec->name());
        const spec_context ctx(*w.spec, *w.suite);
        ASSERT_TRUE(ctx.compiled().packable);
        std::size_t live_sets = 0;
        std::size_t proposals = 0;
        for (const auto& fault : enumerate_all_faults(*w.spec)) {
            SCOPED_TRACE(describe(*w.spec, fault));
            simulated_iut iut(*w.spec, fault);
            const auto result = diagnose(ctx, iut);
            hypothesis_tracker tracker(*w.spec, result.initial_diagnoses);
            for (std::size_t i = 0;; ++i) {
                if (tracker.count() >= 2) {
                    ++live_sets;
                    const auto flat =
                        ctx.discrim().structured_proposals(tracker, {});
                    const auto ref =
                        propose_structured_tests(*w.spec, tracker, {});
                    ASSERT_EQ(flat->size(), ref.size());
                    for (std::size_t p = 0; p < ref.size(); ++p) {
                        EXPECT_EQ((*flat)[p].tc.name, ref[p].tc.name);
                        EXPECT_EQ((*flat)[p].tc.inputs, ref[p].tc.inputs);
                        EXPECT_EQ((*flat)[p].suspect, ref[p].suspect);
                        EXPECT_EQ((*flat)[p].purpose, ref[p].purpose);
                    }
                    proposals += ref.size();
                }
                if (i == result.additional_tests.size()) break;
                const additional_test_record& rec =
                    result.additional_tests[i];
                (void)tracker.apply_result(rec.tc.inputs, rec.observed);
            }
        }
        EXPECT_GT(live_sets, 0u);
        EXPECT_GT(proposals, 0u);
    }
}

TEST(discrim_engine, malformed_override_error_parity) {
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    const spec_context ctx(ex.spec, suite);
    const auto faults = enumerate_all_faults(ex.spec);
    ASSERT_GE(faults.size(), 2u);

    // Two overrides of the same transition in one hypothesis: the
    // simulator rejects this at construction, and the engine must surface
    // the identical error even though its flat path never builds one.
    const transition_override dup = faults[0].to_override();
    const std::vector<std::vector<transition_override>> hyps{
        {dup, dup}, {faults[1].to_override()}};
    std::string ref_msg;
    try {
        (void)splitting_sequence(ex.spec, hyps, 1000);
        FAIL() << "reference search accepted duplicate targets";
    } catch (const error& e) {
        ref_msg = e.what();
    }
    try {
        (void)ctx.discrim().splitting_sequence(hyps, 1000);
        FAIL() << "engine accepted duplicate targets";
    } catch (const error& e) {
        EXPECT_EQ(ref_msg, std::string(e.what()));
    }
}

TEST(discrim_engine, structured_proposals_and_replays_match_uncached) {
    const auto ex = paperex::make_paper_example();
    const test_suite suite = transition_tour(ex.spec).suite;
    const spec_context ctx(ex.spec, suite);

    // A live set with more than one hypothesis, as Step 6 would hold it.
    simulated_iut iut(ex.spec, ex.fault);
    const auto result = diagnose(ex.spec, ex.suite, iut);
    ASSERT_FALSE(result.initial_diagnoses.empty());
    hypothesis_tracker tracker(ex.spec, result.initial_diagnoses);

    const auto cached = ctx.discrim().structured_proposals(tracker, {});
    const auto fresh = propose_structured_tests(ex.spec, tracker, {});
    ASSERT_EQ(cached->size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ((*cached)[i].tc.inputs, fresh[i].tc.inputs);
        EXPECT_EQ((*cached)[i].suspect, fresh[i].suspect);
        EXPECT_EQ((*cached)[i].purpose, fresh[i].purpose);
    }
    // Second lookup returns the same shared derivation.
    EXPECT_EQ(cached.get(),
              ctx.discrim().structured_proposals(tracker, {}).get());

    // Cached spec replays predict exactly like freshly-built ones.
    if (!fresh.empty()) {
        const auto& inputs = fresh.front().tc.inputs;
        const auto rep = ctx.discrim().replay_for(inputs);
        const sequence_replay direct(ex.spec, inputs);
        for (const auto& d : result.initial_diagnoses) {
            EXPECT_EQ(rep->predict(d.to_override()),
                      direct.predict(d.to_override()));
        }
        EXPECT_EQ(rep.get(), ctx.discrim().replay_for(inputs).get());
    }
}

}  // namespace
}  // namespace cfsmdiag
