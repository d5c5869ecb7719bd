// The diagnoser's work counters: one plain record per thread.
//
// The paper measures its algorithm by work done — Step 5B hypothesis
// replays and the simulator steps they cost, Step 6 joint searches — so
// every layer that does such work bumps a field of the calling thread's
// `cost_record`.  Thread-local, so parallel campaign workers count without
// synchronization; monotone, so a caller measures a region by copying the
// record before it and subtracting afterwards:
//
//     const cost_counters base = cost_record;
//     (void)diagnose(ctx, iut);
//     const cost_counters spent = cost_record - base;
//
// The record is constant-initialized, so every bump compiles to a direct
// thread-local add (no TLS wrapper call, no init guard).
#pragma once

#include <cstddef>

namespace cfsmdiag {

struct cost_counters {
    /// Hypothesis replays: Step 5B/6 suite re-runs against mutated specs,
    /// counted alike on the compiled and the reference path.
    std::size_t replays = 0;
    /// Simulator steps (`simulator::apply` / `flat_step` calls).
    std::size_t simulated_steps = 0;
    std::size_t cache_case_skips = 0;      ///< cases resolved w/o simulation
    std::size_t cache_suffix_replays = 0;  ///< snapshot-restore replays
    /// Discrimination engine (diag/discrim_engine.hpp).  Totals are
    /// deterministic at any --jobs: the memo computes each distinct key once
    /// (a caller of an in-flight key waits for it), so each key is a miss
    /// exactly once unless its compute throws.
    std::size_t discrim_joint_states = 0;   ///< joint states expanded (BFS)
    std::size_t discrim_memo_hits = 0;      ///< searches served by the memo
    std::size_t discrim_memo_misses = 0;    ///< searches that computed
    std::size_t discrim_table_answers = 0;  ///< settled by splitting tables
    std::size_t discrim_bfs_searches = 0;   ///< flat joint BFS runs

    cost_counters& operator+=(const cost_counters& o) noexcept {
        replays += o.replays;
        simulated_steps += o.simulated_steps;
        cache_case_skips += o.cache_case_skips;
        cache_suffix_replays += o.cache_suffix_replays;
        discrim_joint_states += o.discrim_joint_states;
        discrim_memo_hits += o.discrim_memo_hits;
        discrim_memo_misses += o.discrim_memo_misses;
        discrim_table_answers += o.discrim_table_answers;
        discrim_bfs_searches += o.discrim_bfs_searches;
        return *this;
    }

    friend cost_counters operator-(cost_counters a,
                                   const cost_counters& b) noexcept {
        a.replays -= b.replays;
        a.simulated_steps -= b.simulated_steps;
        a.cache_case_skips -= b.cache_case_skips;
        a.cache_suffix_replays -= b.cache_suffix_replays;
        a.discrim_joint_states -= b.discrim_joint_states;
        a.discrim_memo_hits -= b.discrim_memo_hits;
        a.discrim_memo_misses -= b.discrim_memo_misses;
        a.discrim_table_answers -= b.discrim_table_answers;
        a.discrim_bfs_searches -= b.discrim_bfs_searches;
        return a;
    }

    friend bool operator==(const cost_counters&,
                           const cost_counters&) = default;
};

/// The calling thread's running totals.
inline constinit thread_local cost_counters cost_record{};

}  // namespace cfsmdiag
