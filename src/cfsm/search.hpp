// BFS over the global state space.
//
// The reference search: find a shortest global input sequence from a given
// global state to one satisfying a goal, optionally *avoiding* a set of
// transitions — the paper requires additional diagnostic tests to "not
// involve any candidate transition in any of the DCtr or DCco sets".
// Test generation (testgen/methods, testgen/wsuite) uses it directly.  The
// diagnoser's Step 6 proposals run discrim_engine::transfer_from_reset, the
// same BFS on the compiled core, and reach this one only for systems whose
// states do not pack into 64 bits; the identity tests use it as the oracle.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "cfsm/simulator.hpp"

namespace cfsmdiag {

struct global_search_options {
    /// Transitions that must not fire anywhere along the sequence.
    std::vector<global_transition_id> avoid;
    /// Visited-set size bound.
    std::size_t max_states = 200'000;
    /// Skip ε steps (unspecified inputs) while searching; they never change
    /// state, so they are never useful in a transfer sequence.
    bool skip_null_steps = true;
};

/// Shortest input sequence from `start` to a state satisfying `goal`
/// without firing avoided transitions.  Returns nullopt if no such
/// sequence exists within the bound.  The empty sequence is returned if
/// `start` already satisfies `goal`.
[[nodiscard]] std::optional<std::vector<global_input>> global_transfer(
    const system& spec, const system_state& start,
    const std::function<bool(const system_state&)>& goal,
    const global_search_options& options = {});

/// Convenience goal: machine `m` is in state `s`.
[[nodiscard]] std::optional<std::vector<global_input>>
global_transfer_to_machine_state(const system& spec,
                                 const system_state& start, machine_id m,
                                 state_id s,
                                 const global_search_options& options = {});

/// The global state after reset.
[[nodiscard]] system_state initial_global_state(const system& spec);

}  // namespace cfsmdiag
