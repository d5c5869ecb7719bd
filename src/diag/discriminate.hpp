// Adaptive discrimination between fault hypotheses.
//
// After Step 5C the diagnoser holds a set of concrete hypotheses ("T outputs
// o", "T transfers to s", ...), exactly one of which matches the IUT (the
// single-transition-fault assumption plus Step 5B's completeness).  A test
// discriminates if at least two live hypotheses predict different
// observations for it; applying it to the IUT then eliminates every
// hypothesis whose prediction disagrees with reality.
//
// The paper's Step 6 proposes tests of a particular shape (transfer sequence
// + suspect input + W_k/U_k probes); the tracker here is the shape-agnostic
// engine underneath: it predicts, checks whether a proposed test splits the
// live set, applies results, and — when the structured proposals run dry —
// searches the joint state space of the live hypotheses for a shortest
// splitting sequence (guaranteeing maximal discrimination, our completeness
// fallback).  Hypotheses that survive everything are observationally
// equivalent: the fault is localized up to equivalence, which is the best
// any black-box diagnoser can do.
#pragma once

#include <memory>
#include <optional>

#include "diag/diagnosis.hpp"
#include "testgen/testcase.hpp"

namespace cfsmdiag {

class discrim_engine;

/// The joint search's input enumeration: every (port, input symbol) pair,
/// machines in index order, each machine's input alphabet in sorted-id
/// order.  Exposed so the compiled discrimination engine enumerates inputs
/// in exactly the reference BFS's order (part of result identity).
[[nodiscard]] std::vector<global_input> all_port_inputs(const system& spec);

class hypothesis_tracker {
  public:
    /// splits()/apply_result() run through sequence_replay (prefix
    /// skipping per hypothesis); verdicts equal predict()'s.
    hypothesis_tracker(const system& spec, std::vector<diagnosis> initial);

    /// Routes find_splitting_sequence() and the spec replays of splits()/
    /// apply_result() through the compiled discrimination engine
    /// (diag/discrim_engine.hpp): flat joint BFS, Moore splitting tables
    /// and the engine's campaign-wide memo and replay cache.  Results are
    /// byte-identical to the reference search; nullptr detaches.
    void use_engine(const discrim_engine* engine) noexcept {
        engine_ = engine;
    }

    [[nodiscard]] const std::vector<diagnosis>& alive() const noexcept {
        return alive_;
    }
    [[nodiscard]] std::size_t count() const noexcept {
        return alive_.size();
    }

    /// Predicted observations of `inputs` (from reset) under hypothesis i,
    /// by plain simulation: the reference splits()/apply_result() are
    /// tested against.
    [[nodiscard]] std::vector<observation> predict(
        std::size_t i, const std::vector<global_input>& inputs) const;

    /// True if at least two live hypotheses predict different observations
    /// for the test.
    [[nodiscard]] bool splits(const std::vector<global_input>& inputs) const;

    /// Drops every live hypothesis whose prediction differs from
    /// `observed`.  Returns the number eliminated.
    std::size_t apply_result(const std::vector<global_input>& inputs,
                             const std::vector<observation>& observed);

    /// Shortest input sequence (from reset) on which two live hypotheses
    /// disagree, found by BFS over the joint hypothesis state space;
    /// nullopt when all live hypotheses are observationally equivalent or
    /// the bound is hit (the two are not told apart).
    [[nodiscard]] std::optional<std::vector<global_input>>
    find_splitting_sequence(std::size_t max_joint_states = 100'000) const;

  private:
    /// The spec replay of `inputs`: from the engine's cache when attached,
    /// else built for this call.
    [[nodiscard]] std::shared_ptr<const sequence_replay> replay(
        const std::vector<global_input>& inputs) const;

    const system* spec_;
    std::vector<diagnosis> alive_;
    const discrim_engine* engine_ = nullptr;
};

/// True if spec⊕a and spec⊕b produce identical observations on every input
/// sequence (pairwise product BFS).  `max_states` bounds the search, and a
/// search that hits the bound finds no splitting sequence, so it reports
/// *equivalent* — unproven, and possibly wrong (ROADMAP's tri-state
/// discrimination item).
[[nodiscard]] bool observationally_equivalent(
    const system& spec, const diagnosis& a, const diagnosis& b,
    std::size_t max_states = 100'000);

/// Generalized splitting search over arbitrary override sets: each
/// hypothesis is a set of transition overrides applied to the spec (the
/// empty set is the spec itself).  Returns the shortest input sequence
/// (from reset) on which two hypotheses disagree, or nullopt when all are
/// observationally equivalent within the bound.  Shared by the
/// hypothesis_tracker, the a-priori diagnostic suite generator, and the
/// multiple-fault extension.
[[nodiscard]] std::optional<std::vector<global_input>> splitting_sequence(
    const system& spec,
    const std::vector<std::vector<transition_override>>& hypotheses,
    std::size_t max_joint_states = 100'000);

}  // namespace cfsmdiag
