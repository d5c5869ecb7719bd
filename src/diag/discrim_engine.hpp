// The campaign-wide flat discrimination engine: Step 6's joint hypothesis
// search re-expressed on the compiled tables and amortized across faults.
//
// After the compiled core (diag/compiled.hpp) made Steps 4-5C nearly free,
// the splitting-sequence search of diag/discriminate.cpp became the hot
// path: a per-call BFS over map-backed joint states with per-step fsm::find
// dispatch.  This engine keeps the search's *results* bit-for-bit identical
// while changing everything about how they are computed, in three layers:
//
//   1. Flat joint BFS — the same breadth-first exploration (same input
//      enumeration, same FIFO order, same `progressed` gate, same visited
//      cap semantics) over packed u64 states and the compiled dispatch
//      tables, with an epoch-tagged dense visited set when the joint space
//      is small and a flat open-addressing set otherwise.  Because the
//      reference search computes a *specification* step for every explored
//      (state, input) — and would therefore surface a spec-side simulator
//      error even when the mutated chain is fine — the flat BFS is enabled
//      only when a structural analysis of the compiled universe proves spec
//      chains can never throw (no internal-ε output, acyclic
//      internal-successor graph, ≤ hop-budget transitions); otherwise the
//      engine transparently computes through the reference search.
//
//   2. Splitting tables — per hypothesis, lazily built and cached per
//      spec_context: successor, packed observation and throw bit for every
//      (product state, input) of the full product state space.  Each query
//      then computes one Moore partition over the disjoint union of its k
//      hypothesis machines (k * S nodes; a throwing cell is an output no
//      other cell shares).  Hypothesis i from u and hypothesis j from v can
//      still disagree (or throw) iff their nodes land in different classes.
//      A query whose k reset nodes share one class is answered nullopt
//      without any BFS — exact regardless of the visited cap — and when the
//      joint space provably fits under the cap, a joint state whose k nodes
//      share one class is pruned inside the BFS as barren.
//
//   3. Cross-fault memoization — a sharded, compute-once memo keyed on the
//      canonicalized hypothesis set (dense compiled ids for the target and
//      its end-state/output/destination effects, hypotheses sorted) and the
//      visited cap.  Many mutants collapse to the same live-hypothesis
//      signature, so one computed splitting sequence (or equivalence proof)
//      serves the whole campaign.  Each key is computed once, outside the
//      shard lock (util/once_map.hpp): a caller of an in-flight key waits
//      for it and counts a hit, so hit/miss totals are byte-identical at any
//      --jobs; a compute that throws caches nothing.
//
// The engine also serves the structured Step 6 path: campaign-wide caches
// of spec replays and Figure-2 proposals, and the proposals' transfer
// search on packed states (transfer_from_reset).
//
// Soundness of the shortcuts is argued in DESIGN.md §5f.  The engine is
// owned by spec_context, immutable from the caller's view, and safe to
// share across campaign workers: every cache computes each key at most
// once and outside its lock, and the partitions read immutable tables.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>

#include "cfsm/search.hpp"
#include "diag/compiled.hpp"
#include "diag/diagnosis.hpp"
#include "util/once_map.hpp"

namespace cfsmdiag {

class hypothesis_tracker;
class sequence_replay;
struct proposed_test;
struct step6_options;

class discrim_engine {
  public:
    /// `cs` and `spec` must outlive the engine (the spec_context owns all
    /// three).  Construction is cheap; the splitting tables build lazily on
    /// first use.
    discrim_engine(const compiled_spec& cs, const system& spec);

    discrim_engine(const discrim_engine&) = delete;
    discrim_engine& operator=(const discrim_engine&) = delete;

    /// True when the flat joint BFS can run (packed states + provably
    /// throw-free spec chains).  When false the engine still memoizes, but
    /// computes through the reference search.
    [[nodiscard]] bool flat_search_available() const noexcept {
        return flat_ok_;
    }

    /// Drop-in replacement for splitting_sequence(spec, hypotheses, max):
    /// byte-identical result (the BFS-canonical shortest splitting
    /// sequence, or nullopt when the hypotheses are observationally
    /// equivalent within the cap), shared across calls and threads through
    /// the sharded memo.
    [[nodiscard]] std::optional<std::vector<global_input>> splitting_sequence(
        const std::vector<std::vector<transition_override>>& hypotheses,
        std::size_t max_joint_states) const;

    /// Campaign-wide spec replay of `inputs`: the sequence_replay the
    /// tracker's splits()/apply_result() would otherwise construct per
    /// call, built once per distinct input sequence and shared across
    /// faults and workers.  The same structured Step 6 proposals recur for
    /// every fault on the same suspect transition, and each applied test is
    /// replayed at least twice (splits, then apply_result), so the cache
    /// turns the dominant per-proposal cost into a lookup.
    [[nodiscard]] std::shared_ptr<const sequence_replay> replay_for(
        const std::vector<global_input>& inputs) const;

    /// Campaign-wide structured-proposal cache: the Figure-2 test
    /// derivation is a pure function of (spec, live hypothesis set, step-6
    /// options) — see propose_structured_tests — and faults whose Step 5
    /// survivors coincide are common, so one derivation serves them all.
    /// Keyed on the canonical hypothesis encodings plus every option field.
    [[nodiscard]] std::shared_ptr<const std::vector<proposed_test>>
    structured_proposals(const hypothesis_tracker& tracker,
                         const step6_options& options) const;

    /// Step 6's transfer search on the compiled core: the result, the
    /// thrown error and the simulated_steps of
    /// global_transfer_to_machine_state(spec, initial_global_state(spec),
    /// m, s, options), from one flat_step per expanded (state, input) over
    /// packed states, a flat visited set and a dense avoid bitmap.
    /// Requires packed states (compiled_spec::packable).
    [[nodiscard]] std::optional<std::vector<global_input>>
    transfer_from_reset(machine_id m, state_id s,
                        const global_search_options& options) const;

  private:
    using key_type = std::vector<std::uint32_t>;
    struct key_hash {
        std::size_t operator()(const key_type& k) const noexcept;
    };
    /// A hypothesis lowered for the joint stepper.
    struct flat_hyp {
        std::vector<flat_override> ovs;
        key_type enc;  ///< canonical encoding (memo / table cache key)
    };
    /// Per-hypothesis dynamics over the full product state space: packed
    /// successor + packed observation per (state, input), and whether the
    /// step would throw.
    struct hyp_tables {
        std::vector<std::uint32_t> succ;  ///< S * inputs, product indices
        std::vector<std::uint64_t> obs;   ///< S * inputs, packed
        dyn_bitset throws;                ///< S * inputs
    };

    [[nodiscard]] std::optional<std::vector<global_input>> compute(
        const std::vector<flat_hyp>& hyps,
        const std::vector<std::vector<transition_override>>& hypotheses,
        std::size_t max_joint_states) const;
    /// `cls` is union_classes(hyps), or empty when layer 2 does not serve
    /// the query (then nothing is pruned).
    [[nodiscard]] std::optional<std::vector<global_input>> flat_search(
        const std::vector<flat_hyp>& hyps, std::size_t max_joint_states,
        const std::vector<std::uint32_t>& cls) const;

    /// Builds the product universe (strides, state enumeration) once;
    /// returns false when layer 2 is unavailable (product space over its
    /// caps).
    [[nodiscard]] bool ensure_universe() const;
    /// Builds one hypothesis's tables (hyp_cache_'s computation).
    [[nodiscard]] std::shared_ptr<const hyp_tables> hyp_dynamics(
        const flat_hyp& h) const;
    /// Moore class per node i * S + u (hypothesis i in product state u) of
    /// the disjoint union of `hyps`' machines.  Each missing table is built
    /// once, through hyp_cache_.
    [[nodiscard]] std::vector<std::uint32_t> union_classes(
        const std::vector<flat_hyp>& hyps) const;

    [[nodiscard]] std::uint32_t product_index(
        std::uint64_t packed) const noexcept;

    const compiled_spec* cs_;
    const system* spec_;
    bool flat_ok_ = false;

    /// Input enumeration, identical to all_port_inputs(spec).
    std::vector<global_input> inputs_;
    std::vector<std::uint32_t> in_port_;
    std::vector<std::uint32_t> in_sym_;

    // --- lazily-built product universe (layer 2) --------------------------
    struct universe {
        bool ok = false;
        std::uint32_t size = 0;             ///< Π state_count[m]
        std::vector<std::uint32_t> stride;  ///< mixed-radix per machine
        std::vector<std::uint64_t> packed;  ///< product index → packed state
    };
    mutable std::once_flag universe_once_;
    mutable universe uni_;

    mutable once_map<key_type, std::shared_ptr<const hyp_tables>, key_hash>
        hyp_cache_;

    // --- sharded cross-fault memo (layer 3) -------------------------------
    static constexpr std::size_t memo_shards = 16;
    mutable std::array<once_map<key_type,
                                std::optional<std::vector<global_input>>,
                                key_hash>,
                       memo_shards>
        memo_;

    mutable once_map<key_type, std::shared_ptr<const sequence_replay>,
                     key_hash>
        replay_cache_;

    mutable once_map<key_type,
                     std::shared_ptr<const std::vector<proposed_test>>,
                     key_hash>
        proposal_cache_;
};

/// Engine-backed observational equivalence: same verdict as
/// observationally_equivalent(spec, a, b, max_states) — including its
/// reading of a hit bound as *equivalent* — shared through the engine's
/// memo.
[[nodiscard]] bool observationally_equivalent(const discrim_engine& engine,
                                              const diagnosis& a,
                                              const diagnosis& b,
                                              std::size_t max_states = 100'000);

}  // namespace cfsmdiag
