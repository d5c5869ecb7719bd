// The flat compiled core: a `system` + diagnostic suite lowered into dense
// integer-indexed tables, built once per spec_context and queried by every
// per-fault diagnosis.
//
// Motivation: with the replay cache alone, the reference pipeline is
// overhead-bound — std::set churn in Steps 4/5A, per-replay simulator
// construction, per-diagnosis firing-index rebuilds, and per-candidate
// alphabet recomputation dominate wall time.  Everything in this header is
// a pure function of (spec, suite), so the campaign engine computes it
// exactly once:
//   - a dense transition universe (machine_offset[m] + local id), with the
//     effect tables (output, next state, kind, destination) the flat
//     stepper reads instead of `transition` records,
//   - per-machine (state × input) dispatch tables of dense ids,
//   - the admissible faulty-output pool of every transition (Step 5B's
//     `admissible_faulty_outputs`, precomputed instead of per candidate),
//   - per-case spec-run tables: encoded inputs, packed states, firing
//     index, (state, input) class representatives, and per-step fired
//     lists (the conflict-set bitmaps' raw material),
//   - a u64 state packing (bits per machine) that turns system_state
//     comparisons into integer compares.  Systems whose states exceed 64
//     bits set `packable = false` and diagnosis falls back to the
//     reference path.
//
// `compile_conflicts`/`materialize_*` are the bitset Steps 4-5A: conflict
// sets become bitmaps over the dense universe, ITC is their AND, and the
// public `conflict_sets`/`candidate_sets` structs are rebuilt only at the
// reporting boundary (ascending bit iteration == sorted std::set iteration,
// so the rebuilt structs are byte-identical to the reference path's).
//
// `flat_replayer` is the compiled Step 5B/6 hot path: replay_cache's prefix
// lemma + re-synchronization + class memoization, re-expressed over packed
// u64 states with epoch-tagged scratch (no per-call allocation) and an
// inlined stepper (no simulator construction per hypothesis).  Verdicts are
// exactly hypothesis_consistent()'s.
#pragma once

#include "cfsm/trace.hpp"
#include "diag/candidates.hpp"
#include "util/bitset.hpp"

namespace cfsmdiag {

/// Dense, integer-indexed lowering of one (spec, suite) pair.
struct compiled_spec {
    // --- dense transition universe ---------------------------------------
    /// machine_offset[m] + local id = dense id; machine_offset[M] = total.
    std::vector<std::uint32_t> machine_offset;
    std::uint32_t total = 0;
    /// Owning machine per dense id.
    std::vector<std::uint32_t> owner;

    // --- per-dense-id effect tables ---------------------------------------
    std::vector<std::uint32_t> out_sym;     ///< output symbol id
    std::vector<std::uint32_t> next_state;  ///< local next state
    std::vector<std::uint8_t> is_internal;  ///< 1 = internal-output
    std::vector<std::uint32_t> dest;        ///< receiver (internal only)
    dyn_bitset internal_mask;               ///< internal-output transitions

    // --- admissible faulty-output pools (CSR) -----------------------------
    /// pool of dense id d = pool_syms[pool_offset[d] .. pool_offset[d+1]),
    /// exactly admissible_faulty_outputs(spec, alphabets, d) in order.
    std::vector<std::uint32_t> pool_offset;
    std::vector<symbol> pool_syms;

    // --- dispatch tables --------------------------------------------------
    /// Machine m, local state s, input symbol i (< disp_stride[m]):
    /// dispatch[disp_offset[m] + s * disp_stride[m] + i] = dense id or
    /// invalid_index.
    std::vector<std::uint32_t> disp_offset;
    std::vector<std::uint32_t> disp_stride;
    std::vector<std::uint32_t> dispatch;

    // --- u64 state packing ------------------------------------------------
    bool packable = false;
    std::vector<std::uint32_t> state_shift;  ///< bit offset per machine
    std::vector<std::uint64_t> state_mask;   ///< width mask (unshifted)
    std::vector<std::uint32_t> state_count;  ///< states per machine
    std::uint64_t initial_packed = 0;

    // --- per-case spec-run tables (fault independent) ---------------------
    struct case_tables {
        /// Encoded inputs: in_port[k] == invalid_index means reset.
        std::vector<std::uint32_t> in_port;
        std::vector<std::uint32_t> in_sym;
        /// Packed spec state before each step.
        std::vector<std::uint64_t> state_before;
        /// (state, input) class representative per step (earliest step with
        /// the same packed before-state and input) — the suffix memo key.
        std::vector<std::uint32_t> rep;
        /// Dense per-transition first firing step; invalid_index = never.
        std::vector<std::uint32_t> first_fire;
        /// Dense per-transition sorted firing-step lists, CSR.
        std::vector<std::uint32_t> fire_off;  ///< [total + 1]
        std::vector<std::uint32_t> fire_steps;
        /// Dense ids fired per step, CSR (the conflict bitmaps' input).
        std::vector<std::uint32_t> step_off;  ///< [steps + 1]
        std::vector<std::uint32_t> step_fired;
    };
    std::vector<case_tables> cases;

    [[nodiscard]] std::uint32_t dense_id(
        global_transition_id t) const noexcept {
        return machine_offset[t.machine.value] + t.transition.value;
    }
    [[nodiscard]] global_transition_id global_id(
        std::uint32_t d) const noexcept {
        const std::uint32_t m = owner[d];
        return {machine_id{m}, transition_id{d - machine_offset[m]}};
    }

    /// Packs a system_state (requires `packable`).
    [[nodiscard]] std::uint64_t pack(const system_state& s) const noexcept {
        std::uint64_t packed = 0;
        for (std::size_t m = 0; m < s.states.size(); ++m)
            packed |= static_cast<std::uint64_t>(s.states[m].value)
                      << state_shift[m];
        return packed;
    }
};

/// Lowers (spec, suite) with the suite's Step-1 traces.  `traces` must be
/// the spec replay of `suite` (the spec_context guarantees this).
[[nodiscard]] compiled_spec compile_spec(const system& spec,
                                         const test_suite& suite,
                                         const suite_traces& traces);

/// A transition_override lowered to dense ids; invalid_index fields keep
/// the specified effect.  Shared by the flat replayer (Step 5B) and the
/// discrimination engine's joint stepper (Step 6).
struct flat_override {
    std::uint32_t target = invalid_index;
    std::uint32_t out = invalid_index;   ///< invalid = keep specified
    std::uint32_t next = invalid_index;
    std::uint32_t dest = invalid_index;
};

[[nodiscard]] flat_override lower_override(const compiled_spec& cs,
                                           const transition_override& ov);

/// Packed observation: 0 for ε, else ((port + 1) << 32) | symbol id.
/// Injective on everything a simulator can return (ε observations always
/// carry no port), so packed equality is observation equality.
[[nodiscard]] std::uint64_t pack_observation(const observation& o) noexcept;

/// One global input applied to a packed state under `ov_count` overrides
/// (distinct targets).  Returns the packed observation; when `fired` is
/// non-null it is set to whether the chain fired at least one transition
/// (the reference search's `progressed` bit, read by the discrimination
/// engine's joint BFS).  Mutates `state` in place.  Error behaviour —
/// internal ε message, hop budget — matches simulator::apply exactly,
/// message text included; `spec` is used for error labels only.
std::uint64_t flat_step(const compiled_spec& cs, const system& spec,
                        std::uint64_t& state, std::uint32_t port,
                        std::uint32_t sym, const flat_override* ovs,
                        std::size_t ov_count, bool* fired = nullptr);

/// Step 4 as bitmaps: one fired-prefix bitmap per symptomatic case (steps
/// [0, first_symptom]) over the dense universe, plus their intersection
/// (Step 5A's ITC, globally).  Bitmaps live in `arena`.
struct compiled_conflicts {
    std::vector<dyn_bitset> per_case;  ///< ordinal == symptomatic_cases
    dyn_bitset itc;
};

[[nodiscard]] compiled_conflicts compile_conflicts(
    const compiled_spec& cs, const symptom_report& report, bit_arena& arena);

/// Reporting-boundary rebuilds: byte-identical to generate_conflict_sets /
/// generate_candidates on the same report (ascending bit iteration ==
/// sorted set iteration).
[[nodiscard]] conflict_sets materialize_conflict_sets(
    const compiled_spec& cs, const compiled_conflicts& cc);

[[nodiscard]] candidate_sets materialize_candidate_sets(
    const compiled_spec& cs, const symptom_report& report,
    const compiled_conflicts& cc);

/// Compiled hypothesis replayer for one symptom report: same verdicts as
/// hypothesis_consistent(spec, suite, report, ov), over packed states.  The
/// replay uses the prefix lemma + re-synchronization and bumps the replay
/// cache's case-skip/suffix counters.
///
/// Not thread-safe (owns scratch buffers); build one per diagnosis.
class flat_replayer {
  public:
    flat_replayer(const compiled_spec& cs, const system& spec,
                  const symptom_report& report);

    [[nodiscard]] bool consistent(const transition_override& ov);

  private:
    struct case_obs {
        std::vector<std::uint64_t> observed;  ///< packed observations
        const std::vector<std::size_t>* symptom_steps;
        std::uint32_t first_symptom = invalid_index;
        bool quarantined = false;
    };

    [[nodiscard]] flat_override lower(const transition_override& ov) const;
    /// One global input on the packed state; returns the packed
    /// observation (0 = ε).
    std::uint64_t step(std::uint64_t& state, std::uint32_t port,
                       std::uint32_t sym, const flat_override& ov) const;
    [[nodiscard]] bool suffix_consistent(std::size_t ci, std::uint32_t f,
                                         const flat_override& ov);

    const compiled_spec* cs_;
    const system* spec_;  ///< error labels only
    const symptom_report* report_;
    std::vector<case_obs> cases_;
    /// Epoch-tagged suffix memo, indexed by class representative step.
    std::vector<std::uint32_t> memo_epoch_;
    std::vector<std::uint64_t> memo_obs_;
    std::vector<std::uint64_t> memo_after_;
    std::uint32_t epoch_ = 0;
};

}  // namespace cfsmdiag
