// Global execution semantics under the synchronization assumption.
//
// A test step applies one input at one external port and waits for the
// single resulting observation (paper Section 2.1: "the application of the
// next external input should be preceded by the observation of the output
// implied by the previous input").  Consequences of one step:
//   - reset R          → every machine returns to its initial state, null
//                        output ("-" in the paper's Table 1),
//   - external input   → the addressed machine fires its external-output
//                        transition, output observed at that port,
//   - internal input   → the addressed machine fires an internal-output
//                        transition (hidden), the receiver fires the
//                        triggered transition, output observed at the
//                        *receiver's* port,
//   - unspecified pair → null observation ε, no state change (this is the
//                        completeness convention; the paper's §4 example
//                        observes such an ε during a diagnostic test).
//
// The simulator optionally applies a *transition override* — a changed
// output and/or next state for exactly one transition.  That one mechanism
// implements both fault injection (building an IUT from the spec) and the
// diagnostic algorithm's hypothesis replay (Step 5B mutates the spec and
// re-runs the suite), without copying the system.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cfsm/system.hpp"

namespace cfsmdiag {

/// One global stimulus.
struct global_input {
    enum class kind : std::uint8_t { reset, apply };

    kind action = kind::apply;
    machine_id port{};  ///< port the symbol is applied at (unused for reset)
    symbol input;       ///< the applied symbol (unused for reset)

    [[nodiscard]] static global_input reset() noexcept {
        return {kind::reset, machine_id{}, symbol::epsilon()};
    }
    [[nodiscard]] static global_input at(machine_id port, symbol s) noexcept {
        return {kind::apply, port, s};
    }

    friend constexpr auto operator<=>(const global_input&,
                                      const global_input&) = default;
};

/// One observation: an output symbol at a port, or nothing (ε).
struct observation {
    /// Port the output appeared at; nullopt iff output is ε.
    std::optional<machine_id> port;
    symbol output;

    [[nodiscard]] static observation none() noexcept {
        return {std::nullopt, symbol::epsilon()};
    }
    [[nodiscard]] static observation at(machine_id port, symbol out) noexcept {
        return {port, out};
    }
    [[nodiscard]] bool is_null() const noexcept {
        return output.is_epsilon();
    }

    friend constexpr auto operator<=>(const observation&,
                                      const observation&) = default;
};

/// Replaces the output, next state and/or destination of exactly one
/// transition — the single-transition fault model (output = message type,
/// next state = transfer), Step 5B's hypothesis mutations, and the
/// addressing-fault extension (destination = the address component the
/// paper's fault model fixes and its future-work section re-opens).
struct transition_override {
    global_transition_id target;
    std::optional<symbol> output;      ///< message-type component
    std::optional<state_id> next_state;
    /// Wrong receiver for an internal-output transition (addressing
    /// fault).  Ignored for external-output transitions.
    std::optional<machine_id> destination;

    friend constexpr auto operator<=>(const transition_override&,
                                      const transition_override&) = default;
};

/// Vector of per-machine current states.
struct system_state {
    std::vector<state_id> states;

    friend constexpr auto operator<=>(const system_state&,
                                      const system_state&) = default;
};

/// Stateful executor for one system (with optional overrides).
///
/// A single override covers the paper's fault model; the multi-override
/// constructor serves the extensions (multiple-fault diagnosis per the
/// paper's future-work section) — targets must be distinct transitions.
class simulator {
  public:
    explicit simulator(const system& sys,
                       std::optional<transition_override> override_ =
                           std::nullopt);
    simulator(const system& sys, std::vector<transition_override> overrides);

    /// Returns all machines to their initial states (the reliable reset
    /// transition the paper assumes).
    void reset();

    /// Applies one global input; returns the observation.  If `fired` is
    /// non-null the global ids of the executed transitions are appended in
    /// firing order (0, 1, or 2 entries for valid systems).
    observation apply(const global_input& in,
                      std::vector<global_transition_id>* fired = nullptr);

    /// Applies a whole sequence from the current state.
    [[nodiscard]] std::vector<observation> run(
        const std::vector<global_input>& seq);

    /// Resets, then runs (the usual shape of a test case).
    [[nodiscard]] std::vector<observation> run_from_reset(
        const std::vector<global_input>& seq);

    [[nodiscard]] const system_state& state() const noexcept {
        return state_;
    }
    void set_state(system_state s);

    [[nodiscard]] const system& target() const noexcept { return *sys_; }

    /// Caps internal-message hops per applied input (the livelock guard for
    /// adversarial or mutated systems whose internal outputs form a message
    /// cycle).  Valid systems per the paper use at most one hop; the
    /// generous default only trips on genuine cycles.  Exceeding the budget
    /// throws budget_exceeded instead of looping forever.
    void set_internal_hop_budget(std::size_t hops);
    [[nodiscard]] std::size_t internal_hop_budget() const noexcept {
        return hop_budget_;
    }

  private:
    /// Effective (output, next, kind, destination) of a transition after
    /// the override.
    struct effective {
        symbol output;
        state_id next;
        output_kind kind;
        machine_id destination;
    };
    [[nodiscard]] effective resolve(global_transition_id id) const;

    const system* sys_;
    std::vector<transition_override> overrides_;
    system_state state_;
    std::size_t hop_budget_;
};

/// Convenience: observations of `seq` on `sys` from reset.
[[nodiscard]] std::vector<observation> observe(
    const system& sys, const std::vector<global_input>& seq,
    std::optional<transition_override> override_ = std::nullopt);

/// Multi-override variant (the extensions' fault sets).
[[nodiscard]] std::vector<observation> observe_multi(
    const system& sys, const std::vector<global_input>& seq,
    std::vector<transition_override> overrides);

/// Renders an observation like "c'@P1" or "-" for logs and tables.
[[nodiscard]] std::string to_string(const observation& obs,
                                    const symbol_table& symbols);

/// Renders a global input like "a@P1" or "R".
[[nodiscard]] std::string to_string(const global_input& in,
                                    const symbol_table& symbols);

}  // namespace cfsmdiag
