#include "cfsm/simulator.hpp"

#include "util/cost.hpp"
#include "util/error.hpp"

namespace cfsmdiag {

namespace {

/// Default internal-message hop budget per step.  Valid systems use at
/// most one hop (chain length 2); the generous default only trips on
/// genuine message cycles in unvalidated or mutated systems, turning a
/// would-be livelock into budget_exceeded.
constexpr std::size_t default_hop_budget = 1024;

}  // namespace

simulator::simulator(const system& sys,
                     std::optional<transition_override> override_)
    : simulator(sys, override_ ? std::vector<transition_override>{*override_}
                               : std::vector<transition_override>{}) {}

simulator::simulator(const system& sys,
                     std::vector<transition_override> overrides)
    : sys_(&sys),
      overrides_(std::move(overrides)),
      hop_budget_(default_hop_budget) {
    for (std::size_t i = 0; i < overrides_.size(); ++i) {
        const auto id = overrides_[i].target;
        detail::require(id.machine.value < sys.machine_count(),
                        "simulator: override machine out of range");
        detail::require(
            id.transition.value <
                sys.machine(id.machine).transitions().size(),
            "simulator: override transition out of range");
        if (overrides_[i].next_state) {
            detail::require(overrides_[i].next_state->value <
                                sys.machine(id.machine).state_count(),
                            "simulator: override next state out of range");
        }
        if (overrides_[i].destination) {
            detail::require(
                overrides_[i].destination->value < sys.machine_count() &&
                    *overrides_[i].destination != id.machine,
                "simulator: override destination out of range or self");
        }
        for (std::size_t j = i + 1; j < overrides_.size(); ++j) {
            detail::require(overrides_[j].target != id,
                            "simulator: overrides must target distinct "
                            "transitions");
        }
    }
    reset();
}

void simulator::reset() {
    state_.states.clear();
    state_.states.reserve(sys_->machine_count());
    for (const auto& m : sys_->machines())
        state_.states.push_back(m.initial_state());
}

simulator::effective simulator::resolve(global_transition_id id) const {
    const transition& t = sys_->transition_at(id);
    effective e{t.output, t.to, t.kind, t.destination};
    for (const transition_override& ov : overrides_) {
        if (ov.target != id) continue;
        if (ov.output) e.output = *ov.output;
        if (ov.next_state) e.next = *ov.next_state;
        if (ov.destination && e.kind == output_kind::internal)
            e.destination = *ov.destination;
        break;
    }
    return e;
}

observation simulator::apply(const global_input& in,
                             std::vector<global_transition_id>* fired) {
    ++cost_record.simulated_steps;
    if (in.action == global_input::kind::reset) {
        reset();
        return observation::none();
    }
    detail::require(in.port.value < sys_->machine_count(),
                    "simulator::apply: port out of range");
    detail::require(!in.input.is_epsilon(),
                    "simulator::apply: cannot apply ε as an input");

    machine_id current = in.port;
    symbol message = in.input;
    for (std::size_t hop = 0; hop <= hop_budget_; ++hop) {
        const fsm& m = sys_->machine(current);
        const auto found = m.find(state_.states[current.value], message);
        if (!found) {
            // Unspecified (state, input): null observation, no change.
            return observation::none();
        }
        const global_transition_id gid{current, *found};
        const effective e = resolve(gid);
        state_.states[current.value] = e.next;
        if (fired) fired->push_back(gid);
        if (e.kind == output_kind::external) {
            if (e.output.is_epsilon()) return observation::none();
            return observation::at(current, e.output);
        }
        // Internal output: hand the message to the destination machine.
        detail::require(e.destination.value < sys_->machine_count() &&
                            e.destination != current,
                        [&] {
                            return "simulator::apply: invalid internal "
                                   "destination in " +
                                   sys_->transition_label(gid);
                        });
        current = e.destination;
        message = e.output;
        detail::require(!message.is_epsilon(), [&] {
            return "simulator::apply: internal transition " +
                   sys_->transition_label(gid) + " sends an ε message";
        });
    }
    throw budget_exceeded(
        "simulator::apply: internal-message chain exceeded " +
        std::to_string(hop_budget_) +
        " hops (message cycle?) in system '" + sys_->name() + "'");
}

void simulator::set_internal_hop_budget(std::size_t hops) {
    detail::require(hops > 0,
                    "simulator::set_internal_hop_budget: budget must be > 0");
    hop_budget_ = hops;
}

std::vector<observation> simulator::run(
    const std::vector<global_input>& seq) {
    std::vector<observation> out;
    out.reserve(seq.size());
    for (const auto& in : seq) out.push_back(apply(in));
    return out;
}

std::vector<observation> simulator::run_from_reset(
    const std::vector<global_input>& seq) {
    reset();
    return run(seq);
}

void simulator::set_state(system_state s) {
    detail::require(s.states.size() == sys_->machine_count(),
                    "simulator::set_state: wrong machine count");
    for (std::size_t i = 0; i < s.states.size(); ++i) {
        detail::require(
            s.states[i].value < sys_->machine(machine_id{
                                        static_cast<std::uint32_t>(i)})
                                    .state_count(),
            "simulator::set_state: state out of range");
    }
    state_ = std::move(s);
}

std::vector<observation> observe(const system& sys,
                                 const std::vector<global_input>& seq,
                                 std::optional<transition_override> override_) {
    simulator sim(sys, std::move(override_));
    return sim.run_from_reset(seq);
}

std::vector<observation> observe_multi(
    const system& sys, const std::vector<global_input>& seq,
    std::vector<transition_override> overrides) {
    simulator sim(sys, std::move(overrides));
    return sim.run_from_reset(seq);
}

std::string to_string(const observation& obs, const symbol_table& symbols) {
    if (obs.is_null()) return "-";
    std::string s = symbols.name(obs.output);
    if (obs.port) s += "@P" + std::to_string(obs.port->value + 1);
    return s;
}

std::string to_string(const global_input& in, const symbol_table& symbols) {
    if (in.action == global_input::kind::reset) return "R";
    return symbols.name(in.input) + "@P" + std::to_string(in.port.value + 1);
}

}  // namespace cfsmdiag
