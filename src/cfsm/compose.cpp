#include "cfsm/compose.hpp"

#include <deque>
#include <map>

#include "cfsm/alphabet.hpp"
#include "util/error.hpp"

namespace cfsmdiag {
namespace {

std::string tuple_name(const system& sys, const system_state& tuple) {
    std::string name = "(";
    for (std::size_t i = 0; i < tuple.states.size(); ++i) {
        if (i) name += ",";
        name += sys.machine(machine_id{static_cast<std::uint32_t>(i)})
                    .state_name(tuple.states[i]);
    }
    name += ")";
    return name;
}

}  // namespace

composition compose(const system& sys, std::size_t max_states) {
    composition out;
    out.input_of_symbol.push_back(global_input::reset());  // slot for ε

    // Port-tagged input alphabet, in machine order then symbol order.
    std::vector<std::pair<global_input, symbol>> inputs;  // global -> product
    for (std::uint32_t mi = 0; mi < sys.machine_count(); ++mi) {
        const fsm& m = sys.machine(machine_id{mi});
        for (symbol s : m.input_alphabet()) {
            const global_input gin = global_input::at(machine_id{mi}, s);
            const symbol ps = out.symbols.intern(
                sys.symbols().name(s) + "@P" + std::to_string(mi + 1));
            detail::require(ps.id == out.input_of_symbol.size(),
                            "compose: symbol interning out of sync");
            out.input_of_symbol.push_back(gin);
            inputs.emplace_back(gin, ps);
        }
    }

    simulator sim(sys);
    sim.reset();
    const system_state initial = sim.state();

    std::map<system_state, std::uint32_t> index;
    std::vector<std::string> state_names;
    std::deque<std::uint32_t> frontier;

    auto intern_state = [&](const system_state& tuple) -> std::uint32_t {
        auto it = index.find(tuple);
        if (it != index.end()) return it->second;
        detail::require_model(
            index.size() < max_states, [&] {
                return "compose: more than " + std::to_string(max_states) +
                       " reachable global states in system '" + sys.name() +
                       "'";
            });
        const auto id = static_cast<std::uint32_t>(index.size());
        index.emplace(tuple, id);
        out.state_tuples.push_back(tuple);
        state_names.push_back(tuple_name(sys, tuple));
        frontier.push_back(id);
        return id;
    };

    std::vector<transition> transitions;
    intern_state(initial);
    while (!frontier.empty()) {
        const std::uint32_t si = frontier.front();
        frontier.pop_front();
        const system_state tuple = out.state_tuples[si];
        for (const auto& [gin, psym] : inputs) {
            sim.set_state(tuple);
            std::vector<global_transition_id> fired;
            const observation obs = sim.apply(gin, &fired);
            if (fired.empty()) continue;  // unspecified: ε self-loop, omit
            const std::uint32_t ti = intern_state(sim.state());
            transition t;
            t.from = state_id{si};
            t.to = state_id{ti};
            t.input = psym;
            t.output = obs.is_null()
                           ? symbol::epsilon()
                           : out.symbols.intern(
                                 sys.symbols().name(obs.output) + "@P" +
                                 std::to_string(obs.port->value + 1));
            t.kind = output_kind::external;
            std::string label;
            for (std::size_t k = 0; k < fired.size(); ++k) {
                if (k) label += "+";
                label += sys.machine(fired[k].machine)
                             .at(fired[k].transition)
                             .name;
            }
            t.name = label;
            transitions.push_back(std::move(t));
            out.fired_of_transition.push_back(std::move(fired));
        }
    }

    out.machine = fsm(sys.name() + "_product", std::move(state_names),
                      state_id{0}, std::move(transitions));
    return out;
}

std::size_t count_reachable_global_states(const system& sys,
                                          std::size_t cap) {
    simulator sim(sys);
    sim.reset();

    std::vector<global_input> inputs;
    for (std::uint32_t mi = 0; mi < sys.machine_count(); ++mi) {
        for (symbol s : sys.machine(machine_id{mi}).input_alphabet())
            inputs.push_back(global_input::at(machine_id{mi}, s));
    }

    std::map<system_state, bool> seen;
    std::deque<system_state> frontier;
    seen.emplace(sim.state(), true);
    frontier.push_back(sim.state());
    while (!frontier.empty()) {
        const system_state tuple = frontier.front();
        frontier.pop_front();
        for (const auto& gin : inputs) {
            sim.set_state(tuple);
            std::vector<global_transition_id> fired;
            (void)sim.apply(gin, &fired);
            if (fired.empty()) continue;
            if (seen.emplace(sim.state(), true).second) {
                if (seen.size() > cap) return cap + 1;
                frontier.push_back(sim.state());
            }
        }
    }
    return seen.size();
}

}  // namespace cfsmdiag
