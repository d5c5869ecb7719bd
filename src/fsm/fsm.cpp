#include "fsm/fsm.hpp"

#include <algorithm>
#include <unordered_set>

namespace cfsmdiag {

fsm::fsm(std::string name, std::vector<std::string> state_names,
         state_id initial, std::vector<transition> transitions)
    : name_(std::move(name)),
      state_names_(std::move(state_names)),
      initial_(initial),
      transitions_(std::move(transitions)) {
    for (std::size_t i = 0; i < transitions_.size(); ++i) {
        if (transitions_[i].name.empty())
            transitions_[i].name = "t" + std::to_string(i + 1);
    }
    validate();
    reindex();
}

const std::string& fsm::state_name(state_id s) const {
    detail::require(s.value < state_names_.size(), [&] {
        return "fsm::state_name: state out of range in " + name_;
    });
    return state_names_[s.value];
}

const transition& fsm::at(transition_id t) const {
    detail::require(t.value < transitions_.size(), [&] {
        return "fsm::at: transition out of range in " + name_;
    });
    return transitions_[t.value];
}

std::vector<symbol> fsm::input_alphabet() const {
    std::unordered_set<symbol> seen;
    std::vector<symbol> out;
    for (const auto& t : transitions_) {
        if (seen.insert(t.input).second) out.push_back(t.input);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<symbol> fsm::inputs_from(state_id s) const {
    std::vector<symbol> out;
    for (const auto& t : transitions_) {
        if (t.from == s) out.push_back(t.input);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void fsm::validate() const {
    detail::require(!state_names_.empty(), [&] {
        return "fsm '" + name_ + "': must have at least one state";
    });
    detail::require(initial_.value < state_names_.size(), [&] {
        return "fsm '" + name_ + "': initial state out of range";
    });
    std::unordered_set<std::uint64_t> keys;
    for (const auto& t : transitions_) {
        detail::require(t.from.value < state_names_.size(), [&] {
            return "fsm '" + name_ + "': transition '" + t.name +
                   "' source state out of range";
        });
        detail::require(t.to.value < state_names_.size(), [&] {
            return "fsm '" + name_ + "': transition '" + t.name +
                   "' target state out of range";
        });
        detail::require(!t.input.is_epsilon(), [&] {
            return "fsm '" + name_ + "': transition '" + t.name +
                   "' must consume a non-ε input";
        });
        detail::require(
            keys.insert(state_input_key(t.from, t.input)).second, [&] {
                return "fsm '" + name_ + "': nondeterministic on (state " +
                       state_names_[t.from.value] +
                       ", input of transition '" + t.name + "')";
            });
    }
}

fsm fsm::with_transition_replaced(transition_id t,
                                  std::optional<symbol> new_output,
                                  std::optional<state_id> new_target) const {
    detail::require(t.value < transitions_.size(),
                    "fsm::with_transition_replaced: transition out of range");
    fsm copy = *this;
    transition& tr = copy.transitions_[t.value];
    if (new_output) tr.output = *new_output;
    if (new_target) {
        detail::require(new_target->value < state_names_.size(),
                        "fsm::with_transition_replaced: target out of range");
        tr.to = *new_target;
    }
    // (state, input) keys are unchanged, so the dispatch table stays valid.
    return copy;
}

void fsm::reindex() {
    input_stride_ = 0;
    for (const auto& t : transitions_)
        input_stride_ = std::max(input_stride_, t.input.id + 1);
    dispatch_.assign(state_names_.size() * input_stride_, invalid_index);
    for (std::size_t i = 0; i < transitions_.size(); ++i) {
        dispatch_[static_cast<std::size_t>(transitions_[i].from.value) *
                      input_stride_ +
                  transitions_[i].input.id] =
            static_cast<std::uint32_t>(i);
    }
}

}  // namespace cfsmdiag
