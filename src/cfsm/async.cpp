#include "cfsm/async.hpp"

#include "util/error.hpp"

namespace cfsmdiag {

async_simulator::async_simulator(const system& sys,
                                 std::optional<transition_override>
                                     override_)
    : sys_(&sys), override_(std::move(override_)) {
    reset();
}

void async_simulator::reset() {
    state_.states.clear();
    for (const auto& m : sys_->machines())
        state_.states.push_back(m.initial_state());
    queues_.assign(sys_->machine_count(),
                   std::vector<std::deque<symbol>>(sys_->machine_count()));
}

async_simulator::effective async_simulator::resolve(
    global_transition_id id) const {
    const transition& t = sys_->transition_at(id);
    effective e{t.output, t.to, t.kind, t.destination};
    if (override_ && override_->target == id) {
        if (override_->output) e.output = *override_->output;
        if (override_->next_state) e.next = *override_->next_state;
        if (override_->destination && e.kind == output_kind::internal)
            e.destination = *override_->destination;
    }
    return e;
}

observation async_simulator::fire(machine_id machine, symbol input) {
    const fsm& m = sys_->machine(machine);
    const auto found = m.find(state_.states[machine.value], input);
    if (!found) return observation::none();
    const global_transition_id gid{machine, *found};
    const effective e = resolve(gid);
    state_.states[machine.value] = e.next;
    if (e.kind == output_kind::external) {
        if (e.output.is_epsilon()) return observation::none();
        return observation::at(machine, e.output);
    }
    detail::require(e.destination.value < sys_->machine_count() &&
                        e.destination != machine,
                    [&] {
                        return "async_simulator: invalid internal "
                               "destination in " +
                               sys_->transition_label(gid);
                    });
    queues_[e.destination.value][machine.value].push_back(e.output);
    return observation::none();
}

observation async_simulator::apply(const global_input& in) {
    if (in.action == global_input::kind::reset) {
        reset();
        return observation::none();
    }
    detail::require(in.port.value < sys_->machine_count(),
                    "async_simulator::apply: port out of range");
    detail::require(!in.input.is_epsilon(),
                    "async_simulator::apply: cannot apply ε");
    return fire(in.port, in.input);
}

std::optional<observation> async_simulator::deliver(machine_id receiver,
                                                    machine_id sender) {
    detail::require(receiver.value < sys_->machine_count() &&
                        sender.value < sys_->machine_count(),
                    "async_simulator::deliver: machine out of range");
    auto& q = queues_[receiver.value][sender.value];
    if (q.empty()) return std::nullopt;
    const symbol msg = q.front();
    q.pop_front();
    return fire(receiver, msg);
}

std::vector<observation> async_simulator::drain() {
    std::vector<observation> out;
    std::size_t delivered = 0;
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (std::uint32_t r = 0; r < sys_->machine_count(); ++r) {
            for (std::uint32_t s = 0; s < sys_->machine_count(); ++s) {
                if (auto obs = deliver(machine_id{r}, machine_id{s})) {
                    if (++delivered > drain_budget_) {
                        throw budget_exceeded(
                            "async_simulator::drain: exceeded " +
                            std::to_string(drain_budget_) +
                            " deliveries (message cycle?) in system '" +
                            sys_->name() + "'");
                    }
                    out.push_back(*obs);
                    progressed = true;
                }
            }
        }
    }
    return out;
}

void async_simulator::set_drain_budget(std::size_t deliveries) {
    detail::require(deliveries > 0,
                    "async_simulator::set_drain_budget: budget must be > 0");
    drain_budget_ = deliveries;
}

bool async_simulator::quiescent() const noexcept { return pending() == 0; }

std::size_t async_simulator::pending() const noexcept {
    std::size_t n = 0;
    for (const auto& row : queues_) {
        for (const auto& q : row) n += q.size();
    }
    return n;
}

std::size_t async_simulator::queue_depth(machine_id receiver,
                                         machine_id sender) const {
    detail::require(receiver.value < sys_->machine_count() &&
                        sender.value < sys_->machine_count(),
                    "async_simulator::queue_depth: machine out of range");
    return queues_[receiver.value][sender.value].size();
}

}  // namespace cfsmdiag
