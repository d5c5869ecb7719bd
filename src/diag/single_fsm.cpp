#include "diag/single_fsm.hpp"

namespace cfsmdiag {

system wrap_single_fsm(fsm machine, symbol_table symbols) {
    for (const auto& t : machine.transitions()) {
        detail::require(t.kind == output_kind::external, [&] {
            return "wrap_single_fsm: transition '" + t.name +
                   "' is internal-output; a single FSM has no peer to talk "
                   "to";
        });
    }
    std::string name = machine.name() + "_sys";
    std::vector<fsm> machines;
    machines.push_back(std::move(machine));
    return system(std::move(name), std::move(symbols), std::move(machines));
}

test_case single_fsm_test(std::string name, const std::vector<symbol>& seq) {
    std::vector<global_input> inputs;
    inputs.reserve(seq.size());
    for (symbol s : seq) inputs.push_back(global_input::at(machine_id{0}, s));
    return test_case::from_inputs(std::move(name), std::move(inputs));
}

diagnosis_result diagnose_single_fsm(const system& wrapped,
                                     const test_suite& suite, oracle& iut,
                                     const diagnoser_options& options) {
    return diagnose(wrapped, suite, iut, options);
}

}  // namespace cfsmdiag
