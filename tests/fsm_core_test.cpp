// Unit tests for fsm/symbol, fsm/fsm, fsm/builder, and the exact
// precondition messages of the hot accessors, a constructor check and the
// compact test-case parser.
#include <gtest/gtest.h>

#include <string>
#include <typeinfo>

#include "cfsm/system.hpp"
#include "fsm/builder.hpp"
#include "fsm/dot.hpp"
#include "testgen/testcase.hpp"

namespace cfsmdiag {
namespace {

TEST(symbol_table_test, epsilon_is_reserved_and_renders_as_dash) {
    symbol_table t;
    EXPECT_TRUE(symbol::epsilon().is_epsilon());
    EXPECT_EQ(t.name(symbol::epsilon()), "-");
    EXPECT_EQ(t.lookup("-"), symbol::epsilon());
    EXPECT_EQ(t.lookup("ε"), symbol::epsilon());
}

TEST(symbol_table_test, intern_is_idempotent) {
    symbol_table t;
    const symbol a1 = t.intern("a");
    const symbol a2 = t.intern("a");
    const symbol b = t.intern("b");
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1, b);
    EXPECT_EQ(t.name(a1), "a");
    EXPECT_EQ(t.name(b), "b");
}

TEST(symbol_table_test, lookup_unknown_throws) {
    symbol_table t;
    EXPECT_THROW((void)t.lookup("nope"), error);
    EXPECT_FALSE(t.contains("nope"));
    (void)t.intern("yep");
    EXPECT_TRUE(t.contains("yep"));
}

TEST(symbol_table_test, empty_spelling_rejected) {
    symbol_table t;
    EXPECT_THROW((void)t.intern(""), error);
}

TEST(fsm_builder_test, builds_states_and_transitions) {
    symbol_table t;
    fsm_builder b("M", t);
    b.external("t1", "s0", "a", "x", "s1");
    b.external("t2", "s1", "a", "y", "s0");
    b.internal("t3", "s0", "g", "m", "s1", machine_id{1});
    const fsm m = b.build("s0");

    EXPECT_EQ(m.name(), "M");
    EXPECT_EQ(m.state_count(), 2u);
    EXPECT_EQ(m.initial_state(), b.id_of("s0"));
    ASSERT_EQ(m.transitions().size(), 3u);
    EXPECT_EQ(m.transitions()[2].kind, output_kind::internal);
    EXPECT_EQ(m.transitions()[2].destination, machine_id{1});
    EXPECT_EQ(m.state_name(state_id{1}), "s1");
}

TEST(fsm_builder_test, find_is_the_partial_transition_function) {
    symbol_table t;
    fsm_builder b("M", t);
    b.external("t1", "s0", "a", "x", "s1");
    const fsm m = b.build("s0");

    const auto hit = m.find(state_id{0}, t.lookup("a"));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(m.at(*hit).name, "t1");
    EXPECT_FALSE(m.find(state_id{1}, t.lookup("a")).has_value());
}

TEST(fsm_builder_test, nondeterminism_is_rejected) {
    symbol_table t;
    fsm_builder b("M", t);
    b.external("t1", "s0", "a", "x", "s1");
    b.external("t2", "s0", "a", "y", "s0");
    EXPECT_THROW((void)b.build("s0"), error);
}

TEST(fsm_builder_test, unknown_initial_state_rejected) {
    symbol_table t;
    fsm_builder b("M", t);
    b.external("t1", "s0", "a", "x", "s1");
    EXPECT_THROW((void)b.build("nope"), error);
}

TEST(fsm_builder_test, epsilon_input_rejected) {
    symbol_table t;
    fsm_builder b("M", t);
    b.external("t1", "s0", "-", "x", "s1");
    EXPECT_THROW((void)b.build("s0"), error);
}

TEST(fsm_builder_test, epsilon_output_allowed_for_external) {
    symbol_table t;
    fsm_builder b("M", t);
    b.external("t1", "s0", "a", "-", "s1");
    const fsm m = b.build("s0");
    EXPECT_TRUE(m.transitions()[0].output.is_epsilon());
}

TEST(fsm_test, with_transition_replaced_changes_only_the_target) {
    symbol_table t;
    fsm_builder b("M", t);
    b.external("t1", "s0", "a", "x", "s1");
    b.external("t2", "s1", "a", "y", "s0");
    const fsm m = b.build("s0");

    const fsm mutated = m.with_transition_replaced(
        transition_id{0}, t.intern("z"), state_id{0});
    EXPECT_EQ(mutated.transitions()[0].output, t.lookup("z"));
    EXPECT_EQ(mutated.transitions()[0].to, state_id{0});
    EXPECT_EQ(mutated.transitions()[1].output, t.lookup("y"));
    // Original untouched.
    EXPECT_EQ(m.transitions()[0].output, t.lookup("x"));
}

TEST(fsm_test, with_transition_replaced_validates_range) {
    symbol_table t;
    fsm_builder b("M", t);
    b.external("t1", "s0", "a", "x", "s0");
    const fsm m = b.build("s0");
    EXPECT_THROW((void)m.with_transition_replaced(transition_id{7},
                                                  std::nullopt, state_id{0}),
                 error);
    EXPECT_THROW((void)m.with_transition_replaced(transition_id{0},
                                                  std::nullopt, state_id{9}),
                 error);
}

TEST(fsm_test, input_alphabet_and_inputs_from) {
    symbol_table t;
    fsm_builder b("M", t);
    b.external("t1", "s0", "a", "x", "s1");
    b.external("t2", "s0", "b", "x", "s0");
    b.external("t3", "s1", "a", "y", "s0");
    const fsm m = b.build("s0");

    EXPECT_EQ(m.input_alphabet().size(), 2u);
    EXPECT_EQ(m.inputs_from(state_id{0}).size(), 2u);
    EXPECT_EQ(m.inputs_from(state_id{1}).size(), 1u);
}

TEST(fsm_test, default_transition_names_are_generated) {
    symbol_table t;
    std::vector<transition> ts(1);
    ts[0].from = state_id{0};
    ts[0].to = state_id{0};
    ts[0].input = t.intern("a");
    ts[0].output = t.intern("x");
    const fsm m("M", {"s0"}, state_id{0}, std::move(ts));
    EXPECT_EQ(m.transitions()[0].name, "t1");
}

TEST(dot_test, renders_states_edges_and_internal_style) {
    symbol_table t;
    fsm_builder b("M", t);
    b.external("t1", "s0", "a", "x", "s1");
    b.internal("t2", "s1", "g", "m", "s0", machine_id{2});
    const fsm m = b.build("s0");
    const std::string dot = to_dot(m, t);
    EXPECT_NE(dot.find("digraph \"M\""), std::string::npos);
    EXPECT_NE(dot.find("t1: a/x"), std::string::npos);
    EXPECT_NE(dot.find("=> M3"), std::string::npos);
    EXPECT_NE(dot.find("style=bold"), std::string::npos);
}

/// Runs `f`, which must throw cfsmdiag::error itself (no subclass) with
/// exactly the message `text`.  The messages are built lazily, only on
/// failure, so nothing else would notice a changed text.
template <class F>
void expect_error_text(F&& f, const std::string& text) {
    try {
        f();
        ADD_FAILURE() << "no error thrown, expected: " << text;
    } catch (const error& e) {
        EXPECT_EQ(typeid(e), typeid(error)) << typeid(e).name();
        EXPECT_EQ(std::string(e.what()), text);
    }
}

TEST(precondition_message_test, out_of_range_accessors) {
    symbol_table t;
    fsm_builder b("M", t);
    b.external("t1", "s0", "a", "x", "s1");
    const fsm m = b.build("s0");
    expect_error_text([&] { (void)m.at(transition_id{1}); },
                      "fsm::at: transition out of range in M");
    expect_error_text([&] { (void)m.state_name(state_id{2}); },
                      "fsm::state_name: state out of range in M");
    const cfsmdiag::system sys("S", t, {m});
    expect_error_text([&] { (void)sys.machine(machine_id{1}); },
                      "system 'S': machine index out of range");
}

TEST(precondition_message_test, constructor_check) {
    expect_error_text(
        [] { (void)fsm("M", {"s0", "s1"}, state_id{2}, {}); },
        "fsm 'M': initial state out of range");
}

TEST(precondition_message_test, parse_compact_empty_token) {
    symbol_table t;
    (void)t.intern("a");
    expect_error_text([&] { (void)parse_compact("tc", "a1,,a1", t); },
                      "parse_compact: empty token in 'a1,,a1'");
}

}  // namespace
}  // namespace cfsmdiag
