// perfbench driver: cold fault campaigns over one workload, timed end to
// end (untraced) or layer by layer (traced).
//
// The driver links libcfsmdiag and calls only its public API:
// transition_tour, the spec_context constructor, enumerate_all_faults,
// campaign_engine::run with a campaign_observer, diagnose() and the oracle
// interface.  Every repetition builds a fresh spec_context, so no cache of
// the library is warm when a repetition starts.
//
// perfbench/run.py builds this program, passes the workload's generator
// parameters (perfbench/workloads.json) and turns the JSON object this
// program prints on its last stdout line into the benchmark result.
//
//   perfbench_driver --model sliding_window --size 8 --jobs 4
//                    --seconds 30 --trace 0
//   perfbench_driver --model random_corpus --systems 150 --machines 3
//                    --states 6 --extra 12 --corpus-seed 1993 --jobs 1
//                    --seconds 30 --trace 1 --trace-out spans.jsonl
//
// The inputs are fixed by these parameters: systems and faults go to the
// library in enumerate_all_faults order, as a campaign runs by default.
//
// Untraced (--trace 0): repeats cold campaigns at --jobs while the next
// one is expected to end within --seconds (at least one), and reports
// medians over repetitions and percentiles over the latencies of all of
// them.  Cold set-ups are timed alone before the first campaign and after
// each one, for about a tenth of the run.  A jobs-1 workload is pinned to
// one CPU.
// Traced (--trace 1): three cold passes over the same inputs —
//   A. the campaign at jobs 4, untraced (throughput, Step-6 time at jobs 4,
//      parallel efficiency),
//   B. the campaign at jobs 1 (entry digest, campaign_metrics counters,
//      serial Step-6 and scoring time),
//   C. diagnose() per fault, serial, first untraced, then through a timing
//      oracle (Step split from diagnosis_result::timings, oracle time,
//      per-fault spans; the two walls give trace.overhead_frac).
// Spans are kept in memory and written to --trace-out at the end.
//
// Correctness gate (both modes): every planned fault has an entry, no
// entry errored or timed out, no verdict is inconclusive or
// no_consistent_hypothesis, every detected entry is sound, deterministic
// counters repeat exactly across repetitions, and (traced) pass A's entry
// digest equals pass B's and pass C's per-fault results agree with the
// campaign entries.  Known limit: `sound` is scored by the engine's own
// capped equivalence check.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "diag/diagnoser.hpp"
#include "fault/enumerate.hpp"
#include "fault/oracle.hpp"
#include "gen/engine.hpp"
#include "gen/random_system.hpp"
#include "io/snapshot.hpp"
#include "models/models.hpp"
#include "testgen/tour.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace cfsmdiag;
using clock_type = std::chrono::steady_clock;
// cfsmdiag::system, spelled apart from ::system of <cstdlib>.
using cfsm_system = cfsmdiag::system;

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- options

struct options {
    std::string model;  // sliding_window | rtos_round_robin | random_corpus
    std::size_t size = 0;
    std::size_t systems = 0;
    std::size_t machines = 3;
    std::size_t states = 6;
    std::size_t extra = 12;
    std::uint64_t corpus_seed = 0;
    std::size_t jobs = 1;
    double seconds = 1.0;
    bool trace = false;
    std::optional<std::size_t> doctor_entry;
    std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench_driver: " << why << "\n";
    std::exit(2);
}

options parse_args(int argc, char** argv) {
    options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage("missing value for " + key);
        const std::string val = argv[++i];
        const auto num = [&] { return std::stoull(val); };
        if (key == "--model") o.model = val;
        else if (key == "--size") o.size = num();
        else if (key == "--systems") o.systems = num();
        else if (key == "--machines") o.machines = num();
        else if (key == "--states") o.states = num();
        else if (key == "--extra") o.extra = num();
        else if (key == "--corpus-seed") o.corpus_seed = num();
        else if (key == "--jobs") o.jobs = num();
        else if (key == "--seconds") o.seconds = std::stod(val);
        else if (key == "--trace") o.trace = val == "1";
        else if (key == "--doctor-entry") o.doctor_entry = num();
        else if (key == "--trace-out") o.trace_out = val;
        else usage("unknown option or value: " + key + " " + val);
    }
    if (o.model.empty()) usage("--model is required");
    if (o.jobs == 0) usage("--jobs must be at least 1");
    return o;
}

// ----------------------------------------------------------------- inputs

/// The systems of one workload.
std::vector<cfsm_system> make_systems(const options& o) {
    std::vector<cfsm_system> out;
    if (o.model == "sliding_window") {
        out.push_back(models::sliding_window(o.size));
    } else if (o.model == "rtos_round_robin") {
        out.push_back(models::rtos_round_robin(o.size));
    } else if (o.model == "random_corpus") {
        random_system_options gen;
        gen.machines = o.machines;
        gen.states_per_machine = o.states;
        gen.extra_transitions = o.extra;
        for (std::size_t i = 0; i < o.systems; ++i) {
            rng r(o.corpus_seed + i);
            out.push_back(random_system(gen, r));
        }
    } else {
        usage("unknown model " + o.model);
    }
    return out;
}

// ------------------------------------------------------------------ spans

/// In-memory span log: name, start, end, parent.  Written out at the end.
struct span_log {
    struct span {
        std::size_t id;
        std::size_t parent;  // 0 = root
        std::string name;
        double start_s;
        double end_s;
        double oracle_s;  // time in oracle::execute inside this span
        long long fault;  // index in enumerate_all_faults, -1 if none
    };
    bool enabled = false;
    clock_type::time_point origin = clock_type::now();
    std::vector<span> spans;

    double now() const { return seconds_between(origin, clock_type::now()); }

    std::size_t open(std::string name, std::size_t parent = 0) {
        if (!enabled) return 0;
        spans.push_back({spans.size() + 1, parent, std::move(name), now(),
                         0.0, 0.0, -1});
        return spans.size();
    }
    void close(std::size_t id) {
        if (id != 0) spans[id - 1].end_s = now();
    }

    void write(const std::string& path) const {
        if (path.empty()) return;
        std::ofstream out(path);
        for (const span& s : spans) {
            json_value row = json_value::object();
            row.set("id", json_value::number(s.id));
            row.set("parent", json_value::number(s.parent));
            row.set("name", json_value::string(s.name));
            row.set("start_s", json_value::number(s.start_s));
            row.set("end_s", json_value::number(s.end_s));
            if (s.oracle_s > 0.0)
                row.set("oracle_s", json_value::number(s.oracle_s));
            if (s.fault >= 0)
                row.set("fault",
                        json_value::number(static_cast<std::int64_t>(s.fault)));
            out << row.dump() << "\n";
        }
    }
};

// ------------------------------------------------------------------ setup

/// Set-up of one system: tour, fresh context, fault universe.
struct prepared {
    std::unique_ptr<spec_context> ctx;
    std::vector<single_transition_fault> faults;
    double tour_s = 0.0;
    double ctx_s = 0.0;
    double enum_s = 0.0;
    std::size_t suite_inputs = 0;

    double setup_s() const { return tour_s + ctx_s + enum_s; }
};

prepared prepare(const cfsm_system& spec, span_log& log, std::size_t parent) {
    prepared p;
    const std::size_t root = log.open("setup", parent);
    auto t0 = clock_type::now();
    std::size_t s = log.open("testgen.transition_tour", root);
    tour_result tour = transition_tour(spec);
    log.close(s);
    auto t1 = clock_type::now();
    p.suite_inputs = tour.suite.total_inputs();
    s = log.open("spec_context.build", root);
    p.ctx = std::make_unique<spec_context>(spec, std::move(tour.suite));
    log.close(s);
    auto t2 = clock_type::now();
    s = log.open("fault.enumerate_all_faults", root);
    p.faults = enumerate_all_faults(spec);
    log.close(s);
    auto t3 = clock_type::now();
    log.close(root);
    p.tour_s = seconds_between(t0, t1);
    p.ctx_s = seconds_between(t1, t2);
    p.enum_s = seconds_between(t2, t3);
    return p;
}

template <typename T>
std::size_t bytes_of(const std::vector<T>& v) {
    return v.size() * sizeof(T);
}

/// Bytes held by the public tables of a compiled_spec.
std::size_t compiled_bytes(const compiled_spec& cs) {
    std::size_t b = bytes_of(cs.machine_offset) + bytes_of(cs.owner) +
                    bytes_of(cs.out_sym) + bytes_of(cs.next_state) +
                    bytes_of(cs.is_internal) + bytes_of(cs.dest) +
                    (cs.internal_mask.size() + 63) / 64 * 8 +
                    bytes_of(cs.pool_offset) + bytes_of(cs.pool_syms) +
                    bytes_of(cs.disp_offset) + bytes_of(cs.disp_stride) +
                    bytes_of(cs.dispatch) + bytes_of(cs.state_shift) +
                    bytes_of(cs.state_mask) + bytes_of(cs.state_count);
    for (const auto& c : cs.cases)
        b += bytes_of(c.in_port) + bytes_of(c.in_sym) +
             bytes_of(c.state_before) + bytes_of(c.rep) +
             bytes_of(c.first_fire) + bytes_of(c.fire_off) +
             bytes_of(c.fire_steps) + bytes_of(c.step_off) +
             bytes_of(c.step_fired);
    return b;
}

// --------------------------------------------------------------- campaign

/// Deterministic campaign_metrics counters, summed over a workload.
struct counters {
    std::size_t replays = 0, simulated_steps = 0, joint_states = 0,
                memo_hits = 0, memo_misses = 0, table_answers = 0,
                bfs_searches = 0, oracle_executions = 0, oracle_inputs = 0,
                additional_tests = 0, additional_inputs = 0;

    void add(const campaign_metrics& m) {
        replays += m.replays;
        simulated_steps += m.simulated_steps;
        joint_states += m.discrim_joint_states;
        memo_hits += m.discrim_memo_hits;
        memo_misses += m.discrim_memo_misses;
        table_answers += m.discrim_table_answers;
        bfs_searches += m.discrim_bfs_searches;
        oracle_executions += m.oracle_executions;
        oracle_inputs += m.oracle_inputs;
        additional_tests += m.additional_tests;
        additional_inputs += m.additional_inputs;
    }
    bool operator==(const counters&) const = default;

    json_value to_json() const {
        json_value o = json_value::object();
        o.set("replays", json_value::number(replays));
        o.set("simulated_steps", json_value::number(simulated_steps));
        o.set("joint_states", json_value::number(joint_states));
        o.set("memo_hits", json_value::number(memo_hits));
        o.set("memo_misses", json_value::number(memo_misses));
        o.set("table_answers", json_value::number(table_answers));
        o.set("bfs_searches", json_value::number(bfs_searches));
        o.set("oracle_executions", json_value::number(oracle_executions));
        o.set("oracle_inputs", json_value::number(oracle_inputs));
        o.set("additional_tests", json_value::number(additional_tests));
        o.set("additional_inputs", json_value::number(additional_inputs));
        return o;
    }
};

std::string hex(std::uint64_t h) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/// Verdict-quality tallies and gate failures over a workload's entries.
struct verdicts {
    std::size_t attempted = 0, detected = 0, sound = 0, localized = 0,
                additional_inputs = 0, failed = 0;
    std::vector<std::string> problems;

    void note(const std::string& p) {
        if (problems.size() < 20) problems.push_back(p);
    }
};

bool is_failure(const campaign_entry& e) {
    return e.errored || e.timed_out ||
           e.outcome == diagnosis_outcome::inconclusive_unreliable ||
           e.outcome == diagnosis_outcome::inconclusive_resource ||
           e.outcome == diagnosis_outcome::no_consistent_hypothesis ||
           (e.detected && !e.sound);
}

/// Per-fault time to verdict on its worker: from the fault's fault_hook
/// call to the same worker's next fault_hook call (diagnosis, scoring and
/// the merge), or, for a worker's last fault, to its in-order observer
/// callback.  At jobs 1 these are the intervals between in-order
/// on_fault_done calls; at jobs > 1 they leave out the wait for earlier
/// faults that in-order delivery adds.
struct latency_probe : campaign_observer {
    std::vector<clock_type::time_point> start, done;
    std::vector<std::thread::id> worker;
    explicit latency_probe(std::size_t n) : start(n), done(n), worker(n) {}

    void on_start(std::size_t index) {
        start[index] = clock_type::now();
        worker[index] = std::this_thread::get_id();
    }
    void on_fault_done(std::size_t index, const campaign_entry&) override {
        done[index] = clock_type::now();
    }

    /// Latency per index, once the run has finished.
    std::vector<double> latencies() const {
        std::vector<std::size_t> by_worker(start.size());
        std::iota(by_worker.begin(), by_worker.end(), std::size_t{0});
        std::sort(by_worker.begin(), by_worker.end(),
                  [&](std::size_t a, std::size_t b) {
                      return worker[a] != worker[b] ? worker[a] < worker[b]
                                                    : start[a] < start[b];
                  });
        std::vector<double> out(start.size());
        for (std::size_t k = 0; k < by_worker.size(); ++k) {
            const std::size_t i = by_worker[k];
            const bool next_on_worker =
                k + 1 < by_worker.size() &&
                worker[by_worker[k + 1]] == worker[i];
            out[i] = seconds_between(
                start[i], next_on_worker ? start[by_worker[k + 1]] : done[i]);
        }
        return out;
    }
};

/// One cold campaign over one prepared system.
struct campaign_run {
    campaign_metrics metrics;
    std::vector<campaign_entry> entries;
    std::vector<double> latency_s;
};

campaign_run run_campaign_once(prepared& p, std::size_t jobs, span_log& log,
                               std::size_t parent) {
    const std::size_t n = p.faults.size();
    latency_probe probe(n);
    campaign_options opts;
    opts.jobs = jobs;
    opts.fault_hook = [&probe](std::size_t i) { probe.on_start(i); };
    campaign_engine engine(*p.ctx, p.faults, opts);
    engine.attach(probe);
    const std::size_t s = log.open("campaign_engine.run", parent);
    engine.run();
    log.close(s);

    campaign_run out;
    out.metrics = engine.metrics();
    out.entries = engine.stats().entries;
    if (out.entries.size() != n)
        throw std::runtime_error("the engine returned " +
                                 std::to_string(out.entries.size()) +
                                 " entries for " + std::to_string(n) +
                                 " planned faults");
    out.latency_s = probe.latencies();
    return out;
}

/// Folds one system's entries into the gate; returns the FNV-1a-64 digest
/// of their campaign_entry_to_json rows.
std::uint64_t score(const cfsm_system& spec,
                    const std::vector<campaign_entry>& entries, verdicts& v) {
    std::uint64_t digest = fnv1a64("");
    for (const campaign_entry& e : entries) {
        ++v.attempted;
        if (e.detected) {
            ++v.detected;
            if (e.sound) ++v.sound;
            if (e.outcome == diagnosis_outcome::localized ||
                e.outcome == diagnosis_outcome::localized_up_to_equivalence)
                ++v.localized;
            v.additional_inputs += e.additional_inputs;
        }
        if (is_failure(e)) {
            ++v.failed;
            v.note(describe(spec, e.fault) + ": " + to_string(e.outcome) +
                   (e.errored ? " errored (" + e.error_message + ")" : "") +
                   (e.timed_out ? " timed out" : "") +
                   (e.detected && !e.sound ? " detected but unsound" : ""));
        }
        digest = fnv1a64(campaign_entry_to_json(spec, e).dump(), digest);
        digest = fnv1a64("\n", digest);
    }
    return digest;
}

/// Flips `sound` on the first detected entry at or after `from`: the
/// self-test's doctored entry, which the gate must catch.
void doctor(std::vector<campaign_entry>& entries, std::size_t from) {
    for (std::size_t k = 0; k < entries.size(); ++k) {
        campaign_entry& e = entries[(from + k) % entries.size()];
        if (e.detected) {
            e.sound = false;
            return;
        }
    }
}

// ----------------------------------------------------------- statistics

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Pins the process to the highest CPU it may run on.  A serial campaign
/// that the scheduler moves between CPUs measured about three times the
/// run-to-run spread of a pinned one on a 4-CPU virtual machine.
void pin_to_one_cpu() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
        return;
    }
}

double peak_rss_mb() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The "metrics" object of the result, rendered with every digit of each
/// value (json_value keeps ten).
struct metric_list {
    std::string json;

    void add(const char* name, double value, const char* unit) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        json += json.empty() ? "{\"" : ",\"";
        json += name;
        json += "\":{\"value\":";
        json += buf;
        json += ",\"unit\":\"";
        json += unit;
        json += "\"}";
    }
};

/// Prints `out` with a "metrics" member appended, as one line.
void print_result(const json_value& out, const metric_list& m) {
    std::string line = out.dump();
    line.pop_back();  // the closing brace
    std::cout << line << ",\"metrics\":" << m.json << "}}" << std::endl;
}

/// a / b, or 0 when b is 0.
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// ------------------------------------------------------------- workloads

/// One cold pass: set up and run every system of the workload.
struct pass_result {
    double tour_s = 0.0, ctx_s = 0.0, engine_s = 0.0;
    std::size_t suite_inputs = 0, compiled = 0, faults = 0;
    campaign_metrics sum;  // stage/wall fields summed
    counters count;
    std::vector<double> latency_s;
    verdicts v;
    std::string digest;
    /// Entries per system (when kept).
    std::vector<std::vector<campaign_entry>> entries;
};

/// `doctor_from`, when set, doctors the first system's entries (see
/// doctor()) before they are scored.
pass_result campaign_pass(const std::vector<cfsm_system>& specs,
                          std::size_t jobs,
                          std::optional<std::size_t> doctor_from,
                          bool keep_entries, span_log& log,
                          const char* name) {
    pass_result r;
    const std::size_t root = log.open(name);
    std::uint64_t all = fnv1a64("");
    std::string digest;
    if (keep_entries) r.entries.resize(specs.size());
    for (std::size_t si = 0; si < specs.size(); ++si) {
        prepared p = prepare(specs[si], log, root);
        r.tour_s += p.tour_s;
        r.ctx_s += p.ctx_s;
        r.suite_inputs += p.suite_inputs;
        r.compiled += compiled_bytes(p.ctx->compiled());
        campaign_run c = run_campaign_once(p, jobs, log, root);
        r.engine_s += c.metrics.wall_total;
        r.faults += c.entries.size();
        r.sum.stage += c.metrics.stage;
        r.sum.wall_scoring += c.metrics.wall_scoring;
        r.sum.wall_total += c.metrics.wall_total;
        r.count.add(c.metrics);
        r.latency_s.insert(r.latency_s.end(), c.latency_s.begin(),
                           c.latency_s.end());
        if (doctor_from && si == 0) doctor(c.entries, *doctor_from);
        digest = hex(score(specs[si], c.entries, r.v));
        all = fnv1a64(digest, all);
        if (keep_entries) r.entries[si] = std::move(c.entries);
    }
    log.close(root);
    r.digest = specs.size() == 1 ? digest : hex(all);
    return r;
}

/// oracle wrapper that times every execute() call of a simulated IUT.
class timing_oracle final : public oracle {
  public:
    timing_oracle(const cfsm_system& spec, const single_transition_fault& fault)
        : inner_(spec, fault) {}

    std::vector<observation> execute(
        const std::vector<global_input>& test) override {
        const auto t0 = clock_type::now();
        std::vector<observation> out = inner_.execute(test);
        execute_s += seconds_between(t0, clock_type::now());
        return out;
    }
    std::size_t executions() const noexcept override {
        return inner_.executions();
    }
    std::size_t inputs_applied() const noexcept override {
        return inner_.inputs_applied();
    }

    double execute_s = 0.0;

  private:
    simulated_iut inner_;
};

/// Pass C: diagnose() per fault through the timing oracle, serial.
struct diagnose_pass {
    stage_timings stage;
    double wall_s = 0.0, diagnose_s = 0.0, oracle_s = 0.0, tour_s = 0.0,
           ctx_s = 0.0;
    std::size_t executions = 0, inputs = 0;
    struct slow {
        double s;
        std::string fault;
    };
    std::vector<slow> slowest;  // the five slowest diagnoses
};

diagnose_pass run_diagnose_pass(
    const std::vector<cfsm_system>& specs,
    const std::vector<std::vector<campaign_entry>>& reference, span_log& log,
    verdicts& v) {
    diagnose_pass d;
    struct timed {
        double s;
        std::size_t system, fault;
    };
    std::vector<timed> all;
    const std::size_t root = log.open("pass_c.diagnose");
    for (std::size_t si = 0; si < specs.size(); ++si) {
        prepared p = prepare(specs[si], log, root);
        d.tour_s += p.tour_s;
        d.ctx_s += p.ctx_s;
        const auto t0 = clock_type::now();
        for (std::size_t k = 0; k < p.faults.size(); ++k) {
            const std::size_t s = log.open("diagnose", root);
            const auto f0 = clock_type::now();
            timing_oracle iut(specs[si], p.faults[k]);
            const diagnosis_result res = diagnose(*p.ctx, iut);
            const double dt = seconds_between(f0, clock_type::now());
            log.close(s);
            if (s != 0) {
                log.spans[s - 1].oracle_s = iut.execute_s;
                log.spans[s - 1].fault = static_cast<long long>(k);
            }
            d.stage += res.timings;
            d.diagnose_s += dt;
            d.oracle_s += iut.execute_s;
            d.executions += iut.executions();
            d.inputs += iut.inputs_applied();
            all.push_back({dt, si, k});
            const campaign_entry& e = reference[si][k];
            if (e.outcome != res.outcome ||
                e.final_diagnoses != res.final_diagnoses.size() ||
                e.additional_tests != res.additional_tests.size() ||
                e.additional_inputs != res.additional_inputs() ||
                e.oracle_executions != iut.executions() ||
                e.oracle_inputs != iut.inputs_applied()) {
                v.note("diagnose() disagrees with the campaign entry for " +
                       describe(specs[si], e.fault));
            }
        }
        d.wall_s += seconds_between(t0, clock_type::now());
    }
    log.close(root);
    const std::size_t top = std::min<std::size_t>(5, all.size());
    std::partial_sort(all.begin(), all.begin() + top, all.end(),
                      [](const timed& a, const timed& b) { return a.s > b.s; });
    for (std::size_t k = 0; k < top; ++k)
        d.slowest.push_back({all[k].s,
                             describe(specs[all[k].system],
                                      reference[all[k].system][all[k].fault]
                                          .fault)});
    return d;
}

/// Pass C's work without tracing (plain simulated_iut, no spans): the
/// wall time trace.overhead_frac is measured against.
double untraced_diagnose_wall(const std::vector<cfsm_system>& specs) {
    span_log off;
    double wall_s = 0.0;
    for (const cfsm_system& spec : specs) {
        prepared p = prepare(spec, off, 0);
        const auto t0 = clock_type::now();
        for (const single_transition_fault& fault : p.faults) {
            simulated_iut iut(spec, fault);
            (void)diagnose(*p.ctx, iut);
        }
        wall_s += seconds_between(t0, clock_type::now());
    }
    return wall_s;
}

// ------------------------------------------------------------------ modes

/// Cold set-ups of the whole workload, alone, for `budget_s` seconds (at
/// least three); each builds and drops fresh contexts.  Appends one sample
/// per set-up to `out`.
void sample_setups(const std::vector<cfsm_system>& specs, double budget_s,
                   std::vector<double>& out) {
    span_log off;
    const auto t0 = clock_type::now();
    for (std::size_t k = 0;
         k < 3 || seconds_between(t0, clock_type::now()) < budget_s; ++k) {
        double s = 0.0;
        for (const cfsm_system& spec : specs)
            s += prepare(spec, off, 0).setup_s();
        out.push_back(s);
    }
}

int run_untraced(const options& o, const std::vector<cfsm_system>& specs) {
    span_log off;
    std::vector<double> throughput, latency_s, setups;
    std::vector<std::string> failures;
    std::optional<pass_result> first;
    std::size_t reps = 0, attempted = 0, failed = 0;
    double rss_mb = 0.0;

    // Set-up is sampled before the first campaign and after each one, for
    // a tenth of the campaign's time, so that its median spans the run:
    // this host's speed changes in phases of about half a minute.
    const auto t0 = clock_type::now();
    sample_setups(specs, o.seconds / 20.0, setups);

    // Repetitions run while the next one and its set-ups are expected to
    // end within --seconds; the first always runs.
    double rep_s = 0.0;
    do {
        const auto r0 = clock_type::now();
        pass_result r = campaign_pass(specs, o.jobs, o.doctor_entry, false,
                                      off, "rep");
        ++reps;
        attempted += r.v.attempted;
        failed += r.v.failed;
        throughput.push_back(ratio(r.faults, r.engine_s));
        latency_s.insert(latency_s.end(), r.latency_s.begin(),
                         r.latency_s.end());
        if (!first) {
            // The high-water mark of one cold campaign, before later
            // repetitions grow the pooled latency samples.
            rss_mb = peak_rss_mb();
            failures = r.v.problems;
            first = std::move(r);
        } else {
            if (!(r.count == first->count))
                failures.push_back(
                    "deterministic counters differ between repetition 1 "
                    "and " + std::to_string(reps) +
                    " (a repetition was not cold)");
            if (r.digest != first->digest)
                failures.push_back("entry digest differs between "
                                   "repetitions");
        }
        rep_s = seconds_between(r0, clock_type::now());
        sample_setups(specs, rep_s / 10.0, setups);
    } while (seconds_between(t0, clock_type::now()) + 1.1 * rep_s <=
             o.seconds);

    const verdicts& v = first->v;
    metric_list m;
    m.add("faults_per_s", median(throughput), "1/s");
    m.add("diag_latency_p50_ms", percentile(latency_s, 0.50) * 1e3, "ms");
    m.add("diag_latency_p99_ms", percentile(latency_s, 0.99) * 1e3, "ms");
    m.add("setup_s", median(setups), "s");
    m.add("peak_rss_mb", rss_mb, "MB");
    m.add("sound_share", ratio(v.sound, v.detected), "ratio");
    m.add("localized_share", ratio(v.localized, v.detected), "ratio");
    m.add("additional_inputs_mean", ratio(v.additional_inputs, v.detected),
          "inputs");

    json_value out = json_value::object();
    out.set("mode", json_value::string("untraced"));
    out.set("reps", json_value::number(reps));
    json_value per_rep = json_value::array();
    for (double x : throughput) per_rep.push(json_value::number(x));
    out.set("faults_per_s_per_rep", std::move(per_rep));
    out.set("setup_samples", json_value::number(setups.size()));
    out.set("faults", json_value::number(first->faults));
    out.set("detected", json_value::number(v.detected));
    out.set("latency_samples", json_value::number(latency_s.size()));
    out.set("attempted", json_value::number(attempted));
    out.set("failed", json_value::number(failed));
    out.set("failed_share", json_value::number(ratio(failed, attempted)));
    out.set("digest", json_value::string(first->digest));
    out.set("counters", first->count.to_json());
    json_value f = json_value::array();
    for (const std::string& p : failures) f.push(json_value::string(p));
    out.set("failures", std::move(f));
    print_result(out, m);
    return 0;
}

int run_traced(const options& o, const std::vector<cfsm_system>& specs) {
    span_log log;
    log.enabled = true;
    std::vector<std::string> failures;

    // A: jobs 4, untraced; B: serial campaign; C: serial diagnose(), once
    // untraced and once traced.  A doctored entry goes into A only, so the
    // A/B digest check sees it.
    span_log off;
    pass_result a =
        campaign_pass(specs, 4, o.doctor_entry, false, off, "pass_a");
    pass_result b =
        campaign_pass(specs, 1, std::nullopt, true, log, "pass_b.campaign");
    for (const std::string& p : a.v.problems) failures.push_back(p);
    for (const std::string& p : b.v.problems) failures.push_back(p);
    if (a.digest != b.digest)
        failures.push_back("entry digest at jobs 4 (" + a.digest +
                           ") differs from the serial pass (" + b.digest +
                           ")");
    if (!(a.count == b.count))
        failures.push_back("deterministic counters differ between jobs 4 "
                           "and the serial pass");

    verdicts cv;
    const double untraced_c_s = untraced_diagnose_wall(specs);
    diagnose_pass c = run_diagnose_pass(specs, b.entries, log, cv);
    for (const std::string& p : cv.problems) failures.push_back(p);
    if (c.executions != b.count.oracle_executions ||
        c.inputs != b.count.oracle_inputs)
        failures.push_back("timing-oracle effort differs from the "
                           "campaign's oracle counters");
    log.write(o.trace_out);

    const counters& k = b.count;
    const double busy = a.sum.stage.total() + a.sum.wall_scoring;
    metric_list m;
    m.add("testgen.tour_s", median({a.tour_s, b.tour_s, c.tour_s}), "s");
    m.add("testgen.suite_inputs", a.suite_inputs, "count");
    m.add("spec_context.build_s", median({a.ctx_s, b.ctx_s, c.ctx_s}), "s");
    m.add("spec_context.compiled_bytes", a.compiled, "bytes");
    m.add("oracle.executions", c.executions, "count");
    m.add("oracle.inputs", c.inputs, "count");
    m.add("oracle.execute_s", c.oracle_s, "s");
    m.add("diag.steps1_3_s", c.stage.symptoms, "s");
    m.add("diag.step4_s", c.stage.conflicts, "s");
    m.add("diag.step5a_s", c.stage.candidates, "s");
    m.add("diag.step5bc_s", c.stage.evaluation, "s");
    m.add("hypotheses.replays", k.replays, "count");
    m.add("hypotheses.simulated_steps", k.simulated_steps, "count");
    m.add("hypotheses.steps_per_replay", ratio(k.simulated_steps, k.replays),
          "steps/replay");
    m.add("diag.step6_s", c.stage.discrimination, "s");
    m.add("discrim.bfs_searches", k.bfs_searches, "count");
    m.add("discrim.joint_states", k.joint_states, "count");
    m.add("discrim.memo_hits", k.memo_hits, "count");
    m.add("discrim.memo_misses", k.memo_misses, "count");
    m.add("discrim.memo_hit_ratio",
          ratio(k.memo_hits, k.memo_hits + k.memo_misses), "ratio");
    m.add("discrim.table_answers", k.table_answers, "count");
    m.add("step6.additional_tests", k.additional_tests, "count");
    m.add("step6.additional_inputs", k.additional_inputs, "count");
    m.add("engine.run_s", a.engine_s, "s");
    m.add("engine.parallel_efficiency", ratio(busy, 4.0 * a.sum.wall_total),
          "ratio");
    m.add("engine.step6_inflation",
          ratio(a.sum.stage.discrimination, b.sum.stage.discrimination),
          "ratio");
    m.add("diag.scoring_s", b.sum.wall_scoring, "s");
    m.add("diag.diagnose_s", c.diagnose_s, "s");
    m.add("trace.overhead_frac", ratio(c.wall_s, untraced_c_s) - 1.0,
          "ratio");

    json_value slow = json_value::array();
    for (const auto& s : c.slowest) {
        json_value row = json_value::object();
        row.set("fault", json_value::string(s.fault));
        row.set("diagnose_s", json_value::number(s.s));
        slow.push(std::move(row));
    }

    json_value out = json_value::object();
    out.set("mode", json_value::string("traced"));
    out.set("reps", json_value::number(std::size_t{1}));
    out.set("faults", json_value::number(a.faults));
    out.set("detected", json_value::number(a.v.detected));
    out.set("attempted", json_value::number(a.v.attempted + b.v.attempted));
    out.set("failed", json_value::number(a.v.failed + b.v.failed));
    out.set("digest", json_value::string(b.digest));
    out.set("counters", k.to_json());
    out.set("spans", json_value::number(log.spans.size()));
    out.set("slowest_faults", std::move(slow));
    json_value f = json_value::array();
    for (const std::string& p : failures) f.push(json_value::string(p));
    out.set("failures", std::move(f));
    print_result(out, m);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const options o = parse_args(argc, argv);
        const std::vector<cfsm_system> specs = make_systems(o);
        if (!o.trace && o.jobs == 1) pin_to_one_cpu();
        return o.trace ? run_traced(o, specs) : run_untraced(o, specs);
    } catch (const std::exception& e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
