#include "diag/discrim_engine.hpp"

#include <algorithm>
#include <unordered_set>

#include "diag/additional_tests.hpp"
#include "diag/discriminate.hpp"
#include "diag/replay_cache.hpp"
#include "util/budget.hpp"
#include "util/cost.hpp"
#include "util/error.hpp"

namespace cfsmdiag {
namespace {

/// Must match simulator.cpp's default budget: the chain-safety analysis
/// proves spec chains terminate within it.
constexpr std::size_t hop_budget = 1024;

/// Joint spaces up to this many states use the epoch-tagged dense visited
/// array (16 MiB of u32 epochs at the cap, allocated once per thread and
/// reused); larger spaces fall back to a hashed visited set.
constexpr std::uint64_t dense_visited_cap = std::uint64_t{1} << 22;

/// Layer-2 limits: the product state space S, an S² · inputs bound, and the
/// largest hypothesis set a query partitions.  Together they decide which
/// queries the tables serve, and so the table_answers and bfs_searches
/// counts that perfbench/workloads.json records.
constexpr std::uint32_t pair_state_cap = 128;
constexpr std::uint64_t pair_edge_cap = std::uint64_t{1} << 21;
constexpr std::size_t pair_k_cap = 16;

/// True when no specification chain can ever throw: every internal
/// transition sends a real (non-ε) message, the internal successor graph
/// (transition t can trigger transition t' in its destination machine) is
/// acyclic, and the longest possible chain — bounded by the transition
/// count in an acyclic graph — fits the simulator's hop budget.  The
/// reference joint search computes a spec step for every explored
/// (state, input), so a throwing spec chain is observable behaviour the
/// flat path must not silently lose; this analysis is the conservative
/// gate.
bool spec_chains_safe(const compiled_spec& cs) {
    if (cs.total > hop_budget) return false;
    for (std::uint32_t t = 0; t < cs.total; ++t) {
        if (cs.is_internal[t] && cs.out_sym[t] == 0) return false;
    }
    // Iterative three-color DFS over the transition successor graph.
    std::vector<std::uint8_t> color(cs.total, 0);  // 0 new, 1 open, 2 done
    std::vector<std::uint32_t> succ_scratch;
    const auto successors = [&](std::uint32_t t) {
        succ_scratch.clear();
        if (!cs.is_internal[t]) return;
        const std::uint32_t m = cs.dest[t];
        const std::uint32_t msg = cs.out_sym[t];
        if (msg >= cs.disp_stride[m]) return;
        for (std::uint32_t s = 0; s < cs.state_count[m]; ++s) {
            const std::uint32_t d =
                cs.dispatch[cs.disp_offset[m] + s * cs.disp_stride[m] + msg];
            if (d != invalid_index) succ_scratch.push_back(d);
        }
    };
    std::vector<std::pair<std::uint32_t, std::size_t>> stack;
    std::vector<std::vector<std::uint32_t>> succ(cs.total);
    for (std::uint32_t t = 0; t < cs.total; ++t) {
        successors(t);
        succ[t] = succ_scratch;
    }
    for (std::uint32_t root = 0; root < cs.total; ++root) {
        if (color[root] != 0) continue;
        stack.emplace_back(root, 0);
        color[root] = 1;
        while (!stack.empty()) {
            auto& [t, next] = stack.back();
            if (next < succ[t].size()) {
                const std::uint32_t s = succ[t][next++];
                if (color[s] == 1) return false;  // back edge: cycle
                if (color[s] == 0) {
                    color[s] = 1;
                    stack.emplace_back(s, 0);
                }
            } else {
                color[t] = 2;
                stack.pop_back();
            }
        }
    }
    return true;
}

/// The reference search constructs one simulator per hypothesis, which
/// validates its overrides; replicating those checks (same order, same
/// messages) keeps the engine's behaviour on malformed hypotheses
/// byte-identical to the reference path.
void validate_overrides(const system& sys,
                        const std::vector<transition_override>& overrides) {
    for (std::size_t i = 0; i < overrides.size(); ++i) {
        const auto id = overrides[i].target;
        detail::require(id.machine.value < sys.machine_count(),
                        "simulator: override machine out of range");
        detail::require(
            id.transition.value <
                sys.machine(id.machine).transitions().size(),
            "simulator: override transition out of range");
        if (overrides[i].next_state) {
            detail::require(overrides[i].next_state->value <
                                sys.machine(id.machine).state_count(),
                            "simulator: override next state out of range");
        }
        if (overrides[i].destination) {
            detail::require(
                overrides[i].destination->value < sys.machine_count() &&
                    *overrides[i].destination != id.machine,
                "simulator: override destination out of range or self");
        }
        for (std::size_t j = i + 1; j < overrides.size(); ++j) {
            detail::require(overrides[j].target != id,
                            "simulator: overrides must target distinct "
                            "transitions");
        }
    }
}

/// Canonical encoding of one hypothesis (a set of overrides) over compiled
/// ids: per override [dense target, output id | ~0, next state | ~0,
/// destination | ~0], overrides sorted, prefixed by the override count.
/// Needs only the dense universe (never the packing), so keys exist even
/// when the flat search does not.
std::vector<std::uint32_t> encode_hypothesis(
    const compiled_spec& cs, const std::vector<transition_override>& ovs) {
    std::vector<std::array<std::uint32_t, 4>> blocks;
    blocks.reserve(ovs.size());
    for (const transition_override& ov : ovs) {
        blocks.push_back({cs.dense_id(ov.target),
                          ov.output ? ov.output->id : invalid_index,
                          ov.next_state ? ov.next_state->value : invalid_index,
                          ov.destination ? ov.destination->value
                                         : invalid_index});
    }
    std::sort(blocks.begin(), blocks.end());
    std::vector<std::uint32_t> enc;
    enc.reserve(1 + 4 * blocks.size());
    enc.push_back(static_cast<std::uint32_t>(blocks.size()));
    for (const auto& b : blocks) enc.insert(enc.end(), b.begin(), b.end());
    return enc;
}

/// Dense ids, in first-seen order, for fixed-width rows of u32 words: a
/// flat open-addressing table of row ids over one contiguous row store, so
/// interning a row allocates nothing per row.
class row_interner {
  public:
    /// Empties the table for rows of `width` words, sized for `max_rows`.
    void reset(std::size_t width, std::size_t max_rows) {
        width_ = width;
        rows_.clear();
        std::size_t slots = 16;
        while (slots < 2 * max_rows) slots *= 2;
        slots_.assign(slots, invalid_index);
    }

    std::uint32_t intern(const std::uint32_t* row) {
        std::size_t h = 0x811c9dc5u;
        for (std::size_t w = 0; w < width_; ++w)
            h = (h ^ row[w]) * 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t at = (h ^ (h >> 29)) & mask;; at = (at + 1) & mask) {
            const std::uint32_t id = slots_[at];
            if (id == invalid_index) {
                const auto fresh = static_cast<std::uint32_t>(size());
                rows_.insert(rows_.end(), row, row + width_);
                slots_[at] = fresh;
                return fresh;
            }
            if (std::equal(row, row + width_, rows_.begin() + id * width_))
                return id;
        }
    }

    [[nodiscard]] std::size_t size() const noexcept {
        return rows_.size() / width_;
    }

  private:
    std::size_t width_ = 1;
    std::vector<std::uint32_t> rows_;   ///< row id → its words
    std::vector<std::uint32_t> slots_;  ///< row id or invalid_index
};

/// The packed global states one transfer search has visited: open
/// addressing with linear probing over a power-of-two table.  ~0 marks an
/// empty slot, so the all-ones state (possible only when the packing fills
/// all 64 bits) is tracked by a flag of its own.
class packed_state_set {
  public:
    /// True when `v` was not in the set yet.
    bool insert(std::uint64_t v) {
        if (v == empty) {
            if (has_all_ones_) return false;
            has_all_ones_ = true;
            ++size_;
            return true;
        }
        if (2 * (size_ + 1) > slots_.size()) grow();
        if (!place(v)) return false;
        ++size_;
        return true;
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }

  private:
    static constexpr std::uint64_t empty = ~std::uint64_t{0};

    /// Stores `v` unless present; true when stored.
    bool place(std::uint64_t v) {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t at = (v * 0x9e3779b97f4a7c15ull) >> shift_;;
             at = (at + 1) & mask) {
            if (slots_[at] == v) return false;
            if (slots_[at] == empty) {
                slots_[at] = v;
                return true;
            }
        }
    }

    void grow() {
        std::vector<std::uint64_t> old(2 * slots_.size(), empty);
        old.swap(slots_);
        --shift_;
        for (const std::uint64_t v : old)
            if (v != empty) (void)place(v);
    }

    std::vector<std::uint64_t> slots_ = std::vector<std::uint64_t>(64, empty);
    unsigned shift_ = 64 - 6;  ///< 64 - log2(slots_.size())
    std::size_t size_ = 0;
    bool has_all_ones_ = false;
};

/// Dense visited scratch, one per thread, shared by every engine: begin()
/// is O(1), so each search pays one store per joint state and nothing to
/// reset.
thread_local epoch_set g_dense;

}  // namespace

std::size_t discrim_engine::key_hash::operator()(
    const key_type& k) const noexcept {
    std::size_t h = 0x811c9dc5u;
    for (std::uint32_t v : k)
        h = (h ^ v) * 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

discrim_engine::discrim_engine(const compiled_spec& cs, const system& spec)
    : cs_(&cs), spec_(&spec) {
    inputs_ = all_port_inputs(spec);
    in_port_.reserve(inputs_.size());
    in_sym_.reserve(inputs_.size());
    for (const global_input& in : inputs_) {
        in_port_.push_back(in.port.value);
        in_sym_.push_back(in.input.id);
    }
    flat_ok_ = cs.packable && spec_chains_safe(cs);
}

std::uint32_t discrim_engine::product_index(
    std::uint64_t packed) const noexcept {
    std::uint32_t idx = 0;
    const std::size_t machines = uni_.stride.size();
    for (std::size_t m = 0; m < machines; ++m) {
        const auto local = static_cast<std::uint32_t>(
            (packed >> cs_->state_shift[m]) & cs_->state_mask[m]);
        idx += local * uni_.stride[m];
    }
    return idx;
}

bool discrim_engine::ensure_universe() const {
    std::call_once(universe_once_, [this] {
        const std::size_t machines = cs_->state_count.size();
        uni_.stride.resize(machines);
        std::uint64_t size = 1;
        for (std::size_t m = 0; m < machines; ++m) {
            uni_.stride[m] = static_cast<std::uint32_t>(size);
            size *= cs_->state_count[m];
            if (size > dense_visited_cap) {
                uni_.size = 0;  // dense indexing unavailable
                return;
            }
        }
        uni_.size = static_cast<std::uint32_t>(size);
        const std::uint64_t inputs = in_port_.size();
        if (uni_.size == 0 || uni_.size > pair_state_cap ||
            static_cast<std::uint64_t>(uni_.size) * uni_.size * inputs >
                pair_edge_cap)
            return;

        // Enumerate the product space: index → packed state.
        uni_.packed.resize(uni_.size);
        for (std::uint32_t u = 0; u < uni_.size; ++u) {
            std::uint64_t packed = 0;
            std::uint32_t rest = u;
            for (std::size_t m = 0; m < machines; ++m) {
                const std::uint32_t local = rest % cs_->state_count[m];
                rest /= cs_->state_count[m];
                packed |= static_cast<std::uint64_t>(local)
                          << cs_->state_shift[m];
            }
            uni_.packed[u] = packed;
        }

        // One specification step per (state, input).  Nothing reads the
        // result: the union partition needs only hypothesis tables.  It stays
        // because its steps count toward the campaign's simulated_steps,
        // which perfbench/workloads.json records exactly (ROADMAP: drop it
        // with the next change to the recorded counters).
        for (std::uint32_t u = 0; u < uni_.size; ++u) {
            for (std::size_t in = 0; in < in_port_.size(); ++in) {
                std::uint64_t st = uni_.packed[u];
                (void)flat_step(*cs_, *spec_, st, in_port_[in], in_sym_[in],
                                nullptr, 0);
            }
        }
        uni_.ok = true;
    });
    return uni_.ok;
}

std::shared_ptr<const discrim_engine::hyp_tables>
discrim_engine::hyp_dynamics(const flat_hyp& h) const {
    const std::uint32_t S = uni_.size;
    const std::size_t cols = in_port_.size();
    auto t = std::make_shared<hyp_tables>();
    t->succ.resize(static_cast<std::size_t>(S) * cols);
    t->obs.resize(static_cast<std::size_t>(S) * cols);
    t->throws = dyn_bitset(static_cast<std::size_t>(S) * cols);
    for (std::uint32_t u = 0; u < S; ++u) {
        for (std::size_t in = 0; in < cols; ++in) {
            const std::size_t cell = static_cast<std::size_t>(u) * cols + in;
            std::uint64_t st = uni_.packed[u];
            try {
                t->obs[cell] = flat_step(*cs_, *spec_, st, in_port_[in],
                                         in_sym_[in], h.ovs.data(),
                                         h.ovs.size());
            } catch (const error&) {
                t->throws.set(cell);
                t->succ[cell] = u;  // unused: a throw cell is a unique output
                continue;
            }
            t->succ[cell] = product_index(st);
        }
    }
    return t;
}

std::vector<std::uint32_t> discrim_engine::union_classes(
    const std::vector<flat_hyp>& hyps) const {
    // Each table is built exactly once, at any --jobs; the refinement
    // below reads the immutable tables only.
    std::vector<std::shared_ptr<const hyp_tables>> tables;
    tables.reserve(hyps.size());
    for (const flat_hyp& h : hyps) {
        tables.push_back(
            hyp_cache_.get(h.enc, [&] { return hyp_dynamics(h); }));
    }

    const std::uint32_t S = uni_.size;
    const std::size_t cols = in_port_.size();
    const std::size_t nodes = hyps.size() * S;
    thread_local row_interner interner;

    // Node successors, and observations interned to dense ids.  A throw
    // cell gets an id of its own, after every real observation's, so its
    // node differs from every other node.
    std::vector<std::uint32_t> next(nodes * cols);
    std::vector<std::uint32_t> obs(nodes * cols);
    interner.reset(2, nodes * cols);
    for (std::size_t i = 0; i < tables.size(); ++i) {
        const hyp_tables& t = *tables[i];
        for (std::size_t cell = 0; cell < S * cols; ++cell) {
            const std::size_t at = i * S * cols + cell;
            next[at] = static_cast<std::uint32_t>(i * S + t.succ[cell]);
            if (t.throws.test(cell)) continue;
            const std::uint32_t words[2] = {
                static_cast<std::uint32_t>(t.obs[cell] >> 32),
                static_cast<std::uint32_t>(t.obs[cell])};
            obs[at] = interner.intern(words);
        }
    }
    auto unique_output = static_cast<std::uint32_t>(interner.size());
    for (std::size_t i = 0; i < tables.size(); ++i) {
        for (const std::uint32_t cell : tables[i]->throws.to_indices())
            obs[i * S * cols + cell] = unique_output++;
    }

    // Moore refinement from the observation rows: each round splits nodes
    // by (class, class of the successor per input) until the class count
    // stops growing.  Ids are first-seen order and only feed equality
    // checks.
    std::vector<std::uint32_t> cls(nodes);
    interner.reset(cols, nodes);
    for (std::size_t n = 0; n < nodes; ++n)
        cls[n] = interner.intern(&obs[n * cols]);
    std::size_t classes = interner.size();
    std::vector<std::uint32_t> row(cols + 1);
    std::vector<std::uint32_t> refined(nodes);
    for (;;) {
        interner.reset(cols + 1, nodes);
        for (std::size_t n = 0; n < nodes; ++n) {
            row[0] = cls[n];
            for (std::size_t in = 0; in < cols; ++in)
                row[in + 1] = cls[next[n * cols + in]];
            refined[n] = interner.intern(row.data());
        }
        cls.swap(refined);
        if (interner.size() == classes) break;
        classes = interner.size();
    }
    return cls;
}

std::optional<std::vector<global_input>> discrim_engine::flat_search(
    const std::vector<flat_hyp>& hyps, std::size_t max_joint_states,
    const std::vector<std::uint32_t>& cls) const {
    const std::size_t k = hyps.size();
    const std::size_t cols = in_port_.size();
    const std::uint32_t S = uni_.size;  // 0 = dense indexing unavailable

    // S^k, saturated at dense_visited_cap + 1.
    std::uint64_t joint_bound = 0;
    if (S != 0) {
        joint_bound = 1;
        for (std::size_t i = 0; i < k && joint_bound != 0; ++i) {
            joint_bound *= S;
            if (joint_bound > dense_visited_cap) joint_bound = 0;
        }
    }
    const bool dense = joint_bound != 0;
    // Pruning is exact only when the reference search provably never hits
    // its visited cap (every joint state it could ever insert fits).
    const bool prune =
        !cls.empty() && joint_bound != 0 && joint_bound <= max_joint_states;

    // Flat node storage: k packed states per node + parent/via chains.
    std::vector<std::uint64_t> states;
    states.reserve(k * 256);
    std::vector<std::uint32_t> parent{invalid_index};
    std::vector<std::uint32_t> via{invalid_index};
    for (std::size_t i = 0; i < k; ++i)
        states.push_back(cs_->initial_packed);
    std::size_t visited_count = 1;

    const auto joint_index = [&](const std::uint64_t* st) {
        std::uint64_t idx = 0;
        for (std::size_t i = k; i-- > 0;)
            idx = idx * S + product_index(st[i]);
        return idx;
    };

    if (dense) {
        g_dense.begin(joint_bound);
        g_dense.insert(joint_index(states.data()));
    }
    struct node_hash {
        const std::vector<std::uint64_t>* st;
        std::size_t k;
        std::size_t operator()(std::uint32_t n) const noexcept {
            std::size_t h = 0x811c9dc5u;
            for (std::size_t i = 0; i < k; ++i) {
                const std::uint64_t w = (*st)[n * k + i];
                h = (h ^ w) * 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
            }
            return h;
        }
    };
    struct node_eq {
        const std::vector<std::uint64_t>* st;
        std::size_t k;
        bool operator()(std::uint32_t a, std::uint32_t b) const noexcept {
            return std::equal(st->begin() + a * k, st->begin() + (a + 1) * k,
                              st->begin() + b * k);
        }
    };
    std::unordered_set<std::uint32_t, node_hash, node_eq> hashed(
        16, node_hash{&states, k}, node_eq{&states, k});
    if (!dense) hashed.insert(0);

    std::vector<std::uint64_t> cur(k);
    std::vector<std::uint64_t> next(k);
    for (std::size_t head = 0; head < parent.size(); ++head) {
        // One governed unit per expansion; the BFS frontier is the search's
        // dominant allocation, so it is what the memory quota sees.
        detail::budget_poll();
        detail::budget_note_memory(states.capacity() *
                                   sizeof(std::uint64_t));
        std::copy(states.begin() + head * k,
                  states.begin() + (head + 1) * k, cur.begin());
        for (std::size_t in = 0; in < cols; ++in) {
            bool disagree = false;
            bool progressed = false;
            std::uint64_t first_obs = 0;
            for (std::size_t i = 0; i < k; ++i) {
                next[i] = cur[i];
                fire_report fired;
                const std::uint64_t obs =
                    flat_step(*cs_, *spec_, next[i], in_port_[in],
                              in_sym_[in], hyps[i].ovs.data(),
                              hyps[i].ovs.size(), &fired);
                progressed = progressed || fired.any;
                if (i == 0) {
                    first_obs = obs;
                } else if (obs != first_obs) {
                    disagree = true;
                }
            }
            if (disagree) {
                std::vector<global_input> seq{inputs_[in]};
                std::uint32_t at = static_cast<std::uint32_t>(head);
                while (parent[at] != invalid_index) {
                    seq.push_back(inputs_[via[at]]);
                    at = parent[at];
                }
                std::reverse(seq.begin(), seq.end());
                cost_record.discrim_joint_states += visited_count;
                return seq;
            }
            if (!progressed) continue;  // ε step in every hypothesis
            if (visited_count >= max_joint_states) continue;
            if (prune) {
                // Barren joint state: all k nodes share one Moore class, so
                // no hypothesis pair can ever disagree (or throw) from here
                // — its whole subtree is silent, and with the cap provably
                // unreachable, skipping it cannot change the first
                // disagreement found.
                const std::uint32_t first = cls[product_index(next[0])];
                bool barren = true;
                for (std::size_t i = 1; i < k && barren; ++i)
                    barren = cls[i * S + product_index(next[i])] == first;
                if (barren) continue;
            }
            bool inserted = false;
            if (dense) {
                inserted = g_dense.insert(joint_index(next.data()));
            } else {
                // Tentative push: hash/equality read the candidate's words
                // in place; roll back when already visited.
                const auto candidate =
                    static_cast<std::uint32_t>(parent.size());
                states.insert(states.end(), next.begin(), next.end());
                if (hashed.insert(candidate).second) {
                    inserted = true;
                } else {
                    states.resize(states.size() - k);
                }
            }
            if (inserted) {
                ++visited_count;
                if (dense)
                    states.insert(states.end(), next.begin(), next.end());
                parent.push_back(static_cast<std::uint32_t>(head));
                via.push_back(static_cast<std::uint32_t>(in));
            }
        }
    }
    cost_record.discrim_joint_states += visited_count;
    return std::nullopt;
}

std::optional<std::vector<global_input>> discrim_engine::compute(
    const std::vector<flat_hyp>& hyps,
    const std::vector<std::vector<transition_override>>& hypotheses,
    std::size_t max_joint_states) const {
    if (!flat_ok_)
        return cfsmdiag::splitting_sequence(*spec_, hypotheses,
                                            max_joint_states);

    const bool have_tables = ensure_universe();  // also fills the strides
                                                 // the dense visited needs
    std::vector<std::uint32_t> cls;
    if (hyps.size() <= pair_k_cap && have_tables) {
        cls = union_classes(hyps);
        const std::uint32_t init = product_index(cs_->initial_packed);
        bool one_class = true;
        for (std::size_t i = 1; i < hyps.size() && one_class; ++i)
            one_class = cls[i * uni_.size + init] == cls[init];
        if (one_class) {
            // Every hypothesis pair is observationally equivalent from
            // reset (no disagreement or throwing state is reachable): the
            // reference search — capped or not — returns nullopt.
            ++cost_record.discrim_table_answers;
            return std::nullopt;
        }
    }
    ++cost_record.discrim_bfs_searches;
    return flat_search(hyps, max_joint_states, cls);
}

std::optional<std::vector<global_input>> discrim_engine::splitting_sequence(
    const std::vector<std::vector<transition_override>>& hypotheses,
    std::size_t max_joint_states) const {
    if (hypotheses.size() < 2) return std::nullopt;

    // Canonicalize: lowered overrides + sorted hypothesis order.  The
    // joint search's result is invariant under hypothesis permutation
    // (DESIGN.md §5f), so sorting is safe and makes the memo key — and
    // the splitting-table cache — independent of caller order.
    std::vector<flat_hyp> hyps;
    hyps.reserve(hypotheses.size());
    for (const auto& ovs : hypotheses) {
        validate_overrides(*spec_, ovs);
        flat_hyp h;
        h.enc = encode_hypothesis(*cs_, ovs);
        if (flat_ok_) {
            h.ovs.reserve(ovs.size());
            for (const transition_override& ov : ovs)
                h.ovs.push_back(lower_override(*cs_, ov));
        }
        hyps.push_back(std::move(h));
    }
    std::sort(hyps.begin(), hyps.end(),
              [](const flat_hyp& a, const flat_hyp& b) {
                  return a.enc < b.enc;
              });

    key_type key;
    key.push_back(static_cast<std::uint32_t>(max_joint_states));
    key.push_back(
        static_cast<std::uint32_t>(std::uint64_t{max_joint_states} >> 32));
    key.push_back(static_cast<std::uint32_t>(hyps.size()));
    for (const flat_hyp& h : hyps)
        key.insert(key.end(), h.enc.begin(), h.enc.end());

    // A miss is counted when this call computes, also when the compute
    // throws; a caller that waited on a compute that threw then computes
    // itself, so it counts a miss too.
    bool computed = false;
    auto result = memo_[key_hash{}(key) % memo_shards].get(
        key,
        [&] {
            ++cost_record.discrim_memo_misses;
            return compute(hyps, hypotheses, max_joint_states);
        },
        &computed);
    if (!computed) ++cost_record.discrim_memo_hits;
    return result;
}

std::shared_ptr<const sequence_replay> discrim_engine::replay_for(
    const std::vector<global_input>& inputs) const {
    key_type key;
    key.reserve(inputs.size() * 2);
    for (const global_input& in : inputs) {
        if (in.action == global_input::kind::reset) {
            key.push_back(~std::uint32_t{0});
            key.push_back(~std::uint32_t{0});
        } else {
            key.push_back(in.port.value);
            key.push_back(in.input.id);
        }
    }
    return replay_cache_.get(key, [&] {
        // sequence_replay keeps a pointer to the input vector it was built
        // from, so the cache entry owns a stable copy and the returned
        // handle aliases the replay inside it.
        struct cached_replay {
            std::vector<global_input> inputs;
            sequence_replay rep;
            cached_replay(const system& spec, std::vector<global_input> in)
                : inputs(std::move(in)), rep(spec, inputs) {}
        };
        auto holder = std::make_shared<const cached_replay>(*spec_, inputs);
        return std::shared_ptr<const sequence_replay>(holder, &holder->rep);
    });
}

std::shared_ptr<const std::vector<proposed_test>>
discrim_engine::structured_proposals(const hypothesis_tracker& tracker,
                                     const step6_options& options) const {
    key_type key;
    const auto push64 = [&key](std::uint64_t v) {
        key.push_back(static_cast<std::uint32_t>(v));
        key.push_back(static_cast<std::uint32_t>(v >> 32));
    };
    push64(options.search.max_states);
    push64(options.max_proposals);
    key.push_back(options.search.skip_null_steps ? 1u : 0u);
    key.push_back(static_cast<std::uint32_t>(options.search.avoid.size()));
    for (const global_transition_id& t : options.search.avoid) {
        key.push_back(t.machine.value);
        key.push_back(t.transition.value);
    }
    // alive() is sorted and deduplicated by the tracker, so its encoding
    // is canonical for the live set.
    for (const diagnosis& d : tracker.alive()) {
        const key_type enc = encode_hypothesis(*cs_, {d.to_override()});
        key.insert(key.end(), enc.begin(), enc.end());
    }
    return proposal_cache_.get(key, [&] {
        transfer_search transfer;
        if (cs_->packable) {
            transfer = [this](machine_id m, state_id s,
                              const global_search_options& o) {
                return transfer_from_reset(m, s, o);
            };
        }
        return std::make_shared<const std::vector<proposed_test>>(
            propose_structured_tests(*spec_, tracker, options, transfer));
    });
}

std::optional<std::vector<global_input>> discrim_engine::transfer_from_reset(
    machine_id m, state_id s, const global_search_options& options) const {
    detail::require(cs_->packable,
                    "discrim_engine::transfer_from_reset: system states "
                    "exceed 64 packed bits");
    const std::size_t machines = cs_->state_count.size();
    detail::require(m.value < machines,
                    "discrim_engine::transfer_from_reset: machine out of "
                    "range");
    // The goal as a packed-word compare.  A state the machine does not have
    // is never reached (the reference search then explores everything).
    const std::uint64_t goal_mask = cs_->state_mask[m.value]
                                    << cs_->state_shift[m.value];
    const std::uint64_t goal_bits = static_cast<std::uint64_t>(s.value)
                                    << cs_->state_shift[m.value];
    const bool goal_exists = s.value < cs_->state_count[m.value];
    const auto at_goal = [&](std::uint64_t st) {
        return goal_exists && (st & goal_mask) == goal_bits;
    };
    if (at_goal(cs_->initial_packed)) return std::vector<global_input>{};

    // Ids outside the system never fire, so they are dropped rather than
    // aliased onto another machine's dense ids.
    dyn_bitset avoid(cs_->total);
    for (const global_transition_id& t : options.avoid) {
        const std::uint32_t mi = t.machine.value;
        if (mi < machines && t.transition.value < cs_->machine_offset[mi + 1] -
                                                      cs_->machine_offset[mi])
            avoid.set(cs_->dense_id(t));
    }

    // global_transfer's BFS: the node list doubles as its FIFO frontier,
    // since every node it keeps is queued in creation order.
    struct node {
        std::uint64_t state;
        std::uint32_t parent;
        std::uint32_t via;  ///< index into inputs_
    };
    std::vector<node> nodes{{cs_->initial_packed, invalid_index, 0}};
    packed_state_set visited;
    visited.insert(cs_->initial_packed);
    fire_report fired{&avoid};
    for (std::size_t head = 0; head < nodes.size(); ++head) {
        const std::uint64_t from = nodes[head].state;
        for (std::size_t in = 0; in < in_port_.size(); ++in) {
            std::uint64_t st = from;
            (void)flat_step(*cs_, *spec_, st, in_port_[in], in_sym_[in],
                            nullptr, 0, &fired);
            if (options.skip_null_steps && !fired.any) continue;
            if (fired.avoided) continue;
            if (!visited.insert(st)) continue;
            nodes.push_back({st, static_cast<std::uint32_t>(head),
                             static_cast<std::uint32_t>(in)});
            if (at_goal(st)) {
                std::vector<global_input> seq;
                for (std::uint32_t at =
                         static_cast<std::uint32_t>(nodes.size() - 1);
                     nodes[at].parent != invalid_index;
                     at = nodes[at].parent)
                    seq.push_back(inputs_[nodes[at].via]);
                std::reverse(seq.begin(), seq.end());
                return seq;
            }
            if (visited.size() >= options.max_states) return std::nullopt;
        }
    }
    return std::nullopt;
}

bool observationally_equivalent(const discrim_engine& engine,
                                const diagnosis& a, const diagnosis& b,
                                std::size_t max_states) {
    if (a == b) return true;  // identical hypotheses
    return !engine
                .splitting_sequence({{a.to_override()}, {b.to_override()}},
                                    max_states)
                .has_value();
}

}  // namespace cfsmdiag
