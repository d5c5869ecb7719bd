// Unit tests for util: rng, table rendering, string helpers, thread pool
// exception propagation, and the compute-once map's threading contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/once_map.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace cfsmdiag {
namespace {

TEST(rng_test, deterministic_per_seed) {
    rng a(1234), b(1234), c(999);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    rng a2(1234);
    for (int i = 0; i < 16; ++i) differs = differs || a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(rng_test, below_respects_bound) {
    rng r(7);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
    EXPECT_THROW((void)r.below(0), error);
}

TEST(rng_test, between_inclusive) {
    rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.between(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
    }
    EXPECT_EQ(r.between(3, 3), 3u);
    EXPECT_THROW((void)r.between(4, 3), error);
}

TEST(rng_test, chance_extremes) {
    rng r(7);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    // p = 0.5 should produce both outcomes in 100 draws.
    int heads = 0;
    for (int i = 0; i < 100; ++i) heads += r.chance(0.5) ? 1 : 0;
    EXPECT_GT(heads, 20);
    EXPECT_LT(heads, 80);
}

TEST(rng_test, pick_and_shuffle) {
    rng r(7);
    const std::vector<int> v{1, 2, 3};
    for (int i = 0; i < 50; ++i) {
        const int x = r.pick(v);
        EXPECT_TRUE(x >= 1 && x <= 3);
    }
    std::vector<int> big(100);
    for (int i = 0; i < 100; ++i) big[i] = i;
    auto shuffled = big;
    r.shuffle(shuffled);
    EXPECT_NE(shuffled, big);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, big);

    const std::vector<int> empty;
    EXPECT_THROW((void)r.pick(empty), error);
}

TEST(rng_test, split_produces_independent_stream) {
    rng a(42);
    rng child = a.split();
    EXPECT_NE(a.next(), child.next());
}

TEST(table_test, renders_aligned_columns) {
    text_table t({"name", "value"});
    t.add_row({"x", "1"});
    t.add_row({"longer", "22"});
    const std::string out = t.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer  22"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(table_test, short_rows_pad) {
    text_table t({"a", "b", "c"});
    t.add_row({"1"});
    EXPECT_NO_THROW((void)t.str());
}

TEST(csv_test, quotes_when_needed) {
    std::ostringstream os;
    csv_writer w(os);
    w.row({"plain", "with,comma", "with\"quote"});
    EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(thread_pool_test, wait_rethrows_first_task_exception) {
    thread_pool pool(2);
    pool.submit([] { throw error("task failed"); });
    try {
        pool.wait();
        FAIL() << "wait() should rethrow the task's exception";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("task failed"),
                  std::string::npos);
    }
}

TEST(thread_pool_test, pool_is_reusable_after_a_failed_round) {
    thread_pool pool(2);
    pool.submit([] { throw error("round one fails"); });
    EXPECT_THROW(pool.wait(), error);

    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) pool.submit([&ran] { ++ran; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(ran.load(), 16);
}

TEST(parallel_for_test, serial_path_stops_at_the_throwing_index) {
    std::atomic<std::size_t> executed{0};
    EXPECT_THROW(parallel_for(100, 1,
                              [&executed](std::size_t i) {
                                  if (i == 3) throw error("stop");
                                  ++executed;
                              }),
                 error);
    EXPECT_EQ(executed.load(), 3u);
}

TEST(parallel_for_test, parallel_path_rethrows_and_cancels) {
    std::atomic<std::size_t> executed{0};
    EXPECT_THROW(parallel_for(100'000, 4,
                              [&executed](std::size_t i) {
                                  if (i == 0) throw error("stop");
                                  ++executed;
                              }),
                 error);
    // Index 0 threw instead of executing, and cancellation stops workers
    // from claiming new indices — the loop cannot have run everything.
    EXPECT_LT(executed.load(), 100'000u);
}

TEST(parallel_for_test, completes_all_indices_when_nothing_throws) {
    std::atomic<std::size_t> sum{0};
    parallel_for(1000, 4, [&sum](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 1000u * 999u / 2);
}

TEST(strings_test, join_split_trim) {
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ", "), "");
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

using int_once_map = once_map<int, int, std::hash<int>>;

TEST(once_map_test, a_throwing_compute_leaves_the_key_retryable) {
    int_once_map map;
    int runs = 0;
    bool computed = false;
    EXPECT_THROW((void)map.get(
                     1,
                     [&]() -> int {
                         ++runs;
                         throw error("boom");
                     },
                     &computed),
                 error);
    EXPECT_TRUE(computed);
    EXPECT_EQ(map.get(1, [&] { return ++runs * 10; }, &computed), 20);
    EXPECT_TRUE(computed);
    EXPECT_EQ(map.get(1, [&] { return ++runs * 10; }, &computed), 20);
    EXPECT_FALSE(computed);
    EXPECT_EQ(runs, 2);
}

TEST(once_map_test, concurrent_callers_share_one_compute_per_key) {
    int_once_map map;
    std::atomic<int> runs{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 200; ++i) {
                const int key = (i * (t + 1)) % 50;
                EXPECT_EQ(map.get(key,
                                  [&] {
                                      ++runs;
                                      return key * key;
                                  }),
                          key * key);
            }
        });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(runs.load(), 50);
}

TEST(once_map_test, a_waiter_on_a_failed_compute_computes_itself) {
    // The first caller claims the key and throws while the second is on
    // its way in.  Whether the second caller waits or arrives after the
    // throw, the key is unpublished for it, so it computes.
    int_once_map map;
    std::promise<void> claimed;
    std::promise<void> second_started;
    std::thread first([&] {
        EXPECT_THROW((void)map.get(7,
                                   [&]() -> int {
                                       claimed.set_value();
                                       second_started.get_future().wait();
                                       std::this_thread::sleep_for(
                                           std::chrono::milliseconds(20));
                                       throw error("out of budget");
                                   }),
                     error);
    });
    claimed.get_future().wait();
    second_started.set_value();
    bool computed = false;
    EXPECT_EQ(map.get(7, [] { return 49; }, &computed), 49);
    EXPECT_TRUE(computed);
    first.join();
    EXPECT_EQ(map.get(7, [] { return 0; }, &computed), 49);
    EXPECT_FALSE(computed);
}

}  // namespace
}  // namespace cfsmdiag
