/**
 * @file
 * Stress tests for the work-stealing thread pool — precisely the
 * cases the serving runtime hits: many concurrent parallelFor
 * callers, nested submits from inside jobs of the same pool,
 * exceptions thrown from tasks, and pool teardown right after heavy
 * concurrent use.
 */

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace ark {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(3);
    for (size_t count : {size_t(0), size_t(1), size_t(2), size_t(7),
                         size_t(64), size_t(301)}) {
        std::vector<std::atomic<int>> hits(count);
        pool.parallelFor(count,
                         [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < count; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ConcurrentCallersShareOnePool)
{
    ThreadPool pool(4);
    std::atomic<size_t> total{0};
    const size_t callers = 6, rounds = 40, batch = 16;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < callers; ++c) {
        threads.emplace_back([&] {
            for (size_t r = 0; r < rounds; ++r)
                pool.parallelFor(batch,
                                 [&](size_t) { total.fetch_add(1); });
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(total.load(), callers * rounds * batch);
}

TEST(ThreadPool, NestedSubmitsOnSamePool)
{
    // A job may call parallelFor on its own pool: the nested waiter
    // helps drain instead of blocking, so this must complete even on
    // a caller-only pool (1) and a single-worker pool (2).
    for (size_t workers : {size_t(1), size_t(2), size_t(4)}) {
        ThreadPool pool(workers);
        std::atomic<size_t> inner_runs{0};
        pool.parallelFor(4, [&](size_t) {
            pool.parallelFor(8,
                             [&](size_t) { inner_runs.fetch_add(1); });
        });
        EXPECT_EQ(inner_runs.load(), 4u * 8u) << workers << " workers";
    }
}

TEST(ThreadPool, TriplyNestedSubmits)
{
    ThreadPool pool(2);
    std::atomic<size_t> leaf{0};
    pool.parallelFor(3, [&](size_t) {
        pool.parallelFor(3, [&](size_t) {
            pool.parallelFor(3, [&](size_t) { leaf.fetch_add(1); });
        });
    });
    EXPECT_EQ(leaf.load(), 27u);
}

TEST(ThreadPool, ExceptionFromTaskPropagatesToCaller)
{
    // Caller-only (1) and worker-backed (3) pools share the contract.
    for (size_t n : {size_t(1), size_t(3)}) {
        ThreadPool pool(n);
        std::vector<std::atomic<int>> hits(16);
        EXPECT_THROW(pool.parallelFor(16,
                                      [&](size_t i) {
                                          hits[i].fetch_add(1);
                                          if (i == 5)
                                              throw std::runtime_error(
                                                  "task 5 failed");
                                      }),
                     std::runtime_error);
        // Every index still ran (the batch drains before rethrowing).
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;

        // The pool stays usable after an exception.
        std::atomic<size_t> after{0};
        pool.parallelFor(32, [&](size_t) { after.fetch_add(1); });
        EXPECT_EQ(after.load(), 32u);
    }
}

TEST(ThreadPool, ExceptionMessageSurvives)
{
    ThreadPool pool(2);
    try {
        pool.parallelFor(
            4, [&](size_t) { throw std::runtime_error("boom"); });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

TEST(ThreadPool, ExceptionFromNestedJobPropagates)
{
    ThreadPool pool(2);
    std::atomic<size_t> outer_done{0};
    EXPECT_THROW(
        pool.parallelFor(3,
                         [&](size_t o) {
                             pool.parallelFor(4, [&](size_t i) {
                                 if (o == 1 && i == 2)
                                     throw std::runtime_error("inner");
                             });
                             outer_done.fetch_add(1);
                         }),
        std::runtime_error);
    // Outer jobs other than the thrower still completed.
    EXPECT_GE(outer_done.load(), 2u);
}

TEST(ThreadPool, TeardownAfterConcurrentUse)
{
    // Construct, hammer from several threads, destroy — repeatedly.
    // Exercises the shutdown handshake against racing completions.
    for (int iter = 0; iter < 10; ++iter) {
        std::atomic<size_t> total{0};
        {
            ThreadPool pool(3);
            std::vector<std::thread> threads;
            for (int c = 0; c < 3; ++c) {
                threads.emplace_back([&] {
                    for (int r = 0; r < 5; ++r)
                        pool.parallelFor(
                            16, [&](size_t) { total.fetch_add(1); });
                });
            }
            for (auto &t : threads)
                t.join();
            // Pool destroyed immediately after the last batch.
        }
        EXPECT_EQ(total.load(), 3u * 5u * 16u);
    }
}

TEST(ThreadPool, RapidCreateDestroy)
{
    for (int i = 0; i < 50; ++i) {
        ThreadPool pool(1 + i % 4);
        std::atomic<size_t> n{0};
        pool.parallelFor(8, [&](size_t) { n.fetch_add(1); });
        ASSERT_EQ(n.load(), 8u);
    }
}

TEST(ThreadPool, DefaultThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    EXPECT_EQ(ThreadPool().threads(), ThreadPool::defaultThreads());
}

TEST(ThreadPool, ThreadCountIncludesTheCaller)
{
    // ThreadPool(n) applies exactly n threads to a batch: n - 1
    // workers plus the submitting thread, never one more.
    for (size_t n : {size_t(1), size_t(2), size_t(4)}) {
        ThreadPool pool(n);
        EXPECT_EQ(pool.threads(), n);
        std::mutex m;
        std::set<std::thread::id> seen;
        std::atomic<size_t> inside{0};
        std::atomic<size_t> peak{0};
        pool.parallelFor(64, [&](size_t) {
            const size_t now = inside.fetch_add(1) + 1;
            size_t p = peak.load();
            while (now > p && !peak.compare_exchange_weak(p, now)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            {
                std::lock_guard<std::mutex> lk(m);
                seen.insert(std::this_thread::get_id());
            }
            inside.fetch_sub(1);
        });
        EXPECT_LE(seen.size(), n) << n << " threads";
        EXPECT_LE(peak.load(), n) << n << " threads";
        if (n == 1) {
            EXPECT_EQ(seen.count(std::this_thread::get_id()), 1u);
        }
    }
}

} // namespace
} // namespace ark
