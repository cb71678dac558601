/**
 * @file
 * Tiered-memory engine tests: TierStore round trips and throttling,
 * DevicePool-capped execution vs the unbounded run (bitwise, sync and
 * async x jitter), swap-all plans, slow-tier failure surfacing,
 * checkpoint resume with the tier active, and the hybrid planner's
 * budget sweep with Swap eligible.
 *
 * The load-bearing property is the tentpole guarantee: a model whose
 * working set exceeds the device cap trains bit-identically to the
 * unbounded run — eviction and prefetch-back may only move bytes, never
 * change them or their consumption order.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/gist.hpp"
#include "memory/device_pool.hpp"
#include "memory/tier.hpp"
#include "models/builder.hpp"
#include "models/tiny.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** Random stash-heavy CNN (same family as the async executor tests). */
Graph
randomGraph(std::uint64_t seed, std::int64_t batch = 4)
{
    Rng rng(seed);
    const std::int64_t img = 16;
    NetBuilder net(batch, 3, img, img);
    std::int64_t spatial = img;
    const int segments = 2 + static_cast<int>(rng.uniformInt(3));
    for (int s = 0; s < segments; ++s) {
        const std::int64_t channels = 4 + 4 * rng.uniformInt(4);
        switch (rng.uniformInt(4)) {
          case 0:
            net.conv(channels, 3, 1, 1);
            net.relu();
            break;
          case 1:
            net.conv(channels, 3, 1, 1);
            net.batchnorm();
            net.relu();
            break;
          case 2:
            net.conv(channels, 3, 1, 1);
            net.relu();
            if (spatial >= 4) {
                net.maxpool(2, 2);
                spatial /= 2;
            }
            break;
          default: {
            net.conv(channels, 3, 1, 1);
            net.relu();
            const NodeId trunk = net.tip();
            net.conv(channels, 3, 1, 1);
            net.relu();
            net.conv(channels, 3, 1, 1);
            net.add(trunk);
            net.relu();
            break;
          }
        }
    }
    net.fc(5);
    net.loss(5);
    return net.take();
}

struct PoolSpec
{
    bool attach = false;
    std::uint64_t cap = 0;
    double bps = 0.0;
    std::string tier_path;
};

struct RunResult
{
    std::vector<float> losses;
    std::vector<float> grads;
    std::uint64_t peak_bytes = 0;
    std::uint64_t tier_evictions = 0;
    std::uint64_t tier_fetches = 0;
    std::uint64_t tier_bytes_out = 0;
    std::uint64_t tier_bytes_in = 0;
    std::uint64_t tier_resident_after = 0;
};

/**
 * Train @p steps identical minibatches; optionally attach a DevicePool
 * and/or force every (non-binarized) stash slot to Repr::Swap. Jitter
 * is set for async arms and cleared on return.
 */
RunResult
runSteps(Graph &&g, std::uint64_t seed, const GistConfig &cfg,
         const PoolSpec &pool, bool async, int workers,
         std::uint64_t jitter_seed, int steps = 3, bool swap_all = false)
{
    Rng rng(seed + 1);
    g.initParams(rng);
    Executor exec(g);
    BuiltSchedule schedule = buildSchedule(g, cfg);
    if (swap_all) {
        const ScheduleInfo sched(g);
        for (const auto &node : g.nodes())
            if (sched.stashed(node.id) &&
                !schedule.of(node.id).binarized)
                schedule.decisions[static_cast<size_t>(node.id)].repr =
                    StashPlan::Repr::Swap;
    }
    applyToExecutor(schedule, exec);
    if (pool.attach) {
        DevicePoolConfig pc;
        pc.cap_bytes = pool.cap;
        pc.tier_bytes_per_second = pool.bps;
        pc.tier_path = pool.tier_path;
        exec.setDevicePool(std::make_shared<DevicePool>(pc));
    }
    exec.codecQueue().setJitter(async ? jitter_seed : 0);
    exec.setAsyncCodec(async, workers);

    RunResult result;
    Rng drng(seed + 2);
    const std::vector<std::int32_t> labels = { 0, 1, 2, 3 };
    for (int s = 0; s < steps; ++s) {
        const Tensor batch =
            Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
        result.losses.push_back(exec.runMinibatch(batch, labels));
        const ExecStats &st = exec.stats();
        result.peak_bytes = std::max(result.peak_bytes,
                                     st.peak_pool_bytes);
        result.tier_evictions += st.tier_evictions;
        result.tier_fetches += st.tier_fetches;
        result.tier_bytes_out += st.tier_bytes_out;
        result.tier_bytes_in += st.tier_bytes_in;
    }
    for (auto &node : g.nodes())
        if (node.layer)
            for (Tensor *w : node.layer->paramGrads())
                result.grads.insert(result.grads.end(), w->data(),
                                    w->data() + w->numel());
    if (exec.devicePool())
        result.tier_resident_after = exec.devicePool()->residentBytes();
    exec.codecQueue().setJitter(0);
    return result;
}

// ---------------------------------------------------------------------
// TierStore unit tests
// ---------------------------------------------------------------------

TEST(TierStore, MemoryTierRoundTripsBlobs)
{
    auto tier = makeMemoryTier();
    std::vector<std::uint8_t> blob(4096);
    for (size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<std::uint8_t>(i * 7 + 3);
    tier->store(42, blob.data(), blob.size());
    EXPECT_EQ(tier->storedBytes(42), blob.size());
    EXPECT_EQ(tier->residentBytes(), blob.size());

    std::vector<std::uint8_t> back(blob.size());
    tier->fetch(42, back.data(), back.size());
    EXPECT_EQ(blob, back);
    EXPECT_EQ(tier->stats().stores, 1u);
    EXPECT_EQ(tier->stats().fetches, 1u);
    EXPECT_EQ(tier->stats().bytes_out, blob.size());
    EXPECT_EQ(tier->stats().bytes_in, blob.size());

    tier->erase(42);
    EXPECT_EQ(tier->storedBytes(42), 0u);
    EXPECT_EQ(tier->residentBytes(), 0u);
    EXPECT_THROW(tier->fetch(42, back.data(), back.size()),
                 std::runtime_error);
}

TEST(TierStore, FileTierRoundTripsBlobs)
{
    const std::string dir = tempPath("gist_file_tier");
    auto tier = makeFileTier(dir);
    EXPECT_STREQ(tier->kind(), "file");
    std::vector<std::uint8_t> blob(1 << 16);
    for (size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<std::uint8_t>(i ^ (i >> 8));
    tier->store(7, blob.data(), blob.size());
    EXPECT_EQ(tier->storedBytes(7), blob.size());

    std::vector<std::uint8_t> back(blob.size());
    tier->fetch(7, back.data(), back.size());
    EXPECT_EQ(blob, back);
    tier->erase(7);
    EXPECT_EQ(tier->residentBytes(), 0u);
}

TEST(TierStore, MemoryTierThrottlePacesTransfers)
{
    // 1 MB at 20 MB/s = 50 ms per direction; assert a generous lower
    // bound so the test is immune to scheduler slop in one direction.
    auto tier = makeMemoryTier(20e6);
    std::vector<std::uint8_t> blob(1 << 20, 0xaa);
    const auto t0 = std::chrono::steady_clock::now();
    tier->store(1, blob.data(), blob.size());
    tier->fetch(1, blob.data(), blob.size());
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_GE(secs, 0.08) << "throttle did not pace 2x 50 ms transfers";
    EXPECT_GE(tier->stats().write_ns + tier->stats().read_ns, 80000000u);
}

TEST(TierStore, FileTierUnusableDirectoryThrows)
{
    // mkdir under a plain file cannot succeed, even for root.
    EXPECT_THROW(makeFileTier("/dev/null/gist_tier"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Capped execution: the bitwise tentpole
// ---------------------------------------------------------------------

class DevicePoolBitwise : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DevicePoolBitwise, CappedMatchesUnboundedBitwise)
{
    const std::uint64_t seed = GetParam();
    const GistConfig cfg = GistConfig::lossless();
    const auto unbounded =
        runSteps(randomGraph(seed), seed, cfg, {}, false, 0, 0);
    ASSERT_GT(unbounded.peak_bytes, 0u);

    PoolSpec pool;
    pool.attach = true;
    pool.cap = unbounded.peak_bytes / 2; // working set exceeds the cap

    const auto capped_sync =
        runSteps(randomGraph(seed), seed, cfg, pool, false, 0, 0);
    EXPECT_GT(capped_sync.tier_evictions, 0u)
        << "cap " << pool.cap << " evicted nothing; test is vacuous";
    EXPECT_EQ(unbounded.losses, capped_sync.losses);
    EXPECT_EQ(unbounded.grads, capped_sync.grads);
    EXPECT_EQ(capped_sync.tier_resident_after, 0u)
        << "tier still resident after the minibatch";

    const int workers = 1 + static_cast<int>(seed % 3);
    const auto capped_async = runSteps(randomGraph(seed), seed, cfg,
                                       pool, true, workers,
                                       /*jitter_seed=*/seed * 2 + 1);
    EXPECT_GT(capped_async.tier_evictions, 0u);
    EXPECT_EQ(unbounded.losses, capped_async.losses)
        << "workers=" << workers;
    EXPECT_EQ(unbounded.grads, capped_async.grads)
        << "workers=" << workers;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DevicePoolBitwise,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(DevicePool, TinyCapWithJitterStaysBitwiseAndAlive)
{
    // A near-zero cap forces eviction of every candidate the moment it
    // retires and fetch-back right before use — maximal overlap of the
    // evict/fetch FIFO chains under one starved worker with yield
    // jitter. Deadlock would show as a ctest timeout.
    for (std::uint64_t seed = 31; seed < 34; ++seed) {
        const auto plain = runSteps(randomGraph(seed), seed,
                                    GistConfig::lossless(), {}, false, 0,
                                    0);
        PoolSpec pool;
        pool.attach = true;
        pool.cap = 1;
        const auto tiny = runSteps(randomGraph(seed), seed,
                                   GistConfig::lossless(), pool, true, 1,
                                   seed);
        EXPECT_GT(tiny.tier_evictions, 0u) << "seed=" << seed;
        EXPECT_EQ(plain.losses, tiny.losses) << "seed=" << seed;
        EXPECT_EQ(plain.grads, tiny.grads) << "seed=" << seed;
        for (const float loss : tiny.losses)
            EXPECT_TRUE(std::isfinite(loss)) << "seed=" << seed;
    }
}

TEST(DevicePool, SwapAllPlanMatchesDenseBaselineBitwise)
{
    // Raw (uncompressed) swap transfers are pure byte moves, so a plan
    // that swaps every stash slot must be bit-identical to the dense
    // baseline — in sync mode and under async jitter.
    const std::uint64_t seed = 11;
    const GistConfig cfg = GistConfig::baseline();
    const auto dense =
        runSteps(randomGraph(seed), seed, cfg, {}, false, 0, 0);
    const auto swap_sync = runSteps(randomGraph(seed), seed, cfg, {},
                                    false, 0, 0, 3, /*swap_all=*/true);
    EXPECT_GT(swap_sync.tier_evictions, 0u);
    EXPECT_EQ(dense.losses, swap_sync.losses);
    EXPECT_EQ(dense.grads, swap_sync.grads);

    const auto swap_async = runSteps(randomGraph(seed), seed, cfg, {},
                                     true, 2, seed * 2 + 1, 3, true);
    EXPECT_EQ(dense.losses, swap_async.losses);
    EXPECT_EQ(dense.grads, swap_async.grads);
}

TEST(DevicePool, CompressedSwapIsDeterministicAcrossModes)
{
    // CSR/DPR-compressed transfers: sync and async must agree bitwise
    // (lossy DPR is deterministic, so the arms still match each other).
    const std::uint64_t seed = 13;
    GistConfig cfg = GistConfig::baseline();
    cfg.ssdc = true;
    cfg.dpr = true;
    cfg.dpr_format = DprFormat::Fp16;
    const auto raw = runSteps(randomGraph(seed), seed,
                              GistConfig::baseline(), {}, false, 0, 0, 3,
                              /*swap_all=*/true);
    const auto sync = runSteps(randomGraph(seed), seed, cfg, {}, false,
                               0, 0, 3, /*swap_all=*/true);
    EXPECT_GT(sync.tier_evictions, 0u);
    EXPECT_LT(sync.tier_bytes_out, raw.tier_bytes_out)
        << "CSR/DPR-compressed evictions should move fewer bytes than "
           "raw fp32 swaps";
    const auto async = runSteps(randomGraph(seed), seed, cfg, {}, true,
                                2, seed * 2 + 1, 3, true);
    EXPECT_EQ(sync.losses, async.losses);
    EXPECT_EQ(sync.grads, async.grads);
    EXPECT_EQ(sync.tier_bytes_out, async.tier_bytes_out)
        << "compressed transfer volume must not depend on timing";
}

TEST(DevicePool, StatsArePopulatedOnCappedRuns)
{
    const std::uint64_t seed = 17;
    const auto unbounded = runSteps(randomGraph(seed), seed,
                                    GistConfig::lossless(), {}, false, 0,
                                    0);
    PoolSpec pool;
    pool.attach = true;
    pool.cap = unbounded.peak_bytes / 2;
    const auto capped = runSteps(randomGraph(seed), seed,
                                 GistConfig::lossless(), pool, false, 0,
                                 0);
    EXPECT_GT(capped.tier_evictions, 0u);
    EXPECT_EQ(capped.tier_evictions, capped.tier_fetches)
        << "every eviction must be fetched back";
    EXPECT_GT(capped.tier_bytes_out, 0u);
    EXPECT_EQ(capped.tier_bytes_out, capped.tier_bytes_in);
    EXPECT_EQ(capped.tier_resident_after, 0u);
}

TEST(DevicePool, FileTierWriteFailureSurfacesAsError)
{
    // Delete the spill directory after the pool opens it: the next
    // eviction's store fails and the error must surface as an exception
    // from runMinibatch (via the ticket rethrow path), not a crash or
    // silent corruption.
    const std::string dir = tempPath("gist_gone_tier");
    Graph g = randomGraph(19);
    Rng rng(20);
    g.initParams(rng);
    Executor exec(g);
    BuiltSchedule schedule = buildSchedule(g, GistConfig::baseline());
    const ScheduleInfo sched(g);
    for (const auto &node : g.nodes())
        if (sched.stashed(node.id))
            schedule.decisions[static_cast<size_t>(node.id)].repr =
                StashPlan::Repr::Swap;
    applyToExecutor(schedule, exec);
    DevicePoolConfig pc;
    pc.tier_path = dir;
    exec.setDevicePool(std::make_shared<DevicePool>(pc));
    ASSERT_EQ(std::remove(dir.c_str()), 0)
        << "could not remove tier dir";

    exec.setAsyncCodec(false, 0);
    Rng drng(21);
    const Tensor batch =
        Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
    const std::vector<std::int32_t> labels = { 0, 1, 2, 3 };
    EXPECT_THROW(exec.runMinibatch(batch, labels), std::runtime_error);
}

// ---------------------------------------------------------------------
// Checkpoint resume with the tier active
// ---------------------------------------------------------------------

TEST(DevicePool, CheckpointResumeWithTierIsBitwise)
{
    SyntheticDataset::Spec spec;
    spec.num_train = 48;
    spec.num_eval = 16;
    SyntheticDataset data(spec);
    TrainConfig tc;
    tc.batch_size = 16;
    tc.epochs = 2;

    GistConfig cfg = GistConfig::lossless();
    cfg.device_pool_bytes = 64 * 1024; // far below the working set

    const auto flat = [](Graph &g) {
        std::vector<float> out;
        for (auto &node : g.nodes())
            if (node.layer) {
                for (Tensor *p : node.layer->params())
                    out.insert(out.end(), p->data(),
                               p->data() + p->numel());
                for (Tensor *t : node.layer->stateTensors())
                    out.insert(out.end(), t->data(),
                               t->data() + t->numel());
            }
        return out;
    };

    Graph a = models::tinyAlexnet(16, 8);
    Rng rng_a(5);
    a.initParams(rng_a);
    Executor exec_a(a);
    applyToExecutor(buildSchedule(a, cfg), exec_a);
    ASSERT_NE(exec_a.devicePool(), nullptr)
        << "device_pool_bytes did not attach a pool";
    Trainer trainer_a(exec_a);
    trainer_a.run(data, tc);

    const auto path = tempPath("ckpt_tier_resume.bin");
    Graph b = models::tinyAlexnet(16, 8);
    Rng rng_b(5);
    b.initParams(rng_b);
    Executor exec_b(b);
    applyToExecutor(buildSchedule(b, cfg), exec_b);
    Trainer trainer_b(exec_b);
    TrainConfig tc_cut = tc;
    tc_cut.checkpoint_path = path;
    tc_cut.max_steps = 3;
    trainer_b.run(data, tc_cut);

    Graph c = models::tinyAlexnet(16, 8);
    Rng rng_c(99); // different init: everything from the checkpoint
    c.initParams(rng_c);
    Executor exec_c(c);
    applyToExecutor(buildSchedule(c, cfg), exec_c);
    Trainer trainer_c(exec_c);
    TrainConfig tc_resume = tc;
    tc_resume.checkpoint_path = path;
    tc_resume.resume = true;
    trainer_c.run(data, tc_resume);

    EXPECT_EQ(flat(a), flat(c));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Planner: Swap in the budget sweep
// ---------------------------------------------------------------------

TEST(DevicePoolPlanner, BudgetSweepWithSwapIsMonotoneAndFeasible)
{
    Graph probe = models::tinyVgg(8);
    GistConfig cfg = GistConfig::lossless();
    cfg.device_pool_bytes = 1; // makes Swap an eligible choice
    cfg.mem_budget_bytes = 1ull << 40;
    const BuiltSchedule top = buildSchedule(probe, cfg);
    ASSERT_TRUE(top.hybrid.active);
    const std::uint64_t keep = top.hybrid.keep_peak_bytes;
    ASSERT_GT(keep, 0u);

    std::uint64_t prev_peak = ~0ull;
    for (const double f : { 0.95, 0.8, 0.65, 0.5, 0.35, 0.2 }) {
        Graph g = models::tinyVgg(8);
        GistConfig c = cfg;
        c.mem_budget_bytes = static_cast<std::uint64_t>(
            static_cast<double>(keep) * f);
        const BuiltSchedule s = buildSchedule(g, c);
        ASSERT_TRUE(s.hybrid.active) << "f=" << f;
        EXPECT_LE(s.hybrid.planned_peak_bytes, prev_peak)
            << "budget sweep not monotone at f=" << f;
        if (s.hybrid.feasible) {
            EXPECT_LE(s.hybrid.planned_peak_bytes, c.mem_budget_bytes)
                << "feasible plan exceeds its budget at f=" << f;
        }
        prev_peak = s.hybrid.planned_peak_bytes;
        const std::string json = hybridPlanJson(s);
        EXPECT_NE(json.find("\"tier_bytes\""), std::string::npos);
    }
}

TEST(DevicePoolPlanner, SwapSlotsExecuteUnderTheirPlan)
{
    // Build a schedule whose planner may choose Swap, then force one
    // representative slot to Swap and verify the full apply-and-run
    // path works with the planner-configured pool (cap + codec).
    Graph g = models::tinyVgg(8);
    GistConfig cfg = GistConfig::lossless();
    cfg.device_pool_bytes = 1ull << 20;
    BuiltSchedule schedule = buildSchedule(g, cfg);
    const ScheduleInfo sched(g);
    bool forced = false;
    for (const auto &node : g.nodes()) {
        if (!forced && sched.stashed(node.id) &&
            !schedule.of(node.id).binarized) {
            schedule.decisions[static_cast<size_t>(node.id)].repr =
                StashPlan::Repr::Swap;
            forced = true;
        }
    }
    ASSERT_TRUE(forced);
    Rng rng(3);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(schedule, exec);
    ASSERT_NE(exec.devicePool(), nullptr);
    EXPECT_EQ(exec.devicePool()->cap(), cfg.device_pool_bytes);

    Rng drng(4);
    const Tensor batch =
        Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
    std::vector<std::int32_t> labels(
        static_cast<size_t>(g.node(0).out_shape.dim(0)), 1);
    const float loss = exec.runMinibatch(batch, labels);
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(exec.stats().tier_evictions, 0u);
}

/** Peak-over-cap of one tiny-ResNet minibatch under the lossless
 *  hybrid plan at @p budget with a DevicePool capped at @p cap. */
ExecStats
tinyResnetUnderCap(std::uint64_t budget, std::uint64_t cap)
{
    Graph g = models::tinyResnet(32);
    GistConfig cfg = GistConfig::lossless();
    cfg.mem_budget_bytes = budget;
    cfg.device_pool_bytes = cap;
    const BuiltSchedule schedule = buildSchedule(g, cfg);
    Rng rng(5);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(schedule, exec);
    EXPECT_NE(exec.devicePool(), nullptr);
    Rng drng(6);
    const Tensor batch =
        Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
    const std::vector<std::int32_t> labels(32, 1);
    exec.runMinibatch(batch, labels);
    return exec.stats();
}

TEST(DevicePool, CapOverrunIsReported)
{
    // Nothing is evictable at the peak of this plan, so the level runs
    // past a 2 MiB cap; the overrun must be reported, not hidden.
    const std::uint64_t cap = 2ull << 20;
    const ExecStats tight = tinyResnetUnderCap(3300000, cap);
    EXPECT_GT(tight.peak_pool_bytes, cap);
    EXPECT_EQ(tight.pool_cap_overrun_bytes, tight.peak_pool_bytes - cap);

    const ExecStats generous = tinyResnetUnderCap(3300000, 64ull << 20);
    EXPECT_LE(generous.peak_pool_bytes, 64ull << 20);
    EXPECT_EQ(generous.pool_cap_overrun_bytes, 0u);
}

} // namespace
} // namespace gist
