// Step benchmark: trains tiny ResNet through the library's public
// API in one of three workloads, checks the outputs, and prints one JSON
// result line. See README.md for the workloads, metrics and checks.
//
//   stepbench --workload dense-train|gist-train|budget-fleet --seed N
//             --seconds S --trace 0|1 [--spawn-ns T] [--run-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 turns on the
// executor's per-node timers, replays the kernels and codecs on the
// run's own shapes and stashes, and prints the per-layer metrics.
// --spawn-ns is the CLOCK_MONOTONIC time at which the launcher started
// this process, so setup_s counts process start-up too.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "core/schedule_builder.hpp"
#include "encodings/binarize.hpp"
#include "encodings/csr.hpp"
#include "encodings/dpr.hpp"
#include "layers/conv.hpp"
#include "memory/arena.hpp"
#include "models/tiny.hpp"
#include "serve/job_manager.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "train/checkpoint.hpp"
#include "train/dataset.hpp"
#include "train/trainer.hpp"
#include "util/jsonin.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace gist;
using stepbench::Verdict;

namespace {

using Clock = std::chrono::steady_clock;

// ---- Workload constants (README "Inputs") ----------------------------

constexpr std::int64_t kBatch = 32;
/** Training steps in one round; every round restarts from the initial
 *  weights, so each run repeats identical work whatever its length. */
constexpr int kRoundSteps = 16;
/** One round is exactly one epoch, so no timed step carries an eval. */
constexpr std::int64_t kNumTrain = kBatch * kRoundSteps;
constexpr std::int64_t kNumEval = 2 * kBatch;
/** Steps each fleet job trains per round, and the pause point of B. */
constexpr int kFleetSteps = 24;
constexpr int kPauseStep = kFleetSteps / 2;
/** Completed fleet steps per step_s sample on budget-fleet. */
constexpr int kWindowSteps = 4;
/** The planner/executor disagreement case (CHANGES.md FOUND line). */
constexpr std::uint64_t kBudgetA = 2755756;
constexpr std::uint64_t kPoolA = 4u << 20;
constexpr std::uint64_t kBudgetB = 3300000;
constexpr std::uint64_t kPoolB = 2u << 20;
constexpr double kTierBytesPerSecond = 1e9;
constexpr std::uint64_t kFleetGlobalBudget = 8u << 20;
constexpr DprFormat kDprFormat = DprFormat::Fp16;
/** Every run does at least this many rounds; rss_bytes is read when the
 *  last of them ends, so it does not depend on the run's length. */
constexpr int kMinRounds = 4;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
monotonicNow()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Seconds of a run spent training; a traced run keeps the rest for
 *  its profiling pass and kernel/codec replays. */
double
trainingShare(double seconds, bool trace)
{
    return trace ? 0.6 * seconds : seconds;
}

/** CPU seconds this process has used, all threads. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/** When set-up ended: monotonic time, and process CPU time by then. */
struct SetupMark
{
    double at = 0.0;
    double cpu = 0.0;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Mean of the fastest tenth (at least one) of @p v: the step_s
 *  estimator. Slow steps come from other tenants of the host; the
 *  fastest tenth repeats across runs where the median does not. */
double
fastTenthMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t k = std::max<size_t>(1, v.size() / 10);
    return std::accumulate(v.begin(), v.begin() + static_cast<long>(k), 0.0) /
           static_cast<double>(k);
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

std::uint64_t
peakRssBytes()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

// ---- Result --------------------------------------------------------------

struct Metric
{
    double value = 0.0;
    const char *unit = "";
    bool integral = false;
};

struct Result
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> errors;
    std::map<std::string, Metric> metrics;

    void
    check(const Verdict &v)
    {
        if (!v.ok)
            errors.push_back(v.why);
    }
    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = { value, unit, false };
    }
    void count(const std::string &name, double value, const char *unit)
    {
        metrics[name] = { value, unit, true };
    }
};

void
printResult(const Result &r)
{
    for (const auto &e : r.errors)
        std::fprintf(stderr, "stepbench: check failed: %s\n", e.c_str());
    std::string out = "{\"correct\": ";
    out += r.errors.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : r.metrics) {
        char buf[64];
        if (m.integral)
            std::snprintf(buf, sizeof buf, "%.0f", m.value);
        else
            std::snprintf(buf, sizeof buf, "%.17g", m.value);
        out += std::string(first ? "" : ", ") + "\"" + name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

// ---- Model access through the public graph/layer API ---------------------

std::vector<std::vector<float>>
copyTensors(Graph &graph, bool state)
{
    std::vector<std::vector<float>> out;
    for (auto &node : graph.nodes())
        if (node.layer)
            for (Tensor *t : state ? node.layer->stateTensors()
                                   : node.layer->params())
                out.emplace_back(t->data(), t->data() + t->numel());
    return out;
}

void
restoreTensors(Graph &graph, bool state,
               const std::vector<std::vector<float>> &from)
{
    size_t i = 0;
    for (auto &node : graph.nodes())
        if (node.layer)
            for (Tensor *t : state ? node.layer->stateTensors()
                                   : node.layer->params())
                std::copy(from[i].begin(), from[i].end(), t->data()), ++i;
}

/**
 * The training forward pass of @p graph on one minibatch, replayed
 * outside the executor through Layer::forward (training mode, replay
 * set so batchnorm leaves its running statistics alone). Returns every
 * node's output map and the loss. These are the maps the executor
 * stashes in the same step.
 */
std::vector<Tensor>
captureForward(Graph &graph, const Tensor &input,
               std::span<const std::int32_t> labels, float *loss)
{
    std::vector<Tensor> maps(static_cast<size_t>(graph.numNodes()));
    for (auto &node : graph.nodes()) {
        Tensor &out = maps[static_cast<size_t>(node.id)];
        if (!node.layer) {
            out = input;
            continue;
        }
        out = Tensor(node.out_shape);
        FwdCtx ctx;
        for (NodeId in : node.inputs)
            ctx.inputs.push_back(&maps[static_cast<size_t>(in)]);
        ctx.output = &out;
        ctx.training = true;
        ctx.replay = true;
        if (auto *loss_layer = dynamic_cast<LossLayer *>(node.layer.get())) {
            loss_layer->setLabels(labels);
            node.layer->forward(ctx);
            *loss = loss_layer->lastLoss();
        } else {
            node.layer->forward(ctx);
        }
    }
    for (auto &node : graph.nodes())
        if (node.layer)
            node.layer->releaseAuxStash();
    return maps;
}

/** Which bucket of the per-layer table a node's time goes to. */
const char *
kindBucket(LayerKind k)
{
    switch (k) {
      case LayerKind::Conv: return "conv";
      case LayerKind::Fc: return "fc";
      case LayerKind::BatchNorm: return "bn";
      case LayerKind::Relu: return "relu";
      case LayerKind::MaxPool:
      case LayerKind::AvgPool: return "pool";
      default: return "other";
    }
}
const char *const kBuckets[] = { "conv", "fc", "bn", "relu", "pool", "other" };

/** FP32 bytes of the stash slots a schedule keeps dense. */
std::uint64_t
denseStashBytes(Executor &exec, const BuiltSchedule &sched)
{
    std::uint64_t bytes = 0;
    for (const auto &node : exec.graph().nodes())
        if (exec.schedule().stashed(node.id) &&
            sched.of(node.id).repr == StashPlan::Repr::Dense)
            bytes += static_cast<std::uint64_t>(node.out_shape.numel()) * 4;
    return bytes;
}

/** What the captured maps say one step's encoded stashes must take. */
struct StashAudit
{
    std::uint64_t csr_bytes = 0;
    std::uint64_t dpr_bytes = 0;
    std::int64_t relu_elems = 0;
    std::int64_t relu_zeros = 0;
    std::uint64_t binarize_bytes = 0;
};

/**
 * Check every CSR/DPR stash of @p sched in @p maps through the public
 * codecs (CSR: encode, tier blob round trip, decode must return the map;
 * DPR: decode must equal the reference quantizer) and total the bytes
 * the documented layouts give for them.
 */
StashAudit
auditStashes(Graph &graph, const BuiltSchedule &sched,
             const std::vector<Tensor> &maps, Result &res)
{
    StashAudit a;
    std::vector<float> decoded;
    for (const auto &node : graph.nodes()) {
        const Tensor &m = maps[static_cast<size_t>(node.id)];
        if (node.kind() == LayerKind::Relu) {
            a.relu_elems += m.numel();
            a.relu_zeros += m.numel() - stepbench::countNonzero(m.span());
        }
        const ScheduleDecision &d = sched.of(node.id);
        if (d.binarized && node.kind() == LayerKind::Relu)
            a.binarize_bytes += (static_cast<std::uint64_t>(m.numel()) + 7) / 8;
        decoded.assign(static_cast<size_t>(m.numel()), 0.0f);
        if (d.repr == StashPlan::Repr::Csr) {
            const CsrConfig &cfg = sched.config.csr;
            CsrBuffer enc(cfg);
            enc.encode(m.span());
            std::vector<std::uint8_t> blob(enc.serializedBytes());
            enc.serialize(blob.data());
            CsrBuffer back;
            back.deserialize(blob.data(), blob.size());
            back.decode(decoded);
            if (cfg.value_format == DprFormat::Fp32)
                res.check(stepbench::csrRoundTrip(m.span(), decoded));
            else
                res.check(stepbench::dprMatchesReference(cfg.value_format,
                                                         m.span(), decoded));
            a.csr_bytes += stepbench::csrLayoutBytes(
                cfg, m.numel(), stepbench::countNonzero(m.span()));
        } else if (d.repr == StashPlan::Repr::Dpr) {
            const DprFormat fmt = sched.config.dpr_format;
            DprBuffer enc;
            enc.encode(fmt, m.span());
            enc.decode(decoded);
            res.check(stepbench::dprMatchesReference(fmt, m.span(), decoded));
            a.dpr_bytes += stepbench::dprLayoutBytes(fmt, m.numel());
        }
    }
    return a;
}

void
reportAudit(const StashAudit &audit, Result &res)
{
    res.count("encodings.csr.bytes", static_cast<double>(audit.csr_bytes), "B");
    res.count("encodings.dpr.bytes", static_cast<double>(audit.dpr_bytes), "B");
    res.count("encodings.binarize.bytes", static_cast<double>(audit.binarize_bytes), "B");
    res.set("encodings.relu_sparsity",
            audit.relu_elems ? static_cast<double>(audit.relu_zeros) /
                                   static_cast<double>(audit.relu_elems)
                             : 0.0,
            "ratio");
}

// ---- Per-layer profiling (traced runs) -----------------------------------

/** Per-step samples the traced run collects from one executor. */
struct Profile
{
    std::map<std::string, std::vector<double>> fwd, bwd;
    std::vector<double> minibatch, dispatch, encode, decode, stall,
        queue_wait, overlap, recompute, recompute_nodes, recompute_bytes,
        tier_out, tier_in, tier_evictions, tier_fetches, tier_transfer,
        arena, optimizer;
};

/**
 * For @p seconds, alternate a bare runMinibatch call (timed, with the
 * per-node timers read after it) and a TrainLoop::step on the next
 * batch. The step's time less the minibatch's, pair by pair, is the
 * optimizer and loop overhead.
 */
void
profileMinibatches(Executor &exec, const SyntheticDataset &data,
                   double seconds, Profile &p)
{
    Trainer trainer(exec);
    TrainConfig tc;
    tc.batch_size = kBatch;
    tc.epochs = 1 << 20;
    TrainLoop loop(trainer, data, tc);
    exec.setProfile(true);
    Tensor batch(exec.graph().node(0).out_shape);
    std::vector<std::int32_t> labels;
    const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
    for (std::int64_t start = 0; Clock::now() < t_end || p.minibatch.size() < 3;
         start = (start + kBatch) % data.numTrain()) {
        data.trainBatch(start, batch, labels);
        const auto t0 = Clock::now();
        exec.runMinibatch(batch, labels);
        const double mb = secondsSince(t0);
        const ExecStats &s = exec.stats();
        std::map<std::string, double> fwd, bwd;
        double nodes = 0.0;
        for (const auto &node : exec.graph().nodes()) {
            const char *b = kindBucket(node.kind());
            fwd[b] += exec.lastFwdSeconds(node.id);
            bwd[b] += exec.lastBwdSeconds(node.id);
            nodes += exec.lastFwdSeconds(node.id) + exec.lastBwdSeconds(node.id);
        }
        for (const char *b : kBuckets) {
            p.fwd[b].push_back(fwd[b]);
            p.bwd[b].push_back(bwd[b]);
        }
        const double tier_s = 1e-9 * static_cast<double>(s.tier_write_ns + s.tier_read_ns);
        const double codec_on_path =
            exec.asyncCodec() ? 1e-9 * static_cast<double>(s.codec_stall_ns)
                              : s.encode_seconds + s.decode_seconds + tier_s;
        p.minibatch.push_back(mb);
        p.dispatch.push_back(mb - nodes - codec_on_path - s.recompute_seconds);
        p.encode.push_back(s.encode_seconds);
        p.decode.push_back(s.decode_seconds);
        p.stall.push_back(1e-9 * static_cast<double>(s.codec_stall_ns));
        p.queue_wait.push_back(1e-9 * static_cast<double>(s.codec_queue_wait_ns));
        p.overlap.push_back(s.overlap_efficiency);
        p.recompute.push_back(s.recompute_seconds);
        p.recompute_nodes.push_back(static_cast<double>(s.recompute_nodes));
        p.recompute_bytes.push_back(static_cast<double>(s.recompute_dropped_bytes));
        p.tier_out.push_back(static_cast<double>(s.tier_bytes_out));
        p.tier_in.push_back(static_cast<double>(s.tier_bytes_in));
        p.tier_evictions.push_back(static_cast<double>(s.tier_evictions));
        p.tier_fetches.push_back(static_cast<double>(s.tier_fetches));
        p.tier_transfer.push_back(tier_s);
        p.arena.push_back(static_cast<double>(
            WorkspaceArena::instance().stepHighWaterBytes()));
        const auto t_step = Clock::now();
        loop.step();
        p.optimizer.push_back(secondsSince(t_step) - mb);
    }
    exec.setProfile(false);
}

void
reportProfile(const Profile &p, Result &r)
{
    for (const char *b : kBuckets) {
        r.set(std::string("layers.") + b + ".fwd_s", fastTenthMean(p.fwd.at(b)), "s");
        r.set(std::string("layers.") + b + ".bwd_s", fastTenthMean(p.bwd.at(b)), "s");
    }
    r.set("graph.minibatch_s", fastTenthMean(p.minibatch), "s");
    r.set("graph.dispatch_s", median(p.dispatch), "s");
    r.set("train.optimizer_s", median(p.optimizer), "s");
    r.set("encodings.encode_s", fastTenthMean(p.encode), "s");
    r.set("encodings.decode_s", fastTenthMean(p.decode), "s");
    r.set("graph.codec_stall_s", fastTenthMean(p.stall), "s");
    r.set("graph.codec_queue_wait_s", fastTenthMean(p.queue_wait), "s");
    r.set("graph.overlap_efficiency", median(p.overlap), "ratio");
    r.set("graph.recompute_s", fastTenthMean(p.recompute), "s");
    r.count("graph.recompute_nodes", median(p.recompute_nodes), "count");
    r.count("graph.recompute_bytes", median(p.recompute_bytes), "B");
    r.count("memory.tier.bytes_out", median(p.tier_out), "B");
    r.count("memory.tier.bytes_in", median(p.tier_in), "B");
    r.count("memory.tier.evictions", median(p.tier_evictions), "count");
    r.count("memory.tier.fetches", median(p.tier_fetches), "count");
    r.set("memory.tier.transfer_s", fastTenthMean(p.tier_transfer), "s");
    double arena = 0.0;
    for (double a : p.arena)
        arena = std::max(arena, a);
    r.count("memory.arena.high_water_bytes", arena, "B");
}

/** Repeat @p body until @p seconds pass (at least 3 times); the mean of
 *  the fastest tenth of its times, as for step_s. */
double
timeRepeated(double seconds, const std::function<void()> &body)
{
    std::vector<double> t;
    const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
    while (Clock::now() < t_end || t.size() < 3) {
        const auto t0 = Clock::now();
        body();
        t.push_back(secondsSince(t0));
    }
    return fastTenthMean(t);
}

/**
 * Replay the public codecs on the run's captured maps: CSR and
 * binarize on the ReLU outputs the classifier routes to them, DPR on
 * every other stashed map. GB/s count dense FP32 bytes in (encode) or out
 * (decode).
 */
void
replayCodecs(Graph &graph, const BuiltSchedule &sched,
             const std::vector<Tensor> &maps, double seconds, Result &r)
{
    std::vector<const Tensor *> relu_maps, other_maps;
    for (const auto &node : graph.nodes()) {
        const auto cat = sched.of(node.id).category;
        if (cat == StashCategory::ReluConv || cat == StashCategory::ReluPool)
            relu_maps.push_back(&maps[static_cast<size_t>(node.id)]);
        else if (cat == StashCategory::Other)
            other_maps.push_back(&maps[static_cast<size_t>(node.id)]);
    }
    auto bytesOf = [](const std::vector<const Tensor *> &v) {
        double b = 0.0;
        for (const Tensor *t : v)
            b += static_cast<double>(t->bytes());
        return b;
    };
    const double relu_bytes = bytesOf(relu_maps), other_bytes = bytesOf(other_maps);
    const double slice = seconds / 5.0;
    std::vector<CsrBuffer> csr(relu_maps.size(), CsrBuffer(sched.config.csr));
    std::vector<DprBuffer> dpr(other_maps.size());
    std::vector<BinarizedMask> bin(relu_maps.size());
    std::vector<float> out;
    const double csr_enc = timeRepeated(slice, [&] {
        for (size_t i = 0; i < relu_maps.size(); ++i)
            csr[i].encode(relu_maps[i]->span());
    });
    const double csr_dec = timeRepeated(slice, [&] {
        for (size_t i = 0; i < relu_maps.size(); ++i) {
            out.resize(static_cast<size_t>(relu_maps[i]->numel()));
            csr[i].decode(out);
        }
    });
    const double dpr_enc = timeRepeated(slice, [&] {
        for (size_t i = 0; i < other_maps.size(); ++i)
            dpr[i].encode(kDprFormat, other_maps[i]->span());
    });
    const double dpr_dec = timeRepeated(slice, [&] {
        for (size_t i = 0; i < other_maps.size(); ++i) {
            out.resize(static_cast<size_t>(other_maps[i]->numel()));
            dpr[i].decode(out);
        }
    });
    const double bin_enc = timeRepeated(slice, [&] {
        for (size_t i = 0; i < relu_maps.size(); ++i)
            bin[i].encode(relu_maps[i]->span());
    });
    r.set("encodings.csr.encode_gbps", relu_bytes / csr_enc * 1e-9, "GB/s");
    r.set("encodings.csr.decode_gbps", relu_bytes / csr_dec * 1e-9, "GB/s");
    r.set("encodings.dpr.encode_gbps", other_bytes / dpr_enc * 1e-9, "GB/s");
    r.set("encodings.dpr.decode_gbps", other_bytes / dpr_dec * 1e-9, "GB/s");
    r.set("encodings.binarize.encode_gbps", relu_bytes / bin_enc * 1e-9, "GB/s");
}

/**
 * Replay gemm and im2col on the model's shapes: each convolution's
 * per-image forward GEMM (out_c x outH*outW x in_c*kh*kw) and im2col,
 * and the FC forward GEMM. GFLOP/s counts 2mnk; im2col GB/s counts the
 * column matrix written.
 */
void
replayKernels(Graph &graph, double seconds, Result &r)
{
    struct GemmShape { bool tb; std::int64_t m, n, k; };
    std::vector<GemmShape> gemms;
    std::vector<ConvGeometry> convs;
    for (auto &node : graph.nodes()) {
        if (auto *conv = dynamic_cast<ConvLayer *>(node.layer.get())) {
            const Shape &in = graph.node(node.inputs[0]).out_shape;
            const ConvSpec &s = conv->spec();
            ConvGeometry g;
            g.in_c = in.c(), g.in_h = in.h(), g.in_w = in.w();
            g.kernel_h = s.kernel_h, g.kernel_w = s.kernel_w;
            g.stride_h = s.stride_h, g.stride_w = s.stride_w;
            g.pad_h = s.pad_h, g.pad_w = s.pad_w;
            convs.push_back(g);
            gemms.push_back({ false, s.out_channels, g.colCols(), g.colRows() });
        } else if (node.kind() == LayerKind::Fc) {
            const Tensor *w = node.layer->params()[0];
            gemms.push_back({ true, kBatch, w->shape().dim(0), w->shape().dim(1) });
        }
    }
    double flops = 0.0;
    std::int64_t max_a = 0, max_b = 0, max_c = 0;
    for (const auto &g : gemms) {
        const std::int64_t reps = g.tb ? 1 : kBatch;
        flops += 2.0 * static_cast<double>(g.m * g.n * g.k * reps);
        max_a = std::max(max_a, g.m * g.k);
        max_b = std::max(max_b, g.k * g.n);
        max_c = std::max(max_c, g.m * g.n);
    }
    Rng rng(7);
    std::vector<float> a(static_cast<size_t>(max_a)), b(static_cast<size_t>(max_b)),
        c(static_cast<size_t>(max_c));
    for (auto &x : a) x = rng.normal();
    for (auto &x : b) x = rng.normal();
    const double gemm_s = timeRepeated(seconds / 2, [&] {
        for (const auto &g : gemms)
            for (std::int64_t rep = 0; rep < (g.tb ? 1 : kBatch); ++rep)
                gemm(false, g.tb, g.m, g.n, g.k, 1.0f, a.data(), b.data(), 0.0f,
                     c.data());
    });
    double col_bytes = 0.0;
    std::int64_t max_img = 0, max_col = 0;
    for (const auto &g : convs) {
        col_bytes += 4.0 * static_cast<double>(g.colRows() * g.colCols() * kBatch);
        max_img = std::max(max_img, g.in_c * g.in_h * g.in_w);
        max_col = std::max(max_col, g.colRows() * g.colCols());
    }
    std::vector<float> img(static_cast<size_t>(max_img)), cols(static_cast<size_t>(max_col));
    for (auto &x : img) x = rng.normal();
    const double im2col_s = timeRepeated(seconds / 2, [&] {
        for (const auto &g : convs)
            for (std::int64_t rep = 0; rep < kBatch; ++rep)
                im2col(g, img.data(), cols.data());
    });
    r.set("tensor.gemm.gflops", flops / gemm_s * 1e-9, "GFLOP/s");
    r.set("tensor.im2col.gbps", col_bytes / im2col_s * 1e-9, "GB/s");
}

/** The planner's modeled peak for a ResNet job under @p cfg. */
std::uint64_t
modeledPeak(const GistConfig &cfg)
{
    serve::JobSpec spec;
    spec.id = "model";
    spec.model = "ResNet";
    spec.batch_size = kBatch;
    spec.gist = cfg;
    return serve::modeledPeakBytes(spec);
}

// ---- dense-train / gist-train ---------------------------------------------

GistConfig
workloadConfig(bool gist)
{
    if (!gist)
        return GistConfig::baseline();
    // Full Gist: binarize, SSDC (CSR with FP32 values) and DPR on the
    // remaining stashes.
    GistConfig cfg = GistConfig::lossy(kDprFormat);
    cfg.csr.value_format = DprFormat::Fp32;
    return cfg;
}

Graph
tinyResnet()
{
    for (const auto &entry : models::tinyModels())
        if (entry.name == "ResNet")
            return entry.build(kBatch);
    throw std::runtime_error("tiny ResNet missing from models::tinyModels()");
}

SyntheticDataset::Spec
datasetSpec(std::uint64_t seed)
{
    SyntheticDataset::Spec ds;
    ds.num_train = kNumTrain;
    ds.num_eval = kNumEval;
    ds.seed = seed;
    return ds;
}

/** One training run's state: graph, schedule, executor and data. */
struct Trainee
{
    Graph graph;
    GistConfig cfg;
    BuiltSchedule sched;
    std::unique_ptr<Executor> exec;
    std::unique_ptr<SyntheticDataset> data;
    std::vector<std::vector<float>> init_params, init_state;
    double build_schedule_s = 0.0;

    Trainee(bool gist, std::uint64_t seed)
        : graph(tinyResnet()), cfg(workloadConfig(gist))
    {
        cfg.num_threads = 1;
        Rng rng(seed + 1);
        graph.initParams(rng);
        init_params = copyTensors(graph, false);
        init_state = copyTensors(graph, true);
        const auto t0 = Clock::now();
        sched = buildSchedule(graph, cfg);
        build_schedule_s = secondsSince(t0);
        exec = std::make_unique<Executor>(graph);
        applyToExecutor(sched, *exec);
        data = std::make_unique<SyntheticDataset>(datasetSpec(seed));
    }

    /** Rewind to the initial weights and fresh optimizer state. */
    void
    rewind()
    {
        restoreTensors(graph, false, init_params);
        restoreTensors(graph, true, init_state);
    }

    TrainConfig
    trainConfig() const
    {
        TrainConfig tc;
        tc.batch_size = kBatch;
        tc.epochs = 1;
        tc.num_threads = 1;
        return tc;
    }
};

/** Samples from the timed training rounds. */
struct RoundLog
{
    std::vector<double> step_s;
    std::uint64_t peak = 0;
    std::vector<double> stash;
    std::int64_t steps = 0;
};

/**
 * Train one round (kRoundSteps steps from the initial weights) and
 * log it. @p before_step, when set, runs ahead of each step with the
 * step's index.
 */
std::vector<float>
trainRound(Trainee &t, RoundLog &log, bool timed, std::uint64_t dense_stash,
           const std::function<void(int)> &before_step = {})
{
    t.rewind();
    Trainer trainer(*t.exec);
    TrainLoop loop(trainer, *t.data, t.trainConfig());
    std::vector<float> losses;
    for (int i = 0; i < kRoundSteps; ++i) {
        if (before_step)
            before_step(i);
        const auto t0 = Clock::now();
        if (!loop.step())
            throw std::runtime_error("training loop ended early");
        const double dt = secondsSince(t0);
        const ExecStats &s = t.exec->stats();
        losses.push_back(s.loss);
        ++log.steps;
        if (timed) {
            log.step_s.push_back(dt);
            log.peak = std::max(log.peak, s.peak_pool_bytes);
            log.stash.push_back(static_cast<double>(s.encoded_bytes + dense_stash));
        }
    }
    return losses;
}

int
runTraining(bool gist, std::uint64_t seed, double seconds, bool trace,
            double spawn, Result &res)
{
    Trainee t(gist, seed);
    const SetupMark setup{ monotonicNow(), processCpuSeconds() };
    const double setup_s = setup.at - spawn;
    const std::uint64_t dense_stash = denseStashBytes(*t.exec, t.sched);

    if (trace)
        t.exec->setProfile(true);
    RoundLog log;
    std::vector<float> round0;
    const auto t_end =
        Clock::now() + std::chrono::duration<double>(trainingShare(seconds, trace));
    int rounds = 0;
    // Round 0 warms caches, the arena and the allocator and is not timed;
    // then whole rounds until the time is up.
    std::uint64_t rss = 0;
    while (rounds < kMinRounds || Clock::now() < t_end) {
        const auto losses = trainRound(t, log, rounds > 0, dense_stash);
        if (rounds == 0)
            round0 = losses;
        else
            res.check(stepbench::lossSeriesEqual(losses, round0, "round repeat"));
        res.check(stepbench::lossesFinite(losses));
        if (++rounds == kMinRounds)
            rss = peakRssBytes();
    }
    t.exec->setProfile(false);
    res.attempted = log.steps;

    // Check round: capture the stashed maps ahead of two steps and hold
    // the program's stash accounting and codecs to them.
    const int probe_steps[] = { 0, kRoundSteps / 2 };
    auto isProbe = [&](int i) { return i == probe_steps[0] || i == probe_steps[1]; };
    std::vector<Tensor> last_maps;
    StashAudit audit;
    Tensor batch(t.graph.node(0).out_shape);
    std::vector<std::int32_t> labels;
    std::vector<float> capture_losses;
    std::vector<std::uint64_t> expected, reported;
    RoundLog check_log;
    const std::vector<float> check_losses =
        trainRound(t, check_log, false, dense_stash, [&](int i) {
            if (i > 0 && isProbe(i - 1))
                reported.push_back(t.exec->stats().encoded_bytes);
            if (!isProbe(i))
                return;
            t.data->trainBatch(i * kBatch, batch, labels);
            float loss = 0.0f;
            last_maps = captureForward(t.graph, batch, labels, &loss);
            capture_losses.push_back(loss);
            audit = auditStashes(t.graph, t.sched, last_maps, res);
            expected.push_back(audit.csr_bytes + audit.dpr_bytes);
        });
    res.attempted += check_log.steps;
    res.check(stepbench::lossesFinite(check_losses));
    res.check(stepbench::lossSeriesEqual(check_losses, round0, "check round repeat"));
    for (size_t k = 0; k < 2; ++k) {
        res.check(stepbench::lossesEqual(check_losses[static_cast<size_t>(probe_steps[k])],
                                         capture_losses[k],
                                         "executor loss vs replayed forward"));
        res.check(stepbench::bytesEqual(reported[k], expected[k],
                                        "encoded stash bytes of step " +
                                            std::to_string(probe_steps[k] + 1)));
    }
    if (gist) {
        // DPR reduces only the backward copy: the first loss must be the
        // dense run's, bit for bit.
        Trainee dense(false, seed);
        Tensor b0(dense.graph.node(0).out_shape);
        dense.data->trainBatch(0, b0, labels);
        const float dense_loss = dense.exec->runMinibatch(b0, labels);
        res.check(stepbench::lossesEqual(round0[0], dense_loss,
                                         "gist-train vs dense-train first loss"));
    }

    if (!trace) {
        res.set("setup_s", setup_s, "s");
        res.set("step_s", fastTenthMean(log.step_s), "s");
        res.count("peak_bytes", static_cast<double>(log.peak), "B");
        res.set("stash_bytes", mean(log.stash), "B");
        res.count("rss_bytes", static_cast<double>(rss), "B");
        std::printf("# detail {\"step_median_s\": %.9g, \"steps_timed\": %zu, "
                    "\"rounds\": %d, \"setup_cpu_s\": %.9g}\n",
                    median(log.step_s), log.step_s.size(), rounds, setup.cpu);
        return 0;
    }

    // Traced: per-layer numbers from this run's executor and maps.
    const double budget = seconds - trainingShare(seconds, trace);
    res.set("train.step_s", fastTenthMean(log.step_s), "s");
    Profile prof;
    profileMinibatches(*t.exec, *t.data, 0.4 * budget, prof);
    reportProfile(prof, res);
    {
        Trainer trainer(*t.exec);
        res.set("train.eval_s", timeRepeated(0.1 * budget, [&] {
                    trainer.evaluate(*t.data, kBatch);
                }), "s");
    }
    res.set("train.checkpoint_s", 0.0, "s");
    replayCodecs(t.graph, t.sched, last_maps, 0.25 * budget, res);
    replayKernels(t.graph, 0.25 * budget, res);
    reportAudit(audit, res);
    res.set("core.build_schedule_s", t.build_schedule_s, "s");
    const std::uint64_t planned = modeledPeak(t.cfg);
    res.count("core.planned_peak_bytes", static_cast<double>(planned), "B");
    res.set("core.peak_model_error",
            planned ? static_cast<double>(log.peak) / static_cast<double>(planned) : 0.0,
            "ratio");
    for (const char *name : { "serve.submit_s", "serve.pause_s", "serve.resume_s",
                              "serve.scheduler_s" })
        res.set(name, 0.0, "s");
    return 0;
}

} // namespace

// ---- budget-fleet ----------------------------------------------------------

namespace {

/** Numeric fields of one metrics-JSONL step record. */
using StepRecord = std::map<std::string, double>;

/** Read the "type": "step" records of a job's metrics JSONL. */
std::vector<StepRecord>
readStepRecords(const std::string &path)
{
    std::vector<StepRecord> out;
    std::ifstream in(path);
    std::string line, err;
    while (std::getline(in, line)) {
        JsonValue rec;
        if (!JsonValue::parse(line, rec, &err))
            throw std::runtime_error(path + ": " + err);
        if (rec.stringOr("type", "") != "step")
            continue;
        StepRecord &fields = out.emplace_back();
        for (const auto &[key, value] : rec.members())
            if (value.isNumber())
                fields[key] = value.asNumber();
    }
    return out;
}

serve::JobSpec
fleetSpec(const std::string &id, std::uint64_t seed, std::uint64_t param_seed,
          const std::string &dir)
{
    serve::JobSpec spec;
    spec.id = id;
    spec.model = "ResNet";
    spec.batch_size = kBatch;
    spec.epochs = 1;
    spec.max_steps = kFleetSteps;
    spec.seed = param_seed;
    spec.dataset_seed = seed;
    spec.num_train = kBatch * kFleetSteps;
    spec.num_eval = kBatch;
    spec.checkpoint_path = dir + "/" + id + ".ckpt";
    spec.metrics_path = dir + "/" + id + ".jsonl";
    spec.gist = GistConfig::lossless();
    return spec;
}

/** The fleet's two jobs: both lossless, budgeted below their Gist peak,
 *  with a bounded device pool over the throttled in-memory tier and an
 *  async codec with one worker. */
std::vector<serve::JobSpec>
fleetJobs(std::uint64_t seed, const std::string &dir, int round)
{
    const std::string suffix = "-r" + std::to_string(round);
    serve::JobSpec a = fleetSpec("a" + suffix, seed, seed + 1, dir);
    a.gist.mem_budget_bytes = kBudgetA;
    a.gist.device_pool_bytes = kPoolA;
    serve::JobSpec b = fleetSpec("b" + suffix, seed, seed + 2, dir);
    b.gist.mem_budget_bytes = kBudgetB;
    b.gist.device_pool_bytes = kPoolB;
    for (auto *s : { &a, &b }) {
        s->gist.tier_bandwidth_bytes_per_s = kTierBytesPerSecond;
        s->gist.async_codec = true;
        s->gist.codec_threads = 1;
    }
    return { a, b };
}

/** Weights and BN statistics of a job's final checkpoint. */
std::pair<std::vector<std::vector<float>>, std::vector<std::vector<float>>>
checkpointTensors(const serve::JobSpec &spec)
{
    Graph g = serve::buildModelGraph(spec);
    Rng rng(0);
    g.initParams(rng);
    TrainState st;
    loadCheckpoint(g, st, spec.checkpoint_path);
    return { copyTensors(g, false), copyTensors(g, true) };
}

struct FleetRound
{
    double wall = 0.0;       ///< first submit() returned .. waitAll returned
    std::int64_t steps = 0;  ///< steps completed in that window
    double job_step_s = 0.0; ///< the jobs' own step time in the window
    /** Fleet wall seconds per completed step, over consecutive windows
     *  of at least kWindowSteps steps that span no lifecycle call. */
    std::vector<double> windows;
    /** Wall seconds the lifecycle calls took (second submit; pause,
     *  checkpoint and resume), and the steps the scheduler completed
     *  meanwhile. */
    double lifecycle_s = 0.0;
    std::int64_t lifecycle_steps = 0;
    double submit = 0.0, pause = 0.0, resume = 0.0, checkpoint = 0.0;
    std::vector<std::vector<StepRecord>> records; ///< per job
    std::vector<serve::JobState> states;
};

void
removeJobFiles(const serve::JobSpec &s)
{
    std::error_code ec;
    std::filesystem::remove(s.checkpoint_path, ec);
    std::filesystem::remove(s.checkpoint_path + ".tmp", ec);
    std::filesystem::remove(s.metrics_path, ec);
}

/**
 * One fleet round: submit both jobs, pause B at kPauseStep, snapshot A
 * while B is paused, resume B, wait for both. The fleet's progress is
 * sampled from outside while it runs. The final checkpoints are left on
 * disk for the caller.
 */
FleetRound
runFleetRound(const std::vector<serve::JobSpec> &jobs, SetupMark *setup)
{
    FleetRound r;
    serve::ServeConfig sc;
    sc.global_budget_bytes = kFleetGlobalBudget;
    serve::JobManager manager(sc);
    const std::string &a = jobs[0].id, &b = jobs[1].id;
    auto submit = [&](const serve::JobSpec &spec) {
        const auto t0 = Clock::now();
        const serve::SubmitResult sr = manager.submit(spec);
        if (!sr.admitted)
            throw std::runtime_error("fleet job not admitted: " + sr.error);
        return secondsSince(t0);
    };
    // Set-up ends when the first job is built: submit() returns only then.
    r.submit = submit(jobs[0]);
    if (setup)
        *setup = { monotonicNow(), processCpuSeconds() };
    const auto t_fleet = Clock::now();

    struct Sample
    {
        double t;
        std::int64_t steps;
        bool after_lifecycle; ///< a lifecycle call ran since the last sample
    };
    std::vector<Sample> progress;
    auto sample = [&](bool after_lifecycle) {
        std::int64_t steps = 0;
        bool live = false;
        for (const auto &st : manager.list()) {
            steps += st.step;
            live = live || st.state == serve::JobState::Running ||
                   st.state == serve::JobState::Queued;
        }
        progress.push_back({ secondsSince(t_fleet), steps, after_lifecycle });
        return live;
    };
    // The second submission waits behind the scheduler's steps of the
    // first job; it is fleet time, not set-up.
    sample(false);
    submit(jobs[1]);
    bool resumed = false;
    for (bool after_lifecycle = true; sample(after_lifecycle);) {
        after_lifecycle = false;
        if (!resumed && manager.status(b).step >= kPauseStep) {
            std::string err;
            auto t0 = Clock::now();
            if (!manager.pause(b, &err))
                throw std::runtime_error("pause failed: " + err);
            r.pause = secondsSince(t0);
            t0 = Clock::now();
            if (manager.status(a).state == serve::JobState::Running &&
                !manager.checkpoint(a, &err))
                throw std::runtime_error("checkpoint failed: " + err);
            r.checkpoint = secondsSince(t0);
            t0 = Clock::now();
            if (!manager.resume(b, &err))
                throw std::runtime_error("resume failed: " + err);
            r.resume = secondsSince(t0);
            resumed = after_lifecycle = true;
            continue;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    // Windows restart after each lifecycle call; the gap it spans goes to
    // the lifecycle figures instead.
    for (size_t i = 0, j = 1; j < progress.size(); ++j) {
        const double dt = progress[j].t - progress[j - 1].t;
        const std::int64_t dn = progress[j].steps - progress[j - 1].steps;
        if (progress[j].after_lifecycle) {
            r.lifecycle_s += dt;
            r.lifecycle_steps += dn;
            i = j;
        } else if (progress[j].steps - progress[i].steps >= kWindowSteps) {
            r.windows.push_back((progress[j].t - progress[i].t) /
                                static_cast<double>(progress[j].steps -
                                                    progress[i].steps));
            i = j;
        }
    }
    manager.waitAll();
    r.wall = secondsSince(t_fleet);
    r.steps = progress.back().steps;
    for (const auto &spec : jobs) {
        r.states.push_back(manager.status(spec.id).state);
        r.records.push_back(readStepRecords(spec.metrics_path));
        for (const auto &rec : r.records.back())
            r.job_step_s += rec.at("step_seconds");
    }
    return r;
}

/**
 * The fleet's step_s is steady + lifecycle: the steady step rate
 * (fastest tenth of the lifecycle-free windows) plus, per round, the
 * wall time the lifecycle calls added beyond the steps completed during
 * them, spread over the round's steps (median over rounds). So it is the
 * round's wall time over its steps, pause, checkpoint, resume and second
 * submit included, with the host's slow phases filtered out of the step
 * part.
 */
struct FleetStep
{
    double steady = 0.0;
    double lifecycle = 0.0;
};

FleetStep
fleetStepSeconds(const std::vector<FleetRound> &rounds)
{
    std::vector<double> windows, lifecycle;
    for (size_t i = 1; i < rounds.size(); ++i)
        windows.insert(windows.end(), rounds[i].windows.begin(), rounds[i].windows.end());
    const double rate = fastTenthMean(windows);
    for (size_t i = 1; i < rounds.size(); ++i) {
        const FleetRound &fr = rounds[i];
        lifecycle.push_back((fr.lifecycle_s - static_cast<double>(fr.lifecycle_steps) * rate) /
                            static_cast<double>(std::max<std::int64_t>(1, fr.steps)));
    }
    return { rate, median(lifecycle) };
}

/** FP32 bytes of the stash slots @p spec's plan keeps dense. */
std::uint64_t
jobDenseStashBytes(const serve::JobSpec &spec)
{
    Graph graph = serve::buildModelGraph(spec);
    Rng rng(spec.seed);
    graph.initParams(rng);
    const BuiltSchedule sched = buildSchedule(graph, spec.gist);
    Executor exec(graph);
    applyToExecutor(sched, exec);
    return denseStashBytes(exec, sched);
}

/** The same job alone: no budget, no device pool, sync codec, no pause. */
serve::JobSpec
soloTwin(serve::JobSpec spec)
{
    spec.id += "-solo";
    spec.checkpoint_path = spec.checkpoint_path + ".solo";
    spec.metrics_path = spec.metrics_path + ".solo";
    spec.gist = GistConfig::lossless();
    return spec;
}

int
runFleet(std::uint64_t seed, double seconds, bool trace, double spawn,
         const std::string &dir, Result &res)
{
    std::filesystem::create_directories(dir);

    std::vector<FleetRound> rounds;
    SetupMark setup;
    const auto t_end =
        Clock::now() + std::chrono::duration<double>(trainingShare(seconds, trace));
    std::pair<std::vector<std::vector<float>>, std::vector<std::vector<float>>> first[2];
    // Round 0 is the warm-up (and holds the cold setup); then whole
    // rounds until the time is up.
    std::uint64_t rss = 0;
    for (int round = 0; round < kMinRounds || Clock::now() < t_end; ++round) {
        const auto jobs = fleetJobs(seed, dir, round);
        rounds.push_back(runFleetRound(jobs, round == 0 ? &setup : nullptr));
        FleetRound &fr = rounds.back();
        res.attempted += 2 * kFleetSteps + 2;
        for (size_t j = 0; j < jobs.size(); ++j) {
            const bool done = fr.states[j] == serve::JobState::Done;
            res.failed += done ? 0 : 1;
            if (!done)
                res.errors.push_back("fleet job " + jobs[j].id + " ended " +
                                     serve::jobStateName(fr.states[j]));
            const auto tensors = checkpointTensors(jobs[j]);
            if (round == 0) {
                first[j] = tensors;
            } else {
                res.check(stepbench::tensorsEqual(tensors.first, first[j].first,
                                                  "fleet round repeat, weights"));
                res.check(stepbench::tensorsEqual(tensors.second, first[j].second,
                                                  "fleet round repeat, BN stats"));
            }
            std::vector<float> losses;
            for (const auto &rec : fr.records[j])
                losses.push_back(static_cast<float>(rec.count("loss") ? rec.at("loss") : NAN));
            res.check(stepbench::lossesFinite(losses));
            removeJobFiles(jobs[j]);
        }
        if (round + 1 == kMinRounds)
            rss = peakRssBytes();
    }

    // Fleet figures (round 0 excluded: warm-up).
    std::vector<double> round_step_s, sched_s;
    std::uint64_t peak = 0, peak_a = 0;
    std::vector<double> stash;
    for (size_t i = 1; i < rounds.size(); ++i) {
        const FleetRound &fr = rounds[i];
        round_step_s.push_back(fr.wall / static_cast<double>(std::max<std::int64_t>(1, fr.steps)));
        for (size_t j = 0; j < fr.records.size(); ++j)
            for (const auto &rec : fr.records[j]) {
                const auto p = static_cast<std::uint64_t>(rec.at("peak_pool_bytes"));
                peak = std::max(peak, p);
                if (j == 0)
                    peak_a = std::max(peak_a, p);
            }
        sched_s.push_back((fr.wall - fr.job_step_s) /
                          static_cast<double>(std::max<std::int64_t>(1, fr.steps)));
    }

    const FleetStep fleet_step = fleetStepSeconds(rounds);
    const double step_s = fleet_step.steady + fleet_step.lifecycle;

    // Checks against solo twins, and a probe replica of job A built
    // directly through buildSchedule/applyToExecutor for the stash audit.
    const auto jobs = fleetJobs(seed, dir, 0);
    std::uint64_t solo_peak = UINT64_MAX;
    for (size_t j = 0; j < jobs.size(); ++j) {
        const serve::JobSpec twin = soloTwin(jobs[j]);
        {
            serve::JobManager solo;
            const auto sr = solo.submit(twin);
            if (!sr.admitted)
                throw std::runtime_error("solo twin not admitted: " + sr.error);
            solo.waitAll();
            if (solo.status(twin.id).state != serve::JobState::Done)
                res.errors.push_back("solo twin " + twin.id + " did not finish");
        }
        const auto tensors = checkpointTensors(twin);
        res.check(stepbench::tensorsEqual(first[j].first, tensors.first,
                                          "fleet job " + jobs[j].id + " vs solo twin, weights"));
        res.check(stepbench::tensorsEqual(first[j].second, tensors.second,
                                          "fleet job " + jobs[j].id + " vs solo twin, BN stats"));
        std::uint64_t twin_peak = 0;
        for (const auto &rec : readStepRecords(twin.metrics_path))
            twin_peak = std::max(twin_peak, static_cast<std::uint64_t>(rec.at("peak_pool_bytes")));
        solo_peak = std::min(solo_peak, twin_peak);
        removeJobFiles(twin);
    }
    if (!(peak < solo_peak))
        res.errors.push_back("fleet peak " + std::to_string(peak) +
                             " B is not below the solo peak " + std::to_string(solo_peak) + " B");

    // Probe replica of job A.
    const serve::JobSpec &spec_a = jobs[0];
    Graph graph = serve::buildModelGraph(spec_a);
    Rng rng(spec_a.seed);
    graph.initParams(rng);
    auto t0 = Clock::now();
    const BuiltSchedule sched = buildSchedule(graph, spec_a.gist);
    const double build_schedule_s = secondsSince(t0);
    Executor exec(graph);
    applyToExecutor(sched, exec);
    // Each job's stash_bytes adds the FP32 slots its own plan keeps dense.
    const std::uint64_t dense_stash[2] = { denseStashBytes(exec, sched),
                                           jobDenseStashBytes(jobs[1]) };
    SyntheticDataset::Spec ds;
    ds.num_train = spec_a.num_train;
    ds.num_eval = spec_a.num_eval;
    ds.seed = spec_a.dataset_seed;
    SyntheticDataset data(ds);
    Tensor batch(graph.node(0).out_shape);
    std::vector<std::int32_t> labels;
    data.trainBatch(0, batch, labels);
    float capture_loss = 0.0f;
    const std::vector<Tensor> maps = captureForward(graph, batch, labels, &capture_loss);
    const StashAudit audit = auditStashes(graph, sched, maps, res);
    const float loss = exec.runMinibatch(batch, labels);
    res.check(stepbench::lossesEqual(loss, capture_loss, "probe loss vs replayed forward"));
    res.check(stepbench::bytesEqual(exec.stats().encoded_bytes, audit.csr_bytes + audit.dpr_bytes,
                                    "probe encoded stash bytes"));
    res.check(stepbench::bytesEqual(
        static_cast<std::uint64_t>(rounds[0].records[0].at(0).at("encoded_bytes")),
        audit.csr_bytes + audit.dpr_bytes, "fleet job A step 1 encoded stash bytes"));
    for (size_t i = 1; i < rounds.size(); ++i)
        for (size_t j = 0; j < rounds[i].records.size(); ++j)
            for (const auto &rec : rounds[i].records[j])
                stash.push_back(rec.at("encoded_bytes") + static_cast<double>(dense_stash[j]));

    if (!trace) {
        res.set("setup_s", setup.at - spawn, "s");
        res.set("step_s", step_s, "s");
        res.count("peak_bytes", static_cast<double>(peak), "B");
        res.set("stash_bytes", mean(stash), "B");
        res.count("rss_bytes", static_cast<double>(rss), "B");
        std::printf("# detail {\"step_median_s\": %.9g, \"rounds\": %zu, "
                    "\"lifecycle_per_step_s\": %.9g, \"setup_cpu_s\": %.9g}\n",
                    median(round_step_s), rounds.size(), fleet_step.lifecycle,
                    setup.cpu);
        return 0;
    }

    const double budget = seconds - trainingShare(seconds, trace);
    res.set("train.step_s", step_s, "s");
    Profile prof;
    profileMinibatches(exec, data, 0.4 * budget, prof);
    reportProfile(prof, res);
    // Codec, recompute and tier figures of the fleet itself, from the
    // jobs' step records.
    std::map<std::string, std::vector<double>> col;
    for (size_t i = 1; i < rounds.size(); ++i)
        for (const auto &recs : rounds[i].records)
            for (const auto &rec : recs) {
                for (const auto &[k, v] : rec)
                    col[k].push_back(v);
                col["tier_transfer"].push_back(rec.at("tier_write_seconds") +
                                               rec.at("tier_read_seconds"));
            }
    res.set("encodings.encode_s", median(col["encode_seconds"]), "s");
    res.set("encodings.decode_s", median(col["decode_seconds"]), "s");
    res.set("graph.codec_stall_s", median(col["codec_stall_seconds"]), "s");
    res.set("graph.codec_queue_wait_s", median(col["codec_queue_wait_seconds"]), "s");
    res.set("graph.overlap_efficiency", median(col["overlap_efficiency"]), "ratio");
    res.set("graph.recompute_s", median(col["recompute_seconds"]), "s");
    res.count("graph.recompute_bytes", median(col["recompute_dropped_bytes"]), "B");
    res.count("memory.tier.bytes_out", median(col["tier_bytes_out"]), "B");
    res.count("memory.tier.bytes_in", median(col["tier_bytes_in"]), "B");
    res.count("memory.tier.evictions", median(col["tier_evictions"]), "count");
    res.count("memory.tier.fetches", median(col["tier_fetches"]), "count");
    res.set("memory.tier.transfer_s", median(col["tier_transfer"]), "s");
    res.set("train.eval_s", 0.0, "s");
    std::vector<double> submit, pause, resume, ckpt;
    for (size_t i = 1; i < rounds.size(); ++i) {
        submit.push_back(rounds[i].submit);
        pause.push_back(rounds[i].pause);
        resume.push_back(rounds[i].resume);
        ckpt.push_back(rounds[i].checkpoint);
    }
    res.set("train.checkpoint_s", median(ckpt), "s");
    res.set("serve.submit_s", median(submit), "s");
    res.set("serve.pause_s", median(pause), "s");
    res.set("serve.resume_s", median(resume), "s");
    res.set("serve.scheduler_s", median(sched_s), "s");
    replayCodecs(graph, sched, maps, 0.25 * budget, res);
    replayKernels(graph, 0.25 * budget, res);
    reportAudit(audit, res);
    res.set("core.build_schedule_s", build_schedule_s, "s");
    res.count("core.planned_peak_bytes", static_cast<double>(sched.hybrid.planned_peak_bytes), "B");
    res.set("core.peak_model_error",
            static_cast<double>(peak_a) / static_cast<double>(sched.hybrid.planned_peak_bytes),
            "ratio");
    return 0;
}

/** Host facts for the README: SIMD backend, cores, measured parallelism. */
void
printHostInfo()
{
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    auto spin = [] {
        volatile double x = 1.0;
        for (int i = 0; i < 20000000; ++i)
            x = x * 1.0000001 + 1e-9;
    };
    auto t0 = Clock::now();
    spin();
    const double one = secondsSince(t0);
    t0 = Clock::now();
    {
        std::vector<std::thread> ts;
        for (unsigned i = 0; i < n; ++i)
            ts.emplace_back(spin);
        for (auto &t : ts)
            t.join();
    }
    const double all = secondsSince(t0);
    std::printf("# host {\"nproc\": %u, \"simd\": \"%s\", "
                "\"measured_parallelism\": %.2f}\n",
                n, simd::backendName(simd::activeBackend()), n * one / all);
}

void
clearGistEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "GIST_", 5) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const auto &n : names)
        unsetenv(n.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const double main_entry = monotonicNow();
    std::string workload, run_dir = ".stepbench_run";
    std::uint64_t seed = 1;
    double seconds = 10.0, spawn = 0.0;
    bool trace = false, host_info = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            workload = value();
        else if (arg == "--seed")
            seed = std::stoull(value());
        else if (arg == "--seconds")
            seconds = std::stod(value());
        else if (arg == "--trace")
            trace = value() != "0";
        else if (arg == "--spawn-ns")
            spawn = 1e-9 * std::stod(value());
        else if (arg == "--run-dir")
            run_dir = value();
        else if (arg == "--host-info")
            host_info = true;
        else {
            std::fprintf(stderr, "stepbench: unknown argument %s\n", arg.c_str());
            return 2;
        }
    }
    if (spawn <= 0.0)
        spawn = main_entry;
    clearGistEnvironment();
    setNumThreads(1);
    if (host_info) {
        printHostInfo();
        return 0;
    }

    Result res;
    try {
        if (workload == "dense-train" || workload == "gist-train")
            runTraining(workload == "gist-train", seed, seconds, trace, spawn, res);
        else if (workload == "budget-fleet")
            runFleet(seed, seconds, trace, spawn, run_dir, res);
        else {
            std::fprintf(stderr, "stepbench: unknown workload '%s'\n", workload.c_str());
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "stepbench: %s\n", e.what());
        return 1;
    }
    printResult(res);
    return 0;
}
