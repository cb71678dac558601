/**
 * @file
 * GEMM tests: all four transpose combinations against a naive reference,
 * plus alpha/beta semantics — parameterized over sizes. The register-tile
 * driver is also held bitwise to the row-axpy oracle (NN, TN, packed B)
 * on every backend, over shapes that cross every blocking edge and over
 * special values in A, and to itself across thread counts.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gemm_oracle.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

/** Naive triple loop reference. */
void
gemmRef(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
        std::int64_t k, float alpha, const float *a, const float *b,
        float beta, float *c)
{
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::int64_t p = 0; p < k; ++p) {
                const float av = trans_a ? a[p * m + i] : a[i * k + p];
                const float bv = trans_b ? b[j * k + p] : b[p * n + j];
                acc += av * bv;
            }
            c[i * n + j] = alpha * acc + beta * c[i * n + j];
        }
    }
}

struct GemmCase
{
    std::int64_t m, n, k;
    bool ta, tb;
};

class GemmParam : public ::testing::TestWithParam<GemmCase>
{
};

TEST_P(GemmParam, MatchesReference)
{
    const auto p = GetParam();
    Rng rng(p.m * 131 + p.n * 17 + p.k + p.ta * 2 + p.tb);
    std::vector<float> a(static_cast<size_t>(p.m * p.k));
    std::vector<float> b(static_cast<size_t>(p.k * p.n));
    std::vector<float> c(static_cast<size_t>(p.m * p.n));
    for (auto &x : a)
        x = rng.normal();
    for (auto &x : b)
        x = rng.normal();
    for (auto &x : c)
        x = rng.normal();
    std::vector<float> c_ref = c;

    gemm(p.ta, p.tb, p.m, p.n, p.k, 1.3f, a.data(), b.data(), 0.7f,
         c.data());
    gemmRef(p.ta, p.tb, p.m, p.n, p.k, 1.3f, a.data(), b.data(), 0.7f,
            c_ref.data());
    for (size_t i = 0; i < c.size(); ++i)
        EXPECT_NEAR(c[i], c_ref[i], 1e-3f) << "element " << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposes, GemmParam,
    ::testing::Values(GemmCase{ 5, 7, 3, false, false },
                      GemmCase{ 5, 7, 3, true, false },
                      GemmCase{ 5, 7, 3, false, true },
                      GemmCase{ 5, 7, 3, true, true },
                      GemmCase{ 1, 1, 1, false, false },
                      GemmCase{ 16, 16, 16, false, false },
                      GemmCase{ 16, 16, 16, true, true },
                      GemmCase{ 33, 9, 21, false, true },
                      GemmCase{ 9, 33, 21, true, false },
                      GemmCase{ 64, 1, 64, false, false }));

TEST(Gemm, BetaZeroIgnoresGarbage)
{
    std::vector<float> a = { 1.0f, 2.0f };
    std::vector<float> b = { 3.0f, 4.0f };
    std::vector<float> c = { std::numeric_limits<float>::quiet_NaN() };
    gemm(false, false, 1, 1, 2, 1.0f, a.data(), b.data(), 0.0f, c.data());
    EXPECT_FLOAT_EQ(c[0], 11.0f);
}

TEST(Gemm, BetaOneAccumulates)
{
    std::vector<float> a = { 1.0f };
    std::vector<float> b = { 2.0f };
    std::vector<float> c = { 10.0f };
    gemm(false, false, 1, 1, 1, 1.0f, a.data(), b.data(), 1.0f, c.data());
    EXPECT_FLOAT_EQ(c[0], 12.0f);
}

TEST(Gemm, AlphaZeroOnlyScalesC)
{
    std::vector<float> a = { 1.0f };
    std::vector<float> b = { 2.0f };
    std::vector<float> c = { 10.0f };
    gemm(false, false, 1, 1, 1, 0.0f, a.data(), b.data(), 0.5f, c.data());
    EXPECT_FLOAT_EQ(c[0], 5.0f);
}

TEST(Gemm, EmptyDimsAreNoOps)
{
    std::vector<float> c = { 3.0f };
    gemm(false, false, 1, 1, 0, 1.0f, nullptr, nullptr, 1.0f, c.data());
    EXPECT_FLOAT_EQ(c[0], 3.0f);
}

/**
 * Same bits, or both NaN: which NaN payload wins when two NaNs meet in
 * one multiply-add depends on the operand order the compiler encoded,
 * so only NaN-ness is compared; every other value, signed zeros
 * included, must match bit for bit.
 */
::testing::AssertionResult
bitwiseEqual(const std::vector<float> &got, const std::vector<float> &want)
{
    for (size_t i = 0; i < got.size(); ++i) {
        if (std::isnan(got[i]) && std::isnan(want[i]))
            continue;
        if (std::bit_cast<std::uint32_t>(got[i]) !=
            std::bit_cast<std::uint32_t>(want[i]))
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << got[i] << " vs "
                   << want[i];
    }
    return ::testing::AssertionSuccess();
}

struct Dims
{
    std::int64_t m, n, k;
};

/** Shapes crossing every blocking edge: tile rows 4/6, tile columns
 *  8/16, the 24-row panel block and the 256-deep reduction slice. */
const std::vector<Dims> &
edgeShapes()
{
    static const std::vector<Dims> shapes = {
        { 1, 1, 1 },     { 5, 7, 3 },     { 6, 16, 256 },
        { 7, 17, 257 },  { 4, 8, 255 },   { 23, 9, 64 },
        { 24, 15, 1 },   { 25, 33, 300 }, { 49, 40, 513 },
        { 13, 1, 600 },  { 3, 100, 17 },  { 73, 24, 31 },
    };
    return shapes;
}

/** The six tiny-ResNet convolutions (16x16 input, batch image): forward
 *  GEMM m = out_c, n = outH * outW, k = in_c * kh * kw. */
const std::vector<Dims> &
convShapes()
{
    static const std::vector<Dims> shapes = {
        { 16, 256, 27 },  { 16, 256, 144 }, { 16, 256, 144 },
        { 32, 64, 144 },  { 32, 64, 288 },  { 32, 64, 16 },
    };
    return shapes;
}

enum class AFill { Normal, Specials };

std::vector<float>
randomVec(std::int64_t n, Rng &rng)
{
    std::vector<float> v(static_cast<size_t>(n));
    for (auto &x : v)
        x = rng.normal();
    return v;
}

/** A with zeros, -0, +-Inf, NaN and denormals scattered through it, so
 *  some micro-panels take the zero-skip path and some do not. */
void
sprinkleSpecials(std::vector<float> &a, Rng &rng)
{
    const float specials[] = { 0.0f,
                               -0.0f,
                               std::numeric_limits<float>::infinity(),
                               -std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::quiet_NaN(),
                               std::numeric_limits<float>::denorm_min(),
                               -1e-39f };
    for (auto &x : a)
        if (rng.uniform() < 0.04f)
            x = specials[static_cast<size_t>(rng.uniform() * 7.0f) % 7];
}

/** C operand for @p beta: NaN-filled when beta == 0 (must be ignored),
 *  else random with some signed zeros (which the zero skip preserves). */
std::vector<float>
initialC(std::int64_t size, float beta, Rng &rng)
{
    std::vector<float> c(static_cast<size_t>(size));
    for (auto &x : c)
        x = beta == 0.0f ? std::numeric_limits<float>::quiet_NaN()
                         : (rng.uniform() < 0.1f ? -0.0f : rng.normal());
    return c;
}

/** NN, TN and packed-B (both A orientations) against the oracle. */
void
expectDriverMatchesOracle(const Dims &d, float alpha, float beta, AFill fill,
                          Rng &rng)
{
    auto a = randomVec(d.m * d.k, rng);
    if (fill == AFill::Specials)
        sprinkleSpecials(a, rng);
    auto b = randomVec(d.k * d.n, rng);
    for (auto &x : b)
        if (rng.uniform() < 0.05f)
            x = 0.0f;
    const auto c0 = initialC(d.m * d.n, beta, rng);
    const auto pack = [&](std::int64_t offset, float *dst, std::int64_t n) {
        std::memcpy(dst, b.data() + offset,
                    static_cast<size_t>(n) * sizeof(float));
    };
    for (bool ta : { false, true }) {
        // The same buffer serves as A (m x k) or A^T (k x m).
        auto want = c0;
        test::gemmRowAxpyOracle(ta, d.m, d.n, d.k, alpha, a.data(), b.data(),
                                beta, want.data());
        auto got = c0;
        gemm(ta, false, d.m, d.n, d.k, alpha, a.data(), b.data(), beta,
             got.data());
        EXPECT_TRUE(bitwiseEqual(got, want)) << "gemm ta " << ta;
        got = c0;
        gemmPackedB(ta, d.m, d.n, d.k, alpha, a.data(), pack, beta,
                    got.data());
        EXPECT_TRUE(bitwiseEqual(got, want)) << "gemmPackedB ta " << ta;
    }
}

std::vector<simd::Backend>
availableBackends()
{
    std::vector<simd::Backend> v;
    for (int b = 0; b < simd::kNumBackends; ++b)
        if (simd::backendAvailable(static_cast<simd::Backend>(b)))
            v.push_back(static_cast<simd::Backend>(b));
    return v;
}

TEST(GemmOracle, TileDriverMatchesRowAxpyOracleBitwise)
{
    Rng rng(4242);
    for (simd::Backend backend : availableBackends()) {
        simd::setBackend(backend);
        std::vector<Dims> shapes = edgeShapes();
        for (const Dims &d : convShapes()) {
            shapes.push_back(d);                // forward: W * col
            shapes.push_back({ d.k, d.n, d.m }); // dX: W^T * dY
        }
        for (const Dims &d : shapes)
            for (float alpha : { 1.0f, -1.7f })
                for (float beta : { 0.0f, 1.0f, 0.7f })
                    for (AFill fill : { AFill::Normal, AFill::Specials }) {
                        SCOPED_TRACE(::testing::Message()
                                     << simd::backendName(backend) << " m "
                                     << d.m << " n " << d.n << " k " << d.k
                                     << " alpha " << alpha << " beta "
                                     << beta << " specials "
                                     << (fill == AFill::Specials));
                        expectDriverMatchesOracle(d, alpha, beta, fill, rng);
                    }
    }
    simd::initFromEnv();
}

TEST(GemmOracle, TransBMatchesReferenceOnConvShapes)
{
    // op(B) = B^T now accumulates one multiply-add per p ascending
    // rather than a four-way split dot product, so it is held to the
    // naive reference within tolerance (the dW direction of each conv:
    // dY (out_c x p) * col^T).
    Rng rng(99);
    for (const Dims &d : convShapes()) {
        const Dims dw{ d.m, d.k, d.n };
        const auto a = randomVec(dw.m * dw.k, rng);
        const auto b = randomVec(dw.n * dw.k, rng);
        auto c = randomVec(dw.m * dw.n, rng);
        auto c_ref = c;
        gemm(false, true, dw.m, dw.n, dw.k, 1.0f, a.data(), b.data(), 1.0f,
             c.data());
        gemmRef(false, true, dw.m, dw.n, dw.k, 1.0f, a.data(), b.data(),
                1.0f, c_ref.data());
        for (size_t i = 0; i < c.size(); ++i)
            ASSERT_NEAR(c[i], c_ref[i], 1e-3f * std::max(1.0f,
                                                        std::abs(c_ref[i])))
                << "m " << dw.m << " n " << dw.n << " k " << dw.k
                << " element " << i;
    }
}

TEST(GemmOracle, OneThreadMatchesFourThreadsBitwise)
{
    Rng rng(7);
    const Dims d{ 100, 70, 300 };
    auto a = randomVec(d.m * d.k, rng);
    sprinkleSpecials(a, rng);
    const auto b = randomVec(d.k * d.n, rng);
    const auto pack = [&](std::int64_t offset, float *dst, std::int64_t n) {
        std::memcpy(dst, b.data() + offset,
                    static_cast<size_t>(n) * sizeof(float));
    };
    const auto run = [&](int threads, bool ta, bool tb, bool packed) {
        setNumThreads(threads);
        std::vector<float> c(static_cast<size_t>(d.m * d.n), 0.5f);
        if (packed)
            gemmPackedB(ta, d.m, d.n, d.k, 1.3f, a.data(), pack, 0.7f,
                        c.data());
        else
            gemm(ta, tb, d.m, d.n, d.k, 1.3f, a.data(), b.data(), 0.7f,
                 c.data());
        return c;
    };
    for (bool ta : { false, true })
        for (bool tb : { false, true })
            for (bool packed : { false, true }) {
                if (packed && tb)
                    continue;
                const auto one = run(1, ta, tb, packed);
                const auto four = run(4, ta, tb, packed);
                EXPECT_TRUE(bitwiseEqual(one, four))
                    << "ta " << ta << " tb " << tb << " packed " << packed;
            }
    setNumThreads(0);
}

} // namespace
} // namespace gist
