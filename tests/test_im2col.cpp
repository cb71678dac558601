/**
 * @file
 * im2col/col2im tests: explicit small cases, the adjoint property
 * <im2col(x), y> == <x, col2im(y)> which convolution backward relies on,
 * and bitwise equality of the row-copy kernels with the per-element
 * oracles over a geometry sweep.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "im2col_oracle.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

TEST(Im2col, Identity1x1)
{
    ConvGeometry g;
    g.in_c = 2;
    g.in_h = 3;
    g.in_w = 3;
    g.kernel_h = 1;
    g.kernel_w = 1;
    std::vector<float> img(18);
    for (size_t i = 0; i < img.size(); ++i)
        img[i] = static_cast<float>(i);
    std::vector<float> col(static_cast<size_t>(g.colRows() * g.colCols()));
    im2col(g, img.data(), col.data());
    // 1x1 kernel: the column matrix is the image itself.
    EXPECT_EQ(col, img);
}

TEST(Im2col, PaddingReadsZero)
{
    ConvGeometry g;
    g.in_c = 1;
    g.in_h = 2;
    g.in_w = 2;
    g.kernel_h = 3;
    g.kernel_w = 3;
    g.pad_h = 1;
    g.pad_w = 1;
    EXPECT_EQ(g.outH(), 2);
    std::vector<float> img = { 1.0f, 2.0f, 3.0f, 4.0f };
    std::vector<float> col(static_cast<size_t>(g.colRows() * g.colCols()));
    im2col(g, img.data(), col.data());
    // Tap (kh=0, kw=0) of output (0,0) reads image (-1,-1): zero.
    EXPECT_EQ(col[0], 0.0f);
    // Tap (kh=1, kw=1) of output (0,0) reads image (0,0): 1.
    EXPECT_EQ(col[(1 * 3 + 1) * 4 + 0], 1.0f);
}

TEST(Im2col, StrideSelectsCorrectTaps)
{
    ConvGeometry g;
    g.in_c = 1;
    g.in_h = 4;
    g.in_w = 4;
    g.kernel_h = 2;
    g.kernel_w = 2;
    g.stride_h = 2;
    g.stride_w = 2;
    EXPECT_EQ(g.outH(), 2);
    std::vector<float> img(16);
    for (size_t i = 0; i < img.size(); ++i)
        img[i] = static_cast<float>(i);
    std::vector<float> col(static_cast<size_t>(g.colRows() * g.colCols()));
    im2col(g, img.data(), col.data());
    // Tap (0,0) of the 4 outputs: image (0,0), (0,2), (2,0), (2,2).
    EXPECT_EQ(col[0], 0.0f);
    EXPECT_EQ(col[1], 2.0f);
    EXPECT_EQ(col[2], 8.0f);
    EXPECT_EQ(col[3], 10.0f);
}

struct GeomCase
{
    std::int64_t c, h, w, kh, kw, sh, sw, ph, pw;
};

class Im2colAdjoint : public ::testing::TestWithParam<GeomCase>
{
};

TEST_P(Im2colAdjoint, DotProductIdentity)
{
    const auto p = GetParam();
    ConvGeometry g{ p.c, p.h, p.w, p.kh, p.kw, p.sh, p.sw, p.ph, p.pw };
    ASSERT_GT(g.outH(), 0);
    ASSERT_GT(g.outW(), 0);

    Rng rng(p.c * 100 + p.kh * 10 + p.ph);
    std::vector<float> x(static_cast<size_t>(p.c * p.h * p.w));
    std::vector<float> y(static_cast<size_t>(g.colRows() * g.colCols()));
    for (auto &v : x)
        v = rng.normal();
    for (auto &v : y)
        v = rng.normal();

    std::vector<float> col(y.size());
    im2col(g, x.data(), col.data());
    std::vector<float> img(x.size(), 0.0f);
    col2im(g, y.data(), img.data());

    double lhs = 0.0;
    for (size_t i = 0; i < y.size(); ++i)
        lhs += static_cast<double>(col[i]) * y[i];
    double rhs = 0.0;
    for (size_t i = 0; i < x.size(); ++i)
        rhs += static_cast<double>(x[i]) * img[i];
    EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjoint,
    ::testing::Values(GeomCase{ 1, 5, 5, 3, 3, 1, 1, 0, 0 },
                      GeomCase{ 3, 8, 8, 3, 3, 1, 1, 1, 1 },
                      GeomCase{ 2, 9, 7, 5, 3, 2, 2, 2, 1 },
                      GeomCase{ 4, 6, 6, 2, 2, 2, 2, 0, 0 },
                      GeomCase{ 1, 11, 11, 11, 11, 4, 4, 0, 0 },
                      GeomCase{ 2, 7, 7, 1, 1, 1, 1, 0, 0 },
                      GeomCase{ 1, 4, 4, 3, 3, 2, 2, 1, 1 }));

TEST(Col2im, AccumulatesOverlappingTaps)
{
    ConvGeometry g;
    g.in_c = 1;
    g.in_h = 3;
    g.in_w = 3;
    g.kernel_h = 2;
    g.kernel_w = 2;
    // stride 1: center pixel (1,1) is covered by all four 2x2 windows.
    std::vector<float> cols(
        static_cast<size_t>(g.colRows() * g.colCols()), 1.0f);
    std::vector<float> img(9, 0.0f);
    col2im(g, cols.data(), img.data());
    EXPECT_FLOAT_EQ(img[4], 4.0f); // center: 4 overlapping contributions
    EXPECT_FLOAT_EQ(img[0], 1.0f); // corner: 1 contribution
}

/** Run im2col, im2colPacked and col2im on @p g against the oracles. */
void
expectMatchesOracles(const ConvGeometry &g, Rng &rng)
{
    const std::int64_t image = g.in_c * g.in_h * g.in_w;
    const size_t cols = static_cast<size_t>(g.colRows() * g.colCols());
    // Two images back to back; the packed path reads the second.
    std::vector<float> x(static_cast<size_t>(2 * image));
    for (auto &v : x)
        v = rng.uniform() < 0.1f ? -0.0f : rng.normal();
    const float *x1 = x.data() + image;

    std::vector<float> got(cols, 7.0f), want(cols, -7.0f);
    im2col(g, x1, got.data());
    test::im2colOracle(g, x1, want.data());
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(), cols * sizeof(float)))
        << "im2col";

    const auto pack = [&](std::int64_t offset, float *dst, std::int64_t n) {
        std::memcpy(dst, x.data() + offset,
                    static_cast<size_t>(n) * sizeof(float));
    };
    std::fill(got.begin(), got.end(), 7.0f);
    std::fill(want.begin(), want.end(), -7.0f);
    im2colPacked(g, pack, image, got.data());
    test::im2colPackedOracle(g, pack, image, want.data());
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(), cols * sizeof(float)))
        << "im2colPacked";

    std::vector<float> y(cols);
    for (auto &v : y)
        v = rng.normal();
    std::vector<float> img_got(static_cast<size_t>(image));
    for (auto &v : img_got)
        v = rng.normal();
    std::vector<float> img_want = img_got;
    col2im(g, y.data(), img_got.data());
    test::col2imOracle(g, y.data(), img_want.data());
    ASSERT_EQ(0, std::memcmp(img_got.data(), img_want.data(),
                             img_got.size() * sizeof(float)))
        << "col2im";
}

TEST(Im2colOracle, RowCopyKernelsMatchPerElementOraclesBitwise)
{
    Rng rng(515);
    const std::int64_t sizes[][2] = { { 7, 9 }, { 5, 11 }, { 9, 3 } };
    int checked = 0;
    for (std::int64_t kh = 1; kh <= 5; ++kh)
        for (std::int64_t kw = 1; kw <= 5; ++kw)
            for (std::int64_t sh = 1; sh <= 3; ++sh)
                for (std::int64_t sw = 1; sw <= 3; ++sw)
                    for (std::int64_t ph = 0; ph <= kh; ++ph)
                        for (std::int64_t pw = 0; pw <= kw; ++pw)
                            for (const auto &hw : sizes) {
                                const ConvGeometry g{ 2,  hw[0], hw[1],
                                                      kh, kw,    sh,
                                                      sw, ph,    pw };
                                if (g.outH() <= 0 || g.outW() <= 0)
                                    continue;
                                SCOPED_TRACE(::testing::Message()
                                             << "h " << hw[0] << " w "
                                             << hw[1] << " k " << kh << "x"
                                             << kw << " s " << sh << "x"
                                             << sw << " p " << ph << "x"
                                             << pw);
                                expectMatchesOracles(g, rng);
                                if (HasFatalFailure())
                                    return;
                                ++checked;
                            }
    EXPECT_GT(checked, 5000);
}

} // namespace
} // namespace gist
