/**
 * @file
 * Per-element im2col / im2colPacked / col2im oracles: the bounds check
 * on every tap that the row-copy kernels replaced, kept as their bitwise
 * reference. Serial; the kernels' parallel split never changed
 * per-element results.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/im2col.hpp"

namespace gist::test {

inline void
im2colOracle(const ConvGeometry &g, const float *image, float *columns)
{
    const std::int64_t out_h = g.outH();
    const std::int64_t out_w = g.outW();
    const std::int64_t kernel = g.kernel_h * g.kernel_w;
    for (std::int64_t row = 0; row < g.in_c * kernel; ++row) {
        const std::int64_t c = row / kernel;
        const std::int64_t kh = (row / g.kernel_w) % g.kernel_h;
        const std::int64_t kw = row % g.kernel_w;
        float *out_row = columns + row * (out_h * out_w);
        const float *img_plane = image + c * g.in_h * g.in_w;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
            const std::int64_t ih = oh * g.stride_h - g.pad_h + kh;
            for (std::int64_t ow = 0; ow < out_w; ++ow) {
                const std::int64_t iw = ow * g.stride_w - g.pad_w + kw;
                out_row[oh * out_w + ow] =
                    (ih < 0 || ih >= g.in_h || iw < 0 || iw >= g.in_w)
                        ? 0.0f
                        : img_plane[ih * g.in_w + iw];
            }
        }
    }
}

/** The strip-fan-out form im2colPacked uses: one input row per pack
 *  call, zero-filled band first. */
inline void
im2colPackedOracle(const ConvGeometry &g, const PackFn &pack,
                   std::int64_t image_offset, float *columns)
{
    const std::int64_t out_h = g.outH();
    const std::int64_t out_w = g.outW();
    const std::int64_t p = out_h * out_w;
    const std::int64_t kernel = g.kernel_h * g.kernel_w;
    std::vector<float> strip(static_cast<size_t>(g.in_w));
    for (std::int64_t c = 0; c < g.in_c; ++c) {
        float *band = columns + c * kernel * p;
        std::memset(band, 0, static_cast<size_t>(kernel * p) * sizeof(float));
        for (std::int64_t ih = 0; ih < g.in_h; ++ih) {
            pack(image_offset + (c * g.in_h + ih) * g.in_w, strip.data(),
                 g.in_w);
            for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
                const std::int64_t oh_num = ih + g.pad_h - kh;
                if (oh_num < 0)
                    break;
                if (oh_num % g.stride_h != 0)
                    continue;
                const std::int64_t oh = oh_num / g.stride_h;
                if (oh >= out_h)
                    continue;
                for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
                    float *out_row =
                        band + (kh * g.kernel_w + kw) * p + oh * out_w;
                    for (std::int64_t ow = 0; ow < out_w; ++ow) {
                        const std::int64_t iw =
                            ow * g.stride_w - g.pad_w + kw;
                        out_row[ow] = (iw < 0 || iw >= g.in_w)
                                          ? 0.0f
                                          : strip[static_cast<size_t>(iw)];
                    }
                }
            }
        }
    }
}

/** image += col2im(columns), accumulating per channel in (kh, kw, oh,
 *  ow) order. */
inline void
col2imOracle(const ConvGeometry &g, const float *columns, float *image)
{
    const std::int64_t out_h = g.outH();
    const std::int64_t out_w = g.outW();
    for (std::int64_t c = 0; c < g.in_c; ++c) {
        float *img_plane = image + c * g.in_h * g.in_w;
        std::int64_t row = c * g.kernel_h * g.kernel_w;
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
            for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
                const float *in_row = columns + row * (out_h * out_w);
                for (std::int64_t oh = 0; oh < out_h; ++oh) {
                    const std::int64_t ih = oh * g.stride_h - g.pad_h + kh;
                    if (ih < 0 || ih >= g.in_h)
                        continue;
                    for (std::int64_t ow = 0; ow < out_w; ++ow) {
                        const std::int64_t iw =
                            ow * g.stride_w - g.pad_w + kw;
                        if (iw >= 0 && iw < g.in_w)
                            img_plane[ih * g.in_w + iw] +=
                                in_row[oh * out_w + ow];
                    }
                }
            }
    }
}

} // namespace gist::test
