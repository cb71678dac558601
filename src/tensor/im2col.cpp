#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "memory/arena.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace gist {

namespace {

/**
 * Output positions [lo, hi) along one axis whose tap at kernel offset
 * @p kk reads inside the input (pos * stride - pad + kk in [0, in)); the
 * positions before lo and from hi on read the zero padding.
 */
struct ValidRange
{
    std::int64_t lo, hi;
};

ValidRange
validRange(std::int64_t out, std::int64_t in, std::int64_t stride,
           std::int64_t pad, std::int64_t kk)
{
    const std::int64_t first = pad - kk;      // least pos * stride
    const std::int64_t last = in - 1 + pad - kk; // greatest pos * stride
    const std::int64_t lo =
        first <= 0 ? 0 : std::min(out, (first + stride - 1) / stride);
    const std::int64_t hi = last < 0 ? 0 : std::min(out, last / stride + 1);
    return { lo, std::max(lo, hi) };
}

/** One im2col output row: zero edges, then a copy (stride 1) or a
 *  strided gather of the input row @p src from column lo * sw - pw + kw. */
void
fillColRow(float *dst, const float *src, std::int64_t out_w, ValidRange r,
           std::int64_t sw, std::int64_t pw, std::int64_t kw)
{
    std::fill(dst, dst + r.lo, 0.0f);
    if (r.hi > r.lo) {
        const float *s = src + (r.lo * sw - pw + kw);
        if (sw == 1)
            std::memcpy(dst + r.lo, s,
                        static_cast<size_t>(r.hi - r.lo) * sizeof(float));
        else
            for (std::int64_t ow = r.lo; ow < r.hi; ++ow)
                dst[ow] = s[(ow - r.lo) * sw];
    }
    std::fill(dst + r.hi, dst + out_w, 0.0f);
}

/** dst[t * stride] += src[t] for t < n, ascending. */
void
addColRow(float *__restrict dst, const float *__restrict src, std::int64_t n,
          std::int64_t stride)
{
    if (stride == 1)
        for (std::int64_t t = 0; t < n; ++t)
            dst[t] += src[t];
    else
        for (std::int64_t t = 0; t < n; ++t)
            dst[t * stride] += src[t];
}

} // namespace

void
im2col(const ConvGeometry &geom, const float *image, float *columns)
{
    GIST_TRACE_SCOPE("compute", "im2col");
    const std::int64_t out_h = geom.outH();
    const std::int64_t out_w = geom.outW();
    const std::int64_t kernel = geom.kernel_h * geom.kernel_w;
    const std::int64_t rows = geom.in_c * kernel;
    // Unit strides with out_w == in_w: an output row's image taps sit at
    // one constant offset from their column-matrix positions.
    const bool contiguous =
        geom.stride_h == 1 && geom.stride_w == 1 && out_w == geom.in_w;
    // Each (c, kh, kw) triple owns one disjoint output row of `columns`,
    // so the row range parallelizes with no synchronization.
    parallelFor(0, rows, chooseGrain(rows, 1),
                [&, out_h, out_w](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t row = r0; row < r1; ++row) {
            const std::int64_t c = row / kernel;
            const std::int64_t kh = (row / geom.kernel_w) % geom.kernel_h;
            const std::int64_t kw = row % geom.kernel_w;
            float *out_row = columns + row * (out_h * out_w);
            const float *img_plane = image + c * geom.in_h * geom.in_w;
            const ValidRange oh_r = validRange(out_h, geom.in_h,
                                               geom.stride_h, geom.pad_h, kh);
            const ValidRange ow_r = validRange(out_w, geom.in_w,
                                               geom.stride_w, geom.pad_w, kw);
            std::fill(out_row, out_row + oh_r.lo * out_w, 0.0f);
            if (contiguous && oh_r.lo < oh_r.hi && ow_r.lo < ow_r.hi) {
                // The valid taps are one run of the image plane at a
                // constant shift: copy it whole, then zero the padding
                // columns it carried over from neighbouring rows.
                const std::int64_t first = oh_r.lo * out_w + ow_r.lo;
                const std::int64_t last = (oh_r.hi - 1) * out_w + ow_r.hi;
                const std::int64_t shift =
                    (kh - geom.pad_h) * geom.in_w + (kw - geom.pad_w);
                std::memcpy(out_row + first, img_plane + (first + shift),
                            static_cast<size_t>(last - first) *
                                sizeof(float));
                for (std::int64_t oh = oh_r.lo; oh < oh_r.hi; ++oh) {
                    float *dst = out_row + oh * out_w;
                    std::fill(dst, dst + ow_r.lo, 0.0f);
                    std::fill(dst + ow_r.hi, dst + out_w, 0.0f);
                }
            } else {
                for (std::int64_t oh = oh_r.lo; oh < oh_r.hi; ++oh) {
                    const std::int64_t ih =
                        oh * geom.stride_h - geom.pad_h + kh;
                    fillColRow(out_row + oh * out_w,
                               img_plane + ih * geom.in_w, out_w, ow_r,
                               geom.stride_w, geom.pad_w, kw);
                }
            }
            std::fill(out_row + oh_r.hi * out_w,
                      out_row + out_h * out_w, 0.0f);
        }
    });
}

void
im2colFromCsr(const ConvGeometry &geom, const CsrConstView &stash,
              std::int64_t image_offset, float *columns)
{
    GIST_TRACE_SCOPE("compute", "im2col csr");
    const std::int64_t out_h = geom.outH();
    const std::int64_t out_w = geom.outW();
    const std::int64_t p = out_h * out_w;
    const std::int64_t kernel = geom.kernel_h * geom.kernel_w;
    const std::int64_t plane = geom.in_h * geom.in_w;
    GIST_ASSERT(image_offset >= 0 &&
                    image_offset + geom.in_c * plane <= stash.numel,
                "im2colFromCsr: image range outside stash");
    // Channels own disjoint column-row bands, so the channel axis
    // parallelizes race-free just like dense im2col's row axis. Two
    // channels may share a boundary CSR row; each decodes it
    // independently and keeps only its own flat range.
    parallelFor(0, geom.in_c, 1,
                [&, out_h, out_w, p](std::int64_t c0, std::int64_t c1) {
        ArenaScope scope;
        float *vals =
            scope.alloc<float>(static_cast<size_t>(stash.row_width));
        for (std::int64_t c = c0; c < c1; ++c) {
            float *band = columns + c * kernel * p;
            std::memset(band, 0,
                        static_cast<size_t>(kernel * p) * sizeof(float));
            const std::int64_t flat0 = image_offset + c * plane;
            const std::int64_t r0 = flat0 / stash.row_width;
            const std::int64_t r1 =
                (flat0 + plane - 1) / stash.row_width;
            for (std::int64_t r = r0; r <= r1; ++r) {
                const auto k0 = static_cast<std::int64_t>(
                    stash.row_ptr[static_cast<size_t>(r)]);
                const auto k1 = static_cast<std::int64_t>(
                    stash.row_ptr[static_cast<size_t>(r + 1)]);
                if (k0 == k1)
                    continue;
                csrValues(stash, k0, k1, vals);
                const std::int64_t row_base = r * stash.row_width;
                for (std::int64_t kk = k0; kk < k1; ++kk) {
                    const std::int64_t flat =
                        row_base +
                        static_cast<std::int64_t>(csrColAt(stash, kk));
                    if (flat < flat0 || flat >= flat0 + plane)
                        continue;
                    const std::int64_t local = flat - flat0;
                    const std::int64_t ih = local / geom.in_w;
                    const std::int64_t iw = local % geom.in_w;
                    // Write every stored value, even ones that decode
                    // to +/-0.0 (DPR underflow keeps the sign bit), so
                    // the column matrix is bitwise-identical to
                    // decode-then-im2col.
                    const float v = vals[kk - k0];
                    for (std::int64_t kh = 0; kh < geom.kernel_h;
                         ++kh) {
                        const std::int64_t oh_num =
                            ih + geom.pad_h - kh;
                        if (oh_num < 0)
                            break; // decreases with kh
                        if (oh_num % geom.stride_h != 0)
                            continue;
                        const std::int64_t oh = oh_num / geom.stride_h;
                        if (oh >= out_h)
                            continue;
                        for (std::int64_t kw = 0; kw < geom.kernel_w;
                             ++kw) {
                            const std::int64_t ow_num =
                                iw + geom.pad_w - kw;
                            if (ow_num < 0)
                                break;
                            if (ow_num % geom.stride_w != 0)
                                continue;
                            const std::int64_t ow =
                                ow_num / geom.stride_w;
                            if (ow >= out_w)
                                continue;
                            band[(kh * geom.kernel_w + kw) * p +
                                 oh * out_w + ow] = v;
                        }
                    }
                }
            }
        }
    });
}

void
im2colPacked(const ConvGeometry &geom, const PackFn &pack,
             std::int64_t image_offset, float *columns)
{
    GIST_TRACE_SCOPE("compute", "im2col packed");
    const std::int64_t out_h = geom.outH();
    const std::int64_t out_w = geom.outW();
    const std::int64_t p = out_h * out_w;
    const std::int64_t kernel = geom.kernel_h * geom.kernel_w;
    parallelFor(0, geom.in_c, 1,
                [&, out_h, out_w, p](std::int64_t c0, std::int64_t c1) {
        ArenaScope scope;
        float *strip =
            scope.alloc<float>(static_cast<size_t>(geom.in_w));
        auto *ow_r =
            scope.alloc<ValidRange>(static_cast<size_t>(geom.kernel_w));
        for (std::int64_t kw = 0; kw < geom.kernel_w; ++kw)
            ow_r[kw] = validRange(out_w, geom.in_w, geom.stride_w,
                                  geom.pad_w, kw);
        for (std::int64_t c = c0; c < c1; ++c) {
            float *band = columns + c * kernel * p;
            // Zero first: (kh, oh) pairs whose input row falls outside
            // the image are never visited by the strip loop below.
            std::memset(band, 0,
                        static_cast<size_t>(kernel * p) * sizeof(float));
            for (std::int64_t ih = 0; ih < geom.in_h; ++ih) {
                // One decode per input row, fanned out to every tap
                // that reads it (dense im2col re-reads the row up to
                // kernel_h * kernel_w times).
                pack(image_offset + (c * geom.in_h + ih) * geom.in_w,
                     strip, geom.in_w);
                for (std::int64_t kh = 0; kh < geom.kernel_h; ++kh) {
                    const std::int64_t oh_num = ih + geom.pad_h - kh;
                    if (oh_num < 0)
                        break; // decreases with kh
                    if (oh_num % geom.stride_h != 0)
                        continue;
                    const std::int64_t oh = oh_num / geom.stride_h;
                    if (oh >= out_h)
                        continue;
                    for (std::int64_t kw = 0; kw < geom.kernel_w; ++kw)
                        fillColRow(band + (kh * geom.kernel_w + kw) * p +
                                       oh * out_w,
                                   strip, out_w, ow_r[kw], geom.stride_w,
                                   geom.pad_w, kw);
                }
            }
        }
    });
}

void
col2im(const ConvGeometry &geom, const float *columns, float *image)
{
    GIST_TRACE_SCOPE("compute", "col2im");
    const std::int64_t out_h = geom.outH();
    const std::int64_t out_w = geom.outW();
    // col2im scatters with += : different (kh, kw) rows of the same
    // channel overlap in the image, but different *channels* never do,
    // so the channel axis is the widest race-free parallel unit. The
    // per-channel (kh, kw, oh, ow) accumulation order matches the serial
    // code exactly, keeping results bitwise-identical at any thread
    // count.
    parallelFor(0, geom.in_c, 1,
                [&, out_h, out_w](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
            float *img_plane = image + c * geom.in_h * geom.in_w;
            std::int64_t row = c * geom.kernel_h * geom.kernel_w;
            for (std::int64_t kh = 0; kh < geom.kernel_h; ++kh) {
                for (std::int64_t kw = 0; kw < geom.kernel_w;
                     ++kw, ++row) {
                    const float *in_row = columns + row * (out_h * out_w);
                    const ValidRange oh_r =
                        validRange(out_h, geom.in_h, geom.stride_h,
                                   geom.pad_h, kh);
                    const ValidRange ow_r =
                        validRange(out_w, geom.in_w, geom.stride_w,
                                   geom.pad_w, kw);
                    if (ow_r.lo == ow_r.hi)
                        continue;
                    for (std::int64_t oh = oh_r.lo; oh < oh_r.hi; ++oh) {
                        const std::int64_t ih =
                            oh * geom.stride_h - geom.pad_h + kh;
                        // dst[0] is image column iw of output ow_r.lo.
                        float *dst = img_plane + ih * geom.in_w +
                                     (ow_r.lo * geom.stride_w -
                                      geom.pad_w + kw);
                        addColRow(dst, in_row + oh * out_w + ow_r.lo,
                                  ow_r.hi - ow_r.lo, geom.stride_w);
                    }
                }
            }
        }
    });
}

} // namespace gist
