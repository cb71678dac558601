#include "checks.hpp"

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace stepbench {

namespace {

std::uint32_t
bitsOf(float x)
{
    std::uint32_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

std::string
describe(std::size_t i, float got, float want)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "element %zu: got %.9g (0x%08x), want %.9g (0x%08x)", i,
                  static_cast<double>(got), bitsOf(got),
                  static_cast<double>(want), bitsOf(want));
    return buf;
}

} // namespace

SmallFormat
smallFormatOf(gist::DprFormat fmt)
{
    switch (fmt) {
      case gist::DprFormat::Fp16: return { 5, 10 };
      case gist::DprFormat::Fp10: return { 5, 4 };
      case gist::DprFormat::Fp8: return { 4, 3 };
      case gist::DprFormat::Fp32: break;
    }
    return { 8, 23 };
}

float
referenceQuantize(SmallFormat f, float x)
{
    if (std::isnan(x))
        return 0.0f;
    const int bias = (1 << (f.exp_bits - 1)) - 1;
    const int max_exp = ((1 << f.exp_bits) - 2) - bias;
    const double max_finite =
        std::ldexp(2.0 - std::ldexp(1.0, -f.man_bits), max_exp);
    const double min_normal = std::ldexp(1.0, 1 - bias);
    const double mag = std::fabs(static_cast<double>(x));
    double q = 0.0;
    if (std::isinf(x)) {
        q = max_finite;
    } else if (mag >= static_cast<double>(FLT_MIN)) {
        // Scale so one unit in the last kept place is 1, round half to
        // even (nearbyint in the default rounding mode), scale back.
        int e = 0;
        std::frexp(mag, &e); // mag = m * 2^e, m in [0.5, 1)
        const int ulp_exp = (e - 1) - f.man_bits;
        q = std::ldexp(std::nearbyint(std::ldexp(mag, -ulp_exp)), ulp_exp);
        if (q > max_finite)
            q = max_finite;
        if (q < min_normal)
            q = 0.0;
    }
    const float out = static_cast<float>(q);
    return std::signbit(x) ? -out : out;
}

std::uint64_t
csrLayoutBytes(const gist::CsrConfig &cfg, std::int64_t numel,
               std::int64_t nnz)
{
    const auto rows = static_cast<std::uint64_t>(
        (numel + cfg.row_width - 1) / cfg.row_width);
    const std::uint64_t values =
        cfg.value_format == gist::DprFormat::Fp32
            ? static_cast<std::uint64_t>(nnz) * 4
            : dprLayoutBytes(cfg.value_format, nnz);
    return values +
           static_cast<std::uint64_t>(nnz) *
               static_cast<std::uint64_t>(cfg.index_bytes) +
           (rows + 1) * 4;
}

std::uint64_t
dprLayoutBytes(gist::DprFormat fmt, std::int64_t numel)
{
    const SmallFormat f = smallFormatOf(fmt);
    const std::int64_t per_word = 32 / (1 + f.exp_bits + f.man_bits);
    return static_cast<std::uint64_t>((numel + per_word - 1) / per_word) *
           4;
}

std::int64_t
countNonzero(std::span<const float> map)
{
    std::int64_t n = 0;
    for (float v : map)
        n += (v != 0.0f);
    return n;
}

Verdict
lossesEqual(float got, float want, const std::string &what)
{
    if (bitsOf(got) == bitsOf(want))
        return {};
    return Verdict::fail(what + ": " + describe(0, got, want));
}

Verdict
lossSeriesEqual(std::span<const float> got, std::span<const float> want,
                const std::string &what)
{
    if (got.size() != want.size())
        return Verdict::fail(what + ": step counts differ");
    for (std::size_t i = 0; i < got.size(); ++i)
        if (bitsOf(got[i]) != bitsOf(want[i]))
            return Verdict::fail(what + ", step " + std::to_string(i + 1) +
                                 ": " + describe(i, got[i], want[i]));
    return {};
}

Verdict
lossesFinite(std::span<const float> losses)
{
    for (std::size_t i = 0; i < losses.size(); ++i)
        if (!std::isfinite(losses[i]))
            return Verdict::fail("loss of step " + std::to_string(i) +
                                 " is not finite");
    return {};
}

Verdict
csrRoundTrip(std::span<const float> original, std::span<const float> decoded)
{
    if (original.size() != decoded.size())
        return Verdict::fail("CSR decode size " +
                             std::to_string(decoded.size()) + " != " +
                             std::to_string(original.size()));
    for (std::size_t i = 0; i < original.size(); ++i) {
        const float want = original[i] == 0.0f ? 0.0f : original[i];
        if (bitsOf(decoded[i]) != bitsOf(want))
            return Verdict::fail("CSR round trip, " +
                                 describe(i, decoded[i], want));
    }
    return {};
}

Verdict
dprMatchesReference(gist::DprFormat fmt, std::span<const float> original,
                    std::span<const float> decoded)
{
    if (original.size() != decoded.size())
        return Verdict::fail("DPR decode size mismatch");
    const SmallFormat f = smallFormatOf(fmt);
    for (std::size_t i = 0; i < original.size(); ++i) {
        const float want = referenceQuantize(f, original[i]);
        if (bitsOf(decoded[i]) != bitsOf(want))
            return Verdict::fail("DPR vs reference quantizer, " +
                                 describe(i, decoded[i], want));
    }
    return {};
}

Verdict
bytesEqual(std::uint64_t got, std::uint64_t want, const std::string &what)
{
    if (got == want)
        return {};
    return Verdict::fail(what + ": program reports " + std::to_string(got) +
                         " B, layout arithmetic gives " +
                         std::to_string(want) + " B");
}

Verdict
tensorsEqual(const std::vector<std::vector<float>> &got,
             const std::vector<std::vector<float>> &want,
             const std::string &what)
{
    if (got.size() != want.size())
        return Verdict::fail(what + ": tensor count differs");
    for (std::size_t t = 0; t < got.size(); ++t) {
        if (got[t].size() != want[t].size())
            return Verdict::fail(what + ": tensor " + std::to_string(t) +
                                 " size differs");
        if (std::memcmp(got[t].data(), want[t].data(),
                        got[t].size() * sizeof(float)) != 0)
            for (std::size_t i = 0; i < got[t].size(); ++i)
                if (bitsOf(got[t][i]) != bitsOf(want[t][i]))
                    return Verdict::fail(what + ", tensor " +
                                         std::to_string(t) + " " +
                                         describe(i, got[t][i], want[t][i]));
    }
    return {};
}

} // namespace stepbench
