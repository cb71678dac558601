// Shows that each of the step benchmark's correctness checks passes on
// good data and fails on a planted fault: a perturbed loss, a flipped
// byte in an encoded CSR stash, a DPR value one ulp off, a stash byte
// count off by one nonzero, and fleet weights that differ from their
// solo twin. Exit status 0 means every check behaved.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "checks.hpp"
#include "util/rng.hpp"

using namespace stepbench;

namespace {

int failures = 0;

void
expect(bool cond, const char *what)
{
    std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond)
        ++failures;
}

/** A ReLU-like map: about half zeros, some -0.0, the rest positive. */
std::vector<float>
reluMap(std::int64_t n, std::uint64_t seed)
{
    gist::Rng rng(seed);
    std::vector<float> m(static_cast<size_t>(n));
    for (auto &v : m) {
        const float x = rng.normal();
        v = x > 0.0f ? x : (x < -1.5f ? -0.0f : 0.0f);
    }
    return m;
}

/** Values that straddle every corner of the small formats. */
std::vector<float>
cornerValues(std::uint64_t seed)
{
    std::vector<float> v = { 0.0f, -0.0f, 1.0f, -1.0f, 65504.0f, 65520.0f,
                             7e4f, -1e30f,
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::denorm_min(),
                             std::ldexp(1.0f, -14), std::ldexp(1.0f, -15),
                             std::ldexp(1.0f, -6), std::ldexp(1.0f, -7),
                             std::ldexp(1.9999f, -15), 240.0f, 248.0f,
                             1.0f + std::ldexp(1.0f, -11),
                             1.0f + 3 * std::ldexp(1.0f, -11),
                             1.0f + std::ldexp(1.0f, -5),
                             1.0f + 3 * std::ldexp(1.0f, -5) };
    gist::Rng rng(seed);
    for (int i = 0; i < 20000; ++i)
        v.push_back(rng.normal() *
                    std::ldexp(1.0f, static_cast<int>(rng.uniformInt(40)) - 20));
    return v;
}

void
testLoss()
{
    const float loss = 2.80179954f;
    expect(lossesEqual(loss, loss, "first-step loss").ok,
           "loss check passes on the same loss");
    expect(!lossesEqual(std::nextafter(loss, 3.0f), loss, "first-step loss").ok,
           "loss check trips on a loss one ulp off");
    const std::vector<float> run = { 2.8f, 2.2f, 1.9f };
    auto rerun = run;
    expect(lossSeriesEqual(rerun, run, "repeat").ok,
           "repeat check passes on the same losses");
    rerun[2] = std::nextafter(rerun[2], 0.0f);
    expect(!lossSeriesEqual(rerun, run, "repeat").ok,
           "repeat check trips on a late loss one ulp off");
    const std::vector<float> good = { 2.8f, 2.2f }, bad = { 2.8f, NAN };
    expect(lossesFinite(good).ok, "finite-loss check passes");
    expect(!lossesFinite(bad).ok, "finite-loss check trips on NaN");
}

void
testCsr()
{
    const auto map = reluMap(5000, 3);
    gist::CsrBuffer buf;
    buf.encode(map);
    std::vector<float> out(map.size());
    buf.decode(out);
    expect(csrRoundTrip(map, out).ok, "CSR round trip passes");
    expect(bytesEqual(buf.bytes(),
                      csrLayoutBytes(buf.cfg(), buf.numel(),
                                     countNonzero(map)),
                      "csr bytes").ok,
           "CSR layout arithmetic matches the encoder");
    expect(!bytesEqual(buf.bytes(),
                       csrLayoutBytes(buf.cfg(), buf.numel(),
                                      countNonzero(map) - 1),
                       "csr bytes").ok,
           "stash-bytes check trips on one nonzero too few");

    // Flip one byte of the encoded values, then of the column indices.
    const gist::CsrConstView view = buf.view();
    auto *value_bytes = reinterpret_cast<std::uint8_t *>(
        const_cast<float *>(view.values_f32));
    value_bytes[1] ^= 0x40;
    buf.decode(out);
    expect(!csrRoundTrip(map, out).ok,
           "CSR check trips on a flipped value byte");
    value_bytes[1] ^= 0x40;
    const_cast<std::uint8_t *>(view.col_idx)[0] ^= 0x01;
    buf.decode(out);
    expect(!csrRoundTrip(map, out).ok,
           "CSR check trips on a flipped index byte");
}

void
testDpr()
{
    const auto values = cornerValues(5);
    for (auto fmt : { gist::DprFormat::Fp16, gist::DprFormat::Fp10,
                      gist::DprFormat::Fp8 }) {
        gist::DprBuffer buf;
        buf.encode(fmt, values);
        std::vector<float> out(values.size());
        buf.decode(out);
        const std::string name = gist::dprFormatName(fmt);
        const Verdict v = dprMatchesReference(fmt, values, out);
        if (!v.ok)
            std::printf("      %s\n", v.why.c_str());
        expect(v.ok, ("DPR " + name + " matches the reference quantizer").c_str());
        expect(buf.bytes() == dprLayoutBytes(fmt, static_cast<std::int64_t>(
                                                      values.size())),
               ("DPR " + name + " layout arithmetic matches").c_str());
        out[2] = std::nextafter(out[2], 10.0f);
        expect(!dprMatchesReference(fmt, values, out).ok,
               ("DPR " + name + " check trips on a value one ulp off").c_str());
    }
}

void
testWeights()
{
    std::vector<std::vector<float>> solo = { { 0.5f, -1.25f, 3.0f },
                                             { 0.0f, 1.0f } };
    auto fleet = solo;
    expect(tensorsEqual(fleet, solo, "fleet vs solo").ok,
           "weight check passes on equal weights");
    fleet[1][1] = std::nextafter(fleet[1][1], 2.0f);
    expect(!tensorsEqual(fleet, solo, "fleet vs solo").ok,
           "weight check trips on a fleet job differing from its solo twin");
}

} // namespace

int
main()
{
    testLoss();
    testCsr();
    testDpr();
    testWeights();
    std::printf("%s\n", failures == 0 ? "selftest: all checks behave"
                                      : "selftest: FAILED");
    return failures == 0 ? 0 : 1;
}
