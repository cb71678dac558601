/**
 * @file
 * The step benchmark's correctness checks, kept apart from main.cpp so
 * that stepbench_selftest can show each one fails on a planted fault.
 *
 * Every check recomputes its expectation with the benchmark's own
 * arithmetic (IEEE rounding through <cmath>, the documented CSR and DPR
 * layouts) and compares it with what the program produced. None of them
 * calls into the program to form the expectation.
 */

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "encodings/csr.hpp"
#include "encodings/dpr.hpp"

namespace stepbench {

/** Outcome of one check: ok, or the first mismatch in words. */
struct Verdict
{
    bool ok = true;
    std::string why;

    static Verdict fail(std::string reason) { return { false, std::move(reason) }; }
};

/** Bit layout of a DPR storage format, restated from the paper. */
struct SmallFormat
{
    int exp_bits = 0;
    int man_bits = 0;
};

/** FP16 = 1/5/10, FP10 = 1/5/4, FP8 = 1/4/3 (sign/exponent/mantissa). */
SmallFormat smallFormatOf(gist::DprFormat fmt);

/**
 * Reference quantizer for DPR: the value @p x stored in @p f and read
 * back. Round to nearest, ties to even; magnitudes past the largest
 * finite value (and infinities) clamp to it; results below the smallest
 * normal, and FP32 denormal inputs, flush to zero of the same sign; NaN
 * becomes +0. The all-ones exponent is reserved, so the largest finite
 * value has exponent field 2^e - 2.
 */
float referenceQuantize(SmallFormat f, float x);

/** Bytes the documented CSR layout takes: values + indices + row ptrs. */
std::uint64_t csrLayoutBytes(const gist::CsrConfig &cfg, std::int64_t numel,
                             std::int64_t nnz);

/** Bytes of a DPR buffer: ceil(numel / values-per-word) 4-byte words. */
std::uint64_t dprLayoutBytes(gist::DprFormat fmt, std::int64_t numel);

/** Nonzero count as CSR sees it (+0.0 and -0.0 both count as zero). */
std::int64_t countNonzero(std::span<const float> map);

/** Bitwise equality of two losses. */
Verdict lossesEqual(float got, float want, const std::string &what);

/** Two runs of the same steps gave the same losses, bit for bit. */
Verdict lossSeriesEqual(std::span<const float> got, std::span<const float> want,
                        const std::string &what);

/** Every loss is finite. */
Verdict lossesFinite(std::span<const float> losses);

/**
 * @p decoded equals @p original bit for bit, except that a -0.0 in the
 * original may come back as +0.0 (CSR does not store zeros).
 */
Verdict csrRoundTrip(std::span<const float> original,
                     std::span<const float> decoded);

/** @p decoded equals referenceQuantize of @p original, bit for bit. */
Verdict dprMatchesReference(gist::DprFormat fmt,
                            std::span<const float> original,
                            std::span<const float> decoded);

/** Two sizes in bytes are equal. */
Verdict bytesEqual(std::uint64_t got, std::uint64_t want,
                   const std::string &what);

/** Two tensor lists (weights, BN statistics) are equal bit for bit. */
Verdict tensorsEqual(const std::vector<std::vector<float>> &got,
                     const std::vector<std::vector<float>> &want,
                     const std::string &what);

} // namespace stepbench
