/**
 * @file
 * Row-axpy GEMM oracle: the panel driver gemm() ran before the
 * register-tile driver, kept as the bitwise reference for the NN, TN and
 * packed-B directions. Per C element it applies the active backend's
 * axpy once per nonzero alpha * a, p ascending, from beta * C (or +0
 * when beta == 0) — the contract the tile driver must reproduce bit for
 * bit. Single-threaded: the chunking never changed per-element results.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "simd/dispatch.hpp"

namespace gist::test {

/** C = alpha * op(A) * B + beta * C, B dense k x n row-major. */
inline void
gemmRowAxpyOracle(bool trans_a, std::int64_t m, std::int64_t n,
                  std::int64_t k, float alpha, const float *a,
                  const float *b, float beta, float *c)
{
    constexpr std::int64_t kKC = 128;
    constexpr std::int64_t kNC = 256;
    if (m == 0 || n == 0)
        return;
    const auto scale = [&] {
        if (beta == 1.0f)
            return;
        for (std::int64_t i = 0; i < m * n; ++i)
            c[i] = beta == 0.0f ? 0.0f : c[i] * beta;
    };
    if (alpha == 0.0f || k == 0) {
        scale();
        return;
    }
    if (beta != 0.0f)
        scale();
    const auto axpy = simd::ops().axpy;
    std::vector<float> a_pack(static_cast<size_t>(m * kKC));
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
        const std::int64_t kc = std::min(kKC, k - pc);
        if (trans_a)
            for (std::int64_t i = 0; i < m; ++i)
                for (std::int64_t p = 0; p < kc; ++p)
                    a_pack[static_cast<size_t>(i * kc + p)] =
                        a[(pc + p) * m + i];
        for (std::int64_t jc = 0; jc < n; jc += kNC) {
            const std::int64_t nc = std::min(kNC, n - jc);
            for (std::int64_t i = 0; i < m; ++i) {
                float *c_row = c + i * n + jc;
                if (beta == 0.0f && pc == 0)
                    std::memset(c_row, 0,
                                static_cast<size_t>(nc) * sizeof(float));
                const float *a_row = trans_a ? a_pack.data() + i * kc
                                             : a + i * k + pc;
                for (std::int64_t p = 0; p < kc; ++p) {
                    const float a_val = alpha * a_row[p];
                    if (a_val == 0.0f)
                        continue;
                    axpy(nc, a_val, b + (pc + p) * n + jc, c_row);
                }
            }
        }
    }
}

} // namespace gist::test
