#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "memory/arena.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace gist {

namespace {

// Cache blocking: the reduction runs in KC-row slices of op(B),
// ascending; inside a slice, C row panels are the parallel unit, each
// worked in blocks of MC rows whose packed alpha * A (MC x KC floats =
// 24 KB) stays cache-resident while the slice streams past in
// register-tile column strips. Every C element gets one multiply-add per
// p, p ascending across the slices, whatever the thread count or
// chunking, so results are bitwise-identical at any thread count. kMC
// is a multiple of every backend's tile rows (6 on avx2, 4 otherwise).
constexpr std::int64_t kMC = 24;
constexpr std::int64_t kKC = 256;

// gemmCsrA's blocking: C row panels of kCsrMC rows are its parallel
// unit and C columns are swept in kCsrNC-wide axpy strips.
constexpr std::int64_t kCsrMC = 32;
constexpr std::int64_t kCsrNC = 256;

// Minimum multiply-adds (dense: per slice) or axpy elements (CSR)
// before a GEMM fans out to the pool: below this the per-chunk dispatch
// plus the cold per-worker arena scratch cost more than the work
// itself, so the whole range runs as one inline chunk (bitwise-identical
// by the static chunking contract).
constexpr std::int64_t kMinParallelWork = 1 << 20;

// B slab one CSR column block may touch (block_k rows x n floats):
// 512 KB keeps the slab L2-resident while every row of a kCsrMC panel
// streams over it, instead of each row sweeping the whole of B.
constexpr std::int64_t kCsrBSlabBytes = 512 << 10;

// Gathered entries to run ahead of the axpy loop with a software
// prefetch: the B rows a CSR row touches are scattered, so the hardware
// stride prefetcher cannot see them coming.
constexpr std::int64_t kCsrPrefetchDist = 8;

/**
 * Checks shared by every entry point, plus the beta * C part of the
 * update. Returns false when that was all there is to do (empty C,
 * alpha == 0 or k == 0; beta == 0 then zero-fills, as BLAS semantics
 * require even for garbage/NaN input C). Otherwise beta == 0 is left to
 * the compute loops, which write C from +0 on first touch.
 */
bool
gemmPrologue(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             float beta, float *c)
{
    GIST_ASSERT(m >= 0 && n >= 0 && k >= 0, "bad gemm dims");
    if (m == 0 || n == 0)
        return false;
    GIST_ASSERT(c != nullptr, "gemm: null C with m, n > 0");
    const bool compute = alpha != 0.0f && k > 0;
    if ((!compute || beta != 0.0f) && beta != 1.0f)
        parallelFor(0, m * n, chooseGrain(m * n, 4096),
                    [=](std::int64_t lo, std::int64_t hi) {
                        if (beta == 0.0f)
                            std::memset(c + lo, 0,
                                        static_cast<size_t>(hi - lo) *
                                            sizeof(float));
                        else
                            for (std::int64_t i = lo; i < hi; ++i)
                                c[i] *= beta;
                    });
    return compute;
}

/**
 * Where the driver finds each row-major kc x n slice of op(B): in place
 * (B itself, k x n), transposed into scratch (B stored n x k), or
 * decoded into scratch by a pack callback.
 */
struct BSource
{
    const float *b = nullptr;
    bool trans = false;
    const PackFn *pack = nullptr;
};

/**
 * dst (kc x n) = rows [pc, pc + kc) of op(B) = B^T, B stored n x k, in
 * 4 x 4 blocks: four short reads along B rows, four short writes along
 * dst rows, so neither side walks memory at a large stride per element.
 */
void
transposeSlice(const float *b, std::int64_t n, std::int64_t k,
               std::int64_t pc, std::int64_t kc, float *dst)
{
    parallelFor(0, kc, chooseGrain(kc, 16, 4),
                [=](std::int64_t p_lo, std::int64_t p_hi) {
        for (std::int64_t j0 = 0; j0 < n; j0 += 4)
            for (std::int64_t p0 = p_lo; p0 < p_hi; p0 += 4) {
                const float *src = b + j0 * k + pc + p0;
                float *out = dst + p0 * n + j0;
                const std::int64_t jn = std::min<std::int64_t>(4, n - j0);
                const std::int64_t pn = std::min<std::int64_t>(4, p_hi - p0);
                if (jn == 4 && pn == 4) {
                    float t[4][4];
                    for (int j = 0; j < 4; ++j)
                        for (int p = 0; p < 4; ++p)
                            t[p][j] = src[j * k + p];
                    for (int p = 0; p < 4; ++p)
                        for (int j = 0; j < 4; ++j)
                            out[p * n + j] = t[p][j];
                } else {
                    for (std::int64_t j = 0; j < jn; ++j)
                        for (std::int64_t p = 0; p < pn; ++p)
                            out[p * n + j] = src[j * k + p];
                }
            }
    });
}

/**
 * Pack alpha * A as a kc x MR p-major micro-panel of mr rows, element
 * (i, p) read from a[i * rs + p * ps] (rows past mr are never read).
 * Returns true when any packed value is an exact zero.
 */
bool
packMicroPanel(const float *a, std::int64_t rs, std::int64_t ps,
               float alpha, int mr, std::int64_t kc, int MR, float *dst)
{
    bool zero = false;
    for (std::int64_t p = 0; p < kc; ++p)
        for (int i = 0; i < mr; ++i) {
            const float v = alpha * a[i * rs + p * ps];
            zero |= v == 0.0f;
            dst[p * MR + i] = v;
        }
    return zero;
}

/**
 * C rows [i0, i1) += alpha * op(A)[i0 .. i1) x [pc .. pc + kc) * bs,
 * where bs is the row-major kc x n slice of op(B) (row stride n) and
 * @p init makes this slice write C from +0 instead of accumulating.
 *
 * Zero skip (when @p skip_zeros): alpha * a == 0 contributes nothing
 * (not even the +0 that would turn a -0 C into +0, or the NaN of
 * 0 * Inf). A register tile cannot skip single products, so a
 * micro-panel holding an exact zero runs as one axpy per nonzero product
 * instead; every other micro-panel goes through the backend's tile
 * kernel, which performs the same per-element multiply-add as axpy.
 * Both forms give the same bits.
 */
void
gemmPanel(bool trans_a, std::int64_t i0, std::int64_t i1, std::int64_t m,
          std::int64_t n, std::int64_t k, float alpha, const float *a,
          std::int64_t pc, std::int64_t kc, const float *bs, bool init,
          bool skip_zeros, float *c)
{
    const simd::SimdOps &o = simd::ops();
    const int MR = o.gemm_mr;
    // Element (i, p) of op(A) is a[i * rs + p * ps].
    const std::int64_t rs = trans_a ? 1 : k;
    const std::int64_t ps = trans_a ? m : 1;
    // Panels run on pool workers; the arena frame bumps this worker's
    // own region, so the A pack costs no heap allocation once the
    // region is warm.
    ArenaScope scope;
    float *a_pack = scope.alloc<float>(static_cast<size_t>(kMC * kc));
    bool skip[kMC];
    for (std::int64_t ic = i0; ic < i1; ic += kMC) {
        const std::int64_t panels = (std::min(kMC, i1 - ic) + MR - 1) / MR;
        const auto rows = [&](std::int64_t q) {
            return static_cast<int>(
                std::min<std::int64_t>(MR, i1 - ic - q * MR));
        };
        for (std::int64_t q = 0; q < panels; ++q) {
            const std::int64_t r0 = ic + q * MR;
            float *ap = a_pack + q * MR * kc;
            skip[q] = packMicroPanel(a + r0 * rs + pc * ps, rs, ps, alpha,
                                     rows(q), kc, MR, ap) &&
                      skip_zeros;
            for (int i = 0; skip[q] && i < rows(q); ++i) {
                float *c_row = c + (r0 + i) * n;
                if (init)
                    std::memset(c_row, 0,
                                static_cast<size_t>(n) * sizeof(float));
                for (std::int64_t p = 0; p < kc; ++p)
                    if (ap[p * MR + i] != 0.0f)
                        o.axpy(n, ap[p * MR + i], bs + p * n, c_row);
            }
        }
        for (std::int64_t jr = 0; jr < n; jr += o.gemm_nr) {
            const int nr =
                static_cast<int>(std::min<std::int64_t>(o.gemm_nr, n - jr));
            for (std::int64_t q = 0; q < panels; ++q)
                if (!skip[q])
                    o.gemmTile(kc, a_pack + q * MR * kc, bs + jr, n,
                               c + (ic + q * MR) * n + jr, n, rows(q), nr,
                               !init);
        }
    }
}

/**
 * The one dense driver: C = alpha * op(A) * op(B) + beta * C with op(B)
 * delivered slice by slice from @p src. Each KC slice of op(B) is made
 * row-major exactly once per call (or read in place) and every row panel
 * consumes it from there. op(B) = B^T multiplies zeros in like any
 * other value: its A is conv dW's dY, often half zeros after ReLU, where
 * the row-axpy fallback would be slower than the tile.
 */
void
gemmDriver(bool trans_a, std::int64_t m, std::int64_t n, std::int64_t k,
           float alpha, const float *a, const BSource &src, float beta,
           float *c)
{
    if (!gemmPrologue(m, n, k, alpha, beta, c))
        return;
    GIST_ASSERT(a != nullptr, "gemm: null A with m, k > 0");
    GIST_ASSERT(src.pack || src.b, "gemm: null B with k, n > 0");
    ArenaScope scope;
    float *b_tile = nullptr;
    if (src.pack || src.trans)
        b_tile = scope.alloc<float>(static_cast<size_t>(
            std::min(kKC, k) * n));
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
        const std::int64_t kc = std::min(kKC, k - pc);
        const float *bs = src.b + pc * n;
        if (src.pack) {
            (*src.pack)(pc * n, b_tile, kc * n);
            bs = b_tile;
        } else if (src.trans) {
            transposeSlice(src.b, n, k, pc, kc, b_tile);
            bs = b_tile;
        }
        const bool init = pc == 0 && beta == 0.0f;
        const std::int64_t grain = m * n * kc < kMinParallelWork ? m : kMC;
        parallelFor(0, m, grain, [&](std::int64_t i0, std::int64_t i1) {
            gemmPanel(trans_a, i0, i1, m, n, k, alpha, a, pc, kc, bs, init,
                      !src.trans, c);
        });
    }
}

} // namespace

void
gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
     std::int64_t k, float alpha, const float *a, const float *b, float beta,
     float *c)
{
    GIST_TRACE_SCOPE_F("compute", "gemm %lldx%lldx%lld",
                       static_cast<long long>(m),
                       static_cast<long long>(n),
                       static_cast<long long>(k));
    gemmDriver(trans_a, m, n, k, alpha, a, { b, trans_b, nullptr }, beta, c);
}

void
gemmPackedB(bool trans_a, std::int64_t m, std::int64_t n, std::int64_t k,
            float alpha, const float *a, const PackFn &b_pack, float beta,
            float *c)
{
    GIST_TRACE_SCOPE_F("compute", "gemm packed-b %lldx%lldx%lld",
                       static_cast<long long>(m),
                       static_cast<long long>(n),
                       static_cast<long long>(k));
    gemmDriver(trans_a, m, n, k, alpha, a, { nullptr, false, &b_pack }, beta,
               c);
}

void
gemmCsrA(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
         const CsrConstView &a, const float *b, float beta, float *c)
{
    GIST_TRACE_SCOPE_F("compute", "gemm csr-a %lldx%lldx%lld",
                       static_cast<long long>(m),
                       static_cast<long long>(n),
                       static_cast<long long>(k));
    if (!gemmPrologue(m, n, k, alpha, beta, c))
        return;
    GIST_ASSERT(a.numel == m * k, "csr A holds ", a.numel,
                " values, expected ", m * k);
    GIST_ASSERT(b != nullptr, "gemm: null B with k, n > 0");

    const std::int64_t est_work = a.nnz * n;
    const std::int64_t grain =
        est_work < kMinParallelWork ? m : kCsrMC;
    // A-column block: the B rows a block can reach form an L2-resident
    // slab that all rows of a panel reuse, instead of each row sweeping
    // the whole of B (the dense path's KC slicing, adapted to the
    // gathered entry lists).
    const std::int64_t block_k = std::max<std::int64_t>(
        64, kCsrBSlabBytes /
                (static_cast<std::int64_t>(sizeof(float)) * n));
    parallelFor(0, m, grain, [&](std::int64_t i0, std::int64_t i1) {
        const auto axpy = simd::ops().axpy;
        for (std::int64_t ip = i0; ip < i1; ip += kCsrMC) {
            const std::int64_t ie = std::min(ip + kCsrMC, i1);
            const std::int64_t rows = ie - ip;
            ArenaScope scope;
            // Exact per-panel entry bound straight from row_ptr (the
            // CSR chunk rows overlapping the panel's flat range).
            const std::int64_t rp0 = (ip * k) / a.row_width;
            const std::int64_t rp1 = (ie * k - 1) / a.row_width;
            const std::int64_t bound =
                static_cast<std::int64_t>(
                    a.row_ptr[static_cast<size_t>(rp1 + 1)]) -
                static_cast<std::int64_t>(
                    a.row_ptr[static_cast<size_t>(rp0)]);
            auto *p_idx = scope.alloc<std::int32_t>(
                static_cast<size_t>(std::max<std::int64_t>(bound, 1)));
            float *p_val = scope.alloc<float>(
                static_cast<size_t>(std::max<std::int64_t>(bound, 1)));
            auto *start =
                scope.alloc<std::int64_t>(static_cast<size_t>(rows) + 1);
            auto *cur =
                scope.alloc<std::int64_t>(static_cast<size_t>(rows));
            float *vals =
                scope.alloc<float>(static_cast<size_t>(a.row_width));
            // Stage 1 — per-row value prefetch: decode each row's
            // surviving (p, alpha * value) pairs once, in ascending
            // flat order (the order the dense path visits and skips
            // them), packed panel-contiguously.
            std::int64_t cnt = 0;
            for (std::int64_t i = ip; i < ie; ++i) {
                start[i - ip] = cnt;
                if (beta == 0.0f)
                    std::memset(c + i * n, 0,
                                static_cast<size_t>(n) * sizeof(float));
                const std::int64_t flat0 = i * k;
                const std::int64_t r0 = flat0 / a.row_width;
                const std::int64_t r1 = (flat0 + k - 1) / a.row_width;
                for (std::int64_t r = r0; r <= r1; ++r) {
                    const auto k0 = static_cast<std::int64_t>(
                        a.row_ptr[static_cast<size_t>(r)]);
                    const auto k1 = static_cast<std::int64_t>(
                        a.row_ptr[static_cast<size_t>(r + 1)]);
                    if (k0 == k1)
                        continue;
                    csrValues(a, k0, k1, vals);
                    const std::int64_t row_base = r * a.row_width;
                    for (std::int64_t kk = k0; kk < k1; ++kk) {
                        const std::int64_t flat =
                            row_base +
                            static_cast<std::int64_t>(csrColAt(a, kk));
                        if (flat < flat0 || flat >= flat0 + k)
                            continue;
                        // Lossy-valued entries can decode to zero; the
                        // dense path's a_val == 0 skip drops those, so
                        // drop them here too.
                        const float a_val = alpha * vals[kk - k0];
                        if (a_val == 0.0f)
                            continue;
                        p_idx[cnt] =
                            static_cast<std::int32_t>(flat - flat0);
                        p_val[cnt] = a_val;
                        ++cnt;
                    }
                }
            }
            start[rows] = cnt;
            // Stage 2 — blocked accumulation: A-column blocks ascending,
            // each row's entries within a block ascending, the dense
            // path's NC tiling inside. Per C element the contribution
            // order is still p ascending with axpy arguments identical
            // to the dense reference, so results stay bitwise-identical
            // at any thread count.
            for (std::int64_t r = 0; r < rows; ++r)
                cur[r] = start[r];
            for (std::int64_t pc = 0; pc < k; pc += block_k) {
                const std::int64_t pend = std::min(pc + block_k, k);
                for (std::int64_t r = 0; r < rows; ++r) {
                    const std::int64_t t0 = cur[r];
                    const std::int64_t stop = start[r + 1];
                    std::int64_t t1 = t0;
                    while (t1 < stop && p_idx[t1] < pend)
                        ++t1;
                    cur[r] = t1;
                    if (t0 == t1)
                        continue;
                    float *c_row = c + (ip + r) * n;
                    for (std::int64_t jc = 0; jc < n; jc += kCsrNC) {
                        const std::int64_t nc = std::min(kCsrNC, n - jc);
                        for (std::int64_t t = t0; t < t1; ++t) {
                            if (t + kCsrPrefetchDist < t1)
                                __builtin_prefetch(
                                    b +
                                    p_idx[t + kCsrPrefetchDist] * n +
                                    jc);
                            axpy(nc, p_val[t], b + p_idx[t] * n + jc,
                                 c_row + jc);
                        }
                    }
                }
            }
        }
    });
}

} // namespace gist
