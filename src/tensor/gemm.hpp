/**
 * @file
 * Single-precision GEMM. This is the "dense compute" substrate that conv
 * (via im2col) and fully-connected layers run on — the CPU stand-in for
 * cuDNN/cuBLAS dense kernels in the paper.
 */

#pragma once

#include <cstdint>

#include "encodings/csr.hpp"
#include "tensor/pack.hpp"

namespace gist {

/**
 * C = alpha * op(A) * op(B) + beta * C.
 *
 * All matrices are dense row-major. op(A) is A (m x k) or A^T when
 * @p trans_a (A stored k x m); likewise for B. Per C element: one
 * multiply-add per p, p ascending, starting from beta * C (+0 when
 * beta == 0), with every product whose alpha * a is exactly zero
 * skipped unless @p trans_b — bitwise-identical at any thread count
 * (DESIGN.md 5d).
 *
 * @param m rows of op(A) and C
 * @param n cols of op(B) and C
 * @param k cols of op(A) / rows of op(B)
 */
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float *a, const float *b,
          float beta, float *c);

/**
 * gemm() with op(B) = B (k x n row-major) supplied by a pack callback
 * instead of a dense pointer: the same driver, with each KC-row
 * reduction slice of B decoded once into step-arena scratch instead of
 * read in place, so the resident B footprint is KC * n floats instead
 * of the full k * n decode buffer. The result is bitwise-identical to
 * decoding B densely first and calling gemm(trans_a, false, ...).
 */
void gemmPackedB(bool trans_a, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float *a,
                 const PackFn &b_pack, float beta, float *c);

/**
 * gemm() with op(A) = A (m x k row-major, no transpose) supplied in
 * flat-CSR form: walks row_ptr/col_idx directly and issues one axpy per
 * stored nonzero, so compute scales with (1 - sparsity) and the A
 * operand is never decoded to dense. Per C row the nonzeros are visited
 * in ascending flat order, one axpy each, which is the per-element
 * operation sequence of the dense path, so the result is
 * bitwise-identical to decoding A and calling gemm(false, false, ...).
 * @p a must hold exactly m * k encoded values.
 */
void gemmCsrA(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const CsrConstView &a, const float *b, float beta, float *c);

} // namespace gist
