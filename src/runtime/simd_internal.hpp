// Internal linkage surface between the per-ISA kernel translation units and
// the dispatcher.  The scalar implementations are exported individually (not
// just as a table) so the vector TUs can fall back per-kernel: a path only
// overrides the entries it actually accelerates.
//
// Every kernel TU in src/runtime is compiled with -ffp-contract=off so a
// global -mfma build cannot contract the scalar reference loops (or vector
// tails) into FMA and silently break the bit-exactness contract between
// paths.
#pragma once

#include <complex>
#include <cstddef>

#include "rcr/rt/simd.hpp"

namespace rcr::rt::simd::detail {

void scalar_add(const double* a, const double* b, double* out, std::size_t n);
void scalar_sub(const double* a, const double* b, double* out, std::size_t n);
void scalar_mul(const double* a, const double* b, double* out, std::size_t n);
void scalar_scale(const double* a, double s, double* out, std::size_t n);
void scalar_axpy(double s, const double* x, double* y, std::size_t n);
void scalar_rotate_pair(double* x, double* y, double c, double s,
                        std::size_t n);
double scalar_dot_seq(double init, const double* a, const double* b,
                      std::size_t n);
double scalar_absdot_seq(double init, const double* a, const double* b,
                         std::size_t n);
double scalar_choose_dot_seq(double init, const double* w, const double* pos,
                             const double* neg, std::size_t n);
double scalar_masked_dot_seq(double init, const double* w, const double* a,
                             std::size_t n, bool nonneg);
void scalar_choose_mul(const double* w, const double* pos, const double* neg,
                       double* out, std::size_t n);
void scalar_butterfly(std::complex<double>* lo, std::complex<double>* hi,
                      const std::complex<double>* tw, std::size_t n);
double scalar_boxqp_x_seq(double rho, const double* z, const double* u,
                          const double* q, const double* d, double* x,
                          std::size_t n);
ResidualSums scalar_boxqp_zu_seq(double gamma, const double* d,
                                 const double* x, const double* lo,
                                 const double* hi, const double* z, double* u,
                                 double* z_out, std::size_t n);

extern const Kernels kScalarTable;
#if RCR_SIMD_HAVE_AVX2
extern const Kernels kAvx2Table;
#endif
#if RCR_SIMD_HAVE_NEON
extern const Kernels kNeonTable;
#endif

}  // namespace rcr::rt::simd::detail
