// Scalar kernel arm: the template bodies instantiated at W = 1. Compiled
// unconditionally with the project's default flags — this is the dispatch
// fallback on any host.
#include "sim/plane_kernels.hpp"
#include "sim/plane_kernels_detail.hpp"

namespace ppa::sim::plane_kernels {

namespace {
using detail::VecScalar;
}  // namespace

const PlaneKernels& scalar_kernels() noexcept {
  static const PlaneKernels table = [] {
    PlaneKernels t;
    t.variant = SimdVariant::Scalar;
    t.op_and = detail::t_op_and<VecScalar>;
    t.op_or = detail::t_op_or<VecScalar>;
    t.op_xor = detail::t_op_xor<VecScalar>;
    t.op_andnot = detail::t_op_andnot<VecScalar>;
    t.op_copy = detail::t_op_copy<VecScalar>;
    t.op_zero = detail::t_op_zero<VecScalar>;
    t.masked_assign = detail::t_masked_assign<VecScalar>;
    t.masked_assign_planes = detail::t_masked_assign_planes<VecScalar>;
    t.blend = detail::t_blend<VecScalar>;
    t.all_zero = detail::t_all_zero<VecScalar>;
    t.equal = detail::t_equal<VecScalar>;
    t.add_sat = detail::t_add_sat<VecScalar>;
    t.add_sat_masked = detail::t_add_sat_masked<VecScalar>;
    t.compare_lt = detail::t_compare_lt<VecScalar>;
    t.compare_eq = detail::t_compare_eq<VecScalar>;
    t.compare_ne_masked = detail::t_compare_ne_masked<VecScalar>;
    t.pack_words = detail::pack_words_by_rows<detail::pack_row_scalar>;
    t.pack_row = detail::pack_row_scalar;
    t.segmented_fill = detail::t_segmented_fill<VecScalar>;
    t.segmented_or = detail::t_segmented_or<VecScalar>;
    t.row_fill = detail::t_row_fill<VecScalar>;
    t.row_word_fill = detail::t_row_word_fill<VecScalar>;
    t.column_fill = detail::t_column_fill<VecScalar>;
    t.line_add_sat_masked = detail::t_line_add_sat_masked<VecScalar>;
    t.row_eliminate = detail::t_row_eliminate<VecScalar>;
    return t;
  }();
  return table;
}

}  // namespace ppa::sim::plane_kernels
