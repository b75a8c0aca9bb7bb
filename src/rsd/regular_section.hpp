// Regular section descriptors (RSDs) after Havlak & Kennedy: per-dimension
// triplets lower:upper:stride describing the sub-array a loop nest accesses,
// e.g. interaction_list[1:2:1, 1:n:1].  RSDs are the single currency between
// the compiler front-end (which derives them from subscript analysis) and
// the Validate run-time interface (which turns them into page sets).
//
// Bounds are inclusive and 0-based here; the mini-Fortran front-end converts
// from Fortran's 1-based form when it lowers to runtime plans.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/types.hpp"

namespace sdsm::rsd {

struct Dim {
  std::int64_t lower = 0;
  std::int64_t upper = -1;  ///< inclusive; upper < lower means empty
  std::int64_t stride = 1;  ///< must be positive

  std::int64_t count() const {
    if (upper < lower) return 0;
    return (upper - lower) / stride + 1;
  }
  bool contains(std::int64_t i) const {
    return i >= lower && i <= upper && (i - lower) % stride == 0;
  }
  bool operator==(const Dim&) const = default;
};

/// Maps a multi-index to a flat element index.  Fortran arrays are
/// column-major (the first subscript varies fastest), which matters for
/// which elements share a page.
struct ArrayLayout {
  std::vector<std::int64_t> extents;  ///< size of each dimension
  bool column_major = true;

  std::int64_t num_elements() const {
    std::int64_t n = 1;
    for (auto e : extents) n *= e;
    return n;
  }

  std::int64_t flatten(const std::vector<std::int64_t>& idx) const;
};

class RegularSection {
 public:
  RegularSection() = default;
  explicit RegularSection(std::vector<Dim> dims) : dims_(std::move(dims)) {}
  RegularSection(std::initializer_list<Dim> dims) : dims_(dims) {}

  /// Convenience: the dense 1-D section [lo, hi].
  static RegularSection dense1d(std::int64_t lo, std::int64_t hi) {
    return RegularSection({Dim{lo, hi, 1}});
  }

  std::size_t rank() const { return dims_.size(); }
  const Dim& dim(std::size_t d) const { return dims_[d]; }
  const std::vector<Dim>& dims() const { return dims_; }

  /// Total number of elements described.
  std::int64_t count() const;

  bool empty() const { return count() == 0; }

  bool contains(const std::vector<std::int64_t>& idx) const;

  /// True when this section contains every element of `other` (conservative:
  /// exact for equal strides, otherwise falls back to element membership for
  /// small sections and to false beyond that).
  bool contains_section(const RegularSection& other) const;

  /// Per-dimension intersection; empty result when disjoint in any
  /// dimension.  Exact when strides are equal; otherwise conservative
  /// (may over-approximate), which is the safe direction for prefetching.
  RegularSection intersect(const RegularSection& other) const;

  /// Invokes fn for every multi-index in the section, last dimension
  /// slowest when `layout.column_major` (Fortran order).
  void for_each(const std::function<void(const std::vector<std::int64_t>&)>& fn) const;

  /// Flat element indices of the section under `layout`, in iteration order.
  std::vector<std::int64_t> flat_indices(const ArrayLayout& layout) const;

  /// When the section maps to one contiguous run of flat element indices
  /// under `layout` (dense dims, full extents below the last partial
  /// dimension), returns the inclusive [first, last] flat range.  This is
  /// the common shape produced by the compiler (e.g. interaction_list
  /// [1:2, lo:hi] column-major) and enables O(1) page-set computation and
  /// tight Read_indices scan loops.
  std::optional<std::pair<std::int64_t, std::int64_t>> contiguous_flat_range(
      const ArrayLayout& layout) const;

  /// Allocation-free visitation of flat element indices in iteration order
  /// (first dimension fastest under column-major).  `fn(flat)` is called
  /// once per element; the flat index is maintained incrementally.
  template <typename Fn>
  void for_each_flat(const ArrayLayout& layout, Fn&& fn) const {
    if (empty()) return;
    const std::size_t n = dims_.size();
    SDSM_REQUIRE(layout.extents.size() == n);
    std::int64_t mult_buf[8] = {};
    std::int64_t idx_buf[8] = {};
    SDSM_REQUIRE(n <= 8);
    if (layout.column_major) {
      std::int64_t m = 1;
      for (std::size_t d = 0; d < n; ++d) {
        mult_buf[d] = m;
        m *= layout.extents[d];
      }
    } else {
      std::int64_t m = 1;
      for (std::size_t d = n; d-- > 0;) {
        mult_buf[d] = m;
        m *= layout.extents[d];
      }
    }
    std::int64_t flat = 0;
    for (std::size_t d = 0; d < n; ++d) {
      idx_buf[d] = dims_[d].lower;
      flat += idx_buf[d] * mult_buf[d];
    }
    for (;;) {
      fn(flat);
      std::size_t d = 0;
      for (; d < n; ++d) {
        idx_buf[d] += dims_[d].stride;
        flat += dims_[d].stride * mult_buf[d];
        if (idx_buf[d] <= dims_[d].upper) break;
        flat -= (idx_buf[d] - dims_[d].lower) * mult_buf[d];
        idx_buf[d] = dims_[d].lower;
      }
      if (d == n) return;
    }
  }

  /// Sorted, deduplicated list of pages covered by the section's elements,
  /// for an array whose element 0 lives at byte offset `base` and whose
  /// elements are `elem_size` bytes.
  std::vector<PageId> pages(GlobalAddr base, std::size_t elem_size,
                            const ArrayLayout& layout,
                            std::size_t page_size) const;

  std::string to_string() const;

  bool operator==(const RegularSection&) const = default;

 private:
  std::vector<Dim> dims_;
};

/// Pages touched by the dense byte range [base, base+len).
std::vector<PageId> pages_of_range(GlobalAddr base, std::size_t len,
                                   std::size_t page_size);

}  // namespace sdsm::rsd
