// Fluent typed builder for Validate access descriptors.
//
// The paper's Figure 3 passes descriptor structs to Validate; assembling
// them field by field is easy to get silently wrong — a forgotten layout,
// an indirection array that is not int32, a WRITE_ALL on an indirect
// section.  This builder is the one way descriptors are made (the compiler
// lowering path included).  It names each
// ingredient, checks the combination at finalization, and reads like the
// descriptor it produces:
//
//   DescriptorBuilder::array(x, layout)         // the data array accessed
//       .section(RegularSection::dense1d(lo, hi))
//       .schedule(3)
//       .read();                                // -> AccessDescriptor
//
//   DescriptorBuilder::array(forces, layout)
//       .via(list, list_layout, list_section)   // indirection array
//       .schedule(4)
//       .read_write();
#pragma once

#include <cstdint>

#include "src/core/dsm.hpp"
#include "src/core/shmalloc.hpp"
#include "src/rsd/regular_section.hpp"

namespace sdsm::core {

class DescriptorBuilder {
 public:
  /// Starts a descriptor for the shared data array being accessed.
  static DescriptorBuilder array(GlobalAddr base, std::size_t elem_size,
                                 rsd::ArrayLayout layout);

  /// Typed form: element size comes from the handle.
  template <typename T>
  static DescriptorBuilder array(const GlobalArray<T>& a,
                                 rsd::ArrayLayout layout) {
    return array(a.addr, sizeof(T), std::move(layout));
  }

  /// Typed 1-D form: the layout is the dense [0, count) line.
  template <typename T>
  static DescriptorBuilder array(const GlobalArray<T>& a) {
    return array(a.addr, sizeof(T),
                 rsd::ArrayLayout{{static_cast<std::int64_t>(a.count)}, true});
  }

  /// Direct section of the data array itself.
  DescriptorBuilder& section(rsd::RegularSection s);

  /// Sugar for the common dense 1-D section [lo, hi] of the data array.
  DescriptorBuilder& elements(std::int64_t lo, std::int64_t hi) {
    return section(rsd::RegularSection::dense1d(lo, hi));
  }

  /// Makes the descriptor INDIRECT: `ind_section` describes the slice of
  /// the indirection array whose *values* (int32 element indices) select
  /// the data-array elements.
  DescriptorBuilder& via(GlobalAddr ind_base, rsd::ArrayLayout ind_layout,
                         rsd::RegularSection ind_section);

  /// Typed form: only int32 indirection arrays are accepted, matching the
  /// runtime's Read_indices contract.
  DescriptorBuilder& via(const GlobalArray<std::int32_t>& ind,
                         rsd::ArrayLayout ind_layout,
                         rsd::RegularSection ind_section) {
    return via(ind.addr, std::move(ind_layout), std::move(ind_section));
  }

  /// Identifier of the cached page set (pages[sch] in Figure 3).
  DescriptorBuilder& schedule(std::uint32_t id);

  // Finalizers, one per access mode of Figure 3.  Each validates the
  // combination: a section must have been given, its rank must match the
  // owning array's layout, and the whole-section modes are only meaningful
  // for direct sections.
  AccessDescriptor read() const { return finish(Access::kRead); }
  AccessDescriptor write() const { return finish(Access::kWrite); }
  AccessDescriptor read_write() const { return finish(Access::kReadWrite); }
  AccessDescriptor write_all() const { return finish(Access::kWriteAll); }
  AccessDescriptor read_write_all() const {
    return finish(Access::kReadWriteAll);
  }

  /// Generic finalizer for access modes chosen at run time.
  AccessDescriptor finish(Access access) const;

 private:
  AccessDescriptor d_;
  bool have_section_ = false;
};

}  // namespace sdsm::core
