#include "src/compiler/lowering.hpp"

#include "src/core/descriptor.hpp"

namespace sdsm::compiler {

core::Access parse_access(const std::string& s) {
  if (s == "READ") return core::Access::kRead;
  if (s == "WRITE") return core::Access::kWrite;
  if (s == "READ&WRITE") return core::Access::kReadWrite;
  if (s == "WRITE_ALL") return core::Access::kWriteAll;
  if (s == "READ&WRITE_ALL") return core::Access::kReadWriteAll;
  SDSM_UNREACHABLE(("bad access string: " + s).c_str());
}

rsd::RegularSection lower_section(const std::vector<SectionDimAst>& section,
                                  const Env& scalars) {
  std::vector<rsd::Dim> dims;
  dims.reserve(section.size());
  for (const auto& d : section) {
    rsd::Dim dim;
    dim.lower = eval_int(*d.lower, scalars) - 1;  // Fortran is 1-based
    dim.upper = eval_int(*d.upper, scalars) - 1;
    dim.stride = d.stride;
    dims.push_back(dim);
  }
  return rsd::RegularSection(std::move(dims));
}

std::vector<core::AccessDescriptor> lower_validate(const Stmt& validate,
                                                   const Bindings& arrays,
                                                   const Env& scalars) {
  SDSM_REQUIRE(validate.kind == StmtKind::kValidate);
  std::vector<core::AccessDescriptor> out;
  out.reserve(validate.descs.size());
  for (const auto& d : validate.descs) {
    const auto data_it = arrays.find(d.data_array);
    SDSM_REQUIRE(data_it != arrays.end());
    const ArrayBinding& data = data_it->second;
    const rsd::RegularSection section = lower_section(d.section, scalars);
    const core::Access access = parse_access(d.access);
    const auto schedule = static_cast<std::uint32_t>(d.schedule);
    if (d.indirect) {
      const auto ind_it = arrays.find(d.section_array);
      SDSM_REQUIRE(ind_it != arrays.end());
      const ArrayBinding& ind = ind_it->second;
      SDSM_REQUIRE(ind.elem_size == sizeof(std::int32_t));
      // The data layout is unused through an indirection array.
      out.push_back(core::DescriptorBuilder::array(data.base, data.elem_size,
                                                   rsd::ArrayLayout{})
                        .via(ind.base, ind.layout, section)
                        .schedule(schedule)
                        .finish(access));
    } else {
      out.push_back(core::DescriptorBuilder::array(data.base, data.elem_size,
                                                   data.layout)
                        .section(section)
                        .schedule(schedule)
                        .finish(access));
    }
  }
  return out;
}

}  // namespace sdsm::compiler
