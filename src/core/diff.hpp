// Diffs: run-length encodings of the modifications made to a page, produced
// by comparing the page against its twin (the pristine copy saved before the
// first write).  Diffs from concurrent writers of the same page touch
// disjoint bytes (data-race-free programs), so applying them in any
// HB-consistent order merges the writes — the multiple-writer protocol that
// lets TreadMarks tolerate false sharing within a page.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/assert.hpp"

namespace sdsm::core {

class Diff {
 public:
  Diff() = default;

  /// Encodes the bytes of `current` that differ from `twin`.
  /// Runs are EXACT maximal stretches of differing bytes.  A diff must never
  /// carry unmodified bytes: concurrent writers of one page produce diffs
  /// that merge in arbitrary relative order, and a bridged gap would ship
  /// this writer's (stale) copy of bytes some other writer owns.  The scan
  /// compares eight bytes at a time and drops to a byte loop only inside a
  /// word where a run starts or ends, so the runs it finds are exactly the
  /// ones a byte-at-a-time loop finds.
  static Diff create(std::span<const std::byte> current,
                     std::span<const std::byte> twin);

  /// Encodes the entire page as a single run (WRITE_ALL pages: "the entire
  /// page, and not the diff, must be sent").
  static Diff whole(std::span<const std::byte> current);

  /// Reconstructs a diff received from the wire.
  static Diff from_bytes(std::vector<std::uint8_t> encoded);

  /// Overwrites the encoded byte ranges in `page` (memcpy-width stores).
  void apply(std::span<std::byte> page) const;

  /// True when the diff consists of one run covering all `page_size` bytes.
  bool is_whole(std::size_t page_size) const;

  bool empty() const { return num_runs() == 0; }
  std::uint32_t num_runs() const;

  /// Size on the wire.
  std::size_t encoded_size() const { return encoded_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return encoded_; }

 private:
  // Layout: [u32 nruns] then per run [u16 offset][u16 len][len bytes].
  // A len field of 0 encodes a 65536-byte run (not used with 4 KB pages but
  // keeps the format correct for large page experiments).
  std::vector<std::uint8_t> encoded_;
};

}  // namespace sdsm::core
