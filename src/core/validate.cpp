// Validate: the augmented run-time interface for irregular accesses
// (Figure 3 of the paper).
//
// Call structure, mirroring the paper:
//   - For every INDIRECT descriptor whose indirection-array section has been
//     modified since the last call (detected via write protection), the page
//     set pages[sch] is recomputed by Read_indices and the indirection pages
//     are re-protected.
//   - The invalid pages of all descriptors are fetched with one aggregated
//     diff request per producer node (Fetch_diffs / Apply_diffs).
//   - Pages that will be written are preemptively twinned (Create_twins), so
//     the executor loop runs without a single protection violation.
//   - WRITE_ALL / READ&WRITE_ALL sections skip twin creation on fully
//     covered pages; their release-time "diff" is the entire page.
//
// Descriptors are processed in two rounds: DIRECT first, INDIRECT second.
// This lets a program list the indirection array itself as a DIRECT READ
// descriptor so that Read_indices scans locally valid pages instead of
// demand-faulting them one at a time.
#include <algorithm>
#include <bit>

#include "src/common/timer.hpp"
#include "src/core/descriptor.hpp"
#include "src/core/dsm.hpp"

namespace sdsm::core {

namespace {

/// Byte extent of a DIRECT descriptor's section when it is dense
/// (rank 1, unit stride); nullopt otherwise.  Used to decide which pages a
/// WRITE_ALL section covers completely.
struct DenseRange {
  GlobalAddr lo;
  GlobalAddr hi;  // exclusive
};

std::optional<DenseRange> dense_range(const AccessDescriptor& d) {
  if (d.type != DescType::kDirect) return std::nullopt;
  if (d.section.rank() != 1) return std::nullopt;
  const rsd::Dim& dim = d.section.dim(0);
  if (dim.stride != 1 || dim.count() == 0) return std::nullopt;
  const GlobalAddr lo =
      d.data_base + static_cast<GlobalAddr>(dim.lower) * d.data_elem_size;
  return DenseRange{lo, lo + static_cast<GlobalAddr>(dim.count()) *
                             d.data_elem_size};
}

bool page_fully_covered(PageId page, const DenseRange& r,
                        std::size_t page_size) {
  const GlobalAddr page_lo = static_cast<GlobalAddr>(page) * page_size;
  return r.lo <= page_lo && page_lo + page_size <= r.hi;
}

bool writes(Access a) {
  return a != Access::kRead;
}
bool whole_section_write(Access a) {
  return a == Access::kWriteAll || a == Access::kReadWriteAll;
}

}  // namespace

std::vector<PageId> DsmNode::direct_pages(const AccessDescriptor& desc) const {
  std::vector<PageId> pages = desc.section.pages(
      desc.data_base, desc.data_elem_size, desc.data_layout,
      region_.page_size());
  SDSM_REQUIRE_MSG(pages.empty() || pages.back() < pages_.size(),
                   "Validate: section outside the shared heap");
  return pages;
}

std::vector<PageId> DsmNode::read_indices(const AccessDescriptor& desc) {
  const Timer scan_timer;
  const auto* ind =
      reinterpret_cast<const std::int32_t*>(region_.base() + desc.ind_base);
  const std::size_t ps = region_.page_size();
  // Dedup through a page bitmap: the scan over the indirection array is the
  // cost the paper compares against the CHAOS inspector, so it must stay a
  // tight loop (one load, one shift, one or per index).
  std::vector<std::uint64_t> bits((pages_.size() + 63) / 64, 0);
  const GlobalAddr heap_end = pages_.size() * ps;
  const auto mark = [&](std::int32_t v) {
    SDSM_ASSERT(v >= 0);
    const GlobalAddr lo =
        desc.data_base + static_cast<GlobalAddr>(v) * desc.data_elem_size;
    const GlobalAddr hi = lo + desc.data_elem_size - 1;
    SDSM_REQUIRE_MSG(hi < heap_end,
                     "Validate: indirection value outside the shared heap");
    for (GlobalAddr a = lo / ps; a <= hi / ps; ++a) {
      bits[a >> 6] |= std::uint64_t{1} << (a & 63);
    }
  };
  if (const auto range = desc.section.contiguous_flat_range(desc.ind_layout)) {
    // Reading ind[] may demand-fault list pages; that is the measured cost.
    for (std::int64_t f = range->first; f <= range->second; ++f) mark(ind[f]);
  } else {
    desc.section.for_each_flat(desc.ind_layout,
                               [&](std::int64_t flat) { mark(ind[flat]); });
  }
  std::vector<PageId> pages;
  for (std::size_t w = 0; w < bits.size(); ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      pages.push_back(static_cast<PageId>(w * 64 + b));
    }
  }
  stats().scan_ns.add(static_cast<std::uint64_t>(scan_timer.elapsed_s() * 1e9));
  return pages;
}

void DsmNode::watch_indirection_pages(const AccessDescriptor& desc,
                                      std::uint32_t schedule) {
  const auto ind_pages = desc.section.pages(
      desc.ind_base, sizeof(std::int32_t), desc.ind_layout, region_.page_size());
  SDSM_REQUIRE_MSG(ind_pages.empty() || ind_pages.back() < pages_.size(),
                   "Validate: indirection array outside the shared heap");
  for (const PageId page : ind_pages) {
    PageMeta& pm = pages_[page];
    if (std::find(pm.watchers.begin(), pm.watchers.end(), schedule) ==
        pm.watchers.end()) {
      pm.watchers.push_back(schedule);
    }
    if (pm.state == PageState::kReadWrite) {
      // Dirty page: downgrade access so the next local write traps.  The
      // twin and dirty flag stay; the fault handler simply restores write
      // access after flagging the schedules.
      set_prot(page, vm::Prot::kRead);
    }
  }
}

void DsmNode::notice_watched_page(PageId page) {
  for (const std::uint32_t sch : pages_[page].watchers) {
    auto it = schedules_.find(sch);
    if (it != schedules_.end()) it->second.indirection_changed = true;
  }
}

void DsmNode::consume_prefetch() {
  if (prefetch_.empty()) return;
  stats().cross_prefetch_consumes.add(1);
  PendingFetch pf = std::move(prefetch_);
  prefetch_ = PendingFetch{};
  complete_fetch(std::move(pf));
}

void DsmNode::drain_prefetch() {
  if (prefetch_.empty()) return;
  stats().cross_prefetch_drains.add(1);
  PendingFetch pf = std::move(prefetch_);
  prefetch_ = PendingFetch{};
  complete_fetch(std::move(pf));
}

void DsmNode::post_validate_prefetch(
    const std::vector<AccessDescriptor>& descs) {
  consume_prefetch();  // at most one outstanding
  // Pages the descriptors can resolve right now: direct sections always,
  // indirect ones only through a current cached page set — a stale
  // schedule needs a Read_indices scan, which belongs to validate().
  const auto resolved_pages = [&](const AccessDescriptor& desc) {
    if (desc.type == DescType::kDirect) return direct_pages(desc);
    const auto it = schedules_.find(desc.schedule);
    if (it == schedules_.end() || !it->second.valid ||
        it->second.indirection_changed) {
      return std::vector<PageId>{};
    }
    return it->second.pages;
  };
  // Mirror validate()'s fetch selection — same pages, same aggregated
  // per-producer requests — so prefetching never changes what goes on the
  // wire, only when the wait for it happens.  That includes the WRITE_ALL
  // discard rule: a page some descriptor of this post fully covers in
  // whole-section-write mode will be discarded by validate(), never
  // fetched, so it must be excluded from every descriptor's fetch here
  // (the discard itself — a state transition — stays with validate).
  std::vector<PageId> discard;
  for (const AccessDescriptor& desc : descs) {
    if (desc.access != Access::kWriteAll || !config().write_all_enabled) {
      continue;
    }
    const std::optional<DenseRange> range = dense_range(desc);
    if (!range) continue;
    for (const PageId page : resolved_pages(desc)) {
      if (page_fully_covered(page, *range, region_.page_size())) {
        discard.push_back(page);
      }
    }
  }
  std::sort(discard.begin(), discard.end());
  std::vector<PageId> fetch;
  for (const AccessDescriptor& desc : descs) {
    for (const PageId page : resolved_pages(desc)) {
      if (pages_[page].state != PageState::kInvalid) continue;
      if (std::binary_search(discard.begin(), discard.end(), page)) continue;
      fetch.push_back(page);
    }
  }
  std::sort(fetch.begin(), fetch.end());
  fetch.erase(std::unique(fetch.begin(), fetch.end()), fetch.end());
  if (fetch.empty()) return;
  stats().cross_prefetch_posts.add(1);
  stats().cross_prefetch_pages.add(fetch.size());
  stats().pages_prefetched.add(fetch.size());
  prefetch_ = post_fetch(std::move(fetch));
}

void DsmNode::validate(const std::vector<AccessDescriptor>& descs) {
  stats().validate_calls.add(1);

  std::vector<std::vector<PageId>> desc_pages(descs.size());
  std::vector<std::vector<PageId>> full_pages(descs.size());

  // Per-descriptor collection: computes the WRITE_ALL coverage split
  // (fully covered pages need no twin, and for kWriteAll no fetch either)
  // and appends the descriptor's invalid pages to `fetch`.  Pages already
  // named by an in-flight fetch — a cross-step prefetch posted at the last
  // barrier exit, or this call's own earlier round — are skipped: they
  // will be valid by the time anyone touches them, exactly as pages
  // fetched by an earlier round used to be.
  bool prefetch_used = false;
  auto collect_desc = [&](std::size_t i, std::vector<PageId>& fetch,
                          const PendingFetch* in_flight) {
    const AccessDescriptor& desc = descs[i];
    const bool wall = whole_section_write(desc.access) &&
                      config().write_all_enabled;
    std::optional<DenseRange> range = wall ? dense_range(desc) : std::nullopt;
    if (range) {
      for (const PageId page : desc_pages[i]) {
        if (page_fully_covered(page, *range, region_.page_size())) {
          full_pages[i].push_back(page);
        }
      }
    }

    for (const PageId page : desc_pages[i]) {
      if (pages_[page].state != PageState::kInvalid) continue;
      if (prefetch_.covers(page)) {
        prefetch_used = true;
        continue;
      }
      if (in_flight != nullptr && in_flight->covers(page)) continue;
      if (desc.access == Access::kWriteAll &&
          std::binary_search(full_pages[i].begin(), full_pages[i].end(),
                             page)) {
        // The executor rewrites the whole page: discard the pending
        // notices instead of fetching dead data.  No protection change:
        // Create_twins below makes the page writable.
        PageMeta& pm = pages_[page];
        pm.pending.clear();
        pm.state = PageState::kReadOnly;
        --invalid_pages_;
        continue;
      }
      fetch.push_back(page);
    }
  };

  auto finalize = [&](std::vector<PageId>& fetch) {
    std::sort(fetch.begin(), fetch.end());
    fetch.erase(std::unique(fetch.begin(), fetch.end()), fetch.end());
    // Re-check state: an earlier descriptor may have discarded the page
    // out of the fetch set (desc page lists overlap).
    std::erase_if(fetch, [&](PageId p) {
      return pages_[p].state != PageState::kInvalid;
    });
  };

  // DIRECT descriptors go on the wire first — and *only* on the wire:
  // their diff requests are posted split-phase, then serviced remotely
  // while this thread keeps working.  (On the inline fabric this thread
  // serves them itself inside post, one after another; socket and mesh
  // fabrics keep the overlap.)  (DIRECT before INDIRECT also lets a
  // program list the indirection array itself as a DIRECT READ descriptor
  // so that Read_indices scans locally valid pages instead of
  // demand-faulting them one at a time.)
  std::vector<PageId> direct_fetch;
  for (std::size_t i = 0; i < descs.size(); ++i) {
    if (descs[i].type != DescType::kDirect) continue;
    desc_pages[i] = direct_pages(descs[i]);
    collect_desc(i, direct_fetch, nullptr);
  }
  finalize(direct_fetch);
  stats().pages_prefetched.add(direct_fetch.size());
  PendingFetch pending = post_fetch(std::move(direct_fetch));

  // INDIRECT descriptors whose cached page set is still valid need no
  // Read_indices scan, so their fetch set is known right now.
  std::vector<std::size_t> stale;
  bool any_ready_fetch = false;
  std::vector<std::uint32_t> bumped;  // one stability bump per schedule
  for (std::size_t i = 0; i < descs.size(); ++i) {
    if (descs[i].type != DescType::kIndirect) continue;
    const auto it = schedules_.find(descs[i].schedule);
    if (it == schedules_.end() || !it->second.valid ||
        it->second.indirection_changed) {
      stale.push_back(i);
    } else {
      any_ready_fetch = true;
      if (policy_ != nullptr && std::find(bumped.begin(), bumped.end(),
                                          descs[i].schedule) == bumped.end()) {
        // Adaptive coherence: another validate epoch with the schedule's
        // indirection pages untouched.  A long enough run promotes the
        // schedule to a CHAOS-style ghost zone (see the steady-state scan
        // below); any indirection change demotes it via the recompute
        // branch.
        bumped.push_back(descs[i].schedule);
        ScheduleState& sch = it->second;
        ++sch.epochs_stable;
        if (!sch.ghost && sch.epochs_stable >= coherence::kGhostEpochs) {
          sch.ghost = true;
          stats().ghost_promotions.add(1);
        }
      }
    }
  }

  if (stale.empty()) {
    // Steady state (the common per-step Validate): every diff request —
    // direct and indirect — is posted before anything blocks; the
    // indirect planning below overlaps the direct requests' flight time,
    // and the waits land at first use, in Apply_diffs order.
    std::vector<PageId> ind_fetch;
    if (any_ready_fetch) {
      for (std::size_t i = 0; i < descs.size(); ++i) {
        if (descs[i].type != DescType::kIndirect) continue;
        ScheduleState& sch = schedules_[descs[i].schedule];
        if (policy_ != nullptr && sch.ghost && invalid_pages_ == 0 &&
            descs[i].access == Access::kRead) {
          // Ghost zone: the node holds zero invalid pages and the
          // descriptor only reads, so scanning the cached page set can
          // neither fetch nor twin anything — skip it entirely.
          continue;
        }
        desc_pages[i] = sch.pages;
        collect_desc(i, ind_fetch, &pending);
      }
      finalize(ind_fetch);
      stats().pages_prefetched.add(ind_fetch.size());
    }
    PendingFetch ind_pending = post_fetch(std::move(ind_fetch));
    if (prefetch_used) consume_prefetch();  // posted earliest, waited first
    complete_fetch(std::move(pending));
    complete_fetch(std::move(ind_pending));
  } else {
    // Some schedule was modified: Read_indices must run, and it may touch
    // pages the direct round is fetching, so the in-flight requests are
    // consumed here (their first use).  The stale schedules' page sets
    // are only known after the scans; their fetch goes out as one
    // aggregated round, exactly as before.
    consume_prefetch();
    complete_fetch(std::move(pending));
    std::vector<PageId> fetch;
    for (std::size_t i = 0; i < descs.size(); ++i) {
      const AccessDescriptor& desc = descs[i];
      if (desc.type != DescType::kIndirect) continue;
      ScheduleState& sch = schedules_[desc.schedule];
      if (!sch.valid || sch.indirection_changed) {
        // modified(section) returned true: recompute pages[sch] and
        // re-write-protect the indirection array.
        stats().validate_recomputes.add(1);
        sch.pages = read_indices(desc);
        watch_indirection_pages(desc, desc.schedule);
        sch.valid = true;
        sch.indirection_changed = false;
        sch.epochs_stable = 0;  // demote: stability restarts after a rebuild
        sch.ghost = false;
      }
      desc_pages[i] = sch.pages;
      collect_desc(i, fetch, nullptr);
    }
    finalize(fetch);
    if (!fetch.empty()) {
      stats().pages_prefetched.add(fetch.size());
      fetch_pages(fetch);
    }
  }

  // Create_twins: preemptive write preparation, eliminating both the write
  // fault and (for whole-section writes) the twin copy.  Protection
  // upgrades are batched: one mprotect per run of contiguous pages.
  // Declaring a write through Validate must behave like performing one: a
  // watched indirection-array page flags its schedules here, because the
  // protection upgrade below means the write itself will never trap (the
  // modified(section) check of Figure 3 would otherwise miss rebuilds that
  // rewrite the index array under a WRITE_ALL descriptor).
  std::vector<PageId> writable;
  for (std::size_t i = 0; i < descs.size(); ++i) {
    const AccessDescriptor& desc = descs[i];
    if (!writes(desc.access)) continue;
    for (const PageId page : desc_pages[i]) {
      PageMeta& pm = pages_[page];
      if (!pm.watchers.empty()) {
        notice_watched_page(page);
        pm.watchers.clear();
      }
      const bool whole =
          whole_section_write(desc.access) &&
          std::binary_search(full_pages[i].begin(), full_pages[i].end(), page);
      pre_twin(page, whole);
      writable.push_back(page);
    }
  }
  set_prot_batch(std::move(writable), vm::Prot::kReadWrite);
}

}  // namespace sdsm::core
