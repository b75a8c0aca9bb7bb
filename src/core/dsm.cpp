// Core protocol paths of the DSM node: fault handling, demand fetch,
// aggregated fetch, twin management, interval lifecycle, and the runtime
// scaffolding.  Synchronization (locks/barriers) lives in sync.cpp, the
// Validate front door in validate.cpp.
#include "src/core/dsm.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <span>

#include "src/common/timer.hpp"

namespace sdsm::core {

namespace {

/// Debug tracing of one page's protocol events, enabled by setting the
/// SDSM_TRACE_PAGE environment variable to the page id.
std::int64_t trace_page() {
  static const std::int64_t page = [] {
    const char* env = std::getenv("SDSM_TRACE_PAGE");
    return env != nullptr ? std::atoll(env) : -1;
  }();
  return page;
}
#define SDSM_TRACE(pg, ...)                                         do {                                                                if (static_cast<std::int64_t>(pg) == trace_page()) {                std::fprintf(stderr, "[trace n%u] ", id_);                        std::fprintf(stderr, __VA_ARGS__);                                std::fprintf(stderr, "\n");                                     }                                                               } while (0)

/// Key of one interval's diff of one page: page (24 bits) | creator
/// (8 bits) | seq (32 bits).
std::uint64_t diff_key(PageId page, NodeId creator, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(page) << 40) |
         (static_cast<std::uint64_t>(creator) << 32) | seq;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

DsmNode::DsmNode(DsmRuntime& rt, NodeId id)
    : rt_(rt),
      id_(id),
      region_(rt.config().region_bytes, vm::Prot::kRead,
              rt.config().arena_base),
      vc_(rt.config().num_nodes),
      applied_vc_(rt.config().num_nodes),
      table_(rt.config().num_nodes),
      last_seen_vc_(rt.config().num_nodes,
                    VectorClock(rt.config().num_nodes)) {
  if (rt.config().coherence == coherence::CoherencePolicy::kAdaptive) {
    policy_ = std::make_unique<coherence::PolicyEngine>();
  }
  vm::FaultDispatcher::instance().register_region(
      region_.base(), region_.size(),
      [this](void* addr, vm::FaultAccess access) { handle_fault(addr, access); });
  service_thread_ = std::thread([this] { service_loop(); });
}

DsmNode::~DsmNode() {
  SDSM_ASSERT(!service_thread_.joinable());  // runtime joins before destruction
  // No prefetch ticket may outlive its run: DsmRuntime::run drains any the
  // body left in flight (early exit between barrier and next validate).
  SDSM_ASSERT(prefetch_.empty());
  vm::FaultDispatcher::instance().unregister_region(region_.base());
}

std::uint32_t DsmNode::num_nodes() const { return rt_.config().num_nodes; }
DsmStats& DsmNode::stats() { return rt_.stats_; }
const DsmConfig& DsmNode::config() const { return rt_.config(); }

// ---------------------------------------------------------------------------
// Fault handling (compute thread, inside SIGSEGV)
// ---------------------------------------------------------------------------

void DsmNode::handle_fault(void* addr, vm::FaultAccess access) {
  const PageId page = region_.page_of(addr);
  // Region pages above the heap have no metadata and stay read-only, so
  // only a stray write lands here.
  SDSM_REQUIRE_MSG(page < pages_.size(), "access outside the shared heap");
  PageMeta& pm = pages_[page];

  // First use of a cross-step-prefetched page: the diff requests are
  // already on the wire, so completing them here replaces the demand
  // round trip a cold fault would pay.  As with a cold invalid-page
  // fault, anything but a known write is done once the page is valid (an
  // actual write simply faults once more and lands in the write path).
  if (pm.state == PageState::kInvalid && prefetch_.covers(page)) {
    stats().read_faults.add(1);
    consume_prefetch();
    if (access != vm::FaultAccess::kWrite) return;
  }

  // When the architecture did not expose the access type, a fault on a
  // valid page can only be a write; a fault on an invalid page is treated
  // as a read (an actual write simply faults once more, then lands here
  // with the page valid).
  const bool is_write =
      access == vm::FaultAccess::kWrite ||
      (access == vm::FaultAccess::kUnknown && pm.state != PageState::kInvalid);

  if (pm.state == PageState::kInvalid) {
    stats().read_faults.add(1);
    fetch_one_page(page);
    if (!is_write) return;
  }

  if (!is_write) {
    std::fprintf(stderr,
                 "sdsm: unexpected read fault: node=%u page=%u state=%d "
                 "dirty=%d pending=%zu watchers=%zu access=%d\n",
                 id_, page, static_cast<int>(pm.state), pm.dirty ? 1 : 0,
                 pm.pending.size(), pm.watchers.size(),
                 static_cast<int>(access));
  }
  SDSM_ASSERT(is_write);

  if (!pm.watchers.empty()) {
    // A local write to a watched indirection-array page: flag the schedules
    // and stop watching until the next Validate re-protects it.
    notice_watched_page(page);
    pm.watchers.clear();
    if (pm.state == PageState::kReadWrite) {
      // Page was dirty when Validate downgraded it; just restore access.
      set_prot(page, vm::Prot::kReadWrite);
      return;
    }
  }

  stats().write_faults.add(1);
  pre_twin(page, /*whole_page_mode=*/false);
  set_prot(page, vm::Prot::kReadWrite);
}

// ---------------------------------------------------------------------------
// Fetch paths
// ---------------------------------------------------------------------------

void DsmNode::fetch_one_page(PageId page) { fetch_pages({page}); }

void DsmNode::set_prot(PageId page, vm::Prot prot) {
  PageMeta& pm = pages_[page];
  if (pm.prot == prot) return;
  region_.protect(page, 1, prot);
  pm.prot = prot;
  stats().mprotect_calls.add(1);
}

void DsmNode::set_prot_batch(std::vector<PageId> pages, vm::Prot prot) {
  std::erase_if(pages, [&](PageId p) { return pages_[p].prot == prot; });
  if (pages.empty()) return;
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  for (const PageId p : pages) pages_[p].prot = prot;
  region_.protect_pages(pages, prot);
  std::size_t runs = 1;
  for (std::size_t i = 1; i < pages.size(); ++i) {
    if (pages[i] != pages[i - 1] + 1) ++runs;
  }
  stats().mprotect_calls.add(runs);
}

std::map<NodeId, std::vector<DsmNode::FetchItem>> DsmNode::plan_fetch(
    const std::vector<PageId>& pages) {
  std::map<NodeId, std::vector<FetchItem>> plan;
  std::lock_guard<std::mutex> g(meta_mu_);

  for (const PageId page : pages) {
    PageMeta& pm = pages_[page];
    SDSM_ASSERT(pm.state == PageState::kInvalid);
    SDSM_ASSERT(!pm.pending.empty());

    // Sort the pending notices into an HB-consistent total order.
    std::vector<PendingNotice> order = pm.pending;
    std::sort(order.begin(), order.end(),
              [&](const PendingNotice& a, const PendingNotice& b) {
                const auto& ma = table_[a.ival.node].get(a.ival.seq);
                const auto& mb = table_[b.ival.node].get(b.ival.seq);
                return order_key(ma) < order_key(mb);
              });

    // Whole-page supersede rule: any pending interval that happened before
    // a pending WRITE_ALL interval is dead — the whole-page rewrite covers
    // every byte it touched (concurrent intervals touch disjoint bytes
    // under the data-race-free contract, so they survive).  This is also
    // exactly what every intermediate writer discarded, which keeps the
    // most-recent-modifier holder guarantee below sound.
    const auto meta_of = [&](const PendingNotice& pn) -> const IntervalMeta& {
      return table_[pn.ival.node].get(pn.ival.seq);
    };
    std::vector<PendingNotice> kept;
    kept.reserve(order.size());
    for (const PendingNotice& cand : order) {
      bool dead = false;
      for (const PendingNotice& w : order) {
        if (!w.whole_page || w.ival == cand.ival) continue;
        if (meta_of(w).vc.dominates(meta_of(cand).vc)) {
          dead = true;
          break;
        }
      }
      if (!dead) kept.push_back(cand);
    }
    SDSM_ASSERT(!kept.empty());

    // Most-recent-modifier assignment: find the maximal (undominated)
    // intervals; each maximal element is requested from its own creator,
    // and every dominated interval from the first maximal writer that
    // covers it — that writer applied (and cached) the interval's diff
    // before its own write, so one message pulls the whole stack.
    const std::size_t n = kept.size();
    std::vector<std::size_t> maximal;
    for (std::size_t i = 0; i < n; ++i) {
      bool dominated = false;
      for (std::size_t j = 0; j < n && !dominated; ++j) {
        if (j == i) continue;
        dominated = meta_of(kept[j]).vc.dominates(meta_of(kept[i]).vc);
      }
      if (!dominated) maximal.push_back(i);
    }
    SDSM_ASSERT(!maximal.empty());

    const auto add_to = [&](NodeId target, IntervalId ival) {
      auto& items = plan[target];
      if (items.empty() || items.back().page != page) {
        items.push_back(FetchItem{page, {}});
      }
      items.back().ivals.push_back(ival);
    };

    for (std::size_t i = 0; i < n; ++i) {
      NodeId target = kept[i].ival.node;  // fallback: its own creator
      for (const std::size_t m : maximal) {
        if (m == i) break;  // i is itself maximal
        if (meta_of(kept[m]).vc.dominates(meta_of(kept[i]).vc)) {
          target = kept[m].ival.node;
          break;
        }
      }
      SDSM_ASSERT(target != id_);
      SDSM_TRACE(page, "plan ival=(%u,%u) target=%u whole=%d", kept[i].ival.node,
                 kept[i].ival.seq, target, kept[i].whole_page ? 1 : 0);
      add_to(target, kept[i].ival);
    }
  }
  return plan;
}

void DsmNode::fetch_pages(const std::vector<PageId>& pages) {
  std::vector<PageId> sorted(pages);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  complete_fetch(post_fetch(std::move(sorted)));
}

net::Ticket DsmNode::post_get_diffs(NodeId target,
                                    const std::vector<FetchItem>& items) {
  Writer w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(items.size()));
  for (const FetchItem& it : items) {
    w.put<std::uint32_t>(it.page);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(it.ivals.size()));
    for (const IntervalId ival : it.ivals) {
      w.put<std::uint32_t>(ival.node);
      w.put<std::uint32_t>(ival.seq);
    }
  }
  net::Message msg;
  msg.type = kGetDiffs;
  msg.src = id_;
  msg.dst = target;
  msg.payload = w.take();
  return rt_.net_->post(std::move(msg));
}

DsmNode::PendingFetch DsmNode::post_fetch(std::vector<PageId> pages) {
  PendingFetch pf;
  if (pages.empty()) return pf;
  const Timer phase;
  pf.pages = std::move(pages);
  // One aggregated request per target node, each on the wire as soon as
  // it is planned.
  auto plan = plan_fetch(pf.pages);
  pf.tickets.reserve(plan.size());
  for (const auto& [target, items] : plan) {
    pf.tickets.push_back(post_get_diffs(target, items));
  }
  pf.plan_ns = static_cast<std::uint64_t>(phase.elapsed_s() * 1e9);
  return pf;
}

void DsmNode::complete_fetch(PendingFetch pf) {
  if (pf.empty()) return;
  const Timer phase;

  // Collect contributions from all replies.
  struct Contribution {
    IntervalId ival;
    std::vector<Diff> diffs;
  };
  std::map<PageId, std::vector<Contribution>> got;
  std::map<NodeId, std::vector<FetchItem>> retry;  // misses -> creators
  const Timer wait_timer;
  const auto drain_replies = [&](std::span<const net::Ticket> tickets,
                                 bool allow_miss) {
    for (net::Message& reply : rt_.net_->wait_all(tickets)) {
      SDSM_ASSERT(reply.type == kDiffsReply);
      Reader r(reply.payload);
      const auto npages = r.get<std::uint32_t>();
      for (std::uint32_t p = 0; p < npages; ++p) {
        const auto page = r.get<std::uint32_t>();
        SDSM_REQUIRE_MSG(page < pages_.size(),
                         "diff reply outside the shared heap");
        const auto nivals = r.get<std::uint32_t>();
        for (std::uint32_t s = 0; s < nivals; ++s) {
          Contribution c;
          const auto node = r.get<std::uint32_t>();
          c.ival =
              IntervalId{static_cast<NodeId>(node), r.get<std::uint32_t>()};
          const auto ndiffs = r.get<std::uint32_t>();
          if (ndiffs == 0xffffffffu) {
            // Holder miss (see serve_get_diffs): fall back to the creator,
            // which cannot miss its own diffs.
            SDSM_ASSERT(allow_miss);
            SDSM_ASSERT(c.ival.node != id_ && c.ival.node != reply.src);
            auto& items = retry[c.ival.node];
            if (items.empty() || items.back().page != page) {
              items.push_back(FetchItem{page, {}});
            }
            items.back().ivals.push_back(c.ival);
            continue;
          }
          // No reserve(ndiffs): the count is off the wire.
          for (std::uint32_t d = 0; d < ndiffs; ++d) {
            c.diffs.push_back(Diff::from_bytes(r.get_vector<std::uint8_t>()));
          }
          got[page].push_back(std::move(c));
        }
      }
    }
  };
  drain_replies(pf.tickets, /*allow_miss=*/true);
  if (!retry.empty()) {
    std::vector<net::Ticket> retry_tickets;
    retry_tickets.reserve(retry.size());
    for (const auto& [target, items] : retry) {
      retry_tickets.push_back(post_get_diffs(target, items));
    }
    drain_replies(retry_tickets, /*allow_miss=*/false);
  }

  stats().t_wait_ns.add(static_cast<std::uint64_t>(wait_timer.elapsed_s() * 1e9));

  // Sort each page's contributions into HB order.  Only the interval-table
  // reads need meta_mu_; the byte work below runs without it so this node's
  // service thread stays responsive to other nodes' requests.
  {
    std::lock_guard<std::mutex> g(meta_mu_);
    for (auto& [page, contribs] : got) {
      std::sort(contribs.begin(), contribs.end(),
                [&](const Contribution& a, const Contribution& b) {
                  const auto& ma = table_[a.ival.node].get(a.ival.seq);
                  const auto& mb = table_[b.ival.node].get(b.ival.seq);
                  return order_key(ma) < order_key(mb);
                });
    }
  }

  // Apply in HB order per page; patch dirty pages' twins as well so later
  // local diffs do not re-ship remote bytes.  Diffs land through the
  // always-writable mirror view: no protection flip is needed to apply.
  const Timer apply_timer;
  std::vector<PageId> to_read, to_rw;
  for (auto& [page, contribs] : got) {
    PageMeta& pm = pages_[page];
    std::span<std::byte> data(region_.mirror_ptr(page), region_.page_size());
    for (const Contribution& c : contribs) {
      for (const Diff& d : c.diffs) {
        SDSM_TRACE(page, "apply ival=(%u,%u) bytes=%zu dirty=%d", c.ival.node,
                   c.ival.seq, d.encoded_size(), pm.dirty ? 1 : 0);
        d.apply(data);
        if (pm.dirty && pm.twin) {
          d.apply(std::span<std::byte>(pm.twin.get(), region_.page_size()));
        }
        stats().diffs_applied.add(1);
      }
    }
    pm.pending.clear();
    if (pm.state == PageState::kInvalid) --invalid_pages_;
    if (pm.dirty) {
      pm.state = PageState::kReadWrite;  // restore write access
      to_rw.push_back(page);
    } else {
      pm.state = PageState::kReadOnly;
      to_read.push_back(page);
    }
  }
  stats().diff_apply_ns.add(
      static_cast<std::uint64_t>(apply_timer.elapsed_s() * 1e9));
  set_prot_batch(std::move(to_read), vm::Prot::kRead);
  set_prot_batch(std::move(to_rw), vm::Prot::kReadWrite);

  // Cache the applied diffs: this node is now a holder and can serve the
  // stacks to later requesters (most-recent-modifier fetching).
  {
    std::lock_guard<std::mutex> g(meta_mu_);
    for (auto& [page, contribs] : got) {
      for (Contribution& c : contribs) {
        for (const Diff& d : c.diffs) diff_store_bytes_ += d.encoded_size();
        diff_store_[diff_key(page, c.ival.node, c.ival.seq)] =
            std::move(c.diffs);
      }
    }
  }

  stats().t_fetch_ns.add(pf.plan_ns +
                         static_cast<std::uint64_t>(phase.elapsed_s() * 1e9));

  // Pages whose every pending interval was superseded out of the plan can
  // still be sitting invalid with pending notices that nobody will send:
  // that only happens when the *entire* page plan collapsed, which the
  // supersede rule never produces (it always keeps at least the whole-page
  // interval itself).  Assert the invariant.
  for (const PageId page : pf.pages) {
    SDSM_ASSERT(pages_[page].state != PageState::kInvalid);
  }
}

// ---------------------------------------------------------------------------
// Twins and intervals
// ---------------------------------------------------------------------------

void DsmNode::pre_twin(PageId page, bool whole_page_mode) {
  PageMeta& pm = pages_[page];
  SDSM_ASSERT(pm.state != PageState::kInvalid);
  if (pm.dirty) {
    // Already twinned in this interval; nothing to set up.
    pm.state = PageState::kReadWrite;
    return;
  }
  if (whole_page_mode && config().write_all_enabled) {
    pm.write_all = true;
  } else {
    pm.twin = std::make_unique<std::byte[]>(region_.page_size());
    std::memcpy(pm.twin.get(), region_.mirror_ptr(page), region_.page_size());
    stats().twins_created.add(1);
  }
  pm.dirty = true;
  pm.state = PageState::kReadWrite;
  dirty_pages_.push_back(page);
}

std::optional<IntervalMeta> DsmNode::close_interval() {
  if (dirty_pages_.empty()) return std::nullopt;
  const Timer phase;

  const std::uint32_t seq = vc_.get(id_) + 1;
  IntervalMeta meta;
  meta.id = IntervalId{id_, seq};

  // Phase 1 (no lock): encode the diffs.  Twins and page bytes are
  // compute-thread-private; only the diff store and table need meta_mu_,
  // and keeping the encode outside it keeps the service thread responsive.
  struct Encoded {
    PageId page;
    Diff diff;
    bool whole;
  };
  std::vector<Encoded> encoded;
  std::vector<PageId> banked_only;  // early-diff pages (mods already stored)
  std::vector<PageId> downgrade;
  downgrade.reserve(dirty_pages_.size());
  const Timer create_timer;
  for (const PageId page : dirty_pages_) {
    PageMeta& pm = pages_[page];
    SDSM_ASSERT(pm.dirty);
    if (pm.state == PageState::kInvalid) {
      // Early-diff path: an acquire invalidated this dirty page mid-interval
      // and banked its modifications under this interval's key at that
      // moment.  The page is PROT_NONE, and it has no newer local writes by
      // construction — any write after the invalidation would have
      // re-validated it first.
      banked_only.push_back(page);
      pm.twin.reset();
      pm.dirty = false;
      pm.write_all = false;
      continue;
    }
    std::span<const std::byte> data(region_.mirror_ptr(page),
                                    region_.page_size());
    if (pm.write_all) {
      encoded.push_back(Encoded{page, Diff::whole(data), true});
    } else {
      Diff d = Diff::create(
          data, std::span<const std::byte>(pm.twin.get(), region_.page_size()));
      if (!d.empty()) {
        encoded.push_back(Encoded{page, std::move(d), false});
      } else {
        banked_only.push_back(page);  // counts only if previously banked
      }
    }
    pm.twin.reset();
    pm.dirty = false;
    pm.write_all = false;
    if (pm.state == PageState::kReadWrite) {
      pm.state = PageState::kReadOnly;
      downgrade.push_back(page);
    }
  }
  stats().diff_create_ns.add(
      static_cast<std::uint64_t>(create_timer.elapsed_s() * 1e9));
  set_prot_batch(std::move(downgrade), vm::Prot::kRead);
  dirty_pages_.clear();

  // Phase 2 (locked): bank the diffs and publish the interval.
  std::lock_guard<std::mutex> g(meta_mu_);
  for (Encoded& e : encoded) {
    SDSM_TRACE(e.page, "close seq=%u encoded=%zu whole=%d", seq,
               e.diff.encoded_size(), e.whole ? 1 : 0);
    WriteNotice wn;
    wn.page = e.page;
    wn.whole_page = e.whole;
    if (policy_) {
      // Adaptive coherence: publish the diff size for the write census,
      // and for replicated pages push the encoded diff inside the notice
      // itself so readers skip the fetch round trip entirely.
      wn.diff_bytes = static_cast<std::uint32_t>(e.diff.encoded_size());
      if (policy_->should_inline(e.page)) {
        wn.inline_diff = e.diff.bytes();
        stats().replications.add(1);
      }
      policy_->fold_write(e.page, id_, wn.diff_bytes);
    }
    diff_store_bytes_ += e.diff.encoded_size();
    diff_store_[diff_key(e.page, id_, seq)].push_back(std::move(e.diff));
    stats().diffs_created.add(1);
    meta.notices.push_back(std::move(wn));
  }
  for (const PageId page : banked_only) {
    SDSM_TRACE(page, "close banked seq=%u have=%d", seq,
               diff_store_.count(diff_key(page, id_, seq)) != 0 ? 1 : 0);
    if (diff_store_.count(diff_key(page, id_, seq)) != 0) {
      // The early-diff path (acquire-time invalidation of a dirty page)
      // already banked modifications for this interval.
      WriteNotice banked;
      banked.page = page;
      meta.notices.push_back(std::move(banked));
    }
  }
  if (meta.notices.empty()) return std::nullopt;

  vc_.bump(id_);
  SDSM_ASSERT(vc_.get(id_) == seq);
  meta.vc = vc_;
  SDSM_ASSERT(table_[id_].max_seq() == seq - 1);
  table_[id_].push(meta);
  stats().t_close_ns.add(static_cast<std::uint64_t>(phase.elapsed_s() * 1e9));
  return meta;
}

void DsmNode::process_metas(std::vector<IntervalMeta> metas) {
  if (metas.empty()) return;
  const Timer phase;
  {
    std::lock_guard<std::mutex> g(meta_mu_);
    insert_metas_locked(metas);
  }
  // Apply notices in per-creator seq order; skip own intervals and metas
  // whose notices were already applied at an earlier acquire.
  std::sort(metas.begin(), metas.end(),
            [](const IntervalMeta& a, const IntervalMeta& b) {
              return std::tie(a.id.node, a.id.seq) <
                     std::tie(b.id.node, b.id.seq);
            });
  const std::uint32_t my_open_seq = vc_.get(id_) + 1;
  std::vector<PageId> invalidate;
  std::vector<PageId> touched;  // adaptive: candidates for eager apply
  for (IntervalMeta& m : metas) {
    if (m.id.node == id_) continue;
    if (m.id.seq <= applied_vc_.get(m.id.node)) continue;
    SDSM_ASSERT(m.id.seq == applied_vc_.get(m.id.node) + 1);
    applied_vc_.set(m.id.node, m.id.seq);
    for (WriteNotice& wn : m.notices) {
      // Decoded from a peer's message (a socket in process mode).
      SDSM_REQUIRE_MSG(wn.page < pages_.size(),
                       "write notice outside the shared heap");
      PageMeta& pm = pages_[wn.page];
      if (!pm.watchers.empty()) notice_watched_page(wn.page);
      if (policy_) {
        // Census fold happens exactly once per (page, creator, seq) — the
        // applied_vc_ guard above — and, because every node folds a
        // barrier's intervals before the next policy tick, at the same
        // epoch everywhere.
        policy_->fold_write(wn.page, m.id.node, wn.diff_bytes);
        touched.push_back(wn.page);
      }
      pm.pending.push_back(
          PendingNotice{m.id, wn.whole_page, std::move(wn.inline_diff)});
      SDSM_TRACE(wn.page, "notice ival=(%u,%u) state=%d dirty=%d", m.id.node,
                 m.id.seq, static_cast<int>(pm.state), pm.dirty ? 1 : 0);
      if (pm.state == PageState::kInvalid) continue;
      if (pm.dirty) {
        // Acquire-time invalidation of a locally dirty page (false
        // sharing under locks): bank the local modifications now so the
        // remote diffs can merge underneath them later.
        SDSM_ASSERT(!pm.write_all);  // WRITE_ALL pages are barrier-ordered
        const Timer create_timer;
        std::span<const std::byte> data(region_.page_ptr(wn.page),
                                        region_.page_size());
        Diff d = Diff::create(data,
                              std::span<const std::byte>(pm.twin.get(),
                                                         region_.page_size()));
        stats().diff_create_ns.add(
            static_cast<std::uint64_t>(create_timer.elapsed_s() * 1e9));
        SDSM_TRACE(wn.page, "early-diff open_seq=%u bytes=%zu", my_open_seq,
                   d.encoded_size());
        if (!d.empty()) {
          std::lock_guard<std::mutex> g(meta_mu_);
          diff_store_bytes_ += d.encoded_size();
          diff_store_[diff_key(wn.page, id_, my_open_seq)].push_back(std::move(d));
          stats().diffs_created.add(1);
        }
        std::memcpy(pm.twin.get(), region_.page_ptr(wn.page),
                    region_.page_size());
      }
      pm.state = PageState::kInvalid;
      ++invalid_pages_;
      invalidate.push_back(wn.page);
      stats().pages_invalidated.add(1);
    }
  }
  set_prot_batch(std::move(invalidate), vm::Prot::kNone);
  if (policy_ && !touched.empty()) eager_apply_inline(std::move(touched));
  stats().t_metas_ns.add(static_cast<std::uint64_t>(phase.elapsed_s() * 1e9));
}

void DsmNode::eager_apply_inline(std::vector<PageId> pages) {
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

  // Pass 1 (locked, interval-table reads): keep only pages whose entire
  // pending stack arrived with inline diffs, and sort each stack into HB
  // order.  Mixed stacks — older notices predate the page's classification
  // — go through the normal fetch path untouched.
  std::vector<PageId> ready;
  {
    std::lock_guard<std::mutex> g(meta_mu_);
    for (const PageId page : pages) {
      PageMeta& pm = pages_[page];
      if (pm.state != PageState::kInvalid || pm.pending.empty()) continue;
      const bool all_inline =
          std::all_of(pm.pending.begin(), pm.pending.end(),
                      [](const PendingNotice& pn) {
                        return !pn.inline_diff.empty();
                      });
      if (!all_inline) continue;
      // Adaptive runs are barrier-only, and the local interval closed
      // before the arrival that delivered these notices, so the page
      // cannot be locally dirty here.
      SDSM_ASSERT(!pm.dirty);
      std::sort(pm.pending.begin(), pm.pending.end(),
                [&](const PendingNotice& a, const PendingNotice& b) {
                  return order_key(table_[a.ival.node].get(a.ival.seq)) <
                         order_key(table_[b.ival.node].get(b.ival.seq));
                });
      ready.push_back(page);
    }
  }
  if (ready.empty()) return;

  // Pass 2 (no lock): apply through the always-writable mirror, exactly
  // like complete_fetch.  A whole-page diff anywhere in the stack simply
  // overwrites what earlier entries wrote; entries HB-after it are
  // disjoint from it under the data-race-free contract.
  const Timer apply_timer;
  std::vector<PageId> to_read;
  to_read.reserve(ready.size());
  for (const PageId page : ready) {
    PageMeta& pm = pages_[page];
    std::span<std::byte> data(region_.mirror_ptr(page), region_.page_size());
    for (const PendingNotice& pn : pm.pending) {
      const Diff d = Diff::from_bytes(pn.inline_diff);
      d.apply(data);
      stats().diffs_applied.add(1);
    }
    pm.state = PageState::kReadOnly;
    --invalid_pages_;
    to_read.push_back(page);
  }
  stats().diff_apply_ns.add(
      static_cast<std::uint64_t>(apply_timer.elapsed_s() * 1e9));
  set_prot_batch(std::move(to_read), vm::Prot::kRead);

  // Pass 3 (locked): cache the applied diffs — this node is now a holder
  // for these stacks (most-recent-modifier fetching), same as after a
  // demand fetch.  The caching completes before this node's next barrier
  // arrival, so no peer can learn an interval that makes this node a
  // fetch target before the bytes are servable.
  std::lock_guard<std::mutex> g(meta_mu_);
  for (const PageId page : ready) {
    PageMeta& pm = pages_[page];
    for (PendingNotice& pn : pm.pending) {
      Diff d = Diff::from_bytes(std::move(pn.inline_diff));
      diff_store_bytes_ += d.encoded_size();
      diff_store_[diff_key(page, pn.ival.node, pn.ival.seq)].push_back(
          std::move(d));
    }
    pm.pending.clear();
  }
}

void DsmNode::flush_all_pending() {
  std::vector<PageId> pages;
  for (PageId p = 0; p < pages_.size(); ++p) {
    if (!pages_[p].pending.empty()) pages.push_back(p);
  }
  stats().gc_pages_flushed.add(pages.size());
  fetch_pages(pages);
}

void DsmNode::gc_drop() {
  std::lock_guard<std::mutex> g(meta_mu_);
  for (NodeId n = 0; n < num_nodes(); ++n) {
    // The preceding barrier shipped every interval up to the global clock,
    // so dropping that prefix cannot orphan a future lookup.  The table may
    // already hold *newer* metas — a fast peer can leave the GC rendezvous,
    // create intervals, and push them to this node's service thread before
    // this compute thread reaches gc_drop — so only the covered prefix is
    // dropped.
    SDSM_ASSERT(table_[n].max_seq() >= vc_.get(n));
    table_[n].drop_through(vc_.get(n));
  }
  diff_store_.clear();
  diff_store_bytes_ = 0;
  stats().gc_runs.add(1);
}

void DsmNode::insert_metas_locked(const std::vector<IntervalMeta>& metas) {
  // Per-creator seq order so the dense per-creator vectors stay contiguous.
  std::vector<const IntervalMeta*> ordered;
  ordered.reserve(metas.size());
  for (const auto& m : metas) ordered.push_back(&m);
  std::sort(ordered.begin(), ordered.end(),
            [](const IntervalMeta* a, const IntervalMeta* b) {
              return std::tie(a->id.node, a->id.seq) <
                     std::tie(b->id.node, b->id.seq);
            });
  for (const IntervalMeta* m : ordered) {
    auto& log = table_[m->id.node];
    if (m->id.seq <= log.max_seq()) continue;  // duplicate
    SDSM_ASSERT(m->id.seq == log.max_seq() + 1);  // senders never leave gaps
    log.push(*m);
  }
}

std::vector<IntervalMeta> DsmNode::metas_not_covered_locked(
    const VectorClock& bound) {
  std::vector<IntervalMeta> out;
  for (NodeId n = 0; n < num_nodes(); ++n) {
    const auto& log = table_[n];
    for (std::uint32_t s = std::max(bound.get(n), log.base) + 1;
         s <= log.max_seq(); ++s) {
      out.push_back(log.get(s));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Service side
// ---------------------------------------------------------------------------

void DsmNode::service_loop() {
  for (;;) {
    net::Message msg = rt_.net_->recv(net::Port::kService, id_);
    switch (msg.type) {
      case net::kControlStop:
        return;
      case net::kControlSync:
        serve_control_sync(msg);
        break;
      case kGetDiffs:
        serve_get_diffs(msg);
        break;
      case kLockAcquire:
        serve_lock_acquire(msg);
        break;
      case kLockRelease:
        serve_lock_release(msg);
        break;
      case kBarrierArrive:
        serve_barrier_arrive(msg);
        break;
      case kAppData: {
        std::lock_guard<std::mutex> g(inbox_mu_);
        inbox_.emplace_back(msg.src, std::move(msg.payload));
        inbox_cv_.notify_one();
        break;
      }
      default:
        SDSM_UNREACHABLE("unexpected message type on service port");
    }
  }
}

void DsmNode::send_app_data(NodeId dst, std::vector<std::uint8_t> payload) {
  SDSM_ASSERT(dst != id_);
  net::Message msg;
  msg.type = kAppData;
  msg.src = id_;
  msg.dst = dst;
  msg.payload = std::move(payload);
  rt_.net_->send(net::Port::kService, std::move(msg));
}

std::pair<NodeId, std::vector<std::uint8_t>> DsmNode::recv_app_data() {
  std::unique_lock<std::mutex> g(inbox_mu_);
  inbox_cv_.wait(g, [this] { return !inbox_.empty(); });
  auto front = std::move(inbox_.front());
  inbox_.pop_front();
  return front;
}

void DsmNode::serve_get_diffs(const net::Message& msg) {
  Reader r(msg.payload);
  Writer w;
  const auto npages = r.get<std::uint32_t>();
  w.put<std::uint32_t>(npages);
  {
    std::lock_guard<std::mutex> g(meta_mu_);
    for (std::uint32_t p = 0; p < npages; ++p) {
      const auto page = r.get<std::uint32_t>();
      const auto nivals = r.get<std::uint32_t>();
      w.put<std::uint32_t>(page);
      w.put<std::uint32_t>(nivals);
      for (std::uint32_t k = 0; k < nivals; ++k) {
        const auto node = r.get<std::uint32_t>();
        const auto seq = r.get<std::uint32_t>();
        // Usually our own diff or one we applied and cached (the most-
        // recent-modifier rule).  One legitimate miss exists: we modified
        // the page, then an acquire delivered this interval's notice while
        // our copy was dirty (early-diff banking) and we never touched the
        // page again before closing — our interval covers the notice by
        // vector clock, yet its diff is still pending here.  Report the
        // miss; the requester falls back to the interval's creator.
        const auto it =
            diff_store_.find(diff_key(page, static_cast<NodeId>(node), seq));
        w.put<std::uint32_t>(node);
        w.put<std::uint32_t>(seq);
        if (it == diff_store_.end()) {
          SDSM_ASSERT(static_cast<NodeId>(node) != id_);  // own diffs exist
          w.put<std::uint32_t>(0xffffffffu);  // miss marker
          continue;
        }
        w.put<std::uint32_t>(static_cast<std::uint32_t>(it->second.size()));
        for (const Diff& d : it->second) {
          w.put_span<std::uint8_t>(d.bytes());
          stats().diff_bytes.add(d.encoded_size());
          if (d.is_whole(region_.page_size())) stats().whole_pages.add(1);
        }
      }
    }
  }
  net::Message reply;
  reply.type = kDiffsReply;
  reply.src = id_;
  reply.dst = msg.src;
  reply.request_id = msg.request_id;
  reply.payload = w.take();
  rt_.net_->send(net::Port::kReply, std::move(reply));
}

// ---------------------------------------------------------------------------
// DsmRuntime
// ---------------------------------------------------------------------------

DsmRuntime::DsmRuntime(DsmConfig config)
    : config_(config),
      net_(net::make_transport(config.transport, config.num_nodes,
                               config.wire)),
      heap_(config.region_bytes, vm::system_page_size()) {
  SDSM_REQUIRE(config.num_nodes >= 1);
  SDSM_REQUIRE_MSG(config.mode == DeployMode::kThreads,
                   "DsmRuntime: process mode needs the transport ctor");
  nodes_.reserve(config.num_nodes);
  for (NodeId n = 0; n < config.num_nodes; ++n) {
    nodes_.push_back(std::make_unique<DsmNode>(*this, n));
    local_ids_.push_back(n);
  }
}

DsmRuntime::DsmRuntime(DsmConfig config,
                       std::unique_ptr<net::Transport> transport)
    : config_(config),
      net_(std::move(transport)),
      heap_(config.region_bytes, vm::system_page_size()) {
  SDSM_REQUIRE(config.num_nodes >= 1);
  SDSM_REQUIRE_MSG(config.mode == DeployMode::kProcesses,
                   "DsmRuntime: transport ctor is for process mode");
  SDSM_REQUIRE(net_ != nullptr && net_->num_nodes() == config.num_nodes);
  SDSM_REQUIRE(config.local_node < config.num_nodes);
  // Only the hosted node gets a region + service thread; the rest of the
  // slots stay null so stray cross-node access trips node()'s check
  // instead of silently reading another process's memory.
  nodes_.resize(config.num_nodes);
  nodes_[config.local_node] = std::make_unique<DsmNode>(*this,
                                                        config.local_node);
  local_ids_.push_back(config.local_node);
}

DsmRuntime::~DsmRuntime() {
  // Stop exactly the services hosted here: in process mode a blanket
  // stop_all_services() would shoot down peers that are still serving
  // their own teardown-time fetches.
  for (const NodeId n : local_ids_) net_->stop_service(n);
  for (auto& node : nodes_) {
    if (node != nullptr && node->service_thread_.joinable()) {
      node->service_thread_.join();
    }
  }
}

void DsmRuntime::run(const std::function<void(DsmNode&)>& body) {
  running_ = true;
  std::vector<std::thread> workers;
  workers.reserve(local_ids_.size());
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    workers.emplace_back([&body, &node] {
      body(*node);
      // Still on the node's compute thread, with every peer's service
      // thread alive: the only safe point to settle a prefetch the body's
      // early exit left on the wire.
      node->drain_prefetch();
    });
  }
  for (auto& t : workers) t.join();
  running_ = false;
}

void DsmRuntime::grow_page_tables() {
  const std::size_t pages = (heap_.used() + page_size() - 1) / page_size();
  for (auto& node : nodes_) {
    if (node != nullptr) node->pages_.resize(pages);
  }
}

void DsmRuntime::reset_stats() {
  stats_.reset();
  net_->stats().reset();
}

void DsmNode::reset_for_reuse() {
  // No compute thread exists and the fabric is quiescent (reset_arena's
  // contract), so the compute-thread-private state can be reset from the
  // host thread.
  SDSM_REQUIRE(prefetch_.empty());
  region_.reset(vm::Prot::kRead);
  // The heap is empty again; alloc_global regrows the table with default
  // metadata, which matches the freshly reset protections.
  pages_.clear();
  vc_ = VectorClock(rt_.config().num_nodes);
  applied_vc_ = VectorClock(rt_.config().num_nodes);
  dirty_pages_.clear();
  schedules_.clear();
  // Warm engines must not carry census or directory state from one job
  // into the next.
  if (policy_) policy_->reset();
  invalid_pages_ = 0;
  {
    std::lock_guard<std::mutex> g(meta_mu_);
    table_.assign(rt_.config().num_nodes, MetaLog{});
    diff_store_.clear();
    diff_store_bytes_ = 0;
    last_seen_vc_.assign(rt_.config().num_nodes,
                         VectorClock(rt_.config().num_nodes));
    lock_homes_.clear();
    barrier_mgr_ = BarrierMgr{};
    fence_waiters_.clear();
  }
  {
    std::lock_guard<std::mutex> g(inbox_mu_);
    inbox_.clear();
  }
}

void DsmRuntime::reset_arena() {
  SDSM_REQUIRE_MSG(!running_, "reset_arena: run() is active");
  for (auto& node : nodes_) {
    if (node != nullptr) node->reset_for_reuse();
  }
  heap_.reset();
}

}  // namespace sdsm::core
