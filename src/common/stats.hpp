// Run statistics gathered by the DSM runtime.
//
// Counters are plain atomics: they are bumped from compute threads, service
// threads, and SIGSEGV handlers, so they must be lock-free and
// async-signal-safe (std::atomic<uint64_t> on x86-64 is both).
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

namespace sdsm {

/// A named monotonically increasing counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t get() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// The DSM protocol counters, declared once: X(name, unit, gate).  The list
// generates DsmStats's atomic fields, its Snapshot's plain fields, and
// kDsmCounters, which everything downstream loops over (snapshot arithmetic,
// the worker report codec, the bench JSON columns and their schema).  A new
// counter is one line here plus its bump site.
//
//   unit  count | B | ns
//   gate  how bench/compare_bench.py treats the column: `exact` counts must
//         match to the digit under --exact; `lower` timers are
//         direction-aware in the plain pass and ignored by --exact.
//
// Timers are wall ns summed over nodes.  Network traffic is not here:
// net::NetStats counts every message and byte on the fabric.
#define SDSM_DSM_COUNTERS(X)                                                  \
  X(read_faults, count, exact)       /* SIGSEGV-driven page fetches */        \
  X(write_faults, count, exact)      /* SIGSEGV-driven twin creations */      \
  X(diffs_created, count, exact)                                              \
  X(diffs_applied, count, exact)                                              \
  X(diff_bytes, B, exact)            /* bytes of encoded diffs shipped */     \
  X(whole_pages, count, exact)       /* WRITE_ALL pages shipped whole */      \
  X(twins_created, count, exact)                                              \
  X(pages_invalidated, count, exact)                                          \
  X(validate_calls, count, exact)                                             \
  X(validate_recomputes, count, exact) /* Read_indices executions */          \
  X(pages_prefetched, count, exact)  /* fetched via Validate aggregation */   \
  X(cross_prefetch_posts, count, exact) /* posted at sync exit */             \
  X(cross_prefetch_pages, count, exact) /* pages those posts requested */     \
  /* Every post ends as exactly one consume (completed at first use: */       \
  /* validate, fault or sync op) or one drain (completed at teardown */       \
  /* after an early exit left it in flight): posts == consumes + drains. */   \
  X(cross_prefetch_consumes, count, exact)                                    \
  X(cross_prefetch_drains, count, exact)                                      \
  X(mprotect_calls, count, exact)    /* syscalls after batching */            \
  X(lock_acquires, count, exact)                                              \
  X(barriers, count, exact)          /* one per node per barrier */           \
  X(gc_runs, count, exact)           /* diff-store collections completed */   \
  X(gc_pages_flushed, count, exact)  /* pages force-fetched by GC flushes */  \
  /* Adaptive coherence (src/coherence/): all zero under the static */        \
  /* policy.  migrations is always 0 (the migrate class was deleted); */      \
  /* it stays because bench/suite/bench_suite.cpp reports it. */              \
  X(replications, count, exact)      /* notices with an inline diff */        \
  X(migrations, count, exact)        /* always 0, see above */                \
  X(ghost_promotions, count, exact)  /* schedules promoted to ghost zones */  \
  X(scan_ns, ns, lower)              /* inside Read_indices */                \
  X(t_barrier_ns, ns, lower)         /* barrier(): close + trip + apply */    \
  X(t_fetch_ns, ns, lower)           /* fetch_pages(): plan + wait + apply */ \
  X(t_close_ns, ns, lower)           /* close_interval() */                   \
  X(t_metas_ns, ns, lower)           /* process_metas() */                    \
  X(t_wait_ns, ns, lower)            /* fetch_pages(): blocked on replies */  \
  X(diff_create_ns, ns, lower)       /* twin-vs-page scans */                 \
  X(diff_apply_ns, ns, lower)        /* Diff::apply loops */

/// Protocol statistics for one runtime: the faults, diffs and Validate
/// calls behind the paper's Tables 1 and 2, plus phase timers.
struct DsmStats {
#define SDSM_STATS_FIELD(name, unit, gate) Counter name;
  SDSM_DSM_COUNTERS(SDSM_STATS_FIELD)
#undef SDSM_STATS_FIELD

  /// Point-in-time copy of every counter.  Subtracting two snapshots scopes
  /// the stats to the interval between them, so a long-lived runtime (the
  /// serving layer) can attribute protocol work to individual jobs without
  /// destroying process-lifetime totals the way reset() does; adding them
  /// folds per-worker windows into one job.
  struct Snapshot {
#define SDSM_SNAPSHOT_FIELD(name, unit, gate) std::uint64_t name = 0;
    SDSM_DSM_COUNTERS(SDSM_SNAPSHOT_FIELD)
#undef SDSM_SNAPSHOT_FIELD

    Snapshot& operator+=(const Snapshot& rhs);
    Snapshot operator-(const Snapshot& rhs) const;
  };

  /// Only meaningful at quiescent points (no node thread mid-operation).
  Snapshot snapshot() const;
  void reset();
};

/// One entry of SDSM_DSM_COUNTERS, with where it lives in both structs.
struct DsmCounter {
  std::string_view name;
  std::string_view unit;
  std::string_view gate;  ///< "exact" | "lower"
  Counter DsmStats::*live;
  std::uint64_t DsmStats::Snapshot::*value;
};

inline constexpr DsmCounter kDsmCounters[] = {
#define SDSM_COUNTER_ENTRY(name, unit, gate) \
  {#name, #unit, #gate, &DsmStats::name, &DsmStats::Snapshot::name},
    SDSM_DSM_COUNTERS(SDSM_COUNTER_ENTRY)
#undef SDSM_COUNTER_ENTRY
};

inline DsmStats::Snapshot& DsmStats::Snapshot::operator+=(
    const Snapshot& rhs) {
  for (const DsmCounter& c : kDsmCounters) this->*c.value += rhs.*c.value;
  return *this;
}

inline DsmStats::Snapshot DsmStats::Snapshot::operator-(
    const Snapshot& rhs) const {
  Snapshot d;
  for (const DsmCounter& c : kDsmCounters) {
    d.*c.value = this->*c.value - rhs.*c.value;
  }
  return d;
}

inline DsmStats::Snapshot DsmStats::snapshot() const {
  Snapshot s;
  for (const DsmCounter& c : kDsmCounters) s.*c.value = (this->*c.live).get();
  return s;
}

inline void DsmStats::reset() {
  for (const DsmCounter& c : kDsmCounters) (this->*c.live).reset();
}

}  // namespace sdsm
