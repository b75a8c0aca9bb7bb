// Experiment harness: runs application variants and prints rows shaped like
// the paper's Tables 1 and 2 (time, speedup, messages, data volume), plus a
// machine-readable JSON document (write_json) so successive changes can diff
// benchmark trajectories mechanically.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/common/stats.hpp"

namespace sdsm::harness {

struct Row {
  std::string group;    ///< e.g. "Every 12 iterations (seq = 1.23 s)"
  std::string variant;  ///< "CHAOS" | "Tmk base" | "Tmk optimized"
  double seconds = 0;
  double speedup = 0;
  std::uint64_t messages = 0;
  double megabytes = 0;
  /// Inspector time (CHAOS) or indirection-scan time (Tmk), per node.
  double overhead_seconds = 0;
  std::string note;
  /// The sequential baseline that `speedup` was computed against
  /// (speedup = seq_seconds / seconds).  Recorded per row so the
  /// denominator of every speedup in a bench JSON is auditable instead of
  /// implied.  Kept after `note` so existing positional initializers stay
  /// valid.
  double seq_seconds = 0;
  /// Shape of the workload's indirection structure (CSR rows): total
  /// flattened references and the longest row.  Zero for rows that are not
  /// kernel runs.  Recorded so degree skew — and what padding it would
  /// cost a fixed-arity layout — is auditable from the bench JSON alone.
  std::uint64_t refs = 0;
  std::uint64_t max_row = 0;
  /// Reduction-round schedule the run used ("serial" | "tournament"; "-"
  /// where the notion does not apply, e.g. CHAOS rows).
  std::string schedule = "-";
  /// Global barriers per timed step per node — the deterministic metric
  /// the round schedules are compared by (timing on a 1-core shared
  /// runner is oversubscribed noise; barrier and message counts are not).
  double barriers_per_step = 0;
  /// Item-list rebuilds over the run (inspector runs / Read_indices
  /// refreshes, warmup included).  Frontier workloads rebuild every step,
  /// so this column is what makes rebuild-heavy rows auditable in the
  /// bench trajectory; static structures report 1.
  std::int64_t rebuilds = 0;
  /// Serving-layer throughput: completed jobs per wall-clock second over
  /// the row's job stream.  Zero for non-serving rows (omitted from the
  /// printed table; the JSON carries it).  Appended after `rebuilds` so
  /// existing positional initializers stay valid.
  double jobs_per_sec = 0;
  /// Schedule-cache hits the row's job stream scored (serving rows only).
  /// Deterministic when the stream runs on one worker, so it is an exact
  /// gate column like messages.
  std::int64_t cache_hits = 0;
  /// Per-node wall time in the diff hot paths (Tmk rows; zero on CHAOS and
  /// non-kernel rows): twin-vs-page scans and Diff::apply loops.  The
  /// columns the --diff-engine A/B moves — its traffic is byte-identical
  /// by construction.
  double diff_create_seconds = 0;
  double diff_apply_seconds = 0;
  /// The DSM protocol counters of a row built from a KernelResult (all
  /// zero on CHAOS); every counter becomes a JSON column.  Empty on rows
  /// that are not kernel runs (serving, fault latency), which emit none.
  std::optional<DsmStats::Snapshot> tmk = std::nullopt;
};

class Table {
 public:
  Table(std::string title, std::vector<std::string> extra_columns = {});

  void add(Row row);
  const std::vector<Row>& rows() const { return rows_; }

  /// Paper-style fixed-width table.
  void print(std::ostream& os) const;

  /// The table as a JSON document: {"title": ..., "schema": [...],
  /// "rows": [{...}, ...]}.  The schema lists every gated column as
  /// {name, unit, gate}: the row-level ones, then the DSM counters.
  void print_json(std::ostream& os) const;

  /// Writes print_json() to `path` (e.g. BENCH_api.json).  Returns false
  /// when the file cannot be opened.
  bool write_json(const std::string& path) const;

 private:
  std::string title_;
  std::vector<Row> rows_;
};

/// speedup = seq / parallel, guarded against zero.
double speedup(double seq_seconds, double par_seconds);

}  // namespace sdsm::harness
